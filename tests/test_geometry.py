import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polyproj import ConstraintSystem, geometry
from polyproj.chm import chm_project
from polyproj.geometry import (
    AffineEmbedding,
    BasisSimplex,
    DegenerateInput,
    Known,
    UnboundedProjection,
    basis_simplex,
    capped,
    find_vertex,
    is_implied,
    minimize_image,
    pad_objective,
    project_image,
    reduce_system,
)
from polyproj.linalg import rref
from polyproj.lp import (INFEASIBLE, UNBOUNDED, Face, InfeasibleSystem, lp_minimize,
                         normalize_face)
from polyproj.rationals import dot
from polyproj.redundancy import prune_redundant
from polyproj.scenarios import parse_scenario

from .oracles import (affine_rank, brute_vertices, equality_rows, exact_point, rational_point,
                      satisfies, solve_linear, staged_basis_simplex)
from .test_afi import CUBE, _hull_of


def cube(dim, lo=0, hi=1):
    rows = []
    for k in range(dim):
        e = [0] * dim
        e[k] = 1
        rows.append((tuple(e), lo))
        rows.append((tuple(-v for v in e), -hi))
    return ConstraintSystem.from_rows(rows, dim)


def simplex3():
    return ConstraintSystem.from_rows(
        [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -1)], 3
    )


def test_is_implied():
    sq = cube(2)
    assert is_implied(sq, ((1, 1), 0))
    assert is_implied(sq, ((1, 0), 0))
    assert not is_implied(sq, ((1, 0), 1))  # tightened copy is not implied
    assert not is_implied(sq, ((1, 1), 1))


def test_is_implied_vacuous_on_infeasible():
    bad = ConstraintSystem.from_rows([((1,), 1), ((-1,), 0)], 1)
    assert is_implied(bad, ((1,), 100))


def test_capped_bounds_cones_only():
    orthant = ConstraintSystem.from_rows([((1, 0), 0), ((0, 1), 0)], 2)
    triangle = capped(orthant, 2)
    assert len(triangle) == 3
    assert triangle.rows[-1] == Face((-1, -1), -1)
    assert capped(triangle, 2) is triangle
    bounded = ConstraintSystem.from_rows([((1, 0), -1)], 2)
    assert capped(bounded, 1) is bounded


def test_remove_redundancies_keeps_facets():
    sq = cube(2)
    padded = sq.with_rows([((1, 1), 0), ((1, 0), -5)])
    cleaned = prune_redundant(padded, use_float=False)
    assert set(cleaned.rows) == set(sq.rows)


def test_find_vertex_on_cube_face():
    sq = cube(2)
    v = rational_point(find_vertex(sq, 2, (1, 0)))  # minimize x
    assert v in {(0, 0), (0, 1)}
    # the result must be a vertex: exactly 2 tight independent rows
    tight = [row for row in sq.rows if dot(row.f, v) == row.b]
    assert len(tight) >= 2


def test_find_vertex_on_cone_apex():
    orthant = ConstraintSystem.from_rows([((1, 0), 0), ((0, 1), 0)], 2)
    assert find_vertex(orthant, 2, (1, 1)) == exact_point((0, 0))


def test_find_vertex_unbounded():
    orthant = ConstraintSystem.from_rows([((1, 0), 0), ((0, 1), 0)], 2)
    with pytest.raises(UnboundedProjection):
        find_vertex(orthant, 2, (-1, -1))
    # unbounded along a later lexicographic stage as well
    strip = ConstraintSystem.from_rows([((1, 0), 0), ((-1, 0), -1)], 2)
    with pytest.raises(UnboundedProjection):
        find_vertex(strip, 2, (1, 0))


def test_find_vertex_infeasible():
    bad = ConstraintSystem.from_rows([((1,), 1), ((-1,), 0)], 1)
    with pytest.raises(InfeasibleSystem):
        find_vertex(bad, 1, (1,))


def _inside(system, point):
    return all(dot(row.f, rational_point(point)) >= row.b for row in system.rows)


def test_basis_simplex_full_dimensional():
    bs = basis_simplex(cube(3), 3)
    assert bs.rank == 3
    assert len(bs.points) == 4
    assert all(_inside(cube(3), p) for p in bs.points)
    # the points span R^3 affinely
    base = rational_point(bs.base)
    diffs = [[a - b for a, b in zip(rational_point(p), base)] for p in bs.points[1:]]
    assert len(rref(diffs)[1]) == 3


def test_basis_simplex_flat():
    flat = cube(2).with_rows(equality_rows((1, 1), 1))
    bs = basis_simplex(flat, 2)
    assert bs.rank == 1
    assert len(bs.points) == 2
    # two distinct points of the segment x + y = 1
    assert bs.points[0] != bs.points[1]
    for p in bs.points:
        assert _inside(flat, p) and dot((1, 1), rational_point(p)) == 1


def test_basis_simplex_on_cone_uses_cap():
    # basis_simplex needs a bounded image; project_image caps the cone
    # before it computes the basis simplex and hands the capped system on
    orthant = ConstraintSystem.from_rows(
        [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)], 3
    )
    with pytest.raises(UnboundedProjection):
        basis_simplex(orthant, 3)
    seen = []

    def full_dim(work, r, bs, group, known):
        seen.append(work)
        assert bs.rank == 3
        return [Face((1, 0, 0), 0), Face((-1, -1, -1), -1)], bs.points

    facets, vertices = project_image(orthant, 3, full_dim)
    assert set(vertices) == set(map(exact_point, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert [work.rows for work in seen] == [capped(orthant, 3).rows]
    assert seen[0].rows[-1] == Face((-1, -1, -1), -1)
    assert facets == [Face((1, 0, 0), 0)]  # the cap's facet is dropped


def test_projection_of_simplex_is_lower_simplex():
    bs = basis_simplex(simplex3(), 2)
    assert bs.rank == 2
    for p in bs.points:
        assert len(rational_point(p)) == 2


def _basis_simplex_case(name):
    """(system, d) for the basis-simplex cases above, plus a Bell scenario."""
    if name == "bell":
        bundle = parse_scenario("bell:2x2:body=1,2")
        return bundle.system, bundle.scenario.d
    orthant = ConstraintSystem.from_rows(
        [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)], 3)
    return {"cube": (cube(3), 3), "flat": (cube(2).with_rows(equality_rows((1, 1), 1)), 2),
            "cone": (orthant, 3), "simplex": (simplex3(), 2)}[name]


def _fresh(system):
    """The same system without its cached transpose and tableau."""
    return ConstraintSystem(system.rows, system.dim, system.names)


@pytest.mark.parametrize("vertices", [False, True])
@pytest.mark.parametrize("name", ["cube", "flat", "cone", "simplex", "bell"])
def test_basis_simplex_equals_the_probe_every_candidate_loop(name, vertices):
    # deciding each candidate by its stage-1 value, and skipping +e_0, keeps
    # the points of the loop that probes every candidate, with either probe
    system, d = _basis_simplex_case(name)

    def probe_on(work):
        if vertices:
            return lambda c: rational_point(find_vertex(work, d, c))
        return lambda c: minimize_image(work, c).x[:d]

    work = capped(_fresh(system), d)  # each side solves on its own caches
    probe = (lambda c: find_vertex(work, d, c)) if vertices else None
    got = basis_simplex(work, d, probe=probe).points
    staged = staged_basis_simplex(probe_on(capped(_fresh(system), d)), d)
    assert got == [exact_point(p) for p in staged]


@pytest.mark.parametrize("system, d", [
    (CUBE, 3),
    pytest.param(*_basis_simplex_case("bell"), id="bell:2x2:body=1,2"),
])
def test_vertex_probes_run_tie_stages_only_for_kept_points(monkeypatch, system, d):
    # one tie-stage LP for x0 and one for each kept point; a failing
    # candidate costs one value-only LP, and +e_0 is solved once, for x0
    calls = []

    def counted(system, objective, *, ties=(), want_point=True):
        calls.append((tuple(objective), bool(ties)))
        return lp_minimize(system, objective, ties=ties, want_point=want_point)

    monkeypatch.setattr(geometry, "lp_minimize", counted)
    work = capped(_fresh(system), d)
    bs = basis_simplex(work, d, probe=lambda c: find_vertex(work, d, c))
    assert sum(tied for _, tied in calls) == bs.rank + 1
    e0 = tuple(pad_objective((1,), work.dim))
    assert [c for c, _ in calls].count(e0) == 1


def _spy_objectives(monkeypatch):
    """The objectives of every exact LP the geometry module solves."""
    seen = []

    def counted(system, objective, **kwargs):
        seen.append(tuple(objective))
        return lp_minimize(system, objective, **kwargs)

    monkeypatch.setattr(geometry, "lp_minimize", counted)
    return seen


@pytest.mark.parametrize("probed", [False, True])
def test_known_vertices_and_flat_normal_spare_the_facets_lps(monkeypatch, probed):
    # each facet of the cube, with the cube's vertices on it known: the flat
    # normal is recorded and the vertices span the rest, so only x0's LP runs
    seen = _spy_objectives(monkeypatch)
    corners = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    for facet in CUBE.rows:
        sub = _fresh(CUBE).with_rows([-facet])
        probe = (lambda c, sub=sub: find_vertex(sub, 3, c)) if probed else None
        on = tuple(exact_point(p) for p in corners if dot(facet.f, p) == facet.b)
        del seen[:]
        bs = basis_simplex(sub, 3, probe=probe, known=Known(on, (facet.f,)))
        assert bs.rank == 2
        assert seen == [(1, 0, 0)]


def test_a_known_flat_normal_is_never_solved(monkeypatch):
    # knowing only the normal still spares both of its LPs
    seen = _spy_objectives(monkeypatch)
    for facet in CUBE.rows:
        del seen[:]
        sub = _fresh(CUBE).with_rows([-facet])
        assert basis_simplex(sub, 3, known=Known(flat=(facet.f,))).rank == 2
        assert not any(geometry._parallel(c, facet.f) for c in seen[1:])


def _facets_with_vertices(name, rng):
    """(capped system, d, a few random facets, vertices of the image found
    by probes along random directions, on and off those facets)."""
    if name == "cube":
        system, d, facets = CUBE, 3, list(CUBE.rows)
    else:
        bundle = parse_scenario(name)
        system, d = bundle.system, bundle.scenario.d
        facets = chm_project(system, d).facets
    work = capped(system, d)
    facets = rng.sample(facets, min(4, len(facets)))

    def direction():
        return tuple(rng.randint(-3, 3) or 1 for _ in range(d))

    vertices = [find_vertex(work, d, direction()) for _ in range(4)]
    for facet in facets:
        sub = work.with_rows([-facet])
        vertices += [find_vertex(sub, d, direction()) for _ in range(3)]
    return work, d, facets, vertices


@pytest.mark.parametrize("name", ["cube", "elemental:3", "bell:2x2:body=1,2"])
@pytest.mark.parametrize("seed", [0, 1])
def test_seeded_basis_simplex_spans_the_facet_like_the_unseeded(name, seed):
    # known vertices and the flat normal change the points, not the hull:
    # the same rank, the same chart, and every point on the facet
    work, d, facets, vertices = _facets_with_vertices(name, random.Random(seed))
    for facet in facets:
        sub = work.with_rows([-facet])
        known = Known(tuple(p for p in vertices
                            if dot(facet.f, rational_point(p)) == facet.b), (facet.f,))
        assert known.vertices
        probe = lambda c, sub=sub: find_vertex(sub, d, c)  # noqa: E731
        seeded = basis_simplex(sub, d, probe=probe, known=known)
        plain = basis_simplex(sub, d, probe=probe)
        assert seeded.rank == plain.rank == d - 1
        assert AffineEmbedding.chart(seeded) == AffineEmbedding.chart(plain)
        assert all(dot(facet.f, rational_point(p)) == facet.b for p in seeded.points)


def _lift(emb, y):
    """The ambient point of chart coordinates y: the one point of the hull
    with x[free] = y, solved by the oracle."""
    rows = [eq.f for eq in emb.equations] + \
        [tuple(int(j == i) for j in range(emb.ambient_dim)) for i in emb.free]
    return tuple(solve_linear(rows, [eq.b for eq in emb.equations] + list(y)))


# the plane through (1, 2, 3) spanned by (1, 1, 0) and (0, 0, 2): x0 - x1 = -1
PLANE = BasisSimplex([exact_point(p) for p in [(1, 2, 3), (2, 3, 3), (1, 2, 5)]])


def test_embedding_round_trip():
    emb = AffineEmbedding.chart(PLANE)
    assert emb.reduced_dim == 2
    for y in [(0, 0), (1, 0), (2, -3)]:
        x = _lift(emb, y)
        assert x[0] - x[1] == -1
        assert emb.embed_point(exact_point(x)) == exact_point(y)
    with pytest.raises(DegenerateInput):
        emb.embed_point(exact_point((0, 0, 0)))


def test_embedding_face_round_trip():
    emb = AffineEmbedding.chart(PLANE)
    face = ((3, -1), 4)
    lifted = emb.lift_face(face)
    # the lifted face must reduce back to a positive multiple of the original
    back_f, back_b = reduce_system(ConstraintSystem.from_rows([lifted], 3), 3, emb).rows[0]
    assert back_f[0] * face[0][1] == back_f[1] * face[0][0]
    ratio_ok = any(back_f[k] != 0 for k in range(2))
    assert ratio_ok
    # and agree on sample points
    for y in [(0, 0), (2, 2), (-1, 5)]:
        lhs = dot(face[0], y) - face[1]
        x = _lift(emb, y)
        lhs_lift = dot(lifted[0], x) - lifted[1]
        assert (lhs > 0) == (lhs_lift > 0) and (lhs == 0) == (lhs_lift == 0)


def test_chart_equations_are_normalized_integer_faces():
    # the segment x0 = 1/2, x1 = 1/3 along x2: a hull with fractional e
    half, third = Fraction(1, 2), Fraction(1, 3)
    emb = AffineEmbedding.chart(BasisSimplex([exact_point((half, third, 0)),
                                              exact_point((half, third, 1))]))
    assert emb.equations == [Face((2, 0, 0), 1), Face((0, 3, 0), 1)]
    assert emb.pivots == [0, 1] and emb.free == [2]
    for eq, p in zip(emb.equations, emb.pivots):
        assert eq == normalize_face(eq.f, eq.b) and eq.f[p] > 0
    for y in [(0,), (1,), (Fraction(-5, 2),)]:
        x = _lift(emb, y)
        assert x == (half, third, y[0])
        assert emb.embed_point(exact_point(x)) == exact_point(y)
    lifted = emb.lift_face(((-1,), -1))
    assert lifted == Face((0, 0, -1), -1)
    assert reduce_system(ConstraintSystem.from_rows([lifted], 3), 3, emb).rows == (
        Face((-1,), -1),)
    # x0 + x1 + x2 >= 1 is x2 >= 1/6 on the segment
    assert reduce_system(ConstraintSystem.from_rows([((1, 1, 1), 1)], 3), 3, emb).rows == (
        Face((6,), 1),)


def test_lift_point_scales_d_for_a_pivot_coefficient_of_2():
    # a quadrilateral in the plane 2x + 3y + 4z = 12, whose chart solves for
    # x, of coefficient 2: the chart point (3, 2) lifts to x = -5/2, so D
    # doubles, and every vertex round-trips through the chart
    corners = [(6, 0, 0), (0, 4, 0), (0, 0, 3), (Fraction(-5, 2), 3, 2)]
    system = _hull_of(corners, homogeneous=False)
    emb = AffineEmbedding.chart(basis_simplex(system, 3))
    assert emb.equations == [Face((2, 3, 4), 12)] and emb.pivots == [0]
    assert emb.lift_point(exact_point((3, 2))) == (-5, 6, 4, 2)
    for p in map(exact_point, corners):
        assert emb.lift_point(emb.embed_point(p)) == p
    # CHM hulls the chart and lifts its points back: the four corners
    assert set(chm_project(system, 3).vertices) == set(map(exact_point, corners))


@pytest.mark.parametrize("ends", [(Fraction(1, 3), Fraction(1, 2)),
                                  (Fraction(1, 2), Fraction(1, 3))])
def test_segment_endpoints_are_ordered_by_value(ends):
    # 1/3 < 1/2, though the points (1, 3) and (1, 2) sort the other way
    bs = BasisSimplex([exact_point((e,)) for e in ends])
    assert geometry._endpoints(bs) == [Face((3,), 1), Face((-2,), -1)]
    segment = ConstraintSystem.from_rows([((3,), 1), ((-2,), -1)], 1)
    assert chm_project(segment, 1).facets == sorted([Face((3,), 1), Face((-2,), -1)])


@st.composite
def flat_polytope(draw):
    """Integer points spanning a flat polytope of rank r < d in R^d, and an
    inequality in its chart coordinates."""
    d = draw(st.integers(min_value=2, max_value=4))
    r = draw(st.integers(min_value=1, max_value=d - 1))
    small = st.integers(min_value=-3, max_value=3)
    base = draw(st.tuples(*[small] * d))
    dirs = draw(st.lists(st.tuples(*[small] * d), min_size=r, max_size=r))
    points = [base] + [tuple(b + v for b, v in zip(base, w)) for w in dirs]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        coefs = draw(st.tuples(*[small] * r))
        points.append(tuple(b + sum(c * w[i] for c, w in zip(coefs, dirs))
                            for i, b in enumerate(base)))
    assume(affine_rank(points) == r)
    face = draw(st.tuples(st.tuples(*[small] * r), small))
    return points, face


@settings(max_examples=60, deadline=None)
@example(([(0, 2), (3, 0), (6, -2)], ((1,), 2)))  # 2x + 3y = 6: no unit coefficient
@example(([(0, 2, 0), (3, 0, 0), (0, 2, 1), (3, 0, 2)], ((1, -1), 1)))
@example(([(1, 0, 2, 0), (2, 1, 2, 2), (1, 1, 5, 1), (3, 3, 5, 5)], ((2, 1), 3)))  # codim 2
@given(flat_polytope())
def test_chart_round_trips_on_flat_polytopes(case):
    points, face = case
    d, m = len(points[0]), len(points)
    system = _hull_of(points, homogeneous=False)
    emb = AffineEmbedding.chart(basis_simplex(system, d))
    assert emb.ambient_dim == d and emb.reduced_dim == affine_rank(points)
    # each equation is a normalized face solved for a positive coefficient
    # of least magnitude
    for eq, p in zip(emb.equations, emb.pivots):
        assert eq == normalize_face(eq.f, eq.b)
        assert eq.f[p] == min(abs(a) for a in eq.f if a)
    reduced = reduce_system(system, d, emb)
    lifted = emb.lift_face(face)
    for j, p in enumerate(points):
        y = rational_point(emb.embed_point(exact_point(p)))
        assert _lift(emb, y) == p
        assert emb.lift_point(exact_point(y)) == exact_point(p)
        # the reduced system holds at the chart image of (p, e_j)
        z = y + tuple(int(k == j) for k in range(m))
        assert all(dot(row.f, z) >= row.b for row in reduced.rows)
        # the lifted face agrees with the reduced one in sign on the hull
        assert (dot(face[0], y) - face[1] > 0) == (dot(lifted.f, p) - lifted.b > 0)
        assert (dot(face[0], y) == face[1]) == (dot(lifted.f, p) == lifted.b)
    back = reduce_system(ConstraintSystem.from_rows([lifted], d), d, emb).rows[0]
    assert back == normalize_face(*face) == emb.embed_face(lifted)
    # the chart is a bijection of R^r onto the hull: off the polytope too
    y = tuple(Fraction(a, 3) for a in face[0])
    x = emb.lift_point(exact_point(y))
    assert x == exact_point(_lift(emb, y)) and emb.embed_point(x) == exact_point(y)
    # an ambient face and its chart agree in sign at every point of the hull
    g = normalize_face(face[0] + (1,) * (d - len(face[0])), face[1])
    e = emb.embed_face(g)
    for p in points + [rational_point(x)]:
        y = rational_point(emb.embed_point(exact_point(p)))
        assert (dot(g.f, p) > g.b) == (dot(e.f, y) > e.b)
        assert (dot(g.f, p) == g.b) == (dot(e.f, y) == e.b)
    off = list(points[0])
    off[emb.pivots[0]] += 1
    with pytest.raises(DegenerateInput):
        emb.embed_point(exact_point(off))


@st.composite
def bounded_system(draw):
    dim = draw(st.integers(min_value=2, max_value=3))
    box = cube(dim, lo=-3, hi=3)
    extra = draw(
        st.lists(
            st.tuples(
                st.tuples(
                    *[st.integers(min_value=-3, max_value=3) for _ in range(dim)]
                ),
                st.integers(min_value=-6, max_value=0),
            ),
            max_size=4,
        )
    )
    return box.with_rows(extra), dim


@given(bounded_system())
def test_find_vertex_returns_actual_vertices(case):
    sys_, dim = case
    rows = [list(r.f) for r in sys_.rows]
    rhs = [r.b for r in sys_.rows]
    verts = set(brute_vertices(rows, rhs, dim))
    v = rational_point(find_vertex(sys_, dim, tuple([1] * dim)))
    assert satisfies(rows, rhs, v)
    assert tuple(v) in verts


def staged_find_vertex(system, d, direction):
    """The chain of d LPs that find_vertex replaces: minimize each stage,
    then pin its optimum with an equality before the next.  The stages are
    the direction and the unit vectors, less e_i for the first i with
    direction[i] != 0."""
    skip = next(i for i, a in enumerate(direction) if a)
    stages = [tuple(direction)] + [tuple(int(j == i) for j in range(d))
                                   for i in range(d) if i != skip]
    current, x = system, None
    for i, q in enumerate(stages):
        sol = lp_minimize(current, pad_objective(q, system.dim))
        if sol.status == UNBOUNDED:
            raise UnboundedProjection(f"stage {i}")
        if sol.status == INFEASIBLE:
            raise InfeasibleSystem("system is infeasible")
        x = sol.x
        current = current.with_rows(equality_rows(pad_objective(q, system.dim), sol.objective))
    return exact_point(x[:d])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (UnboundedProjection, InfeasibleSystem) as exc:
        return type(exc)


@st.composite
def projection_problem(draw):
    """d observed plus 0-2 hidden coordinates; optionally boxed, with random
    rows, a duplicate and a reversed row (unbounded and empty ones too)."""
    d = draw(st.integers(min_value=1, max_value=4))
    dim = d + draw(st.integers(min_value=0, max_value=2))
    small = st.integers(min_value=-3, max_value=3)
    rows = []
    if draw(st.booleans()):
        bound = st.integers(min_value=0, max_value=3)
        for k in range(dim):
            e = tuple(1 if j == k else 0 for j in range(dim))
            rows.append((e, -draw(bound)))
            rows.append((tuple(-v for v in e), -draw(bound)))
    rows += draw(st.lists(st.tuples(st.tuples(*[small] * dim),
                                    st.integers(min_value=-4, max_value=2)),
                          min_size=1, max_size=5))
    rows = [r for r in rows if any(r[0])] or [((1,) + (0,) * (dim - 1), 0)]
    if draw(st.booleans()):
        f, b = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
        rows += [(f, b), (tuple(-v for v in f), -b)]
    direction = draw(st.tuples(*[small] * d).filter(any))
    return ConstraintSystem.from_rows(rows, dim), d, direction


@settings(max_examples=150)
@given(projection_problem())
def test_find_vertex_equals_the_staged_loop(case):
    system, d, direction = case
    assert _outcome(find_vertex, system, d, direction) == \
        _outcome(staged_find_vertex, system, d, direction)
