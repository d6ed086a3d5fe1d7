import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from polyproj import afi, analysis, chm, epm, geometry, lp, redundancy, simplex
from polyproj.afi import (
    AfiConfig,
    BudgetExhausted,
    afi_project,
    rotate,
)
from polyproj.chm import chm_project
from polyproj.fme import fme_project
from polyproj.geometry import (
    AffineEmbedding,
    DegenerateInput,
    Known,
    UnboundedProjection,
    basis_simplex,
    capped,
    is_implied,
    reduce_system,
)
from polyproj.linalg import rref
from polyproj.lp import ConstraintSystem, Face, InfeasibleSystem, normalize_face
from polyproj.rationals import dot
from polyproj.scenarios import SymmetryGroup, parse_scenario

from .oracles import (brute_hull_facets, brute_projection_facets, brute_vertices,
                      reduced_row_echelon)

SQUARE = ConstraintSystem.from_rows(
    [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)], 2
)

CUBE = ConstraintSystem.from_rows(
    [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
     ((-1, 0, 0), -1), ((0, -1, 0), -1), ((0, 0, -1), -1)], 3
)


def random_polytope(rng, dim):
    points = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(dim + 4)]
    facets = brute_hull_facets(points)
    if not facets:
        return None, None
    return ConstraintSystem.from_rows(facets, dim), facets


def _rank(system, d, face):
    """Rank of the face a valid inequality cuts from the projection."""
    return basis_simplex(system.with_rows([-face]), d).rank


# ---------------------------------------------------------------- rotate


def test_rotate_square_adjacency():
    # start from the negated facet x <= 1 and pivot at the vertex (1, 1):
    # the other facet through that vertex is y <= 1
    g = Face((1, 0), 1)      # x >= 1: violated by the square
    s = Face((0, -1), -1)    # y <= 1: valid, orthogonal to g, tight at (1, 1)
    face, axis = rotate(SQUARE, g, s)
    assert face == Face((0, -1), -1)
    # the returned pair stays exactly orthogonal
    assert dot(face.f, axis.f) == 0


def test_rotate_cube_ridge():
    # negated facet z <= 1 with ridge {z = 1, x = 1}: the neighbor is x <= 1
    face, _ = rotate(CUBE, Face((0, 0, 1), 1), Face((-1, 0, 0), -1))
    assert face == normalize_face((-1, 0, 0), -1)


def test_rotate_rejects_bad_axes():
    with pytest.raises(ValueError):
        rotate(SQUARE, Face((1, 0), 0), Face((1, 1), 0))
    with pytest.raises(ValueError):
        rotate(SQUARE, Face((1, 0), 0), Face((0, 0), 0))


def _tight_vertices(face, vertices):
    return {v for v in vertices if dot(face.f, v) == face.b}


@pytest.mark.parametrize("seed", range(14))
def test_rotate_matches_brute_adjacency(seed):
    # every (facet, ridge) pair must rotate onto the unique second facet
    # through that ridge, per an exhaustive hull computation
    rng = random.Random(1000 + seed)
    system, facets = random_polytope(rng, 3)
    if system is None:
        pytest.skip("degenerate sample")
    verts = brute_vertices([f for f, _ in facets], [b for _, b in facets], 3)
    norm = [normalize_face(*f) for f in facets]
    for f in norm:
        tight_f = _tight_vertices(f, verts)
        for g in norm:
            if g == f:
                continue
            ridge = tight_f & _tight_vertices(g, verts)
            if len(ridge) < 2:  # 3D: a genuine ridge is an edge
                continue
            # build an axis through the ridge, orthogonal to f
            axis = _ridge_axis(f, g, ridge)
            neighbor, _ = rotate(system, -f, axis)
            assert neighbor == g, (f, g, neighbor)


def _ridge_axis(f, g, ridge):
    # component of g orthogonal to f, offset fixed at a ridge point
    lam_num = dot(g.f, f.f)
    lam_den = dot(f.f, f.f)
    coeffs = [lam_den * a - lam_num * b for a, b in zip(g.f, f.f)]
    point = next(iter(ridge))
    return normalize_face(coeffs, dot(coeffs, point))


# ---------------------------------------------------------------- seed facet


def _seed(system, d, seed):
    """The walk's seed facet for the image of ``system``."""
    work = capped(system, d)
    return afi._seed_facet(work, d, random.Random(seed))


def test_get_facet_segment_reduced():
    # segment x = y in the unit square: the image of d=2 is flat; charted
    # onto its affine hull, the seed facet comes back in the 1D chart
    segment = SQUARE.with_rows([Face((1, -1), 0), Face((-1, 1), 0)])
    emb = AffineEmbedding.chart(basis_simplex(capped(segment, 2), 2))
    face = _seed(reduce_system(segment, 2, emb), emb.reduced_dim, seed=0)
    assert len(face.f) == 1
    assert face.f[0] != 0


# ---------------------------------------------------------------- afi


def test_afi_square_depth1():
    assert afi_project(SQUARE, 2) == sorted(SQUARE.rows)


def test_afi_cube_shadow():
    # cube projected to 2D: the unit square
    facets = afi_project(CUBE, 2)
    assert facets == sorted(
        [Face((1, 0), 0), Face((0, 1), 0),
         normalize_face((-1, 0), -1), normalize_face((0, -1), -1)]
    )


def test_afi_depth0_is_chm():
    cfg = AfiConfig(depth=0)
    assert afi_project(CUBE, 2, cfg) == chm_project(CUBE, 2).facets


def test_afi_depth2():
    cfg = AfiConfig(depth=2)
    assert afi_project(CUBE, 3, cfg) == sorted(CUBE.rows)


def test_afi_flat_image_is_charted():
    # the segment x = y in the unit square: its facets are its endpoints,
    # found in the segment's 1D chart and lifted back to the plane
    segment = SQUARE.with_rows([Face((1, -1), 0), Face((-1, 1), 0)])
    out = afi_project(segment, 2)
    assert len(out) == 2
    for g in out:
        assert is_implied(segment, g)
    assert {_rank(segment, 2, g) for g in out} == {0}
    assert {tuple(dot(g.f, v) == g.b for v in [(0, 0), (1, 1)]) for g in out} == \
        {(True, False), (False, True)}
    point = ConstraintSystem.from_rows(
        [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)], 2
    )
    assert afi_project(point, 2) == []


def test_afi_homogeneous_cone():
    orthant = ConstraintSystem.from_rows(
        [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)], 3
    )
    facets = afi_project(orthant, 2)
    assert facets == [Face((0, 1), 0), Face((1, 0), 0)]


def test_afi_with_symmetry_group():
    # the square is symmetric under swapping the two coordinates
    group = SymmetryGroup(generators=((1, 0),), dim=2)
    assert afi_project(SQUARE, 2, AfiConfig(group=group)) == sorted(SQUARE.rows)


@pytest.mark.parametrize("seed", range(12))
def test_afi_completeness_random(seed):
    rng = random.Random(3000 + seed)
    dim = rng.choice([3, 4])
    d = dim - rng.choice([1, 2])
    system, facets = random_polytope(rng, dim)
    if system is None:
        pytest.skip("degenerate sample")
    expected = {
        normalize_face(*f)
        for f in brute_projection_facets(
            [f for f, _ in facets], [b for _, b in facets], dim, d
        )
    }
    if not expected:
        pytest.skip("flat shadow")
    got = afi_project(system, d, AfiConfig(seed=seed))
    assert set(got) == expected


@pytest.mark.parametrize("spec", ["cube", "elemental:3"])
def test_afi_computes_each_basis_simplex_once(monkeypatch, spec):
    # the driver computes each image's basis simplex once and hands it down:
    # no (system, d) pair is probed twice, whatever the probe
    if spec == "cube":
        system, d, group = CUBE, 3, None
    else:
        bundle = parse_scenario(spec)
        system, d, group = bundle.system, bundle.scenario.d, bundle.group
    seen = []  # keeps every probed system alive, so ids stay unique
    for module in (geometry, afi):
        def counted(work, dd, probe=None, known=Known(), _inner=module.basis_simplex):
            seen.append((work, dd))
            return _inner(work, dd, probe=probe, known=known)
        monkeypatch.setattr(module, "basis_simplex", counted)
    facets = afi_project(system, d, AfiConfig(group=group))
    assert facets
    keys = [(id(work), dd) for work, dd in seen]
    assert len(keys) == len(set(keys))


def test_afi_segments_reuse_the_driver_probes(monkeypatch):
    # at depth 2 each edge of the square is a segment: the driver's vertex
    # probes already give both endpoints, so neither the hull projector nor
    # a second vertex-probed basis simplex runs on the segment's chart (the
    # seed facet's rank check, with the default probe, is not counted), and
    # no hull is built: the driver answers each segment
    segments, hulls = [], []
    for module in (geometry, afi):
        def counted(work, dd, probe=None, known=Known(), _inner=module.basis_simplex):
            bs = _inner(work, dd, probe=probe, known=known)
            if bs.rank == 1 and probe is not None:
                segments.append(work)
            return bs
        monkeypatch.setattr(module, "basis_simplex", counted)

    def counted_chm(*args, _inner=afi.chm_project, **kwargs):
        hulls.append(args)
        return _inner(*args, **kwargs)

    monkeypatch.setattr(afi, "chm_project", counted_chm)
    facets = afi_project(SQUARE, 2, AfiConfig(depth=2))
    assert facets == chm_project(SQUARE, 2).facets
    assert len(segments) <= len(facets) and hulls == []


RAY = ConstraintSystem.from_rows([((1, -1), 0), ((-1, 1), 0), ((1, 0), 0)], 2)


@pytest.mark.parametrize("system, d, expected", [
    # the segment x = y in the unit square, charted onto y and lifted back
    (SQUARE.with_rows([Face((1, -1), 0), Face((-1, 1), 0)]), 2,
     [Face((0, -1), -1), Face((0, 1), 0)]),
    (SQUARE, 1, [Face((-1,), -1), Face((1,), 0)]),
    # the ray x = y >= 0: capped, a segment, whose cap facet is dropped
    (RAY, 2, [Face((0, 1), 0)]),
], ids=["flat", "d=1", "ray"])
def test_segments_are_decided_by_the_driver(monkeypatch, system, d, expected):
    # a segment's facets are its endpoints, which the driver's vertex probes
    # find, so neither CHM nor the walk at any depth builds a hull for it
    hulls = []

    def spy(points, _inner=chm.IncrementalHull):
        hulls.append(points)
        return _inner(points)

    monkeypatch.setattr(chm, "IncrementalHull", spy)
    assert chm_project(system, d).facets == expected
    for depth in (0, 1, 2):
        assert afi_project(system, d, AfiConfig(depth=depth)) == expected
    assert hulls == []
    for face in expected:
        assert is_implied(system, face)


@pytest.mark.parametrize("spec, rotations", [("cube", 5), ("bell:2x2:body=1,2", 3)])
def test_walk_rotates_once_per_new_facet_orbit(monkeypatch, spec, rotations):
    # a ridge whose neighbor is already found is named by the pencil test,
    # so a complete walk rotates only to reach each facet orbit after the
    # seed's (a cone's cap facet is walked like any other)
    if spec == "cube":
        system, d, group = CUBE, 3, None
    else:
        bundle = parse_scenario(spec)
        system, d, group = bundle.system, bundle.scenario.d, bundle.group
    expected = chm_project(system, d, group=group).facets
    calls = []

    def counted(*args, _inner=afi.rotate):
        calls.append(args)
        return _inner(*args)

    monkeypatch.setattr(afi, "rotate", counted)
    assert afi_project(system, d, AfiConfig(group=group)) == expected
    assert len(calls) == rotations


def test_walk_asserts_on_a_found_neighbor_the_pencil_test_missed(monkeypatch):
    # blinded, the reduced faces are doubled, so no ridge (a normalized
    # face) is among them, though each is still valid on the ridge
    # subproblem: a ridge of an explored facet's neighbor then rotates back
    # onto a found facet, which the walk refuses
    def blinded(facet, _inner=afi._reducer):
        reduce = _inner(facet)
        return lambda g: Face(tuple(2 * a for a in reduce(g).f), 2 * reduce(g).b)

    monkeypatch.setattr(afi, "_reducer", blinded)
    with pytest.raises(AssertionError, match="pencil"):
        afi_project(CUBE, 3)


def _pencil_rank(*faces):
    return len(reduced_row_echelon([f.f + (f.b,) for f in faces])[0])


_small_ints = st.integers(-3, 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    *[st.lists(_small_ints, min_size=n + 1, max_size=n + 1) for _ in range(3)])),
    _small_ints, _small_ints)
def test_pencil_matches_a_rank_oracle(vectors, alpha, beta):
    # the walk's neighbor lookup: modulo the facet g, a face reduces like h
    # exactly when it lies in the pencil of g and h on h's side
    g, h, phi = (normalize_face(v[:-1], v[-1]) for v in vectors)
    assume(len(reduced_row_echelon([g.f, h.f])[0]) == 2)
    reduce = afi._reducer(g)
    pivot = next(i for i, a in enumerate(g.f) if abs(a) == min(abs(x) for x in g.f if x))
    assert reduce(h).f[pivot] == 0 and reduce(reduce(h)) == reduce(h)
    if _pencil_rank(g, h, phi) == 3:
        assert reduce(phi) != reduce(h)
    combined = normalize_face([alpha * x + beta * y for x, y in zip(g.f, h.f)],
                              alpha * g.b + beta * h.b)
    assert (reduce(combined) == reduce(h)) == (beta > 0)
    # parallel to a face of the pencil but offset: a different hyperplane
    assert reduce(Face(h.f, h.b + 1)) != reduce(h)
    assert reduce(Face(g.f, g.b + 1)) != reduce(h)


def _hull_of(points, homogeneous):
    """x = sum_j lam_j p_j with lam >= 0 (and sum_j lam_j = 1 unless
    ``homogeneous``) as a system over (x, lam): its image in the first
    len(p) coordinates is the cone, or polytope, the points generate."""
    n, m = len(points[0]), len(points)
    rows = []
    for i in range(n):
        row = tuple(int(k == i) for k in range(n)) + tuple(-p[i] for p in points)
        rows += [(row, 0), (tuple(-a for a in row), 0)]
    rows += [(tuple(int(k == n + j) for k in range(n + m)), 0) for j in range(m)]
    if not homogeneous:
        ones = (0,) * n + (1,) * m
        rows += [(ones, 1), (tuple(-a for a in ones), -1)]
    return ConstraintSystem.from_rows(rows, n + m)


def _flat_cone(seed):
    """A cone of rank 2-3 in R^4 or R^5, generated by nonnegative integer
    vectors: nonnegative combinations of r nonnegative basis vectors."""
    rng = random.Random(seed)
    while True:
        n, r = rng.choice([4, 5]), rng.choice([2, 3])
        basis = [[rng.randint(0, 2) for _ in range(n)] for _ in range(r)]
        gens = [tuple(sum(c * b[i] for c, b in zip(coefs, basis)) for i in range(n))
                for coefs in ([rng.randint(0, 2) for _ in range(r)]
                              for _ in range(r + rng.randint(1, 2)))]
        if all(any(g) for g in gens) and len(rref(gens)[1]) == r:
            return _hull_of(gens, homogeneous=True), n


@pytest.mark.parametrize("case", [f"cone-{seed}" for seed in range(6)] + ["polytope"])
def test_flat_images_share_the_chart(case):
    # CHM and the walk at depths 1 and 2 chart a flat image the same way, so
    # they lift the same facets back; each is a facet of the image
    if case == "polytope":
        # a quadrilateral in a plane of R^4, off the origin, with one
        # generator inside it
        system = _hull_of([(1, 0, 2, 1), (3, 2, 2, 3), (1, 2, 6, 3), (3, 3, 4, 4),
                           (2, 2, 4, 3)], homogeneous=False)
        d = 4
    else:
        system, d = _flat_cone(int(case.split("-")[1]))
    work = capped(system, d)
    r = basis_simplex(work, d).rank
    assert r < d
    facets = chm_project(system, d).facets
    assert facets
    assert afi_project(system, d, AfiConfig(depth=1)) == facets
    assert afi_project(system, d, AfiConfig(depth=2)) == facets
    for face in facets:
        assert is_implied(system, face.pad(system.dim))
        assert _rank(work, d, face.pad(system.dim)) == r - 1


def test_bell_2x2_ridge_charts_stay_small_integer(monkeypatch):
    # the walk's facet subproblems are charted by solving each hull
    # equation for a unit coefficient, so the reduced systems keep the
    # input's small integers and every tableau stays int64
    coeffs, object_pivots = [], []

    def reduce(system, d, emb, _inner=geometry.reduce_system):
        out = _inner(system, d, emb)
        coeffs.extend(abs(a) for row in out.rows for a in row.f)
        return out

    def pivot(tab, r, s, _inner=simplex._Tableau.pivot):
        _inner(tab, r, s)
        if tab.N.dtype == object:
            object_pivots.append((r, s))

    monkeypatch.setattr(geometry, "reduce_system", reduce)
    monkeypatch.setattr(simplex._Tableau, "pivot", pivot)
    bundle = parse_scenario("bell:2x2:body=1,2")
    afi_project(bundle.system, bundle.scenario.d, AfiConfig(group=bundle.group))
    assert coeffs and max(coeffs) <= 2
    assert not object_pivots


@pytest.mark.parametrize("spec", ["bell:2x2:body=1,2", "cca:3"])
def test_afi_gives_the_exact_lps_integer_objectives(monkeypatch, spec):
    # every objective and tie of the walk's exact LPs is all-int, so
    # lp_minimize scales none of them; on cca:3 the walk tightens its seed
    # along subface axes, which are normalized faces
    bundle = parse_scenario(spec)
    seen, inner = [], lp.lp_minimize

    def spy(system, objective, *, ties=(), **kwargs):
        seen.append([objective, *ties])
        return inner(system, objective, ties=ties, **kwargs)

    for module in (lp, geometry, epm, redundancy, analysis):
        if getattr(module, "lp_minimize", None) is inner:
            monkeypatch.setattr(module, "lp_minimize", spy)
    assert afi_project(bundle.system, bundle.scenario.d, AfiConfig(group=bundle.group))
    assert len(seen) == {"bell:2x2:body=1,2": 67, "cca:3": 84}[spec]
    assert all(type(x) is int for objectives in seen for v in objectives for x in v)


@pytest.mark.parametrize("spec, lps", [("bell:2x2:body=1,2", 67), ("cca:3", 84)])
def test_afi_ridge_subproblems_start_from_the_walks_vertices(monkeypatch, spec, lps):
    # each ridge subproblem is handed the walk's vertices on its facet, the
    # facet's normal and the found facets reduced modulo it, so its basis
    # simplex solves few LPs, its hull starts from those vertices and no
    # found facet is proved again: at seed 0, 67 exact LPs on bell:2x2
    # against 200 when every subproblem starts from nothing.  On cca:3, 29
    # of the 84 are the seed step, whose sample is not a facet: the
    # tightening axes, each the first vector of an orthogonal complement,
    # fix which facet the walk starts from
    bundle = parse_scenario(spec)
    seen, inner = [], lp.lp_minimize

    def spy(system, objective, **kwargs):
        seen.append(objective)
        return inner(system, objective, **kwargs)

    for module in (lp, geometry, epm, redundancy, analysis):
        if getattr(module, "lp_minimize", None) is inner:
            monkeypatch.setattr(module, "lp_minimize", spy)
    d, group = bundle.scenario.d, bundle.group
    facets = afi_project(bundle.system, d, AfiConfig(group=group, seed=0))
    assert len(seen) == lps
    assert facets == chm_project(bundle.system, d, group=group).facets


@pytest.mark.parametrize("flat", [False, True])
@pytest.mark.parametrize("project", [
    lambda system, d, group: chm_project(system, d, group=group),
    lambda system, d, group: afi_project(system, d, AfiConfig(group=group)),
], ids=["chm", "afi"])
def test_wrong_group_raises_before_any_solve(monkeypatch, project, flat):
    def refuse(*args, **kwargs):
        raise AssertionError("an LP was solved before the group was checked")

    monkeypatch.setattr(simplex, "solve_standard", refuse)
    system = SQUARE.with_rows([Face((1, -1), 0), Face((-1, 1), 0)]) if flat else SQUARE
    group = SymmetryGroup(generators=((1, 0, 2),), dim=3)
    with pytest.raises(ValueError, match="symmetry group dimension does not match"):
        project(system, 2, group)


# ------------------------------------ rfd: the walk with a budget


def _cut_off(system, d, cfg, budget):
    """The partial facet list of a walk whose budget runs out."""
    with pytest.raises(BudgetExhausted) as err:
        afi_project(system, d, cfg, budget=budget)
    return err.value.facets


def test_rfd_exhausts_square():
    cfg = AfiConfig(depth=1, seed=1)
    assert afi_project(SQUARE, 2, cfg, budget=50) == sorted(SQUARE.rows)


def test_rfd_charges_only_leaves_that_build_a_hull():
    # every ridge subproblem of the square is a segment, which the driver
    # answers without a hull, so one unit of budget is never spent
    cfg = AfiConfig(depth=1, seed=1)
    assert afi_project(SQUARE, 2, cfg, budget=1) == sorted(SQUARE.rows)


def test_rfd_budget_one_is_sound():
    cfg = AfiConfig(depth=1, seed=2)
    out = _cut_off(CUBE, 3, cfg, budget=1)
    assert out  # at least something discovered
    for f in out:
        assert f in set(CUBE.rows)


def test_rfd_is_seeded():
    cfg = AfiConfig(depth=1, seed=11)
    assert _cut_off(CUBE, 3, cfg, budget=2) == _cut_off(CUBE, 3, cfg, budget=2)


def test_rfd_requires_budget():
    with pytest.raises(ValueError):
        afi_project(SQUARE, 2, AfiConfig(depth=1), budget=0)


# ------------------------------------------------------- infeasible input


@pytest.mark.parametrize("project", [
    lambda system: fme_project(system, 1),
    lambda system: chm_project(system, 1),
    lambda system: afi_project(system, 1),
    lambda system: afi_project(system, 1, budget=1),
], ids=["fme", "chm", "afi", "afi-budget"])
def test_infeasible_input_raises_infeasible_system(project):
    # x >= 1 and -x >= 0 have no common solution
    empty = ConstraintSystem.from_rows([((1,), 1), ((-1,), 0)], 1)
    with pytest.raises(InfeasibleSystem):
        project(empty)


# ---------------------------------------------------------------- to facet


def _to_facet(system, d, face):
    """Tighten a valid face into one facet of the image, as the seed step
    does with its sample (here ``face``): raise its offset to the supporting
    value, then climb the face lattice."""
    with mock.patch.object(afi, "epm_sample_face", lambda *args: face):
        return afi._seed_facet(capped(system, d), d, random.Random(0))


def test_to_facets_computes_the_input_face_simplex_once(monkeypatch):
    # the input face's tight-set simplex first, then one for the face each
    # tightening round lands on; never the image's own
    seen = []

    def counted(work, dd, probe=None, _inner=afi.basis_simplex):
        seen.append(work.rows)
        return _inner(work, dd, probe=probe)

    monkeypatch.setattr(afi, "basis_simplex", counted)
    face = Face((1, 1, 1), 0)  # tight at the vertex 0 only
    work = capped(CUBE, 3)
    afi._tighten(work, 3, face)
    assert len(seen) == 3  # vertex -> edge -> facet
    assert seen[0] == work.with_rows([-face]).rows and work.rows not in seen


def test_to_facet_fixed_point():
    for f in [Face((1, 0), 0), Face((0, -1), -1)]:
        assert _to_facet(SQUARE, 2, f) == normalize_face(f.f, f.b)


def test_to_facet_edge_of_cube():
    # x + y >= 0 is tight on the edge x = y = 0; either facet through it
    out = _to_facet(CUBE, 3, Face((1, 1, 0), 0))
    assert out in {Face((1, 0, 0), 0), Face((0, 1, 0), 0)}


def test_to_facet_rejects_invalid():
    # the trivial face is tight on the whole image: no facet contains it, so
    # the seed step redraws it until it gives up
    with pytest.raises(DegenerateInput):
        _to_facet(SQUARE, 2, Face((0, 0), 0))


def is_zero_vector_like(v):
    return all(x == 0 for x in v)


@pytest.mark.parametrize("seed", range(10))
def test_to_facet_random_valid_faces(seed):
    rng = random.Random(2000 + seed)
    dim = rng.choice([3, 4])
    system, facets = random_polytope(rng, dim)
    if system is None:
        pytest.skip("degenerate sample")
    verts = brute_vertices([f for f, _ in facets], [b for _, b in facets], dim)
    norm = [normalize_face(*f) for f in facets]
    # a valid face: positive combination of two facets
    f1, f2 = rng.sample(norm, 2)
    face = normalize_face(
        [a + b for a, b in zip(f1.f, f2.f)], f1.b + f2.b
    )
    if is_zero_vector_like(face.f):
        pytest.skip("combination collapsed")
    g = _to_facet(system, dim, face)
    assert g in norm  # genuine facet, by its tight set's rank too
    assert _rank(system, dim, g) == dim - 1
    # containment: vertices tight on the supported input face stay tight on g
    low = min(dot(face.f, v) for v in verts)
    assert _tight_vertices(Face(face.f, low), verts) <= _tight_vertices(g, verts)


def test_to_facets_facet_input():
    # a facet of the cube's shadow on (x, y) comes back unchanged
    assert _to_facet(CUBE, 2, Face((1, 0), 0)) == Face((1, 0), 0)


def test_to_facets_square_corner():
    out = _to_facet(SQUARE, 2, Face((1, 1), 0))
    assert out in {Face((0, 1), 0), Face((1, 0), 0)}


def test_to_facets_implication_on_randoms():
    rng = random.Random(77)
    done = 0
    for _ in range(20):
        system, facets = random_polytope(rng, 4)
        if system is None:
            continue
        norm = [normalize_face(*f) for f in facets]
        f1, f2 = rng.sample(norm, 2)
        face = normalize_face([a + 2 * b for a, b in zip(f1.f, f2.f)], f1.b + 2 * f2.b)
        if is_zero_vector_like(face.f):
            continue
        g = _to_facet(system, 4, face)
        assert g in norm  # a true facet
        # tight wherever the supported face is, so the face's tight set
        # lies in g's facet
        verts = brute_vertices([f for f, _ in facets], [b for _, b in facets], 4)
        low = min(dot(face.f, v) for v in verts)
        assert _tight_vertices(Face(face.f, low), verts) <= _tight_vertices(g, verts)
        done += 1
        if done >= 6:
            break
    assert done >= 3


def test_to_facets_homogeneous_face():
    # wedge 0 <= y <= x, capped: the valid ray x >= 0 tightens onto a facet
    # of the wedge, not the cap
    wedge = ConstraintSystem.from_rows(
        [((1, -1), 0), ((0, 1), 0)], 2
    )
    assert _to_facet(wedge, 2, Face((1, 0), 0)) in {Face((1, -1), 0), Face((0, 1), 0)}


def test_to_facets_lifts_a_face_that_misses_the_polytope():
    # x >= -1 holds on the square but touches it nowhere
    assert _to_facet(SQUARE, 2, Face((1, 0), -1)) == Face((1, 0), 0)


# ------------------------------------------------------- cap domain


def test_cap_domain_violation_surfaces():
    # a cone with a ray parallel to the coordinate-sum cap is outside the
    # cap's domain; the failure must surface as an exception, not a wrong
    # answer
    cone = ConstraintSystem.from_rows([((1, 1), 0), ((1, -1), 0)], 2)
    for project in (chm_project, afi_project):
        with pytest.raises(UnboundedProjection):
            project(cone, 2)
