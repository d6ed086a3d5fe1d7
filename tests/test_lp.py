import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from polyproj import ConstraintSystem, lp_feasible, lp_minimize, simplex
from polyproj import epm, lp as lp_module
from polyproj.epm import epm_sample_face
from polyproj.geometry import capped
from polyproj.linalg import orthogonal_complement
from polyproj.lp import (INFEASIBLE, OPTIMAL, UNBOUNDED, Face, combine,
                         normalize_face, pivot_equations, substitute)
from polyproj.rationals import dot, mpq
from polyproj.scenarios import parse_scenario

from .oracles import equality_rows

coeff = st.integers(min_value=-6, max_value=6)


def build(rows, dim):
    return ConstraintSystem.from_rows([(r[:dim], r[dim]) for r in rows], dim)


def test_bounded_optimum_with_duals():
    # min -x - y over the unit square scaled by (2, 3)
    sys_ = build([(1, 0, 0), (0, 1, 0), (-1, 0, -2), (0, -1, -3)], 2)
    sol = lp_minimize(sys_, [-1, -1])
    assert sol.status == "optimal"
    assert sol.x == (2, 3)
    assert sol.objective == -5
    # duals reconstruct the objective row and its value
    assert sol.duals is not None
    for k in range(2):
        assert sum(q * row.f[k] for q, row in zip(sol.duals, sys_.rows)) == -1
    assert sum(q * row.b for q, row in zip(sol.duals, sys_.rows)) == -5


@pytest.mark.parametrize("corrupt, message", [
    (lambda X, D: (X, 2 * D), "attain"),                 # halves the point
    (lambda X, D: (X[:1] + (X[1] + 9 * D,), D), "violates"),  # y + 9, off the box
])
def test_corrupted_point_readout_is_caught(monkeypatch, corrupt, message):
    # min x over the box [1, 2] x [1, 3]: the point is checked in integers
    # against the objective and every row before it is returned
    sys_ = build([(1, 0, 1), (0, 1, 1), (-1, 0, -2), (0, -1, -3)], 2)
    read = simplex.StandardResult.multipliers
    monkeypatch.setattr(simplex.StandardResult, "multipliers",
                        lambda res: corrupt(*read(res)))
    assert lp_minimize(sys_, [1, 0], want_point=False).objective == 1
    with pytest.raises(AssertionError, match=message):
        lp_minimize(sys_, [1, 0])


def test_point_is_built_from_the_integer_readout():
    sys_ = build([(2, 0, 1), (0, 3, 1), (-1, 0, -2), (0, -1, -3)], 2)
    sol = lp_minimize(sys_, [1, 1], ties=[[1, 0]])
    assert sol.point == (3, 2, 6)
    assert sol.x == (Fraction(1, 2), Fraction(1, 3))
    X, D = simplex.solve_standard(sys_._dual()[0], [1, 1],
                                  [-row.b for row in sys_.rows]).multipliers()
    assert tuple(Fraction(x, D) for x in X) == sol.x


def test_unbounded_gives_ray():
    sys_ = build([(1, 0, 0), (0, 1, 0)], 2)
    sol = lp_minimize(sys_, [-1, 0])
    assert sol.status == "unbounded"
    ray = sol.ray
    assert ray is not None
    assert dot(ray, (-1, 0)) < 0
    for row in sys_.rows:
        assert dot(row.f, ray) >= 0


def test_tie_unbounded_gives_lexicographic_ray():
    # the strip 0 <= x <= 1: min x is bounded, the tie min y is not
    sys_ = build([(1, 0, 0), (-1, 0, -1)], 2)
    objective, tie = (1, 0), (0, 1)
    assert lp_minimize(sys_, objective).status == "optimal"
    sol = lp_minimize(sys_, objective, ties=[tie])
    assert sol.status == "unbounded"
    ray = sol.ray
    assert all(dot(row.f, ray) >= 0 for row in sys_.rows)
    signs = [dot(objective, ray), dot(tie, ray)]
    assert next(s for s in signs if s) < 0


def test_infeasible():
    sys_ = build([(1, 0, 1), (-1, 0, 0)], 2)
    sol = lp_minimize(sys_, [1, 1])
    assert sol.status == "infeasible"
    assert not lp_feasible(sys_)


def test_equality_rows():
    sys_ = ConstraintSystem.from_rows(
        [((1, 0), 0), ((0, 1), 0)], 2
    ).with_rows(equality_rows((1, 1), 4))
    sol = lp_minimize(sys_, [0, 1])
    assert sol.status == "optimal"
    assert sol.objective == 0
    assert sol.x is not None and sol.x[0] + sol.x[1] == 4


def test_zero_objective_reports_feasible_point():
    sys_ = build([(1, 1, 2), (1, -1, 0), (-1, 0, -5)], 2)
    sol = lp_minimize(sys_, [0, 0])
    assert sol.status == "optimal"
    assert sol.objective == 0


@pytest.mark.parametrize("objective, ties", [([0, 0], []), ([1, -2], []), ([0, 0], [[0, 1]])])
def test_system_without_rows(objective, ties):
    # R^2 itself: the general path solves a dual with no columns
    sol = lp_minimize(ConstraintSystem((), 2), objective, ties=ties)
    if any(objective + sum(ties, [])):
        assert sol.status == UNBOUNDED
        signs = [dot(v, sol.ray) for v in [objective] + ties]
        assert next(s for s in signs if s) < 0
    else:
        assert (sol.status, sol.x, sol.objective, sol.duals) == (OPTIMAL, (0, 0), 0, ())
    zero = lp_minimize(ConstraintSystem((), 0), [])
    assert (zero.status, zero.x, zero.objective, zero.duals) == (OPTIMAL, (), 0, ())


def test_rational_data():
    half = mpq(1, 2)
    sys_ = ConstraintSystem.from_rows(
        [((half, 0), half), ((0, 1), 0), ((-1, -1), -10)], 2
    )
    sol = lp_minimize(sys_, [1, 1])
    assert sol.status == "optimal"
    assert sol.objective == 1
    assert sol.x == (1, 0)


@st.composite
def random_lp(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    nrows = draw(st.integers(min_value=1, max_value=6))
    rows = [
        (
            tuple(draw(coeff) for _ in range(dim)),
            draw(st.integers(min_value=-4, max_value=4)),
        )
        for _ in range(nrows)
    ]
    objective = [draw(coeff) for _ in range(dim)]
    return rows, dim, objective


@given(random_lp())
def test_certificates_prove_the_reported_status(case):
    rows, dim, objective = case
    sys_ = ConstraintSystem.from_rows(rows, dim)
    sol = lp_minimize(sys_, objective)
    if sol.status == "optimal":
        # primal feasibility and objective value
        assert all(dot(row.f, sol.x) >= row.b for row in sys_.rows)
        assert dot(objective, sol.x) == sol.objective
        # dual feasibility: q >= 0, q^T L = c, q^T a = objective.
        # Together with primal feasibility this is a proof of optimality.
        assert all(q >= 0 for q in sol.duals)
        for k in range(dim):
            assert (
                sum(q * row.f[k] for q, row in zip(sol.duals, sys_.rows))
                == objective[k]
            )
        assert (
            sum(q * row.b for q, row in zip(sol.duals, sys_.rows))
            == sol.objective
        )
    elif sol.status == "unbounded":
        # a feasible point must exist and the ray must improve forever
        assert lp_feasible(sys_)
        assert dot(objective, sol.ray) < 0
        assert all(dot(row.f, sol.ray) >= 0 for row in sys_.rows)
    else:
        assert sol.status == "infeasible"
        # cross-check with an independent exhaustive argument on scipy
        pytest.importorskip("scipy")
        import numpy as np
        from scipy.optimize import linprog

        res = linprog(
            c=[0.0] * dim,
            A_ub=[[-float(Fraction(str(c))) for c in row.f] for row in sys_.rows],
            b_ub=[-float(Fraction(str(row.b))) for row in sys_.rows],
            bounds=[(None, None)] * dim,
            method="highs",
        )
        assert res.status == 2, (res.status, res.message)


@given(random_lp(), st.lists(st.lists(coeff, min_size=3, max_size=3), max_size=2))
def test_point_is_coprime_integers_and_x_is_its_quotient(case, ties):
    # an optimum's point is (X, D): coprime integers with D > 0 and x = X / D;
    # it is built with no rational, and a value-only solve has none
    rows, dim, objective = case
    sys_ = ConstraintSystem.from_rows(rows, dim)
    ties = [t[:dim] for t in ties]
    sol = lp_minimize(sys_, objective, ties=ties)
    if sol.status != OPTIMAL:
        assert sol.point is None and sol.x is None
        return
    *X, D = sol.point
    assert all(type(v) is int for v in sol.point)
    assert len(X) == dim and D > 0 and gcd(*sol.point) == 1
    assert sol.x == tuple(Fraction(v, D) for v in X)
    assert lp_minimize(sys_, objective, ties=ties, want_point=False).point is None


@given(random_lp())
def test_deterministic(case):
    rows, dim, objective = case
    sys_ = ConstraintSystem.from_rows(rows, dim)
    a = lp_minimize(sys_, objective)
    b = lp_minimize(sys_, objective)
    assert (a.status, a.x, a.objective) == (b.status, b.x, b.objective)


@pytest.mark.parametrize("spec", ["bell:2x2:body=1,2", "cca:3"])
def test_epm_sample_matches_the_explicit_standard_form(monkeypatch, spec):
    # min p.q over the combination polytope {q >= 0 : sum(q) = 1,
    # (q^T L)[d:] = 0} is the dual lp_minimize solves for EPM's system: its
    # duals are the q of the simplex on the standard form written out
    bundle = parse_scenario(spec)
    d = bundle.scenario.d
    work = capped(bundle.system, d)
    A = [[1] * len(work.rows)] + [[row.f[j] for row in work.rows] for j in range(d, work.dim)]
    b = [1] + [0] * (work.dim - d)
    solutions = []

    def spy(*args, **kwargs):
        solutions.append(lp_minimize(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(epm, "lp_minimize", spy)
    rng = random.Random(0)
    for _ in range(3):
        p = [rng.randint(-(2**20), 2**20) for _ in work.rows]
        face = epm_sample_face(work, d, p)
        res = simplex.solve_standard(A, b, p)
        assert res.status == simplex.OPTIMAL
        q = tuple(Fraction(v, res.den) for v in res.z_ints)
        sol = solutions.pop()
        assert sol.duals == q and -sol.objective == Fraction(res.value_ints[0], res.den)
        # the face is the combination ((q^T L)[:d], q^T a) of those duals
        assert face == normalize_face([dot(q, [row.f[j] for row in work.rows]) for j in range(d)],
                                      dot(q, [row.b for row in work.rows]))


@pytest.mark.parametrize("objective", [[0, 0], [0, 1]])
def test_corrupted_infeasibility_certificate_is_caught(monkeypatch, objective):
    # x >= 1 and -x >= 0 have no solution.  Minimizing 0 the dual is
    # unbounded, and its ray is the Farkas certificate; minimizing y the
    # dual is infeasible, and the ray of the zero objective's solve is
    rows = [(1, 0, 1), (-1, 0, 0)]
    assert lp_minimize(build(rows, 2), objective).status == INFEASIBLE
    solve = simplex.solve_standard

    def corrupted(*args, **kwargs):
        res = solve(*args, **kwargs)
        if res.ray:
            res.ray = (res.ray[0], res.ray[1] + 1)
        return res

    monkeypatch.setattr(simplex, "solve_standard", corrupted)
    with pytest.raises(AssertionError, match="infeasibility certificate"):
        lp_minimize(build(rows, 2), objective)


@pytest.fixture
def pivot_counts(monkeypatch, check_pivots):
    """Checks every pivot's divisibility and counts pivots and dual runs."""
    counts = {"pivots": 0, "dual_runs": 0}
    pivot, dual_run = simplex._Tableau.pivot, simplex._Tableau.dual_run

    def counted_pivot(self, r, s):
        counts["pivots"] += 1
        return pivot(self, r, s)

    def counted_dual_run(self):
        counts["dual_runs"] += 1
        return dual_run(self)

    monkeypatch.setattr(simplex._Tableau, "pivot", counted_pivot)
    monkeypatch.setattr(simplex._Tableau, "dual_run", counted_dual_run)
    return counts


def _fresh(system):
    """An equal system with no cached tableau."""
    return ConstraintSystem(system.rows, system.dim)


def _random_polyhedron(rng, dim, boxed):
    """Random rows that the origin satisfies, inside the box |x_i| <= 5 if
    ``boxed``, with now and then an equality row."""
    rows = [(tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-4, 0))
            for _ in range(rng.randint(1, 6))]
    if boxed:
        rows += [(tuple(s * int(i == j) for j in range(dim)), -5)
                 for i in range(dim) for s in (1, -1)]
    system = ConstraintSystem.from_rows(rows, dim)
    if rng.random() < 0.3:
        system = system.with_rows(equality_rows([rng.randint(-2, 2) for _ in range(dim)]))
    return system


def _objective(rng, dim, kind):
    if kind == "fractional":
        return [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 7))) for _ in range(dim)]
    if kind == "huge":  # right-hand-side blocks beyond the int64 kernel
        return [rng.randint(-2 ** 40, 2 ** 40) for _ in range(dim)]
    return [rng.randint(-3, 3) for _ in range(dim)]


def _spanning_ties(rng, dim):
    """Tie stages that, with any objective, span R^d: all unit vectors."""
    units = [[int(i == j) * rng.choice((1, -1)) for j in range(dim)] for i in range(dim)]
    rng.shuffle(units)
    return units


def _assert_same_solution(warm, cold, objectives, spanning):
    assert warm.status == cold.status
    if warm.status != OPTIMAL:
        return
    assert warm.objective == cold.objective
    values = [tuple(dot(v, sol.x) for v in objectives) for sol in (warm, cold)]
    assert values[0] == values[1]
    if spanning:
        assert warm.x == cold.x


@pytest.mark.parametrize("kind", ["integer", "fractional", "huge"])
def test_warm_solves_match_cold_solves(pivot_counts, kind):
    rng = random.Random(kind)
    warm_pivots = cold_pivots = 0
    statuses, object_tableaux = set(), 0
    for index in range(12):
        dim = rng.randint(1, 4)
        system = _random_polyhedron(rng, dim, boxed=index % 4 != 0)
        for _ in range(8):
            c = _objective(rng, dim, kind)
            ties, spanning = [], rng.random() < 0.5
            if spanning:
                ties = _spanning_ties(rng, dim)
            elif rng.random() < 0.5:
                ties = [_objective(rng, dim, kind)]
            before = pivot_counts["pivots"]
            warm = lp_minimize(system, c, ties=ties)
            middle = pivot_counts["pivots"]
            cold = lp_minimize(_fresh(system), c, ties=ties)
            warm_pivots += middle - before
            cold_pivots += pivot_counts["pivots"] - middle
            _assert_same_solution(warm, cold, [c] + ties, spanning)
            statuses.add(warm.status)
            cached = system._tableau_cache
            object_tableaux += cached is not None and cached.N.dtype == object
    assert statuses == {OPTIMAL, UNBOUNDED}
    assert (object_tableaux > 0) == (kind == "huge")
    assert pivot_counts["dual_runs"] > 0
    assert warm_pivots < cold_pivots


def test_warm_solve_scales_a_fractional_block(monkeypatch):
    # a Fraction objective is solved as its integer multiple, 6 times it
    # here: the same point and pivots, with the objective and duals scaled back
    pivots = []
    pivot = simplex._Tableau.pivot

    def spy(self, r, s):
        pivots.append((r, s))
        pivot(self, r, s)

    monkeypatch.setattr(simplex._Tableau, "pivot", spy)
    runs = []
    for objective in ([Fraction(-1, 3), Fraction(-1, 2)], [-2, -3]):
        system = ConstraintSystem.from_rows([((1, 0), 0), ((0, 1), 0), ((-1, -1), -3)], 2)
        assert lp_minimize(system, [1, 2]).x == (0, 0)
        pivots.clear()
        runs.append((lp_minimize(system, objective), list(pivots)))
    (sol, run), (multiple, multiple_run) = runs
    assert run == multiple_run and run
    assert sol.objective == Fraction(-3, 2) and sol.x == (0, 3) == multiple.x
    assert multiple.objective == 6 * sol.objective
    assert tuple(6 * q for q in sol.duals) == multiple.duals


def test_rows_with_fractions_are_refused():
    # Face documents integer coefficients; a row built around from_rows
    # with a Fraction would be truncated in an int64 tableau
    system = ConstraintSystem((Face((Fraction(1, 2), 0), 1), Face((0, 1), 0)), 2)
    with pytest.raises(ValueError, match="integer rows"):
        lp_minimize(system, [1, 1])


def test_corrupted_feasibility_point_is_caught(monkeypatch):
    # min -y over the cone x >= 0, y >= 0 is unbounded once the zero
    # objective's solve finds a point, which is checked against every row
    cone = build([(1, 0, 0), (0, 1, 0)], 2)
    assert lp_minimize(cone, [0, -1]).status == UNBOUNDED
    read = simplex.StandardResult.multipliers

    def shifted(res):  # the point minus (1, 1), off the cone
        X, D = read(res)
        return tuple(x - D for x in X), D

    monkeypatch.setattr(simplex.StandardResult, "multipliers", shifted)
    with pytest.raises(AssertionError, match="recovered LP point violates the system"):
        lp_minimize(_fresh(cone), [0, -1])


def test_unbounded_after_bounded_goes_cold(pivot_counts):
    # the cone x >= 0, y >= 0, x + 2y >= 0 is not capped
    cone = ConstraintSystem.from_rows([((1, 0), 0), ((0, 1), 0), ((1, 2), 0)], 2)
    assert lp_minimize(cone, [1, 1]).objective == 0
    tableau = cone._tableau_cache
    assert tableau is not None
    sol = lp_minimize(cone, [1, -1])
    assert sol.status == UNBOUNDED
    assert dot((1, -1), sol.ray) < 0
    assert all(dot(row.f, sol.ray) >= 0 for row in cone.rows)
    # two dual runs: the objective's, which finds the dual infeasible, and
    # the zero objective's, which finds the point at once
    assert pivot_counts["dual_runs"] == 2
    # the dual-feasible tableau stays cached for the next bounded objective
    assert cone._tableau_cache is tableau
    assert lp_minimize(cone, [2, 1]).objective == 0
    assert pivot_counts["dual_runs"] == 3


def test_value_only_warm_solve_builds_one_rational(pivot_counts, monkeypatch):
    # min over the box [0, 2] x [0, 3]; the second objective moves the optimum
    box = build([(1, 0, 0), (0, 1, 0), (-1, 0, -2), (0, -1, -3)], 2)
    assert lp_minimize(box, [1, 1]).objective == 0
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(lp_module, "mpq", counted)
    cold_pivots = pivot_counts["pivots"]
    sol = lp_minimize(box, [-1, 2], want_point=False)
    assert pivot_counts["dual_runs"] == 1 and pivot_counts["pivots"] > cold_pivots
    assert sol.objective == -2 and sol.x is None
    assert len(built) == 1
    # the duals are built when read: q = (0, 2, 1, 0)
    assert sol.duals == (0, 2, 1, 0)
    assert len(built) == 1 + len(box.rows)
    # a solve with the point builds no rational for it until x is read
    del built[:]
    with_point = lp_minimize(box, [2, -1])
    assert with_point.point == (0, 3, 1) and len(built) == 1
    assert with_point.x == (0, 3) and len(built) == 3


def test_pivot_equations_solve_inside_the_columns():
    # columns 1..3 of R^4; column 0 is never a pivot
    eqs = [Face((1, 2, 0, -1), 3),  # 2 on column 1, -1 on the later column 3
           Face((5, 0, 0, 0), 1),   # 0 on every column: left out
           Face((0, -3, 2, 1), 0)]
    equations, pivots = pivot_equations(eqs, [1, 2, 3])
    assert pivots == [3, 1]
    # each oriented to a positive pivot; the third has column 3 substituted out
    assert equations == [Face((-1, -2, 0, 1), -3), Face((-1, 1, -2, 0), -3)]
    assert substitute(Face((0, 1, 1, 1), 2), equations, pivots) == Face((4, 0, 7, 0), 14)


@st.composite
def equations_through_a_point(draw):
    """Equations through an integer point x0 of R^n, a proper subset of the
    columns, a row, and integer points of the equations' solution set."""
    n = draw(st.integers(min_value=2, max_value=5))
    small = st.integers(min_value=-3, max_value=3)
    x0 = draw(st.tuples(*[small] * n))
    normals = draw(st.lists(st.tuples(*[small] * n), min_size=1, max_size=n))
    columns = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n - 1))
    row = Face(draw(st.tuples(*[small] * n)), draw(small))
    kernel = orthogonal_complement(normals, n)
    points = [x0] + [tuple(x + sum(c * k[i] for c, k in zip(coefs, kernel))
                           for i, x in enumerate(x0))
                     for coefs in draw(st.lists(st.tuples(*[small] * len(kernel)),
                                                max_size=4))]
    eqs = [normalize_face(f, dot(f, x0)) for f in normals]
    return eqs, columns, row, points


@settings(max_examples=80, deadline=None)
@given(equations_through_a_point())
def test_substitute_keeps_the_row_on_the_solution_set(case):
    eqs, columns, row, points = case
    equations, pivots = pivot_equations(eqs, columns)
    assert len(set(pivots)) == len(pivots) and set(pivots) <= columns
    for k, (eq, p) in enumerate(zip(equations, pivots)):
        least = min(abs(eq.f[c]) for c in columns if eq.f[c])
        assert eq.f[p] == least and all(abs(eq.f[c]) > least for c in columns if c < p and eq.f[c])
        assert all(eq.f[q] == 0 for q in pivots[:k])
        assert all(dot(eq.f, x) == eq.b for x in points)
    out = substitute(row, equations, pivots)
    assert all(out.f[p] == 0 for p in pivots)
    for x in points:
        before, after = dot(row.f, x) - row.b, dot(out.f, x) - out.b
        assert (before > 0) == (after > 0) and (before == 0) == (after == 0)


_ENTRY = st.one_of(st.integers(min_value=-6, max_value=6),
                   st.integers(min_value=-2 ** 70, max_value=2 ** 70))


@settings(max_examples=200)
@given(st.data())
def test_combine_is_the_normalized_combination(data):
    # one gcd does what normalize_face's rational path did, on small rows
    # with common factors and on entries beyond 2^64 alike
    n = data.draw(st.integers(min_value=1, max_value=5))
    k = data.draw(st.integers(min_value=1, max_value=12))
    p, q = (Face(tuple(k * c for c in data.draw(st.tuples(*[_ENTRY] * n))),
                 k * data.draw(_ENTRY)) for _ in range(2))
    v = data.draw(st.integers(min_value=0, max_value=n - 1))
    pv, qv = p.f[v], q.f[v]
    raw = [pv * b - qv * a for a, b in zip(p.f, q.f)], pv * q.b - qv * p.b
    out = combine(p, q, v)
    assert out == normalize_face(*raw)
    assert out.f[v] == 0 and all(type(c) is int for c in out.f + (out.b,))
