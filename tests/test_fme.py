import random

import pytest
from hypothesis import given, settings, strategies as st

from polyproj import ConstraintSystem, redundancy
from polyproj.fme import (
    DUFFIN,
    FINAL_ONLY,
    INPUT_ORDER,
    FmeOptions,
    choose_elimination_variable,
    fme_partial,
    fme_project,
    fme_step,
)
from polyproj.geometry import is_implied
from polyproj.lp import Face, InfeasibleSystem
from polyproj.redundancy import implied_equalities, prune_redundant

from .oracles import (affine_rank, brute_hull_facets,
                      brute_projection_facets, brute_vertices)


def sys_of(pairs, dim):
    return ConstraintSystem.from_rows(pairs, dim)


def rowset(system):
    return {(tuple(r.f), r.b) for r in system.rows}


def test_step_single_pair():
    s = sys_of([((0, 1), 0), ((1, -1), 0)], 2)
    out = fme_step(s, 1)
    assert rowset(out) == {((1, 0), 0)}


def test_step_scaled_sum():
    s = sys_of([((1, 1), 1), ((1, -1), 0)], 2)
    out = fme_step(s, 1)
    # combination is 2x >= 1, normalized
    assert rowset(out) == {((2, 0), 1)}


def test_step_keeps_trivial_pairing_row():
    s = sys_of([((0, 1), 0), ((0, -1), -1), ((1, 0), 0)], 2)
    out = fme_step(s, 1)
    assert ((1, 0), 0) in rowset(out)
    assert ((0, 0), -1) in rowset(out)  # 0 >= -1 from pairing the y bounds


def test_step_growth_bound():
    rows = [((1, 1, 0), 0), ((2, 1, 0), 0), ((-1, -1, 0), -3),
            ((0, -1, 1), 0), ((1, 0, -1), 0)]
    s = sys_of(rows, 3)
    out = fme_step(s, 1)
    zero = sum(1 for r in s.rows if r.f[1] == 0)
    pos = sum(1 for r in s.rows if r.f[1] > 0)
    neg = sum(1 for r in s.rows if r.f[1] < 0)
    assert all(r.f[1] == 0 for r in out.rows)
    assert len(out) <= zero + pos * neg


def test_choose_variable_score():
    # var 1: one positive and one negative row -> score 1*1 - 2 = -1
    # var 2: two of each -> score 4 - 4 = 0
    s = sys_of(
        [
            ((0, 1, 1), 0),
            ((0, -1, 1), 0),
            ((0, 0, -1), 0),
            ((1, 0, 1), 0),
            ((1, 0, -1), 0),
        ],
        3,
    )
    assert choose_elimination_variable(s, [1, 2]) == 1


def test_choose_variable_free_elimination():
    # var 2 has E+ = 0: eliminating it just drops rows, score -E- is minimal
    s = sys_of(
        [((1, 1, -1), 0), ((1, -1, -1), 0), ((-1, 1, -1), 0), ((0, 1, 0), 0)],
        3,
    )
    assert choose_elimination_variable(s, [1, 2]) == 2


def test_choose_variable_ties_to_lowest_index():
    s = sys_of([((1, 1, 1), 0)], 3)
    assert choose_elimination_variable(s, [2, 1]) == 1


def test_project_cube_to_square():
    cube = sys_of(
        [
            ((1, 0, 0), 0), ((-1, 0, 0), -1),
            ((0, 1, 0), 0), ((0, -1, 0), -1),
            ((0, 0, 1), 0), ((0, 0, -1), -1),
        ],
        3,
    )
    out = fme_project(cube, 2)
    assert rowset(out) == {
        ((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)
    }


def test_project_infeasible_signals():
    bad = sys_of([((1, 1), 2), ((-1, -1), -1)], 2)
    with pytest.raises(InfeasibleSystem):
        fme_project(bad, 1)


def test_equality_substitution_path():
    # x + y + z = 1 pins z; shadow on (x, y) is the triangle x,y >= 0, x+y <= 1
    s = sys_of(
        [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)], 3
    ).with_equality((1, 1, 1), 1)
    out = fme_project(s, 2)
    assert rowset(out) == {((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)}


def test_partial_budget_never_binding_matches_exact():
    s = sys_of(
        [
            ((1, 0, 1), 0), ((-1, 0, 1), 0), ((0, 1, -1), -2),
            ((0, -1, -1), -2), ((0, 0, 1), 0), ((0, 0, -1), -4),
        ],
        3,
    )
    exact = fme_project(s, 2)
    capped = fme_partial(s, 2, FmeOptions(row_budget=10_000))
    assert rowset(capped) == rowset(exact)


def test_partial_budget_zero_gives_whole_space():
    s = sys_of([((1, 1), 0), ((1, -1), 0)], 2)
    out = fme_partial(s, 1, FmeOptions(row_budget=0))
    assert len(out) == 0
    assert out.dim == 1


def test_partial_is_outer_approximation():
    s = sys_of(
        [
            ((1, 1, 1), 0), ((1, -1, 0), -1), ((-1, 0, 2), -3),
            ((0, 1, -1), -2), ((0, 0, 1), -1), ((-1, -1, -1), -5),
            ((1, 0, 0), -2), ((0, -1, 0), -3),
        ],
        3,
    )
    capped = fme_partial(s, 2, FmeOptions(row_budget=3))
    for row in capped.rows:
        padded = (tuple(row.f) + (0,), row.b)
        assert is_implied(s, padded)


def test_prune_redundant_drops_implied_rows():
    s = sys_of(
        [((1, 0), 0), ((0, 1), 0), ((1, 1), 0), ((2, 1), -1), ((1, 0), -7)],
        2,
    )
    for use_float in (False, True):
        out = prune_redundant(s, use_float=use_float)
        assert rowset(out) == {((1, 0), 0), ((0, 1), 0)}


coeff = st.integers(min_value=-4, max_value=4)


@st.composite
def bounded_random_system(draw):
    dim = draw(st.integers(min_value=2, max_value=4))
    rows = []
    for k in range(dim):
        e = [0] * dim
        e[k] = 1
        bound = draw(st.integers(min_value=1, max_value=4))
        rows.append((tuple(e), -bound))
        rows.append((tuple(-x for x in e), -bound))
    extra = draw(
        st.lists(
            st.tuples(
                st.tuples(*[coeff for _ in range(dim)]),
                st.integers(min_value=-8, max_value=0),
            ),
            max_size=4,
        )
    )
    rows.extend(extra)
    keep = draw(st.integers(min_value=1, max_value=dim - 1))
    return rows, dim, keep


@st.composite
def system_with_implied_rows(draw):
    """A bounded random system plus rows it implies: duplicates, positive
    combinations of two rows, and reversed rows (which make equalities)."""
    pairs, dim, _ = draw(bounded_random_system())
    pick = st.integers(min_value=0, max_value=len(pairs) - 1)
    weight = st.integers(min_value=1, max_value=3)
    extra = draw(st.lists(st.one_of(
        st.tuples(st.just("dup"), pick),
        st.tuples(st.just("comb"), pick, pick, weight, weight),
        st.tuples(st.just("rev"), pick),
    ), min_size=1, max_size=4))
    rows = list(pairs)
    for kind, i, *rest in extra:
        f, b = pairs[i]
        if kind == "dup":
            rows.append((f, b))
        elif kind == "rev":
            rows.append((tuple(-c for c in f), -b))
        else:
            j, u, v = rest
            g, a = pairs[j]
            rows.append((tuple(u * x + v * y for x, y in zip(f, g)), u * b + v * a))
    order = draw(st.permutations(range(len(rows))))
    return sys_of([rows[k] for k in order], dim)


@given(system_with_implied_rows())
@settings(max_examples=30)
def test_float_sweeps_equal_exact_sweeps(s):
    # floats only steer: the persistent HiGHS model must reach the verdicts of
    # the exact-only sweep, so a bound left lifted after a probe shows here
    assert (prune_redundant(s, use_float=True).rows
            == prune_redundant(s, use_float=False).rows)
    assert implied_equalities(s) == implied_equalities(s, use_float=False)


def test_float_filter_restores_and_disables_rows():
    # rows 0 and 1 are the same x >= 0; the box closes with x <= 1, 0 <= y <= 1
    rows = list(sys_of([((1, 0), 0), ((1, 0), 0), ((-1, 0), -1),
                        ((0, 1), 0), ((0, -1), -1)], 2).rows)
    filt = redundancy._FloatFilter(rows)
    assert filt.ok
    assert filt.probe(0, rows[0]) == ("try-drop", [1])
    assert filt.probe(0, rows[0]) == ("try-drop", [1])
    # row 0's bound is back in place after its own probe
    assert filt.probe(1, rows[1]) == ("try-drop", [0])
    filt.disable(0)
    # with row 0 gone nothing else bounds x from below
    assert filt.probe(1, rows[1]) == ("keep", None)
    assert filt.probe(None, Face((1, 0), -1)) == ("try-drop", [1])


def test_failed_warm_solve_is_retried_cold():
    hc = pytest.importorskip("scipy.optimize._highspy._core")

    class Highs:
        def __init__(self):
            self.log, self.status = [], hc.HighsModelStatus.kUnknown

        def run(self):
            self.log.append("run")

        def clearSolver(self):
            self.log.append("clear")
            self.status = hc.HighsModelStatus.kOptimal

        def getModelStatus(self):
            return self.status

    highs = Highs()
    assert redundancy._linprog(highs) == hc.HighsModelStatus.kOptimal
    assert highs.log == ["run", "clear", "run"]


def test_float_filter_binds_scipy_highs():
    # the filter reaches HiGHS through scipy's private `_highspy._core`
    # bindings; should a scipy release move them, FME silently falls back to
    # exact LPs only
    pytest.importorskip("scipy")
    assert redundancy._FloatFilter(list(sys_of([((1, 0), 0)], 2).rows)).ok


@given(bounded_random_system())
@settings(max_examples=20)
def test_project_soundness_and_oracle_agreement(case):
    pairs, dim, keep = case
    s = sys_of(pairs, dim)
    try:
        out = fme_project(s, keep)
    except InfeasibleSystem:
        return
    # soundness: every emitted row padded back is implied by the input
    for row in out.rows:
        padded = (tuple(row.f) + (0,) * (dim - keep), row.b)
        assert is_implied(s, padded)
    # exactness vs the brute-force oracle (shadow of a bounded polytope);
    # the hyperplane-enumeration oracle needs a full-dimensional shadow
    orows = [list(r.f) for r in s.rows]
    orhs = [r.b for r in s.rows]
    shadow = sorted({v[:keep] for v in brute_vertices(orows, orhs, dim)})
    if affine_rank(shadow) < keep:
        return
    expected = brute_projection_facets(orows, orhs, dim, keep)
    got = sorted((tuple(r.f), r.b) for r in out.rows)
    assert got == expected or _same_polyhedron(out, expected, keep)


def _same_polyhedron(system, expected_pairs, dim):
    other = ConstraintSystem.from_rows(
        [(tuple(f), b) for f, b in expected_pairs], dim
    )
    return all(is_implied(system, row) for row in other.rows) and all(
        is_implied(other, row) for row in system.rows
    )


@given(bounded_random_system())
@settings(max_examples=10)
def test_modes_agree_on_solution_set(case):
    pairs, dim, keep = case
    s = sys_of(pairs, dim)
    try:
        full = fme_project(s, keep)
    except InfeasibleSystem:
        return
    final = fme_project(s, keep, FmeOptions(redundancy_mode=FINAL_ONLY))
    raw = fme_project(s, keep, FmeOptions(redundancy_mode=None))
    order = fme_project(s, keep, FmeOptions(heuristic=INPUT_ORDER))
    for variant in (final, raw, order):
        assert _same_polyhedron(full, [(r.f, r.b) for r in variant.rows], keep)


# ------------------------------------------------- implicit equalities


def test_implied_equalities_forced_point():
    # x >= 0, y >= 0, x + y <= 0 pin the origin: every row is an equality
    s = sys_of([((1, 0), 0), ((0, 1), 0), ((-1, -1), 0)], 2)
    assert implied_equalities(s) == [0, 1, 2]
    assert implied_equalities(s, use_float=False) == [0, 1, 2]


def test_implied_equalities_pinched_segment():
    # x <= 1/2, y <= 1/2 and x + y >= 1 meet only at (1/2, 1/2)
    s = sys_of([((-2, 0), -1), ((0, -2), -1), ((1, 1), 1)], 2)
    assert implied_equalities(s) == [0, 1, 2]


def test_implied_equalities_none_on_square():
    s = sys_of([((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)], 2)
    assert implied_equalities(s) == []


def test_implied_equalities_explicit_pair():
    s = sys_of([((1, 1), 1), ((-1, -1), -1), ((1, 0), 0)], 2)
    assert implied_equalities(s) == [0, 1]


def test_detection_shrinks_forced_projection():
    # hidden equality x = y (from x - y >= 0, y - x >= -0 written slack-free
    # via two tilted rows) must not stop the shadow from being exact
    rows = [((1, -1, 0), 0), ((-1, 1, 0), 0), ((0, 0, 1), 0), ((0, 0, -1), -1),
            ((1, 0, 0), 0), ((-1, 0, 0), -2)]
    s = sys_of(rows, 3)
    out = fme_project(s, 2)
    off = fme_project(s, 2, FmeOptions(detect_equalities=False))
    assert _same_polyhedron(out, [(r.f, r.b) for r in off.rows], 2)


def test_detection_preserves_random_projections():
    rng = random.Random(5)
    for _ in range(6):
        dim = rng.choice([3, 4])
        pts = [tuple(rng.randint(-3, 3) for _ in range(dim))
               for _ in range(dim + 3)]
        facets = brute_hull_facets(pts)
        if not facets:
            continue
        s = sys_of(facets, dim)
        on = fme_project(s, dim - 1)
        off = fme_project(s, dim - 1, FmeOptions(detect_equalities=False))
        assert _same_polyhedron(on, [(r.f, r.b) for r in off.rows], dim - 1)
