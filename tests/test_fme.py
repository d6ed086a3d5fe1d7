import contextlib
import functools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from polyproj import ConstraintSystem, fme, redundancy
from polyproj.fme import choose_elimination_variable, fme_project, fme_step
from polyproj.geometry import is_implied
from polyproj.lp import OPTIMAL, Face, InfeasibleSystem, lp_minimize
from polyproj.redundancy import implied_equalities, prune_redundant
from polyproj.scenarios import parse_scenario

from .oracles import (affine_rank, brute_hull_facets,
                      brute_projection_facets, brute_vertices, equality_rows)


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


def test_cone_projection_runs_no_feasibility_lp(monkeypatch):
    # a homogeneous system contains x = 0, so it needs no feasibility LP
    def no_lp(*args, **kwargs):
        raise AssertionError("feasibility LP solved for a cone")

    monkeypatch.setattr(fme, "lp_feasible", no_lp)
    cone = sys_of([((1, 0, 0), 0), ((0, 1, 0), 0), ((1, 0, -1), 0),
                   ((0, 0, 1), 0)], 3)
    assert rowset(fme_project(cone, 2)) == {((1, 0), 0), ((0, 1), 0)}


def test_equality_substitution_path():
    # x + y + z = 1 pins z; shadow on (x, y) is the triangle x,y >= 0, x+y <= 1
    s = sys_of(
        [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)], 3
    ).with_rows(equality_rows((1, 1, 1), 1))
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
    capped = fme_project(s, 2, row_budget=10_000)
    assert rowset(capped) == rowset(exact)


def test_negative_budget_is_refused_before_any_lp(monkeypatch):
    s = sys_of(
        [
            ((1, 0, 1), 0), ((-1, 0, 1), 0), ((0, 1, -1), -2),
            ((0, -1, -1), -2), ((0, 0, 1), 0), ((0, 0, -1), -4),
        ],
        3,
    )

    def no_lp(*args, **kwargs):
        raise AssertionError("LP solved before the budget was checked")

    monkeypatch.setattr(fme, "lp_feasible", no_lp)
    with pytest.raises(ValueError):
        fme_project(s, 2, row_budget=-1)


def test_budget_cutting_pass_through_rows_keeps_protection_exact(monkeypatch):
    # The three dense rows on the kept coordinates pass through every step;
    # the budget keeps the sparsest rows, so at the second step it cuts
    # pass-through rows.  Each per-step sweep must protect exactly the rows
    # the previous sweep kept, wherever the cut moved them.
    s = sys_of(
        [
            ((-1, -1, -1, 1, 0, 0, 0), -3), ((1, -1, 1, 1, 0, 0, 0), -2),
            ((1, -1, 1, -1, 0, 0, 0), -3), ((0, 0, 1, 0, 1, 0, 0), 0),
            ((0, -1, 0, 0, 1, 0, 0), -1), ((0, 0, 0, 1, 1, 0, 0), -1),
            ((1, 0, 0, 0, 1, 0, 0), -2), ((1, 0, 0, 0, -1, 0, 0), -2),
            ((0, 0, -1, 0, -1, 0, 0), -4), ((0, 0, 1, 0, -1, 0, 0), 0),
            ((-1, 0, 0, 0, -1, 0, 0), -2), ((0, 0, 0, 1, 0, 1, 0), -4),
            ((0, 0, 1, 0, 0, 1, 0), -1), ((0, 1, 0, 0, 0, 1, 0), -2),
            ((1, 0, 0, 0, 0, 1, 0), -4), ((1, 0, 0, 0, 0, -1, 0), -3),
            ((0, 0, 0, 1, 0, -1, 0), 0), ((0, -1, 0, 0, 0, -1, 0), -3),
            ((0, 0, 0, -1, 0, 0, 1), -4), ((0, 1, 0, 0, 0, 0, 1), -2),
            ((0, 0, 0, -1, 0, 0, -1), -2), ((1, 0, 0, 0, 0, 0, -1), -2),
        ],
        7,
    )
    step, sweep = fme.fme_step, fme.prune_redundant
    eliminated, sweeps = [], []

    def logged_step(system, var):
        eliminated.append(var)
        return step(system, var)

    def logged_sweep(system, protect=(), inside=None):
        out = sweep(system, protect=protect, inside=inside)
        sweeps.append((system.rows, protect, out.rows))
        return out

    monkeypatch.setattr(fme, "fme_step", logged_step)
    monkeypatch.setattr(fme, "prune_redundant", logged_sweep)
    capped = fme_project(s, 4, row_budget=23)
    assert not sweeps[0][1] and not sweeps[-1][1]  # first and final: full
    cut = False
    for var, (_, _, before), (rows, protect, _) in zip(
            eliminated[1:], sweeps, sweeps[1:-1]):
        assert {rows[i] for i in protect} == set(rows) & set(before)
        cut |= any(r.f[var] == 0 and r not in rows for r in before)
    assert cut
    for row in capped.rows:
        assert is_implied(s, (tuple(row.f) + (0, 0, 0), row.b))
    # protecting and the rays from the interior point only skip probes: the
    # sweeps without them keep the same rows
    monkeypatch.setattr(fme, "prune_redundant",
                        lambda system, protect=(), inside=None: sweep(system))
    assert fme_project(s, 4, row_budget=23).rows == capped.rows


def test_partial_budget_zero_gives_whole_space():
    s = sys_of([((1, 1), 0), ((1, -1), 0)], 2)
    out = fme_project(s, 1, row_budget=0)
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
    capped = fme_project(s, 2, row_budget=3)
    for row in capped.rows:
        padded = (tuple(row.f) + (0,), row.b)
        assert is_implied(s, padded)


def test_prune_redundant_drops_implied_rows():
    square = [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)]
    cases = [
        ([((1, 0), 0), ((0, 1), 0), ((1, 1), 0), ((2, 1), -1), ((1, 0), -7)],
         {((1, 0), 0), ((0, 1), 0)}),
        # the unit square padded with the implied rows (1,1) >= 0, (1,0) >= -5
        (square + [((1, 1), 0), ((1, 0), -5)], set(square)),
        # a row that holds everywhere is implied by no rows at all, so it
        # goes even when it is the last one alive; x >= 0 and 0 >= 1 stay
        ([((0, 0), -1)], set()),
        ([((0, 0), -1), ((0, 0), -2)], set()),
        ([((0, 0), 0)], set()),
        ([((1, 0), 0)], {((1, 0), 0)}),
        ([((0, 0), 1)], {((0, 0), 1)}),
        # x + y >= 0 is the sum of y >= 0 and x >= 0 and goes first; y >= 0
        # is then no sum of x + y and -x, since x + y is gone
        ([((1, 1), 0), ((0, 1), 0), ((1, 0), 0), ((-1, 0), 0)],
         {((0, 1), 0), ((1, 0), 0), ((-1, 0), 0)}),
    ]
    for pairs, want in cases:
        for use_float in (False, True):
            out = prune_redundant(sys_of(pairs, 2), use_float=use_float)
            assert rowset(out) == want


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


def _with_implied_rows(draw, pairs, dim):
    """pairs plus rows they imply: duplicates, positive combinations of two
    rows, and reversed rows (which make equalities), in a drawn order."""
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


@st.composite
def system_with_implied_rows(draw):
    """A bounded random system plus rows it implies."""
    pairs, dim, _ = draw(bounded_random_system())
    return _with_implied_rows(draw, pairs, dim)


@st.composite
def cone_with_implied_rows(draw):
    """A random homogeneous system, so a cone, plus rows it implies: a
    probe that keeps a row ends unbounded, as on cca:3."""
    dim = draw(st.integers(min_value=2, max_value=4))
    face = st.tuples(st.tuples(*[coeff for _ in range(dim)]), st.just(0))
    pairs = draw(st.lists(face, min_size=1, max_size=6))
    return _with_implied_rows(draw, pairs, dim)


@contextlib.contextmanager
def _lp_alone():
    """Sweeps decided by exact LPs alone: `_Sweep.sums_to` proves nothing."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(redundancy._Sweep, "sums_to", lambda self, face, skip=None: False)
        yield


@given(st.one_of(system_with_implied_rows(), cone_with_implied_rows()))
@settings(max_examples=60)
def test_float_sweeps_equal_exact_sweeps(s):
    # floats and hashes only steer: the persistent HiGHS model must reach the
    # verdicts of exact LPs, so a bound left lifted after a probe shows here,
    # and so does a sum accepted on its hash alone when all weights are 0
    # and every hash collides (the sums act alike with and without floats)
    with _lp_alone():
        expected = (prune_redundant(s, use_float=False).rows,
                    implied_equalities(s, use_float=False)[0])
    for weights, use_float in ((redundancy._hash_weights, True),
                               (lambda dim: [0] * dim, False)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(redundancy, "_hash_weights", weights)
            assert (prune_redundant(s, use_float=use_float).rows,
                    implied_equalities(s, use_float=use_float)[0]) == expected


def test_sweep_probe_restores_and_drops_rows():
    # rows 0 and 1 are the same x >= 0; the box closes with x <= 1, 0 <= y <= 1
    s = sys_of([((1, 0), 0), ((1, 0), 0), ((-1, 0), -1),
                ((0, 1), 0), ((0, -1), -1)], 2)
    rows = s.rows
    sweep = redundancy._Sweep(s, use_float=True)
    assert sweep.highs is not None
    # each probe returns its dual weights: row 1 alone, weight 1
    assert sweep.probe(rows[0], 0) == [(1, 1.0)]
    assert sweep.probe(rows[0], 0) == [(1, 1.0)]
    # row 0's bound is back in place after its own probe
    assert sweep.probe(rows[1], 1) == [(0, 1.0)]
    sweep.drop(0)
    # with row 0 gone nothing else bounds x from below, and it stays gone
    assert sweep.probe(rows[1], 1) is False
    assert sweep.probe(rows[1], 1) is False
    assert sweep.probe(Face((1, 0), -1)) == [(1, 1.0)]


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


def test_highs_bindings_load_without_scipy_optimize():
    # the bindings are loaded from their file, skipping scipy.optimize's
    # slow __init__; a later scipy.optimize import reuses the same module
    pytest.importorskip("scipy")
    code = (
        "import sys\n"
        "import polyproj.fme\n"
        "from polyproj import redundancy\n"
        "assert redundancy._hc is not None\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize loaded'\n"
        "from scipy.optimize import linprog\n"
        "res = linprog([1, 1], A_ub=[[-1, -1]], b_ub=[-1], bounds=(0, None),\n"
        "              method='highs')\n"
        "assert res.status == 0 and abs(res.fun - 1) < 1e-9, res\n"
        "assert sys.modules[redundancy._HIGHS_CORE] is redundancy._hc\n"
    )
    src = str(Path(redundancy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_probe_model_runs_primal_simplex_without_presolve(monkeypatch):
    # the probe model runs primal simplex without presolve (see `_Sweep`);
    # the cold interior LP of `strict_rows` keeps HiGHS's defaults, and
    # every option set is accepted
    hc, solve = redundancy._hc, redundancy._linprog
    default, set_options, models = hc._Highs(), [], []

    class Highs(hc._Highs):
        def setOptionValue(self, name, value):
            status = super().setOptionValue(name, value)
            set_options.append((name, status))
            return status

    def option(highs, name):
        status, value = highs.getOptionValue(name)
        assert status == hc.HighsStatus.kOk
        return value

    monkeypatch.setattr(hc, "_Highs", Highs)
    monkeypatch.setattr(redundancy, "_linprog",
                        lambda highs: models.append(highs) or solve(highs))
    s = sys_of([((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)], 2)
    sweep = redundancy._Sweep(s, True)
    assert option(sweep.highs, "presolve") == "off"
    assert option(sweep.highs, "simplex_strategy") == 4
    sweep.strict_rows()
    (interior,) = models
    for name in ("presolve", "simplex_strategy"):
        assert option(interior, name) == option(default, name)
    assert set_options == [(name, hc.HighsStatus.kOk) for name in (
        "output_flag", "presolve", "simplex_strategy", "output_flag")]


def test_sweep_binds_scipy_highs():
    # the sweep reaches HiGHS through scipy's private `_highspy._core`
    # bindings; a scipy release that moves them fails this test
    assert redundancy._Sweep(sys_of([((1, 0), 0)], 2), use_float=True).highs


def test_sweep_model_is_the_scaled_rows():
    # every row divided by its largest |f_j| (1 for a zero row), each entry
    # the integer quotient rounded once, stored negated as -L x <= -a
    big = 2 ** 64 + 1
    rows = [((0, 0, 0), -1), ((3, -7, 0), 2), ((big, 2 ** 63 + 3, -5 * 2 ** 40), 7),
            ((1, 1, 1), 0), ((0, -2, 6), -9)]
    s = ConstraintSystem(tuple(Face(f, b) for f, b in rows), 3)
    lp = redundancy._Sweep(s, use_float=True).highs.getLp()
    a, entries = lp.a_matrix_, {}
    for j in range(3):
        for k in range(a.start_[j], a.start_[j + 1]):
            entries[a.index_[k], j] = a.value_[k]
    mags = [max(map(abs, f)) or 1 for f, _ in rows]
    assert entries == {(i, j): -float(Fraction(c, mag))
                       for i, ((f, _), mag) in enumerate(zip(rows, mags))
                       for j, c in enumerate(f) if c}
    assert list(lp.row_upper_) == [-float(Fraction(b, mag))
                                   for (_, b), mag in zip(rows, mags)]


@pytest.mark.parametrize("rows,kept", [
    # x >= 3e15 follows from x + y >= 4e15 and y <= 5e14, but a right-hand
    # side beyond _FLOAT_LIMIT times the row's scale was clamped to it
    ([((1, 0), 3 * 10 ** 15), ((1, 1), 4 * 10 ** 15), ((0, -1), -5 * 10 ** 14)], 2),
    # scaled, y >= r x reads y / r >= x, and HiGHS drops entries up to 1e-9:
    # the float model saw 0 >= x and kept y >= 0, which the other rows imply
    ([((1, 0), 0), ((0, 1), 0), ((-1, -1), -1), ((-10 ** 9, 1), 0)], 3),
    ([((1, 0), 0), ((0, 1), 0), ((-1, -1), -1), ((-10 ** 12, 1), 0)], 3),
], ids=["huge-rhs", "tiny-entry-1e-9", "tiny-entry-1e-12"])
def test_rows_out_of_float_range_are_decided_exactly(rows, kept):
    s = sys_of(rows, 2)
    expected = prune_redundant(s, use_float=False).rows
    assert len(expected) == kept
    assert prune_redundant(s).rows == expected
    assert redundancy._Sweep(s, use_float=True).highs is None


@pytest.mark.parametrize("huge", [10 ** 400, -10 ** 400],
                         ids=["positive", "negative"])
def test_sweeps_take_numbers_beyond_float_range(huge, monkeypatch):
    # a row with a coefficient or a right-hand side of 10^400 is out of the
    # float model's range, so the sweep is left to exact LPs: no overflow
    wide = sys_of([((1, 0), 0), ((0, 1), 0), ((-1, -1), -1), ((huge, 1), 0)], 2)
    tall = sys_of([((1, 0), 0), ((0, 1), 0), ((-1, -1), -abs(huge)),
                   ((1, 1), huge)], 2)
    for s in (wide, tall):
        assert (prune_redundant(s).rows
                == prune_redundant(s, use_float=False).rows)
        assert implied_equalities(s)[0] == implied_equalities(s, use_float=False)[0]
    projected = [fme_project(s, 1) for s in (wide, tall)]
    monkeypatch.setattr(fme, "prune_redundant",
                        functools.partial(prune_redundant, use_float=False))
    monkeypatch.setattr(fme, "implied_equalities",
                        functools.partial(implied_equalities, use_float=False))
    assert projected == [fme_project(s, 1) for s in (wide, tall)]


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


def test_flat_working_system_projects_exactly(monkeypatch):
    # x1 = x2 among the kept coordinates: substitution pivots only on
    # eliminated columns, so the working system stays flat and the facet
    # argument behind the protected sweeps does not apply there
    rows = [
        ((1, -1, 0, 0, 0, 0), 0), ((-1, 1, 0, 0, 0, 0), 0),
        ((0, 0, 0, 1, 0, 0), 0), ((0, 0, 0, -1, 0, 0), -1),
        ((0, 0, 0, 0, 1, 0), 0), ((0, 0, 0, 0, -1, 0), -1),
        ((0, 0, 0, 0, 0, 1), 0), ((0, 0, 0, 0, 0, -1), -1),
        ((1, 0, 0, -1, 0, 0), 0), ((-1, 0, 0, 1, 1, 0), 0),
        ((0, 0, 1, 0, -1, 1), -1), ((0, 0, -1, 0, 1, 1), -1),
        ((1, 0, 1, 0, 0, -1), -2),
    ]
    s = sys_of(rows, 6)
    sweep, protected = fme.prune_redundant, []

    def logged_sweep(system, protect=(), inside=None):
        protected.append(len(protect))
        return sweep(system, protect=protect, inside=inside)

    monkeypatch.setattr(fme, "prune_redundant", logged_sweep)
    out = fme_project(s, 3)
    assert any(protected)
    # the shadow is {x1 = x2} over the shadow on (x1, x3), which is
    # full-dimensional: swap x2 behind x3 to read that one off the oracle
    swapped = [((f[0], f[2], f[1]) + f[3:], b) for f, b in rows]
    plane = brute_projection_facets(
        [list(f) for f, _ in swapped], [b for _, b in swapped], 6, 2)
    expected = [((f[0], 0, f[1]), b) for f, b in plane]
    expected += [((1, -1, 0), 0), ((-1, 1, 0), 0)]
    assert _same_polyhedron(out, expected, 3)


def _count_float_lps(monkeypatch):
    """A list that gains one entry per HiGHS solve of `redundancy`: the
    model's `presolve` and `simplex_strategy` settings."""
    solve, calls = redundancy._linprog, []

    def counted(highs):
        calls.append(tuple(highs.getOptionValue(name)[1]
                           for name in ("presolve", "simplex_strategy")))
        return solve(highs)

    monkeypatch.setattr(redundancy, "_linprog", counted)
    return calls


def _refuse(monkeypatch, module, name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    monkeypatch.setattr(module, name, refused)


def test_per_step_sweeps_skip_pass_through_rows(monkeypatch):
    # probing every pass-through row and every row's reverse costs 1,397
    # float LPs on cca:3; the skips leave 501, the interior LP included, the
    # interior LP's certified dual leaves 424, the rows that are another
    # row loosened or the sum of two, dropped by `_Sweep.sums_to` with no
    # LP, leave 246, and the rows kept by a ray from the interior LP's
    # point (`_Sweep.keeps`) leave 193; every other drop and equality is
    # proven by a rounded float dual, with no exact solve or LP.  All but
    # the interior LP are warm probes by primal simplex without presolve,
    # and HiGHS's default settings find the same rows
    cca3 = parse_scenario("cca:3")
    calls = _count_float_lps(monkeypatch)
    _refuse(monkeypatch, redundancy, "lp_minimize")
    out = fme_project(cca3.system, cca3.scenario.d)
    assert len(out) == 16
    assert len(calls) == 193
    assert calls.count(("off", 4)) == 192
    hc = redundancy._hc

    class DefaultHighs(hc._Highs):
        def setOptionValue(self, name, value):  # drops the probe settings
            if name in ("presolve", "simplex_strategy"):
                return hc.HighsStatus.kOk
            return super().setOptionValue(name, value)

    monkeypatch.setattr(hc, "_Highs", DefaultHighs)
    calls.clear()
    assert fme_project(cca3.system, cca3.scenario.d).rows == out.rows
    assert set(calls) == {("choose", 1)}


def test_sums_of_rows_are_dropped_without_a_probe(monkeypatch):
    # x + y >= 0 is the sum of x >= 0 and y >= 0, and x + 2y >= 1 is
    # x + 2y >= 2 loosened: both go with no float LP, and each row kept
    # costs one probe
    s = sys_of([((1, 1), 0), ((1, 0), 0), ((0, 1), 0),
                ((1, 2), 1), ((1, 2), 2)], 2)
    calls = _count_float_lps(monkeypatch)
    _refuse(monkeypatch, redundancy, "lp_minimize")
    assert rowset(prune_redundant(s)) == {((1, 0), 0), ((0, 1), 0), ((1, 2), 2)}
    assert len(calls) == 3


def test_sums_of_rows_beyond_int64_are_dropped_without_an_lp(monkeypatch):
    # hashes reduce each coefficient modulo 2^64, so a sum or a loosened
    # row with entries of either sign beyond 2^63 still goes with no LP:
    # only the 2 rows kept cost an exact LP each
    big = 2 * 3 ** 44
    s = sys_of([((big + 1, 1 - big), -1), ((big, 1), -5),
                ((big, 1), 0), ((1, -big), -1)], 2)
    solve, calls = redundancy.lp_minimize, []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(redundancy, "lp_minimize", counted)
    assert rowset(prune_redundant(s, use_float=False)) == {((big, 1), 0),
                                                           ((1, -big), -1)}
    assert len(calls) == 2


def test_colliding_hashes_keep_the_sweeps_of_cca3_exact(monkeypatch):
    # with every weight 0 every hash collides, and with every weight 1 the
    # rows with equal coefficient sums do, so lookups propose rows that do
    # not sum to the face and only the integer check decides: an exact LP
    # confirms every face the sums prove in FME's sweeps of cca:3, and FME
    # ends with the facets it finds when the sums prove nothing
    cca3 = parse_scenario("cca:3")
    with _lp_alone():
        expected = fme_project(cca3.system, cca3.scenario.d).rows
    sums_to, proven = redundancy._Sweep.sums_to, []

    def checked(self, face, skip=None):
        if not sums_to(self, face, skip):
            return False
        others = tuple(r for k, r in enumerate(self.rows)
                       if self.alive[k] and k != skip)
        assert is_implied(ConstraintSystem(others, self.system.dim), face)
        proven[-1] += 1
        return True

    monkeypatch.setattr(redundancy._Sweep, "sums_to", checked)
    for weight in (0, 1):
        monkeypatch.setattr(redundancy, "_hash_weights",
                            lambda dim: [weight] * dim)
        proven.append(0)
        assert fme_project(cca3.system, cca3.scenario.d).rows == expected
    assert proven == [0, 38]


# ------------------------------------------------- keep verdicts


def _three_points(s):
    """The interior LP's point of s, a point outside it and one on its
    boundary: a vertex that minimizes its first nonzero row, or, when that
    is unbounded (a cone), the apex, which lies on every row.  A system with
    no solutions has no interior LP's point, and the origin stands in."""
    x0 = implied_equalities(s)[1]
    x0 = [0.0] * s.dim if x0 is None else list(x0)
    face = next(r for r in s.rows if any(r.f))
    over = (sum(c * x for c, x in zip(face.f, x0)) - face.b + 1) / sum(c * c for c in face.f)
    outside = [x - over * c for x, c in zip(x0, face.f)]  # face.x = b - 1
    sol = lp_minimize(s, face.f)
    boundary = [float(x) for x in sol.x] if sol.status == OPTIMAL else [0.0] * s.dim
    return x0, outside, boundary


@given(st.one_of(system_with_implied_rows(), cone_with_implied_rows()))
@settings(max_examples=60, deadline=None)
def test_rays_from_any_point_keep_what_the_exact_sweep_keeps(s):
    # a keep verdict needs no good point: from the interior LP's point, from
    # outside the polyhedron or from its boundary, a ray only keeps rows
    # that no other alive row implies
    assume(any(any(r.f) for r in s.rows))
    expected = prune_redundant(s, use_float=False).rows
    for point in _three_points(s):
        assert prune_redundant(s, inside=point).rows == expected


def test_weakly_redundant_row_at_a_tie_is_dropped(monkeypatch):
    # x + 2y >= 0 touches the unit cube along the edge x = y = 0, where the
    # facets x >= 0 and y >= 0 meet; the ray from (0.2, 0.4, 0.5) meets its
    # plane on that edge, a tie with both facets, so it gets no verdict and
    # its probe drops it, while every facet is kept by its ray
    cube = [((1, 0, 0), 0), ((-1, 0, 0), -1), ((0, 1, 0), 0),
            ((0, -1, 0), -1), ((0, 0, 1), 0), ((0, 0, -1), -1)]
    s = sys_of([((1, 2, 0), 0)] + cube, 3)
    point = (0.2, 0.4, 0.5)
    sweep = redundancy._Sweep(s, True, point)
    assert [sweep.keeps(i) for i in range(7)] == [False] + [True] * 6
    assert redundancy._Sweep(s, False, point).slack is None  # no floats, no rays
    calls = _count_float_lps(monkeypatch)
    _refuse(monkeypatch, redundancy, "lp_minimize")
    assert rowset(prune_redundant(s, inside=point)) == set(cube)
    assert len(calls) == 1


def test_zero_row_given_a_point_is_still_dropped():
    # 0 >= -1 holds everywhere; its ray is undefined (t = 0/0), so it gets
    # no verdict and goes as before, the last row too
    s = sys_of([((0, 0), -1), ((1, 0), 0), ((0, 1), 0)], 2)
    assert not redundancy._Sweep(s, True, (1.0, 1.0)).keeps(0)
    assert rowset(prune_redundant(s, inside=(1.0, 1.0))) == {((1, 0), 0), ((0, 1), 0)}
    assert prune_redundant(sys_of([((0, 0), -1)], 2), inside=(0.0, 0.0)).rows == ()


def test_rays_keep_the_facets_of_elemental_3_without_probes(monkeypatch):
    # FME on elemental:3 eliminates nothing and only sweeps once: the
    # interior LP's point keeps each of the 9 facets by a ray, so that LP
    # is the one float LP; without the rays each row costs a probe, 10 LPs
    scenario = parse_scenario("elemental:3")
    calls = _count_float_lps(monkeypatch)
    _refuse(monkeypatch, redundancy, "lp_minimize")
    assert len(fme_project(scenario.system, scenario.scenario.d)) == 9
    assert len(calls) == 1


# ------------------------------------------------- rounded certificates


def test_certificate_accepts_exact_combinations():
    # 2x >= 1 and 3y >= -1 scale to x >= 1/2 and y >= -1/3 in the float
    # model; weights 2 and 3 on those give 2x + 3y >= 0
    rows = sys_of([((2, 0), 1), ((0, 3), -1), ((1, 1), 5)], 2).rows
    target = Face((2, 3), 0)
    assert redundancy._certificate(rows, [(0, 2.0), (1, 3.0)], target) == [0, 1]
    # a float error that rounding repairs, and a weight that rounds to 0
    assert redundancy._certificate(
        rows, [(0, 2.0 - 1e-12), (1, 3.0 + 1e-11), (2, 1e-10)], target) == [0, 1]
    # any positive multiple of the target will do
    assert redundancy._certificate(rows, [(0, 4.0), (1, 6.0)], target) == [0, 1]
    # the zero face: x - y >= 1 and y - x >= -1 sum to 0 >= 0, so both
    # rows are equalities
    pair = sys_of([((1, -1), 1), ((-1, 1), -1), ((1, 0), 0)], 2).rows
    assert redundancy._certificate(
        pair, [(0, 1.0), (1, 1.0)], Face((0, 0), 0)) == [0, 1]


def test_certificate_rejects_what_it_cannot_prove():
    rows = sys_of([((2, 0), 1), ((0, 3), -1)], 2).rows
    target = Face((2, 3), 0)
    cert = redundancy._certificate
    # weights off by more than rounding repairs: (2, 3.01) is not along f
    assert cert(rows, [(0, 2.0), (1, 3.01)], target) is None
    # a negative rounded weight: x + y >= 0 and y >= 0 "give" x >= 0 with
    # weights 1 and -1, yet (-1, 1) satisfies both rows
    skew = sys_of([((1, 1), 0), ((0, 1), 0)], 2).rows
    assert cert(skew, [(0, 1.0), (1, -1.0)], Face((1, 0), 0)) is None
    # a negative multiple of f: -x >= -1 weighs to -1 times x >= -5
    below = sys_of([((-1, 0), -1)], 2).rows
    assert cert(below, [(0, 1.0)], Face((1, 0), -5)) is None
    # a right-hand side that falls short: 2x + 3y >= 0, not >= 1
    assert cert(rows, [(0, 2.0), (1, 3.0)], Face((2, 3), 1)) is None
    # and for the zero face, a combination with y.a < 0 (the thin box)
    box = sys_of([((1, 0), 0), ((-1000, 0), -1)], 2).rows
    assert cert(box, [(0, 1.0), (1, 1.0)], Face((0, 0), 0)) is None
    assert cert(rows, [(0, float("nan"))], target) is None


# ------------------------------------------------- implicit equalities


def test_implied_equalities_on_cca4_is_one_float_lp(monkeypatch):
    # the interior LP's dual proves all 814 equalities of cca:4 at once
    system = parse_scenario("cca:4").system
    calls = _count_float_lps(monkeypatch)
    _refuse(monkeypatch, redundancy, "lp_minimize")
    assert len(implied_equalities(system)[0]) == 814
    assert len(calls) == 1


def test_implied_equalities_forced_point():
    # x >= 0, y >= 0, x + y <= 0 pin the origin: every row is an equality
    s = sys_of([((1, 0), 0), ((0, 1), 0), ((-1, -1), 0)], 2)
    assert implied_equalities(s)[0] == [0, 1, 2]
    assert implied_equalities(s, use_float=False)[0] == [0, 1, 2]


def test_implied_equalities_pinched_segment():
    # x <= 1/2, y <= 1/2 and x + y >= 1 meet only at (1/2, 1/2)
    s = sys_of([((-2, 0), -1), ((0, -2), -1), ((1, 1), 1)], 2)
    assert implied_equalities(s)[0] == [0, 1, 2]


def test_implied_equalities_none_on_square():
    s = sys_of([((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)], 2)
    assert implied_equalities(s)[0] == []


def test_implied_equalities_thin_box_is_left_to_the_probes(monkeypatch):
    # 0 <= x, y <= 1/1000: no point has a row slack of half its scale, and
    # the interior LP's dual weighs every row with y.a < 0, which proves no
    # equality, so the LP settles nothing and each row gets its own probe
    s = sys_of([((1, 0), 0), ((0, 1), 0), ((-1000, 0), -1), ((0, -1000), -1)], 2)
    strict, weights, _ = redundancy._Sweep(s, use_float=True).strict_rows()
    assert strict == set() and [k for k, _ in weights] == [0, 1, 2, 3]
    assert redundancy._certificate(s.rows, weights, Face((0, 0), 0)) is None
    calls = _count_float_lps(monkeypatch)
    assert implied_equalities(s)[0] == [] == implied_equalities(s, use_float=False)[0]
    assert len(calls) == 1 + 4


def test_implied_equalities_hidden_in_a_cycle(monkeypatch):
    # x - y >= 1, y - z >= -2, z - x >= 1 sum to 0 >= 0, so all three are
    # tight: x = y + 1 = z - 1, with no row the reverse of another; the
    # bounds 0 <= x <= 3, 0 <= w <= 5 are strict at the interior point,
    # and the interior LP's dual is that sum, which proves the three
    s = sys_of([((1, -1, 0, 0), 1), ((0, 1, -1, 0), -2), ((-1, 0, 1, 0), 1),
                ((1, 0, 0, 0), 0), ((-1, 0, 0, 0), -3),
                ((0, 0, 0, 1), 0), ((0, 0, 0, -1), -5)], 4)
    strict, weights, point = redundancy._Sweep(s, use_float=True).strict_rows()
    assert strict == {3, 4, 5, 6}
    # the LP's point, which FME's sweeps take as `inside`, meets the cycle
    x, y, z, w = point
    assert abs(x - y - 1) < 1e-9 and abs(z - x - 1) < 1e-9 and 0 < x < 3 and 0 < w < 5
    assert redundancy._certificate(s.rows, weights, Face((0,) * 4, 0)) == [0, 1, 2]
    calls = _count_float_lps(monkeypatch)
    assert implied_equalities(s)[0] == [0, 1, 2]
    assert len(calls) == 1
    assert implied_equalities(s, use_float=False)[0] == [0, 1, 2]


def test_implied_equalities_explicit_pair():
    s = sys_of([((1, 1), 1), ((-1, -1), -1), ((1, 0), 0)], 2)
    assert implied_equalities(s)[0] == [0, 1]


def test_implied_equalities_of_an_infeasible_system_are_every_row():
    # x >= 1 and x <= 0 leave no point, on which every row holds with
    # equality; fme_project refuses such a system before asking
    s = sys_of([((1, 0), 1), ((-1, 0), 0), ((0, 1), 0)], 2)
    assert implied_equalities(s)[0] == [0, 1, 2]
    assert implied_equalities(s, use_float=False)[0] == [0, 1, 2]
    with pytest.raises(InfeasibleSystem):
        fme_project(s, 1)


@st.composite
def system_with_hidden_equalities(draw):
    """A box around an integer point p, with random rows valid at p and one
    or two triples g.x >= g.p, (h - g).x >= (h - g).p, -h.x >= -h.p: they
    sum to 0 >= 0, so all three are implicit equalities, yet no row is the
    reverse of another.  Also returns the number of coordinates kept."""
    dim = draw(st.integers(min_value=3, max_value=5))
    keep = draw(st.integers(min_value=1, max_value=dim - 2))
    point = draw(st.tuples(*[st.integers(-2, 2) for _ in range(dim)]))

    def valid(f, slack=0):
        return (f, sum(a * x for a, x in zip(f, point)) - slack)

    form = st.tuples(*[coeff for _ in range(dim)])
    rows = []
    for k in range(dim):
        e = tuple(int(j == k) for j in range(dim))
        rows.append(valid(e, draw(st.integers(1, 2))))
        rows.append(valid(tuple(-x for x in e), draw(st.integers(1, 2))))
    for _ in range(draw(st.integers(1, 2))):
        g, h = draw(form), draw(form)
        rows += [valid(g), valid(tuple(b - a for a, b in zip(g, h))),
                 valid(tuple(-b for b in h))]
    rows += [valid(draw(form), draw(st.integers(0, 3)))
             for _ in range(draw(st.integers(0, 3)))]
    rows = [row for row in rows if any(row[0])]
    order = draw(st.permutations(range(len(rows))))
    return sys_of([rows[k] for k in order], dim), keep


@given(system_with_hidden_equalities())
@settings(max_examples=30, deadline=None)
def test_hidden_equalities_project_as_if_explicit(case):
    # the substitution needs no explicit reverse rows: adding the reverse of
    # every implicit equality leaves fme_project's rows and their order as
    # they were.  On a flat shadow an equality among the kept coordinates
    # is no substitution but a row of the output, described by whichever
    # rows FME derives, so the claim is for full-dimensional shadows: no
    # combination of the equalities vanishes on every eliminated column
    s, keep = case
    eqs = [s.rows[i].f for i in implied_equalities(s)[0]]
    zero = (0,) * s.dim
    assume(affine_rank([zero] + eqs)
           == affine_rank([zero[keep:]] + [f[keep:] for f in eqs]))
    explicit = s.with_rows([-s.rows[i] for i in implied_equalities(s)[0]])
    assert fme_project(s, keep).rows == fme_project(explicit, keep).rows


def test_detection_shrinks_forced_projection():
    # hidden equality x = y (from x - y >= 0, y - x >= -0 written slack-free
    # via two tilted rows) must not stop the shadow from being exact
    rows = [((1, -1, 0), 0), ((-1, 1, 0), 0), ((0, 0, 1), 0), ((0, 0, -1), -1),
            ((1, 0, 0), 0), ((-1, 0, 0), -2)]
    s = sys_of(rows, 3)
    out = fme_project(s, 2)
    # the shadow is flat, which brute_projection_facets cannot describe, so
    # read it off the oracle's vertices: the segment from (0, 0) to (2, 2)
    verts = brute_vertices([list(f) for f, _ in rows], [b for _, b in rows], 3)
    assert {v[:2] for v in verts} == {(0, 0), (2, 2)}
    segment = [((1, -1), 0), ((-1, 1), 0), ((1, 0), 0), ((-1, 0), -2)]
    assert _same_polyhedron(out, segment, 2)


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
        expected = brute_projection_facets(
            [list(f) for f, _ in facets], [b for _, b in facets], dim, dim - 1)
        assert _same_polyhedron(on, expected, dim - 1)
