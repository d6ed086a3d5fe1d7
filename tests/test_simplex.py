"""Certificates of the exact simplex, checked with the pivot invariant on."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from polyproj import simplex

from .oracles import basis_multipliers, dual_bland_choice, solve_linear


def _programs(seed, count):
    """Small random programs; some with a dependent row, some infeasible."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 4), rng.randint(2, 6)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.4:
            A[-1] = [rng.randint(-2, 2) * a for a in A[0]]
        z0 = [rng.randint(0, 2) for _ in range(n)]
        b = [sum(a * z for a, z in zip(row, z0)) for row in A]
        if rng.random() < 0.3:
            b = [x + rng.randint(-2, 2) for x in b]
        c = [rng.randint(-2, 4) for _ in range(n)]
        yield A, b, c


def _values(res):
    """The objective and tie values of an optimal result."""
    return tuple(Fraction(v, res.den) for v in res.value_ints)


def _solution(res):
    """The solution z of an optimal result; () for any other."""
    return tuple(Fraction(v, res.den) for v in res.z_ints)


def _column(A, j):
    return [row[j] for row in A]


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _readout(res):
    """The integer readout (X, D) of the multipliers pi = -X / D, with its
    form checked: integer numerators, one positive integer denominator."""
    X, D = res.multipliers()
    assert type(D) is int and D > 0
    assert all(type(x) is int for x in X)
    return X, D


def _check_multipliers(A, rhs, c, X, D, values):
    """pi.A <= c on every column and pi.b = value for each right-hand side
    b, in integers: -X.A_j <= c_j D and -X.b = value D."""
    for j in range(len(c)):
        assert -_dot(X, _column(A, j)) <= c[j] * D
    assert [-_dot(X, b) for b in rhs] == [v * D for v in values]


def _oracle(A, c, basis, X):
    """The oracle's multipliers pi for the basis, with the dropped rows
    taken among the rows where the readout X vanishes; None when no choice
    fits."""
    zeros = [i for i, x in enumerate(X) if x == 0]
    for dropped in combinations(zeros, len(A) - len(basis)):
        want = basis_multipliers(A, c, basis, dropped)
        if want is not None:
            return want, dropped
    return None, None


def test_certificates_on_random_programs(check_pivots):
    seen = Counter()
    for A, b, c in _programs(seed=7, count=300):
        m, n = len(A), len(c)
        res = simplex.solve_standard(A, b, c)
        if res.status == simplex.OPTIMAL:
            X, D = _readout(res)
            assert len(X) == m
            _check_multipliers(A, [b], c, X, D, _values(res)[:1])
            want, dropped = _oracle(A, c, res.basis, X)
            assert tuple(-w * D for w in want) == X
            if res.basis:
                keep = [i for i in range(m) if i not in dropped]
                basic_rows = [[A[i][j] for i in keep] for j in res.basis]
                assert solve_linear(basic_rows, [c[j] for j in res.basis]) == \
                    [Fraction(-X[i], D) for i in keep]
            seen["optimal, dependent rows" if dropped else "optimal"] += 1
        elif res.status == simplex.INFEASIBLE:
            y = res.farkas()
            assert len(y) == m and all(type(v) is int for v in y)
            for j in range(n):
                assert _dot(y, _column(A, j)) <= 0
            assert _dot(y, b) > 0
            seen["infeasible"] += 1
        else:
            ray = res.ray
            assert all(type(r) is int and r >= 0 for r in ray)
            assert all(_dot(row, ray) == 0 for row in A)
            assert _dot(c, ray) < 0
            seen["unbounded"] += 1
    assert set(seen) == {"optimal", "optimal, dependent rows", "infeasible",
                         "unbounded"}


def test_certificates_need_the_matching_status():
    res = simplex.solve_standard([[1, 1]], [1], [1, 2])
    assert res.status == simplex.OPTIMAL
    assert res.multipliers() == ((-1,), 1)
    with pytest.raises(ValueError):
        res.farkas()
    res = simplex.solve_standard([[1, 1]], [-1], [1, 2])
    assert res.status == simplex.INFEASIBLE
    assert res.farkas() == (-1,)
    with pytest.raises(ValueError):
        res.multipliers()


def test_no_rows():
    res = simplex.solve_standard([], [], [1, 0])
    assert res.status == simplex.OPTIMAL
    assert res.multipliers() == ((), 1)


def _lex_programs(seed, count):
    """Small random programs with k = 2-3 right-hand sides; some with a
    dependent row, some infeasible at a later stage, some unbounded."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n, k = rng.randint(1, 4), rng.randint(2, 6), rng.randint(2, 3)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.4:
            A[-1] = [rng.randint(-2, 2) * a for a in A[0]]
        block = []
        for _ in range(k):
            z = [rng.randint(-1, 2) if block else rng.randint(0, 2) for _ in range(n)]
            rhs = [sum(a * x for a, x in zip(row, z)) for row in A]
            if rng.random() < 0.15:
                rhs = [x + rng.randint(-1, 1) for x in rhs]
            block.append(rhs)
        if rng.random() < 0.2:  # a repeated or zero tie column
            block[-1] = list(block[0]) if rng.random() < 0.5 else [0] * m
        c = [rng.randint(-2, 4) for _ in range(n)]
        yield A, block, c


def _staged(A, block, c):
    """Reference for a right-hand-side block: one k = 1 solve per column.

    Stage j maximizes b_j.y over the dual {y : y.A <= c} with the earlier
    optima pinned as rows b_l.y = v_l.  In standard form such a pin is a
    free column b_l of cost v_l, split into two nonnegative ones; it is kept
    (at cost 0) when stage 1 is unbounded, so later stages still decide
    feasibility.  The simplex takes integer costs, so each stage's costs are
    multiplied by the lcm L of the pins' denominators, and its value divided
    by L.  Returns (status, values)."""
    status, values = simplex.OPTIMAL, []
    for j, b in enumerate(block):
        rows = [list(row) + [p[i] for p in block[:j]] + [-p[i] for p in block[:j]]
                for i, row in enumerate(A)]
        pins = values if status == simplex.OPTIMAL else [0] * j
        L = lcm(*(Fraction(v).denominator for v in pins))
        costs = [int(L * x) for x in list(c) + pins + [-v for v in pins]]
        res = simplex.solve_standard(rows, b, costs)
        if res.status == simplex.INFEASIBLE:
            return simplex.INFEASIBLE, None
        if res.status == simplex.UNBOUNDED:
            assert j == 0 or status == simplex.UNBOUNDED
            status = simplex.UNBOUNDED
        else:
            values.append(_values(res)[0] / L)
    return status, (values if status == simplex.OPTIMAL else None)


def test_rhs_block_matches_staged_solves(check_pivots):
    seen = Counter()
    for A, block, c in _lex_programs(seed=3, count=300):
        m, n = len(A), len(c)
        res = simplex.solve_standard(A, block[0], c, ties=block[1:])
        want_status, want_values = _staged(A, block, c)
        assert res.status == want_status
        if res.status == simplex.OPTIMAL:
            assert _values(res) == tuple(want_values)
            assert _values(res)[0] == _values(simplex.solve_standard(A, block[0], c))[0]
            z = _solution(res)
            assert all(x >= 0 for x in z)
            assert all(_dot(row, z) == b for row, b in zip(A, block[0]))
            X, D = _readout(res)
            _check_multipliers(A, block, c, X, D, want_values)
            dependent = len(res.basis) < m
            seen["optimal, dependent rows" if dependent else "optimal"] += 1
        elif res.status == simplex.INFEASIBLE:
            y = res.farkas()
            for j in range(n):
                assert _dot(y, _column(A, j)) <= 0
            signs = [_dot(y, b) for b in block]
            assert next(s for s in signs if s) > 0
            later = simplex.solve_standard(A, block[0], c).status != simplex.INFEASIBLE
            seen["infeasible at a later stage" if later else "infeasible"] += 1
        else:
            ray = res.ray
            assert all(r >= 0 for r in ray)
            assert all(_dot(row, ray) == 0 for row in A)
            assert _dot(c, ray) < 0
            seen["unbounded"] += 1
    assert set(seen) == {"optimal", "optimal, dependent rows", "infeasible",
                         "infeasible at a later stage", "unbounded"}


def _scaled_block(rng, block):
    """The block times one positive integer factor, chosen so that its
    entries stay small, come just below 2^31, or go above it."""
    top = max(abs(x) for col in block for x in col) or 1
    factor = rng.choice((1, (2 ** 31 - 1) // top or 1, 2 ** 32 // top + 1))
    return [[factor * x for x in col] for col in block]


def _wide_programs(seed, count):
    """Random integer programs whose entries are small, moderate, just below
    2^31 or above it, so that some tableaux stay int64, some start as
    object and some are promoted in the middle of a solve; each with a
    second block for a warm solve (see ``_scaled_block``), drawn from its own
    generator."""
    rng, warm_rng = random.Random(seed), random.Random(seed + 1)
    for _ in range(count):
        top = rng.choice((4, 2 ** 12, 2 ** 20, 2 ** 31, 2 ** 32, 2 ** 40))

        def nonzero():
            return rng.choice((-1, 1)) * rng.randint(top - top // 8 - 1, top - 1)

        def entry():
            return 0 if rng.random() < 0.25 else nonzero()

        m, n = rng.randint(1, 4), rng.randint(2, 6)
        A = [[entry() for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            A[-1] = [2 * a for a in A[0]]
        block = []
        for _ in range(rng.choice((1, 1, 2))):
            z = [rng.randint(0, 2) for _ in range(n)]
            rhs = [_dot(row, z) for row in A]
            if rng.random() < 0.3:
                rhs = [x + entry() for x in rhs]
            block.append(rhs)
        c = [entry() for _ in range(n)]
        c[rng.randrange(n)] = nonzero()
        warm = []
        for _ in range(warm_rng.choice((1, 1, 2))):
            rhs = [_dot(row, [warm_rng.randint(0, 2) for _ in range(n)]) for row in A]
            if warm_rng.random() < 0.3:
                rhs = [x + warm_rng.randint(-3, 3) for x in rhs]
            warm.append(rhs)
        yield A, block, _scaled_block(warm_rng, warm), c


def _rhs_path(before, after, N):
    """Which dtype path ``set_rhs`` took, as far as its effect shows."""
    if before == object:
        return "object tableau"
    if after == object:
        return "promoted"
    if max(abs(int(v)) for v in N.flat) >= simplex._INT64_BOUND:
        return "int block, int64 above 2^31"
    return "int block, int64"


def _assert_scaled_alike(res, ref, S):
    """ref solved the program of res with its costs scaled by S."""
    assert (res.status, _solution(res), res.ray, res.basis) == \
        (ref.status, _solution(ref), ref.ray, ref.basis)
    if res.status == simplex.OPTIMAL:
        assert tuple(v * S for v in _values(res)) == _values(ref)
        X, D = _readout(res)
        ref_X, ref_D = _readout(ref)
        assert [x * D for x in ref_X] == [S * x * ref_D for x in X]  # pi scales by S
    elif res.status == simplex.INFEASIBLE:
        assert res.farkas() == ref.farkas()


def test_int64_tableaux_match_object_ones(check_pivots, monkeypatch):
    """Each program is solved as given and with its costs scaled by 2^40,
    which leaves every pivot choice alone but makes the tableau an object
    array from the start: both runs must pivot alike and give the same
    results, the costs' scale aside.  Then each run solves a second block
    warm, from its own tableau, and again both must pivot alike; the second
    blocks take every dtype path through ``set_rhs``."""
    pivots, rhs_paths = [], Counter()
    pivot, set_rhs = simplex._Tableau.pivot, simplex._Tableau.set_rhs

    def spy(self, r, s):
        before = self.N.dtype
        pivot(self, r, s)
        pivots.append((r, s, before, self.N.dtype))

    def spy_rhs(self, columns):
        before = self.N.dtype
        set_rhs(self, columns)
        rhs_paths[_rhs_path(before, self.N.dtype, self.N)] += 1

    monkeypatch.setattr(simplex._Tableau, "pivot", spy)
    monkeypatch.setattr(simplex._Tableau, "set_rhs", spy_rhs)
    S = 2 ** 40
    seen = Counter()
    for A, block, warm, c in _wide_programs(seed=11, count=300):
        pivots.clear()
        res = simplex.solve_standard(A, block[0], c, ties=block[1:])
        run = list(pivots)
        pivots.clear()
        ref = simplex.solve_standard(A, block[0], [S * x for x in c], ties=block[1:])
        assert [p[:2] for p in run] == [p[:2] for p in pivots]
        assert all(p[2] == object for p in pivots)
        _assert_scaled_alike(res, ref, S)
        if res.status == simplex.OPTIMAL:
            X, D = _readout(res)
            _check_multipliers(A, block[:1], c, X, D, _values(res)[:1])
            assert tuple(-w * D for w in _oracle(A, c, res.basis, X)[0]) == X
        if res._tableau is not None:
            assert ref._tableau is not None
            pivots.clear()
            warm_res = simplex.solve_standard(A, warm[0], c, ties=warm[1:], warm=res._tableau)
            warm_run = list(pivots)
            pivots.clear()
            warm_ref = simplex.solve_standard(A, warm[0], [S * x for x in c], ties=warm[1:],
                                              warm=ref._tableau)
            assert [p[:2] for p in warm_run] == [p[:2] for p in pivots]
            _assert_scaled_alike(warm_res, warm_ref, S)
            seen["warm, " + warm_res.status] += 1
        if not run:
            continue
        dtypes = [run[0][2]] + [p[3] for p in run]
        if dtypes[0] == object:
            seen["object from the start"] += 1
        elif dtypes[-1] != object:
            seen["int64 throughout"] += 1
        elif dtypes[1] != object:
            seen["promoted in the middle"] += 1
    assert set(seen) == {"int64 throughout", "object from the start",
                         "promoted in the middle", "warm, optimal", "warm, infeasible"}
    assert set(rhs_paths) == {"int block, int64", "int block, int64 above 2^31",
                              "promoted", "object tableau"}


def _warm_blocks(rng, A, count):
    """Right-hand-side blocks of 1-3 columns for warm solves on A: mostly
    A z for some z >= 0, now and then shifted off it."""
    n = len(A[0])
    for _ in range(count):
        block = []
        for _ in range(rng.randint(1, 3)):
            rhs = [_dot(row, [rng.randint(0, 2) for _ in range(n)]) for row in A]
            if rng.random() < 0.2:
                rhs = [x + rng.randint(-2, 2) for x in rhs]
            block.append(rhs)
        yield block


def test_dual_run_follows_blands_rule_on_the_dual(check_pivots, monkeypatch):
    """Every pivot of a warm solve, and how it ends, is what the plain
    dual-rule oracle picks on the tableau as it stands."""
    in_dual, seen = [False], Counter()
    pivot, dual_run = simplex._Tableau.pivot, simplex._Tableau.dual_run

    def oracle(tab):
        m, n, k = tab.m, tab.n, tab.k
        N = tab.N.tolist()
        return dual_bland_choice([row[:k] for row in N[:m]], [row[k:k + n] for row in N[:m]],
                                 N[m][k:k + n], tab.basis)

    def spy_pivot(self, r, s):
        if in_dual[0]:
            assert oracle(self) == (r, s - self.k)
            seen["pivot"] += 1
        pivot(self, r, s)

    def spy_dual_run(self):
        in_dual[0] = True
        try:
            status = dual_run(self)
        finally:
            in_dual[0] = False
        end = oracle(self)
        assert end is None if status == simplex.OPTIMAL else end[1] is None
        seen[status] += 1
        return status

    monkeypatch.setattr(simplex._Tableau, "pivot", spy_pivot)
    monkeypatch.setattr(simplex._Tableau, "dual_run", spy_dual_run)
    rng = random.Random(5)
    for A, block, c in _lex_programs(seed=9, count=150):
        res = simplex.solve_standard(A, block[0], c, ties=block[1:])
        for new in _warm_blocks(rng, A, 4):
            if res._tableau is None:
                break
            warm = simplex.solve_standard(A, new[0], c, ties=new[1:], warm=res._tableau)
            cold = simplex.solve_standard(A, new[0], c, ties=new[1:])
            assert warm.status == cold.status
            if cold.status == simplex.OPTIMAL:
                assert _values(warm) == _values(cold)
            res = warm
    assert seen[simplex.OPTIMAL] and seen[simplex.INFEASIBLE] and seen["pivot"] > 100
