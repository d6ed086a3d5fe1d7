"""
Redundancy removal for inequality systems, steered by float LPs.

A row is redundant when it is implied by the remaining rows; dropping it
leaves the solution set unchanged, and a row is an implicit equality when
the system implies its reverse.  Both sweeps, `prune_redundant` and
`implied_equalities`, run float LPs first and exact arithmetic only when
needed, but *every implication is justified by an exact certificate*:

  - "not implied" needs no proof: keeping a redundant row never changes the
    polyhedron, and missing an equality only costs later work;
  - an implication is accepted only once an exact conic multiplier vector
    q >= 0 with q^T L = s f (s > 0) and q^T a >= s b is in hand.

`_Sweep.implies` decides each row in five steps, in order:

  1. keep verdict: when `prune_redundant` is given a point, a row is kept
     with no LP when the ray from that point to the row's plane meets it
     strictly inside every other alive row: a row first hit by such a ray
     is a facet (`_Sweep.keeps`; Berbee et al., "Hit-and-run algorithms for
     the identification of nonredundant linear inequalities", 1987);
  2. sums: a row that is another alive row loosened, or the plain sum of
     two, f = f_p + f_q with b <= b_p + b_q, as chain rules make in entropy
     cones, is dropped with no LP (`_Sweep.sums_to`); hashes of the rows
     propose p and q and a check in integers decides;
  3. float probe: the float LP over the other alive rows, whose "not
     implied" keeps the row;
  4. rounded dual: the probe's dual, rounded to small fractions and checked
     in integers as q (`_certificate`);
  5. exact LP: when the rounding misses, a full exact LP decides.

The keep verdict and the probe's "not implied" are decided in floats; every
drop rests on a q checked in integers.  So floating point influences speed,
never results (Dhiflaoui et al., "Certifying and repairing solutions to
large LPs", 2003).

Each sweep is one `_Sweep`: its rows, read once into one integer matrix,
one mask of the rows still alive, the hashes of the alive rows, and one
HiGHS model of the rows, built once and driven through scipy's bindings.
A probe changes the objective and lifts one row's bound, then solves warm
from the previous basis, retrying once from scratch when the warm solve
ends neither optimal nor unbounded.  That model runs HiGHS's primal simplex with presolve off (see `_Sweep` for
why); the one cold LP of `implied_equalities` keeps HiGHS's defaults.  A
sweep with a row the float model cannot hold (a right-hand side or a
coefficient too far from the row's scale, see `_held`) runs exact LPs only,
after the sums.

`implied_equalities` first solves one more float LP, for a point of the
system at which as many rows as possible hold strictly.  Its dual, once
checked, proves at a stroke that every row it weighs is an equality; a row
strict at that point by half its scale is no implicit equality and gets no
probe of its own; any other row gets its reverse probed.  Skipping a row
only skips work.  Skipping a row that is an equality, were float error ever
to do it, would only leave that equality unreported, and a caller that is
not told of an equality still has a correct system: FME then eliminates
through that row like any inequality, which is exact but makes more rows.
The LP's point is also returned, for `prune_redundant(inside=)`.
"""

import importlib.util
import math
import operator
import os
import random
import sys
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from .lp import OPTIMAL, UNBOUNDED, ConstraintSystem, Face, lp_minimize

_HIGHS_CORE = "scipy.optimize._highspy._core"


def _highs_core():
    """scipy's HiGHS bindings, the extension module `_HIGHS_CORE`.

    The plain import first runs `scipy.optimize`'s __init__, which the
    bindings do not need and which took 0.58 s of the 0.76 s that importing
    `polyproj.fme` took (`python -X importtime`, 2 vCPU x86-64).  So the
    extension is loaded from its file in scipy's tree and registered in
    sys.modules under its own name, where a later import of `scipy.optimize`
    finds and reuses it.  If that fails in any way, the entry is removed and
    the plain import runs, which raises whatever is really wrong.
    """
    if _HIGHS_CORE in sys.modules:
        return sys.modules[_HIGHS_CORE]
    try:
        import scipy
        folder = os.path.join(scipy.__path__[0], "optimize", "_highspy")
        path = next(p for p in (os.path.join(folder, "_core" + suffix)
                                for suffix in EXTENSION_SUFFIXES)
                    if os.path.isfile(p))
        spec = importlib.util.spec_from_file_location(
            _HIGHS_CORE, path, loader=ExtensionFileLoader(_HIGHS_CORE, path))
        module = importlib.util.module_from_spec(spec)
        sys.modules[_HIGHS_CORE] = module
        spec.loader.exec_module(module)
        return module
    except Exception:  # any failure: fall back to the plain import below
        sys.modules.pop(_HIGHS_CORE, None)
    from scipy.optimize._highspy import _core
    return _core


_hc = _highs_core()

_SUPPORT_TOL = 1e-9
_DECISION_TOL = 1e-7
_FLOAT_LIMIT = 10 ** 15
_ENTRY_LIMIT = 10 ** 8
_DENOMINATOR_LIMIT = 1000
_FLOAT_EXACT = 2 ** 53  # integers below it convert to floats exactly


def _hash_weights(dim: int) -> List[int]:
    """dim 64-bit weights for the row hashes of `_Sweep`, the same in every
    run.  Random, not structured: with weights j * c, every row with the
    same sum of j * f_j has the same hash, and small integer rows often do."""
    rng = random.Random(0)
    return [rng.getrandbits(64) for _ in range(dim)]


def _linprog(highs):
    """Solve the model held by `highs` and return its HiGHS model status.

    The solve starts from the basis left by the previous one.  A warm start
    that ends neither optimal nor unbounded is retried once from scratch.
    """
    done = (_hc.HighsModelStatus.kOptimal, _hc.HighsModelStatus.kUnbounded)
    highs.run()
    status = highs.getModelStatus()
    if status not in done:
        highs.clearSolver()
        highs.run()
        status = highs.getModelStatus()
    return status


def _magnitude(face: Face) -> int:
    """The scale of a row in the float model: max |f_j|, 1 for a zero row."""
    return max(map(abs, face.f), default=0) or 1


def _matrix(rows: Sequence[Face], dim: int) -> np.ndarray:
    """The rows as one integer matrix [f | b]: int64 when every |entry| is
    below _FLOAT_EXACT, `object` (Python ints) otherwise."""
    entries = [r.f + (r.b,) for r in rows]
    try:
        matrix = np.array(entries, dtype=np.int64).reshape(len(rows), dim + 1)
        if not matrix.size or (-_FLOAT_EXACT < matrix.min()
                               and matrix.max() < _FLOAT_EXACT):
            return matrix
    except OverflowError:  # an entry beyond int64
        pass
    return np.array(entries, dtype=object).reshape(len(rows), dim + 1)


def _held(size: np.ndarray, b: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Whether the float model holds each row divided by its scale, for
    size = |f| and the right-hand sides b: |b| / scale is at most
    _FLOAT_LIMIT, and no nonzero |f_j| / scale is below 1 / _ENTRY_LIMIT,
    ten times the size below which HiGHS drops a matrix entry (its
    `small_matrix_value`, 1e-9).  For integers x, y > 0 and z, x <= y z
    iff ceil(x / y) <= z, which is how both are tested, so no product can
    overflow an int64 matrix."""
    least = -(-scale // _ENTRY_LIMIT)
    return ((-(-np.abs(b) // scale) <= _FLOAT_LIMIT)
            & ((size == 0) | (size >= least[:, None])).all(axis=1))


def _highs(cost, lower, upper, columns, row_upper):
    """A quiet HiGHS instance holding  min cost.x  s.t.  A x <= row_upper,
    lower <= x <= upper, where columns = (start, index, value) is A stored
    column-wise; None when HiGHS rejects the model."""
    start, index, value = columns
    n, m = len(cost), len(row_upper)
    lp = _hc.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = m
    lp.col_cost_ = cost
    lp.col_lower_ = lower
    lp.col_upper_ = upper
    lp.row_lower_ = np.full(m, -_hc.kHighsInf)
    lp.row_upper_ = row_upper
    lp.a_matrix_.format_ = _hc.MatrixFormat.kColwise
    lp.a_matrix_.num_col_ = n
    lp.a_matrix_.num_row_ = m
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = value
    highs = _hc._Highs()
    highs.setOptionValue("output_flag", False)
    return highs if highs.passModel(lp) != _hc.HighsStatus.kError else None


def _weights(row_dual, allowed=None) -> List[Tuple[int, float]]:
    """(k, w) for each row k (with allowed[k], if given) whose HiGHS dual
    -w is not ~0.

    The model states  -L x <= -a,  so the dual of a binding row is <= 0;
    negated, it is the row's multiplier in  L x >= a."""
    weights = -np.asarray(row_dual)
    keep = np.abs(weights) > _SUPPORT_TOL
    if allowed is not None:
        keep &= allowed
    rows = np.flatnonzero(keep)
    return list(zip(rows.tolist(), weights[rows].tolist()))


def _certificate(rows: Sequence[Face], weights, face: Face) -> Optional[List[int]]:
    """The rows whose weights prove that `rows` imply face, or None.

    `weights` holds (k, w) pairs, a float multiplier w of row k as the
    float model scales it (see `_Sweep`), such as a float LP's dual.  Each
    w is rounded to the nearest fraction with denominator at most
    _DENOMINATOR_LIMIT; no rounded w may be negative.  Divided by the row's
    scale, q_k = w_k / `_magnitude(rows[k])` weighs the row as given.  The
    test is exact, in integers: q.L = s f for some s > 0, and q.a >= s b.
    Then every x with L x >= a has f.x = (q.L x) / s >= (q.a) / s >= b.
    For the zero face f = 0 any s > 0 serves; with b = 0 the test reads
    q.L = 0 and q.a >= 0, which makes every row with q_k > 0 an equality.
    """
    used = []
    for k, w in weights:
        if not math.isfinite(w):
            return None
        r = Fraction(w).limit_denominator(_DENOMINATOR_LIMIT)
        if r < 0:
            return None
        if r:
            used.append((k, r.numerator, r.denominator * _magnitude(rows[k])))
    den = math.lcm(*(d for _, _, d in used))
    comb, rhs = [0] * len(face.f), 0
    for k, num, d in used:
        c = num * (den // d)
        rhs += c * rows[k].b
        for j, v in enumerate(rows[k].f):
            if v:
                comb[j] += c * v
    pivot = next((j for j, v in enumerate(face.f) if v), None)
    if pivot is None:  # 0 >= b: rhs >= s b for some s > 0
        ok = not any(comb) and (rhs > 0 or face.b < 0 or rhs == face.b == 0)
    else:  # s = comb[p] / f[p]; both sides of rhs >= s b times |f[p]|
        num, fp = comb[pivot], face.f[pivot]
        ok = (num * fp > 0
              and all(c * fp == num * v for c, v in zip(comb, face.f))
              and rhs * abs(fp) >= abs(num) * face.b)
    return [k for k, _, _ in used] if ok else None


class _Sweep:
    """The rows of one sweep, which of them are alive, their hashes and
    their float model.

    Everything is derived from one integer matrix [f | b] of the rows
    (`_matrix`): int64 while every |entry| is below 2^53, where an entry
    converts to a float exactly, and `object` (Python ints) otherwise; one
    code path, and only the dtype differs.

    Row k hashes to H_k = f_k.w mod 2^64, for the fixed random weights w of
    `_hash_weights`; `keys` holds the hashes of the alive rows, sorted, and
    `keyed` their indices, for `sums_to`.

    The HiGHS model  min c.x  s.t.  -L x <= -a  (free x)  is built once per
    sweep, column-wise, from each row divided by its scale, max |f_j| (1
    for a zero row): every entry is a quotient of integers rounded once to
    a float.  Given a point `inside`, the sweep keeps these scaled rows and
    their slacks there for the keep verdicts of `keeps`.  A probe
    changes the objective and lifts the probed row's bound; `drop` relaxes
    a row's bound for good.  `highs` is None, and every row goes to the
    exact LP, without `use_float`, when a row is out of the model's range
    (`_held`), or when HiGHS rejects the model.

    The model runs HiGHS's primal simplex (`simplex_strategy` 4) with
    `presolve` off.  New costs and a lifted bound keep the last solution
    feasible (only the bound put back after the last probe can cut it
    off), so primal simplex resumes from the last basis, where the default
    dual simplex must first repair dual feasibility for the new costs.
    With presolve on, a solve without a basis presolves first, and when it
    then ends unbounded it leaves no basis for the next probe: on cca:3,
    108 of the 424 solves started cold, against 24 with presolve off.  On
    cca:3 (2 vCPU x86-64) the probes took 0.23 s with the defaults, 0.19 s
    with presolve off, 0.17 s by primal simplex and 0.13-0.16 s with both.
    The cold interior LP of `strict_rows` is a model of its own and keeps
    HiGHS's defaults: by primal simplex, cca:4's took 0.46 s, not 0.27 s.
    """

    def __init__(self, system: ConstraintSystem, use_float: bool,
                 inside: Optional[Sequence[float]] = None):
        self.system = system
        self.rows = list(system.rows)
        self.alive = np.ones(len(self.rows), dtype=bool)
        self.highs = self.slack = None
        dim, inf = system.dim, _hc.kHighsInf
        matrix = _matrix(self.rows, dim)
        f, b = matrix[:, :dim], matrix[:, dim]
        # H_k = f_k.w mod 2^64: the cast wraps an int64 modulo 2^64, and
        # uint64 products and sums wrap too
        self.hash_weights = _hash_weights(dim)
        hashes = ((f % 2 ** 64 if f.dtype == object else f).astype(np.uint64)
                  * np.array(self.hash_weights, np.uint64)
                  ).sum(axis=1, dtype=np.uint64)
        self.keyed = np.argsort(hashes, kind="stable")
        self.keys = hashes[self.keyed]
        size = np.abs(f)
        scale = size.max(axis=1, initial=0)
        scale[scale == 0] = 1
        if not use_float or not _held(size, b, scale).all():
            return
        # quotients of integers, each rounded once (exact int64 to float
        # below _FLOAT_EXACT), none above _FLOAT_LIMIT, so none overflows
        scaled = (f / scale[:, None]).astype(float)
        a_t = -scaled.T
        self.bub = -(b / scale).astype(float)
        if inside is not None:
            self.scaled = scaled
            z = np.asarray(inside, float)
            self.slack = np.einsum("ij,j->i", scaled, z) + self.bub  # A z - a
            self.tol = _DECISION_TOL * self.slack.max(initial=1.0)
        cols, index = np.nonzero(a_t)
        start = np.zeros(dim + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=dim), out=start[1:])
        self.columns = (start, index, a_t[cols, index])
        self.cost_index = np.arange(dim, dtype=np.int32)
        self.highs = _highs(np.zeros(dim), np.full(dim, -inf),
                            np.full(dim, inf), self.columns, self.bub)
        if self.highs is not None:
            self.highs.setOptionValue("presolve", "off")
            self.highs.setOptionValue("simplex_strategy", 4)  # primal

    def drop(self, i: int) -> None:
        self.alive[i] = False
        keep = self.keyed != i
        self.keyed, self.keys = self.keyed[keep], self.keys[keep]
        if self.highs is not None:
            self.highs.changeRowBounds(i, -_hc.kHighsInf, _hc.kHighsInf)

    def probe(self, face: Face, skip: Optional[int] = None):
        """Float-minimize face.f over the alive rows other than row `skip`.

        Returns False when the minimum is -inf or clearly below face.b, so
        face is not implied; when the minimum looks >= face.b, the probe's
        dual weights on those rows, for `_certificate`; None when the LP
        ends otherwise.
        """
        highs, inf, dim = self.highs, _hc.kHighsInf, self.system.dim
        g = _magnitude(face)
        highs.changeColsCost(dim, self.cost_index,
                             np.array([c / g for c in face.f], dtype=float))
        target = face.b / g
        lifted = skip is not None and self.alive[skip]
        if lifted:
            highs.changeRowBounds(skip, -inf, inf)
        try:
            status = _linprog(highs)
            if status == _hc.HighsModelStatus.kUnbounded:
                return False
            if status != _hc.HighsModelStatus.kOptimal:
                return None
            if (highs.getObjectiveValue()
                    < target - _DECISION_TOL * (1 + abs(target))):
                return False
            duals = highs.getSolution().row_dual
        finally:
            if lifted:
                highs.changeRowBounds(skip, -inf, self.bub[skip])
        allowed = self.alive.copy()
        if skip is not None:
            allowed[skip] = False
        return _weights(duals, allowed)

    def keeps(self, i: int) -> bool:
        """Whether a ray from `inside` proves that the other alive rows do
        not imply row i, decided in floats.

        For the scaled rows A, a and the slacks s = A z - a at z = `inside`,
        the point z - t A_i with t = s_i / |A_i|^2 lies on row i, and row j
        has slack M_j = s_j - t A_i.A_j there.  When every alive j other
        than i has M_j above `tol`, that point is strictly inside them all,
        so a step past row i keeps to them and leaves row i: the rows do
        not imply it.  Rows are only dropped, so the verdict holds for the
        rest of the sweep.  A zero row gets none.
        """
        scaled, slack = self.scaled, self.slack
        # einsum, not @: numpy's BLAS may spread a matrix product over threads
        products = np.einsum("jk,k->j", scaled, scaled[i])
        if not products[i]:
            return False
        margin = slack - (slack[i] / products[i]) * products
        margin[~self.alive] = np.inf
        margin[i] = np.inf
        return margin.min() > self.tol

    def sums_to(self, face: Face, skip: Optional[int] = None) -> bool:
        """Whether face is an alive row p other than row `skip` loosened,
        f = f_p and b <= b_p, or the sum of two, f = f_p + f_q and
        b <= b_p + b_q (p = q allowed).

        The hashes propose: the rows p with H_p = h(face) and, for each
        alive p, the first alive q other than `skip` with
        H_q = h(face) - H_p (mod 2^64), found by binary search in `keys`.
        The check in integers decides, so a collision costs only its check,
        and a sum missed behind one only leaves face to the later steps.
        """
        keys, keyed, rows = self.keys, self.keyed, self.rows
        h = np.uint64(sum(map(operator.mul, face.f, self.hash_weights)) % 2 ** 64)
        lo, hi = keys.searchsorted(h), keys.searchsorted(h, "right")
        if any(p != skip and rows[p].f == face.f and rows[p].b >= face.b
               for p in keyed[lo:hi].tolist()):
            return True
        wanted = h - keys  # wraps modulo 2^64
        lo, hi = keys.searchsorted(wanted), keys.searchsorted(wanted, "right")
        for j in np.flatnonzero(lo < hi).tolist():
            p, k = int(keyed[j]), int(lo[j])
            q = int(keyed[k])
            if q == skip and k + 1 < hi[j]:
                q = int(keyed[k + 1])
            if skip in (p, q):
                continue
            fp, fq = rows[p], rows[q]
            if (fp.b + fq.b >= face.b
                    and all(c == x + y for c, x, y in zip(face.f, fp.f, fq.f))):
                return True
        return False

    def implies(self, face: Face, skip: Optional[int] = None) -> bool:
        """Whether the alive rows other than row `skip` imply face, which is
        row `skip` itself when one is skipped (`prune_redundant`).

        Five steps, in order: the keep verdict of a ray from the sweep's
        inside point, for a skipped row (`keeps`); face as one alive row
        loosened or as the sum of two (`sums_to`), checked in integers and
        found through hashes, which needs no LP; the float probe; its dual
        weights rounded into an exact certificate (`_certificate`); and the
        exact LP.  The keep verdict and the probe's "not implied" are
        decided in floats and final, since keeping a row needs no proof.
        With no row skipped (`implied_equalities`, which drops none) the LP
        runs on the system itself, whose warm-started tableau it reuses.
        Rows with no common point imply every face.
        """
        if self.slack is not None and skip is not None and self.keeps(skip):
            return False
        if self.sums_to(face, skip):
            return True
        if self.highs is not None:
            weights = self.probe(face, skip)
            if weights is False:
                return False
            if (weights is not None
                    and _certificate(self.rows, weights, face) is not None):
                return True
        system = self.system
        if skip is not None:
            others = [r for k, r in enumerate(self.rows)
                      if self.alive[k] and k != skip]
            system = ConstraintSystem(tuple(others), system.dim)
        sol = lp_minimize(system, list(face.f), want_point=False)
        if sol.status == OPTIMAL:
            return sol.objective >= face.b
        return sol.status != UNBOUNDED

    def strict_rows(self) -> Tuple[Set[int], List[Tuple[int, float]],
                                   Optional[np.ndarray]]:
        """Rows that hold with slack >= 1/2 (scaled) at one float point, the
        LP's dual weights on the rows, and that point.

        Solves  max sum t  s.t.  Lx - t >= a,  0 <= t <= 1  (free x) over
        the scaled rows, in a model of its own: the sweep's columns and one
        identity column per row for t.  A relative-interior point of the
        system makes every row that is no implicit equality strict, and on
        a cone scaling that point up brings each such row to t = 1; on a
        thin polytope some rows may stay below 1/2.

        By complementary slackness every row with t < 1 has dual weight
        y >= 1, and dual feasibility in the free x reads y.L = 0.  So when
        also y.a >= 0, y is a certificate (for the zero face) that every
        row it weighs is an implicit equality; on a thin polytope y.a < 0
        and it proves nothing.  Both parts are empty, and the point None,
        unless the LP ends optimal.
        """
        m, dim, inf = len(self.rows), self.system.dim, _hc.kHighsInf
        start, index, value = self.columns
        columns = (np.concatenate([start, start[-1] + np.arange(1, m + 1)]),
                   np.concatenate([index, np.arange(m)]),
                   np.concatenate([value, np.ones(m)]))
        highs = _highs(np.concatenate([np.zeros(dim), np.full(m, -1.0)]),
                       np.concatenate([np.full(dim, -inf), np.zeros(m)]),
                       np.concatenate([np.full(dim, inf), np.ones(m)]),
                       columns, self.bub)
        if highs is None or _linprog(highs) != _hc.HighsModelStatus.kOptimal:
            return set(), [], None
        solution = highs.getSolution()
        slack = solution.col_value[dim:]
        strict = {i for i, t in enumerate(slack) if t >= 0.5}
        point = np.array(solution.col_value[:dim])
        return strict, _weights(solution.row_dual), point


def implied_equalities(system: ConstraintSystem, *, use_float: bool = True
                       ) -> Tuple[List[int], Optional[np.ndarray]]:
    """Indices of rows that hold with equality on the whole solution set,
    and the float point of the interior LP (None without one).

    Row f.x >= b is an implicit equality iff the reverse -f.x >= -b is also
    implied by the system (max of f equals b).  With floats, one LP first
    looks for a point where many rows are strict (see
    `_Sweep.strict_rows`).  Its dual weights, rounded and checked in
    integers as a certificate for the zero face (y >= 0, y.L = 0, y.a >= 0),
    prove every row they weigh an equality with no further LP; on a cone
    these are all the equalities.  Of the other rows, those strict by half
    their scale are skipped and the rest get their own reverse probe.  When
    the check fails (a thin polytope: y.a < 0), every row that is not
    strict gets that probe, so the answer is the exact sweep's either way.
    A row the float LP wrongly routed past its probe would be a missed
    equality, which costs FME speed, not correctness (see the module
    docstring).  An infeasible system has no solutions, so each of its rows
    holds with equality on all of them: every row is reported.  Callers
    decide feasibility first.  The point is where the most rows are
    strict, for `prune_redundant(inside=)`.
    """
    sweep = _Sweep(system, use_float)
    strict, proven, point = set(), set(), None
    if sweep.highs is not None:
        strict, weights, point = sweep.strict_rows()
        zero = Face((0,) * system.dim, 0)
        proven = set(_certificate(sweep.rows, weights, zero) or ())
    return [i for i, face in enumerate(sweep.rows)
            if i in proven or (i not in strict and sweep.implies(-face))], point


def prune_redundant(system: ConstraintSystem, *, protect: Sequence[int] = (),
                    use_float: bool = True,
                    inside: Optional[Sequence[float]] = None) -> ConstraintSystem:
    """Greedy irredundant subsystem with the same solution set.

    Rows listed in `protect` are never considered for removal.  A row that
    holds everywhere (0 >= b with b <= 0) is dropped, the last one too.  The
    result depends only on the input order (deterministic).  With floats, a
    float point `inside` (of length system.dim) lets a ray from it keep
    rows with no probe (`_Sweep.keeps`); any point is sound, and one where
    the rows are strict proves the most.
    """
    sweep = _Sweep(system, use_float, inside)
    protected = set(protect)
    for i, face in enumerate(sweep.rows):
        # Row i is still alive here: rows are only dropped when visited.
        if i not in protected and sweep.implies(face, i):
            sweep.drop(i)
    kept = tuple(r for r, a in zip(sweep.rows, sweep.alive) if a)
    return ConstraintSystem(kept, system.dim, system.names)
