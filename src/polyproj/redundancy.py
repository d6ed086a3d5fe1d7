"""
Redundancy removal for inequality systems, with a float prefilter.

A row is redundant when it is implied by the remaining rows; dropping it
leaves the solution set unchanged, and a row is an implicit equality when
the system implies its reverse.  Both sweeps, `prune_redundant` and
`implied_equalities`, decide each row with one test, `_Sweep.implies`: a
cheap floating-point LP first, exact arithmetic only when needed, but
*every implication is justified by an exact certificate*:

  - "not implied" needs no proof: keeping a redundant row never changes the
    polyhedron, and missing an equality only costs later work;
  - an implication is accepted only once an exact conic multiplier vector
    q >= 0 with q^T L = f and q^T a >= b has been reconstructed (from the
    float dual's support, or from a full exact LP as fallback).

So floating point influences speed, never results.

The float LPs of one sweep share a single HiGHS model, driven through
scipy's bindings: a probe changes the objective and lifts one row's bound,
then solves warm from the previous basis, retrying once from scratch when
the warm solve ends neither optimal nor unbounded.  Without scipy every row
goes straight to the exact path.

`implied_equalities` first solves one more float LP, for a point of the
system at which as many rows as possible hold strictly: a row strict there
by half its scale is no implicit equality and gets no probe of its own.  This
too only skips work.  Skipping a row that is an equality, were float error
ever to do it, would only leave that equality unreported, and a caller that
is not told of an equality still has a correct system: FME then eliminates
through that row like any inequality, which is exact but makes more rows.
"""

from typing import List, Optional, Sequence, Set, Tuple

from .lp import OPTIMAL, UNBOUNDED, ConstraintSystem, Face, lp_minimize
from .linalg import solve_linear
from .rationals import dot

try:  # scipy's vendored HiGHS bindings are an optional accelerator
    import numpy as _np
    from scipy.optimize._highspy import _core as _hc
except Exception:  # pragma: no cover - exercised only without scipy
    _hc = None

_SUPPORT_TOL = 1e-9
_DECISION_TOL = 1e-7
_FLOAT_LIMIT = 1e15


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


def _scaled(face: Face) -> Tuple[List[float], float]:
    """face.f and face.b as floats divided by max |f_j| (1 for a zero row),
    each clamped to +-_FLOAT_LIMIT."""
    mag = float(max((abs(c) for c in face.f), default=0)) or 1.0

    def scale(v):
        return max(-_FLOAT_LIMIT, min(_FLOAT_LIMIT, float(v) / mag)) if v else 0.0

    return [scale(c) for c in face.f], scale(face.b)


def _highs(cost, lower, upper, columns, row_upper):
    """A quiet HiGHS instance holding  min cost.x  s.t.  A x <= row_upper,
    lower <= x <= upper, where columns[j] lists column j of A as
    (row, value) pairs; None when HiGHS rejects the model."""
    n, m = len(columns), len(row_upper)
    lp = _hc.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = m
    lp.col_cost_ = cost
    lp.col_lower_ = lower
    lp.col_upper_ = upper
    lp.row_lower_ = _np.full(m, -_hc.kHighsInf)
    lp.row_upper_ = row_upper
    lp.a_matrix_.format_ = _hc.MatrixFormat.kColwise
    lp.a_matrix_.num_col_ = n
    lp.a_matrix_.num_row_ = m
    lp.a_matrix_.start_ = _np.cumsum([0] + [len(e) for e in columns])
    lp.a_matrix_.index_ = [i for e in columns for i, _ in e]
    lp.a_matrix_.value_ = [v for e in columns for _, v in e]
    highs = _hc._Highs()
    highs.setOptionValue("output_flag", False)
    return highs if highs.passModel(lp) != _hc.HighsStatus.kError else None


class _FloatFilter:
    """One persistent float LP over the rows of a sweep.

    The HiGHS model  min c.x  s.t.  -L x <= -a  (free x)  is built once,
    with every row scaled by `_scaled`; each probe changes only the
    objective and lifts the probed row's bound, so consecutive solves
    warm-start from the previous basis (with one cold retry, see
    `_linprog`).  Dropped rows are disabled by relaxing their upper bound to
    +inf for good.
    """

    def __init__(self, rows: Sequence[Face]):
        self.ok = _hc is not None
        if not self.ok:
            return
        dim = len(rows[0].f) if rows else 0
        self.columns = [[] for _ in range(dim)]
        self.bub = _np.empty(len(rows))
        for i, row in enumerate(rows):
            f, b = _scaled(row)
            for j, c in enumerate(f):
                if c:
                    self.columns[j].append((i, -c))
            self.bub[i] = -b
        inf = _hc.kHighsInf
        self.highs = _highs(_np.zeros(dim), _np.full(dim, -inf),
                            _np.full(dim, inf), self.columns, self.bub)
        self.ok = self.highs is not None
        self.active = _np.ones(len(rows), dtype=bool)
        self.dim = dim
        self.cols = _np.arange(dim, dtype=_np.int32)

    def strict_rows(self) -> Set[int]:
        """Rows that hold with slack >= 1/2 (scaled) at one float point.

        Solves  max sum t  s.t.  Lx - t >= a,  0 <= t <= 1  (free x) over
        the scaled rows, in a model of its own.  A relative-interior point
        of the system makes every row that is no implicit equality strict,
        and on a cone scaling that point up brings each such row to t = 1;
        on a thin polytope some rows may stay below 1/2.  Empty unless the
        LP ends optimal.
        """
        m, dim, inf = len(self.bub), self.dim, _hc.kHighsInf
        highs = _highs(
            _np.concatenate([_np.zeros(dim), _np.full(m, -1.0)]),
            _np.concatenate([_np.full(dim, -inf), _np.zeros(m)]),
            _np.concatenate([_np.full(dim, inf), _np.ones(m)]),
            self.columns + [[(i, 1.0)] for i in range(m)], self.bub)
        if highs is None or _linprog(highs) != _hc.HighsModelStatus.kOptimal:
            return set()
        slack = highs.getSolution().col_value[dim:]
        return {i for i, t in enumerate(slack) if t >= 0.5}

    def disable(self, i: int) -> None:
        self.active[i] = False
        self.highs.changeRowBounds(i, -_hc.kHighsInf, _hc.kHighsInf)

    def probe(self, i: Optional[int], face: Face):
        """Float-minimize face.f over active rows minus row i (i=None keeps
        every active row in place).

        Returns (verdict, support): verdict in {"keep", "try-drop", None},
        support = candidate multiplier rows for the exact certificate.
        """
        if not self.ok:
            return None, None
        f, target = _scaled(face)
        highs = self.highs
        highs.changeColsCost(self.dim, self.cols, _np.array(f))
        lifted = i is not None and self.active[i]
        if lifted:
            highs.changeRowBounds(i, -_hc.kHighsInf, _hc.kHighsInf)
        try:
            status = _linprog(highs)
            if status == _hc.HighsModelStatus.kUnbounded:
                return "keep", None  # unbounded below: certainly not implied
            if status != _hc.HighsModelStatus.kOptimal:
                return None, None
            fun = highs.getInfo().objective_function_value
            if fun < target - _DECISION_TOL * (1 + abs(target)):
                # Confidently irredundant; keeps need no certificate.
                return "keep", None
            duals = highs.getSolution().row_dual
        finally:
            if lifted:
                highs.changeRowBounds(i, -_hc.kHighsInf, self.bub[i])
        # The minimum looks >= b: likely redundant, ask for an exact proof.
        support = [
            k for k, marg in enumerate(duals)
            if self.active[k] and k != i and marg < -_SUPPORT_TOL
        ]
        return "try-drop", support


def _exact_certificate(rows: List[Face], support: Sequence[int], face: Face) -> bool:
    """True iff nonneg multipliers on `support` reproduce face exactly."""
    if not support:
        return False
    dim = len(face.f)
    mat = [[rows[i].f[k] for i in support] for k in range(dim)]
    q = solve_linear(mat, list(face.f))
    if q is None or any(v < 0 for v in q):
        return False
    return dot(q, [rows[i].b for i in support]) >= face.b


class _Sweep:
    """The rows of one sweep, which of them are alive, and their float model."""

    def __init__(self, system: ConstraintSystem, use_float: bool):
        self.system = system
        self.rows = list(system.rows)
        self.alive = [True] * len(self.rows)
        self.n_alive = len(self.rows)
        filt = _FloatFilter(self.rows) if use_float else None
        self.filt = filt if filt is not None and filt.ok else None

    def drop(self, i: int) -> None:
        self.alive[i] = False
        self.n_alive -= 1
        if self.filt is not None:
            self.filt.disable(i)

    def implies(self, face: Face, skip: Optional[int] = None) -> bool:
        """Whether the alive rows other than row `skip` imply face.

        The float probe decides a "keep" on its own; an implication needs
        the exact certificate on the probe's support or, failing that, an
        exact LP.  With no row skipped (`implied_equalities`, which drops
        none) that LP runs on the system itself, whose warm-started tableau
        it reuses.  Rows with no common point imply every face.
        """
        if self.filt is not None:
            verdict, support = self.filt.probe(skip, face)
            if verdict == "keep":
                return False
            if verdict == "try-drop" and _exact_certificate(self.rows, support, face):
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


def implied_equalities(system: ConstraintSystem, *,
                       use_float: bool = True) -> List[int]:
    """Indices of rows that hold with equality on the whole solution set.

    Row f.x >= b is an implicit equality iff the reverse -f.x >= -b is also
    implied by the system (max of f equals b).  With floats, one LP first
    looks for a point where many rows are strict (see
    `_FloatFilter.strict_rows`); the rows it shows strict by half their
    scale are skipped, and every other row gets its own reverse probe.  Each
    detection is confirmed exactly; the float LPs only route rows past the
    expensive check, and a row they wrongly routed past it would be a missed
    equality, which costs FME speed, not correctness (see the module
    docstring).  An infeasible system has no solutions, so each of its rows
    holds with equality on all of them: every row is reported.  Callers
    decide feasibility first.
    """
    sweep = _Sweep(system, use_float)
    strict = sweep.filt.strict_rows() if sweep.filt is not None else set()
    return [i for i, face in enumerate(sweep.rows)
            if i not in strict and sweep.implies(-face)]


def prune_redundant(system: ConstraintSystem, *, protect: Sequence[int] = (),
                    use_float: bool = True) -> ConstraintSystem:
    """Greedy irredundant subsystem with the same solution set.

    Rows listed in `protect` are never considered for removal.  The result
    depends only on the input order (deterministic).
    """
    sweep = _Sweep(system, use_float)
    protected = set(protect)
    for i, face in enumerate(sweep.rows):
        # Row i is still alive here: rows are only dropped when visited.
        if i not in protected and sweep.n_alive > 1 and sweep.implies(face, i):
            sweep.drop(i)
    kept = tuple(r for r, a in zip(sweep.rows, sweep.alive) if a)
    return ConstraintSystem(kept, system.dim, system.names)
