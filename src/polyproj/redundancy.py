"""
Redundancy removal for inequality systems, with a float prefilter.

A row is redundant when it is implied by the remaining rows; dropping it
leaves the solution set unchanged.  The greedy sweep here decides each row
with a cheap floating-point LP first and only falls back to exact arithmetic
when needed, but *every drop is justified by an exact certificate*:

  - keep decisions need no proof: keeping a redundant row never changes the
    polyhedron, it only costs later work;
  - a drop is made only once an exact conic multiplier vector q >= 0 with
    q^T L = f and q^T a >= b has been reconstructed (from the float dual's
    support, or from a full exact LP as fallback).

So floating point influences speed, never results.

The float LPs of one sweep share a single HiGHS model, driven through
scipy's bindings: a probe changes the objective and lifts one row's bound,
then solves warm from the previous basis, retrying once from scratch when
the warm solve ends neither optimal nor unbounded.  Without scipy every row
goes straight to the exact path.
"""

from typing import List, Optional, Sequence

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


class _FloatFilter:
    """One persistent float LP over the rows of a sweep.

    The HiGHS model  min c.x  s.t.  -L x <= -a  (free x)  is built once;
    each probe changes only the objective and lifts the probed row's bound,
    so consecutive solves warm-start from the previous basis (with one cold
    retry, see `_linprog`).  Dropped rows are disabled by relaxing their
    upper bound to +inf for good.
    """

    def __init__(self, rows: Sequence[Face]):
        self.ok = _hc is not None
        if not self.ok:
            return
        m = len(rows)
        dim = len(rows[0].f) if rows else 0
        entries = [[] for _ in range(dim)]
        bub = _np.empty(m)
        for i, row in enumerate(rows):
            mag = max((abs(c) for c in row.f), default=0)
            mag = float(mag) if mag else 1.0
            if not (0 < mag < _FLOAT_LIMIT):
                mag = mag or 1.0
            for j, c in enumerate(row.f):
                if c:
                    entries[j].append(
                        (i, max(-_FLOAT_LIMIT, min(_FLOAT_LIMIT, -float(c) / mag))))
            bub[i] = max(-_FLOAT_LIMIT, min(_FLOAT_LIMIT, -float(row.b) / mag))
        lp = _hc.HighsLp()
        lp.num_col_ = dim
        lp.num_row_ = m
        lp.col_cost_ = _np.zeros(dim)
        lp.col_lower_ = _np.full(dim, -_hc.kHighsInf)
        lp.col_upper_ = _np.full(dim, _hc.kHighsInf)
        lp.row_lower_ = _np.full(m, -_hc.kHighsInf)
        lp.row_upper_ = bub
        lp.a_matrix_.format_ = _hc.MatrixFormat.kColwise
        lp.a_matrix_.num_col_ = dim
        lp.a_matrix_.num_row_ = m
        lp.a_matrix_.start_ = _np.cumsum([0] + [len(e) for e in entries])
        lp.a_matrix_.index_ = [i for e in entries for i, _ in e]
        lp.a_matrix_.value_ = [v for e in entries for _, v in e]
        self.highs = _hc._Highs()
        self.highs.setOptionValue("output_flag", False)
        self.ok = self.highs.passModel(lp) != _hc.HighsStatus.kError
        self.bub = bub
        self.active = _np.ones(m, dtype=bool)
        self.dim = dim
        self.cols = _np.arange(dim, dtype=_np.int32)

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
        mag = max((abs(c) for c in face.f), default=0)
        mag = float(mag) if mag else 1.0
        c = _np.zeros(self.dim)
        for j, v in enumerate(face.f):
            if v:
                c[j] = max(-_FLOAT_LIMIT, min(_FLOAT_LIMIT, float(v) / mag))
        highs = self.highs
        highs.changeColsCost(self.dim, self.cols, c)
        lifted = i is not None and self.active[i]
        if lifted:
            highs.changeRowBounds(i, -_hc.kHighsInf, _hc.kHighsInf)
        try:
            status = _linprog(highs)
            if status == _hc.HighsModelStatus.kUnbounded:
                return "keep", None  # unbounded below: certainly not implied
            if status != _hc.HighsModelStatus.kOptimal:
                return None, None
            target = float(face.b) / mag
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


def implied_equalities(system: ConstraintSystem, *,
                       use_float: bool = True) -> List[int]:
    """Indices of rows that hold with equality on the whole solution set.

    Row f.x >= b is an implicit equality iff the reverse -f.x >= -b is also
    implied by the system (max of f equals b).  Each detection is confirmed
    exactly; the float LP only routes rows past the expensive check.  Rows
    of infeasible systems are not reported — callers decide feasibility.
    """
    rows = list(system.rows)
    filt = _FloatFilter(rows) if use_float else None
    use_filter = bool(filt and filt.ok)
    out: List[int] = []
    for i, face in enumerate(rows):
        rev = Face(tuple(-c for c in face.f), -face.b)
        if use_filter:
            verdict, support = filt.probe(None, rev)
            if verdict == "keep":
                continue  # reverse clearly violated somewhere: no equality
            if verdict == "try-drop" and _exact_certificate(rows, support, rev):
                out.append(i)
                continue
        sol = lp_minimize(system, list(rev.f), want_point=False)
        if sol.status == OPTIMAL and sol.objective >= rev.b:
            out.append(i)
    return out


def prune_redundant(system: ConstraintSystem, *, protect: Sequence[int] = (),
                    use_float: bool = True) -> ConstraintSystem:
    """Greedy irredundant subsystem with the same solution set.

    Rows listed in `protect` are never considered for removal.  The result
    depends only on the input order (deterministic).
    """
    rows = list(system.rows)
    alive = [True] * len(rows)
    n_alive = len(rows)
    protected = set(protect)
    filt = _FloatFilter(rows) if use_float else None
    use_filter = bool(filt and filt.ok)

    def drop(i: int) -> None:
        nonlocal n_alive
        alive[i] = False
        n_alive -= 1
        if use_filter:
            filt.disable(i)

    for i, face in enumerate(rows):
        # Row i is still alive here: rows are only dropped when visited.
        if i in protected or n_alive == 1:
            continue
        if use_filter:
            verdict, support = filt.probe(i, face)
            if verdict == "keep":
                continue
            if verdict == "try-drop" and _exact_certificate(
                rows, [s for s in support if alive[s] and s != i], face
            ):
                drop(i)
                continue
        others = [rows[k] for k in range(len(rows)) if alive[k] and k != i]
        sol = lp_minimize(ConstraintSystem(tuple(others), system.dim),
                          list(face.f), want_point=False)
        if sol.status == OPTIMAL and sol.objective >= face.b:
            drop(i)
        elif sol.status not in (OPTIMAL, UNBOUNDED):
            # remaining rows infeasible: everything is vacuously implied
            drop(i)
        # otherwise unbounded or minimum below rhs: not implied, keep

    kept = tuple(r for r, a in zip(rows, alive) if a)
    return ConstraintSystem(kept, system.dim, system.names)
