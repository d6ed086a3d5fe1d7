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
    docstring).  Rows of infeasible systems are not reported — callers
    decide feasibility.
    """
    rows = list(system.rows)
    filt = _FloatFilter(rows) if use_float else None
    use_filter = bool(filt and filt.ok)
    strict = filt.strict_rows() if use_filter else set()
    out: List[int] = []
    for i, face in enumerate(rows):
        if i in strict:
            continue  # strict at a point of the system: no equality
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
