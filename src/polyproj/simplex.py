"""
Exact two-phase simplex for standard-form programs

    min c.z   subject to   A z = b,  z >= 0

with Bland's smallest-index pivoting rule (no cycling, fully deterministic
given the row/column order).

The tableau is kept *fraction free*: an integer matrix ``N`` together with a
positive integer denominator ``det`` represents the rational dictionary
``N/det``.  A pivot on entry (r, s) performs the Edmonds/Bareiss update

    N'[i, j] = (N[i, j] * N[r, s] - N[i, s] * N[r, j]) / det     (i != r)
    N'[r, j] = N[r, j],            det' = N[r, s]

where the division is exact (tableau entries are subdeterminants of the input
scaled by the current basis determinant).  Integer arithmetic on numpy object
arrays makes the row updates vectorized while staying exact, which is
considerably faster than elementwise rational arithmetic.

The m artificial (identity) columns are carried in the tableau after the
variables; they never enter the basis, and column ``n+1+i`` always belongs to
input row i.  Under them the cost rows hold ``-c_B B^-1`` (phase 2) and
``1 - c1_B B^-1`` (phase 1), so the certificates (optimal multipliers, Farkas
vectors for infeasibility) are read off the terminal cost rows without a
second factorisation.  A row dropped as linearly dependent keeps its
artificial basic, so its certificate entry is 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .rationals import common_denominator, mpq

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: When true, every pivot re-checks the exact-divisibility invariant.  Slow;
#: enabled by ``tests/test_simplex.py`` on small instances.
CHECK_PIVOTS = False


def _scale_row_to_ints(row: Sequence, rhs) -> Tuple[List[int], int, int]:
    """Return (int row, int rhs, positive scale) with row*scale integral."""
    scale = common_denominator(list(row) + [rhs])
    if scale == 1:
        return ([int(x) for x in row], int(rhs), 1)
    introw = [int(x * scale) if not isinstance(x, int) else x * scale for x in row]
    return (introw, int(rhs * scale) if not isinstance(rhs, int) else rhs * scale, scale)


@dataclass
class StandardResult:
    status: str
    z: Optional[Tuple] = None            # primal solution, length n
    objective: Optional[object] = None   # exact rational
    ray: Optional[Tuple] = None          # improving ray when unbounded
    basis: Optional[Tuple[int, ...]] = None
    # Terminal cost-row entries under the artificial columns (phase 2 when
    # optimal, phase 1 when infeasible), their denominator and the scalings
    # applied to the input rows and costs.
    _art_costs: Sequence[int] = field(default=(), repr=False)
    _det: int = 1
    _row_scale: Sequence = field(default=(), repr=False)
    _cost_scale: int = 1

    def multipliers(self) -> Tuple:
        """Exact multipliers pi with pi.A <= c (componentwise on reduced costs)
        and pi.b = objective; defined for optimal results."""
        if self.status != OPTIMAL:
            raise ValueError("multipliers are defined for optimal results only")
        scale = mpq(self._det * self._cost_scale)
        return tuple(-mpq(d) / scale * s
                     for d, s in zip(self._art_costs, self._row_scale))

    def farkas(self) -> Tuple:
        """Exact certificate y of infeasibility: y.A <= 0 and y.b > 0."""
        if self.status != INFEASIBLE:
            raise ValueError("farkas certificate exists for infeasible results only")
        det = mpq(self._det)
        return tuple((1 - d / det) * s
                     for d, s in zip(self._art_costs, self._row_scale))


class _Tableau:
    def __init__(self, rows: List[List[int]], rhs: List[int], cost: List[int]):
        m, n = len(rows), len(cost)
        self.m, self.n = m, n
        # Layout: column 0 = RHS, columns 1..n = variables, columns n+1..n+m =
        # artificials.  Rows 0..m-1 = constraints, row m = phase-2 cost,
        # row m+1 = phase-1 cost (dropped once phase 1 is over).
        N = np.zeros((m + 2, n + 1 + m), dtype=object)
        for i in range(m):
            N[i, 0] = rhs[i]
            N[i, 1:n + 1] = rows[i]
            N[i, n + 1 + i] = 1
        N[m, 1:n + 1] = cost
        N[m + 1, :n + 1] = -N[:m, :n + 1].sum(axis=0)
        self.N = N
        self.det = 1
        self.basis = [n + i for i in range(m)]  # artificial indices

    def pivot(self, r: int, s: int) -> None:
        N, det = self.N, self.det
        piv = N[r, s]
        if piv == 0:
            raise RuntimeError("zero pivot")
        rowr = N[r].copy()
        col = N[:, s].copy()
        if CHECK_PIVOTS:
            R = N * piv - np.outer(col, rowr)
            if det != 1 and not all(int(x) % det == 0 for x in R.ravel()):
                raise AssertionError("integer pivoting divisibility violated")
        N *= piv
        N -= np.outer(col, rowr)
        if det != 1:
            N //= det
        N[r] = rowr
        if piv < 0:
            np.negative(N, out=N)
            piv = -piv
        self.det = int(piv)
        self.basis[r] = s - 1  # column 1+j holds variable j

    def _ratio_leave(self, s: int) -> Optional[int]:
        """Bland leaving row for entering column s (tableau column index)."""
        N = self.N
        best = None
        for i in range(self.m):
            a = N[i, s]
            if a > 0:
                if best is None:
                    best = i
                else:
                    lhs = N[i, 0] * N[best, s]
                    rhs = N[best, 0] * N[i, s]
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[best]):
                        best = i
        return best

    def run(self, cost_row: int, allow_enter) -> str:
        """Bland iterations on the given cost row; returns 'optimal'/'unbounded'."""
        N = self.N
        while True:
            enter = None
            for j in range(1, self.n + 1):
                if N[cost_row, j] < 0 and allow_enter(j - 1):
                    enter = j
                    break
            if enter is None:
                return OPTIMAL
            leave = self._ratio_leave(enter)
            if leave is None:
                self._unbounded_col = enter
                return UNBOUNDED
            self.pivot(leave, enter)

    def drop_rows(self, rows_to_drop: List[int]) -> None:
        """Remove the given constraint rows and the phase-1 cost row."""
        keep = [i for i in range(self.m) if i not in rows_to_drop]
        sel = keep + [self.m]
        self.N = self.N[sel]
        self.basis = [self.basis[i] for i in keep]
        self.m = len(keep)


def solve_standard(A: Sequence[Sequence], b: Sequence, c: Sequence) -> StandardResult:
    """
    Solve min c.z s.t. A z = b, z >= 0 exactly.  Deterministic: Bland's rule,
    ties by smallest variable index, row order as given.
    """
    m, n = len(A), len(c)
    if m == 0:
        if all(x >= 0 for x in c):
            return StandardResult(OPTIMAL, z=tuple([0] * n), objective=mpq(0), basis=())
        j = next(j for j, x in enumerate(c) if x < 0)
        ray = tuple(1 if k == j else 0 for k in range(n))
        return StandardResult(UNBOUNDED, ray=ray)

    rows, rhs, row_scale = [], [], []
    for i in range(m):
        introw, intrhs, scale = _scale_row_to_ints(A[i], b[i])
        if intrhs < 0:
            introw = [-x for x in introw]
            intrhs = -intrhs
            scale = -scale
        rows.append(introw)
        rhs.append(intrhs)
        row_scale.append(mpq(scale))

    cost_scale = common_denominator(c)
    cost = [int(x * cost_scale) if not isinstance(x, int) else x * cost_scale for x in c]

    tab = _Tableau(rows, rhs, cost)
    p1 = tab.m + 1

    status = tab.run(p1, lambda j: True)
    if tab.N[p1, 0] < 0:  # phase-1 optimum -N[p1,0]/det > 0: infeasible
        return StandardResult(
            INFEASIBLE,
            basis=tuple(tab.basis),
            _art_costs=tab.N[p1, n + 1:].tolist(), _det=tab.det, _row_scale=row_scale,
        )

    # Drive any zero-level artificials out of the basis; drop dependent rows
    # and the phase-1 cost row, which phase 2 no longer reads.
    to_drop = []
    for i in range(tab.m):
        if tab.basis[i] >= n:
            s = next((j for j in range(1, n + 1) if tab.N[i, j] != 0), None)
            if s is None:
                to_drop.append(i)
            else:
                tab.pivot(i, s)
    tab.drop_rows(to_drop)

    status = tab.run(tab.m, lambda j: j < n)

    if status == UNBOUNDED:
        s = tab._unbounded_col
        ray = [mpq(0)] * n
        ray[s - 1] = mpq(1)
        det = mpq(tab.det)
        for i in range(tab.m):
            if tab.basis[i] < n:
                ray[tab.basis[i]] = -mpq(tab.N[i, s]) / det
        return StandardResult(UNBOUNDED, ray=tuple(ray))

    det = mpq(tab.det)
    z = [mpq(0)] * n
    for i in range(tab.m):
        if tab.basis[i] < n:
            z[tab.basis[i]] = mpq(tab.N[i, 0]) / det
    objective = -mpq(tab.N[tab.m, 0]) / det / cost_scale
    return StandardResult(
        OPTIMAL,
        z=tuple(z),
        objective=objective,
        basis=tuple(tab.basis),
        _art_costs=tab.N[tab.m, n + 1:].tolist(), _det=tab.det, _row_scale=row_scale,
        _cost_scale=cost_scale,
    )
