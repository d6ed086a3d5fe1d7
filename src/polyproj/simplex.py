"""
Exact two-phase simplex for standard-form programs

    min c.z   subject to   A z = b,  z >= 0

with Bland's smallest-index pivoting rule (no cycling, fully deterministic
given the row/column order).  Integers in, integers out: A, b, c and the
ties below are Python ints, and so is every readout.

The right-hand side may be a block  [b | t_1 | ... | t_{k-1}]  of k columns,
read as the perturbed program  A z = b + eps t_1 + ... + eps^(k-1) t_{k-1}
for every small enough eps > 0 (the lexicographic rule of Dantzig, Orden &
Wolfe, 1955).  Only the ratio test sees the block: a basis is feasible when
each row of its block is lexicographically nonnegative, and the leaving row
is the lexicographically smallest ratio row, ties going to the smallest
basis index as Bland's rule does.  That is Bland's rule on the scalar
program at one fixed small eps, so it cannot cycle either.  Phase 1 negates
each row whose block is lexicographically negative (the row's sign), and
reports infeasibility when its block row is lexicographically negative;
after a feasible phase 1 every basic artificial has an all-zero block row,
and only such rows are driven out or dropped.  The terminal basis is optimal
for all small eps at once, and the phase-2 cost row under block column j
holds ``-c_B B^-1 t_j``: column 0 gives the objective, the others the tie
values.  With k = 1 every comparison is the scalar one, pivot for pivot.

The tableau is kept *fraction free*: an integer matrix ``N`` together with a
positive integer denominator ``det`` represents the rational dictionary
``N/det``.  A pivot on entry (r, s) performs the Edmonds/Bareiss update

    N'[i, j] = (N[i, j] * N[r, s] - N[i, s] * N[r, j]) / det     (i != r)
    N'[r, j] = N[r, j],            det' = N[r, s]

where the division is exact (tableau entries are subdeterminants of the input
scaled by the current basis determinant).  ``N`` is a numpy ``int64`` array
while a bound proves the update exact in machine integers.  The bound is
checked in two places.  ``pivot`` reads B = max|N| before it multiplies, and
when B < 2^31 every intermediate ``N*piv - col*row`` is below 2 B^2 < 2^63.
Once B reaches 2^31 the tableau is promoted, for good, to an ``object`` array
of Python ints, where the same update is exact at any size.  ``set_rhs``
multiplies a new block in int64 only under its own bound (see there); its
result may exceed 2^31 while staying int64, and the next pivot's check then
promotes.  One pivot routine serves both dtypes; only the dtype differs.
Everything read out of the tableau (ratio test, certificates) goes through
Python ints.

A ``StandardResult`` holds integers only (see there).  Its one caller,
``lp.lp_minimize``, checks them and builds the rationals it returns.

The m artificial (identity) columns are carried in the tableau after the
variables; they never enter the basis, and column ``k+n+i`` always belongs to
input row i.  Under them the cost rows hold ``-c_B B^-1`` (phase 2) and
``1 - c1_B B^-1`` (phase 1), so the certificates (optimal multipliers, Farkas
vectors for infeasibility) are read off the terminal cost rows without a
second factorisation, times each row's sign.  A row dropped as linearly
dependent keeps its artificial basic, so its certificate entry is 0.

Warm starts.  A new right-hand side leaves the cost row of an optimal
tableau as it was, so its basis stays dual feasible.  ``solve_standard``
accepts such a tableau (``warm``, an earlier result's ``_tableau`` for the
same A and c), puts the new block under its basis in one integer product
with the artificial columns (``_Tableau.set_rhs``) and runs the dual
simplex ``_Tableau.dual_run`` (Lemke, 1954) with Bland's rule on the dual,
sharing ``pivot`` with the primal ``run``.  Only tableaux where phase 1
dropped no row are offered for reuse: a dropped row would go unchecked
under a new block.  When ``dual_run`` meets a row with no entering column
the standard form is infeasible, and the solve goes cold, so every
certificate of infeasibility still comes from phase 1.  A warm solve ends
on the lexicographic optimum, like a cold one, so status, objective and
tie values agree; when that optimum has several optimal bases, the two may
end on different ones, and then the solution and the multipliers may differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .rationals import lex_sign

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class StandardResult:
    """A status and its certificate in Python ints, over ``den`` (the final
    det): when optimal, the solution z = z_ints / den and the values of b
    and each tie column, (objective, t_1, ...) = value_ints / den.  An
    unbounded ``ray`` and ``farkas()`` are det times the rational ones."""

    status: str
    ray: Optional[Tuple[int, ...]] = None  # improving ray when unbounded
    basis: Optional[Tuple[int, ...]] = None
    z_ints: Tuple[int, ...] = field(default=(), repr=False)
    value_ints: Tuple[int, ...] = field(default=(), repr=False)
    den: int = 1
    # Terminal cost-row entries under the artificial columns (phase 2 when
    # optimal, phase 1 when infeasible) and the signs of the input rows.
    _art_costs: Sequence[int] = field(default=(), repr=False)
    _signs: Sequence[int] = field(default=(), repr=False)
    # The terminal tableau when it can warm-start a solve with a new
    # right-hand side (see ``solve_standard``), else None.
    _tableau: Optional["_Tableau"] = field(default=None, repr=False)

    def multipliers(self) -> Tuple[Tuple[int, ...], int]:
        """Exact multipliers pi with pi.A <= c (componentwise on reduced costs)
        and pi.b = objective, as integers (X, D) with D > 0 and pi = -X / D;
        defined for optimal results."""
        if self.status != OPTIMAL:
            raise ValueError("multipliers are defined for optimal results only")
        return tuple(d * s for d, s in zip(self._art_costs, self._signs)), self.den

    def farkas(self) -> Tuple[int, ...]:
        """Exact certificate y of infeasibility, in ints: y.A <= 0 and y.b > 0."""
        if self.status != INFEASIBLE:
            raise ValueError("farkas certificate exists for infeasible results only")
        det = self.den
        return tuple((det - d) * s for d, s in zip(self._art_costs, self._signs))


#: Tableau entries below this bound keep the Bareiss update inside int64.
_INT64_BOUND = 2 ** 31


class _Tableau:
    def __init__(self, rows: Sequence[Sequence[int]], rhs: List[List[int]],
                 cost: Sequence[int], signs: List[int]):
        m, n, k = len(rows), len(cost), len(rhs[0])
        self.m, self.n, self.k = m, n, k
        # Row i of the input, with its block, is multiplied by signs[i] = +-1.
        self.signs = np.array(signs, dtype=np.int64)
        # Layout: columns 0..k-1 = RHS block, columns k..k+n-1 = variables,
        # columns k+n..k+n+m-1 = artificials.  Rows 0..m-1 = constraints,
        # row m = phase-2 cost, row m+1 = phase-1 cost (dropped once phase 1
        # is over).  With the input below the bound, the phase-1 sums still
        # fit in int64; pivot() checks the bound before it multiplies.
        big = max(map(abs, chain(*rows, *rhs, cost)), default=0)
        N = np.zeros((m + 2, k + n + m), dtype=np.int64 if big < _INT64_BOUND else object)
        N[:m, :k] = rhs
        N[:m, k:k + n] = rows
        N[:m, :k + n] *= self.signs[:, None]
        N[range(m), range(k + n, k + n + m)] = 1
        N[m, k:k + n] = cost
        N[m + 1, :k + n] = -N[:m, :k + n].sum(axis=0)
        self.N = N
        self.det = 1
        self.basis = [n + i for i in range(m)]  # artificial indices

    def pivot(self, r: int, s: int) -> None:
        N, det = self.N, self.det
        if N.dtype != object and np.abs(N).max() >= _INT64_BOUND:
            N = self.N = N.astype(object)
        piv = N[r, s]
        if piv == 0:
            raise RuntimeError("zero pivot")
        rowr = N[r].copy()
        outer = N[:, s, None] * rowr
        N *= piv
        N -= outer
        if det != 1:
            N //= det
        N[r] = rowr
        if piv < 0:
            np.negative(N, out=N)
            piv = -piv
        self.det = int(piv)
        self.basis[r] = s - self.k  # column k+j holds variable j

    def _ratio_leave(self, s: int) -> Optional[int]:
        """Leaving row for entering column s (tableau column index): the
        lexicographically smallest ratio of RHS block row to pivot entry,
        ties by smallest basis index (Bland)."""
        col = self.N[:self.m, s].tolist()
        block = self.N[:self.m, :self.k].tolist()
        best = None
        for i, a in enumerate(col):
            if a > 0:
                if best is None:
                    best = i
                    continue
                for x, y in zip(block[i], block[best]):
                    lhs, rhs = x * col[best], y * a
                    if lhs != rhs:
                        break
                if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[best]):
                    best = i
        return best

    def run(self, cost_row: int) -> str:
        """Bland iterations on the given cost row; returns 'optimal'/'unbounded'."""
        k = self.k
        while True:
            negative = np.flatnonzero(self.N[cost_row, k:k + self.n] < 0)
            if not negative.size:
                return OPTIMAL
            enter = k + int(negative[0])
            leave = self._ratio_leave(enter)
            if leave is None:
                self._unbounded_col = enter
                return UNBOUNDED
            self.pivot(leave, enter)

    def set_rhs(self, columns: Sequence[Sequence[int]]) -> None:
        """Replace the right-hand-side block by ``columns`` (the integer
        columns b, t_1, ..., each one entry per input row) under the current
        basis.  The artificial columns hold det B^-1 of the rows times their
        signs, so the new block is the one integer product
        N[:, art] . (signs * block).

        On an int64 tableau the product is taken in int64 when
        max|N[:, art]| * max|block| * m < 2^63 bounds every partial sum.
        Larger ints take the object product, which goes back to int64 when
        below 2^31 and promotes the tableau otherwise."""
        m, n, k = self.m, self.n, self.k
        N = self.N
        art = N[:, k + n:]
        if (art.dtype != object
                and int(np.abs(art).max()) * max(map(abs, chain(*columns))) * m < 2 ** 63):
            new = art @ (np.array(columns, dtype=np.int64) * self.signs).T
        else:
            new = art.astype(object) @ (np.array(columns, dtype=object) * self.signs).T
            if N.dtype != object:
                if np.abs(new).max() < _INT64_BOUND:
                    new = new.astype(np.int64)
                else:
                    N = N.astype(object)
        if new.shape[1] == k:
            N[:, :k] = new
        else:
            N = np.concatenate([new, N[:, k:]], axis=1)
        self.N, self.k = N, len(columns)

    def dual_run(self) -> str:
        """Dual simplex iterations from a basis whose phase-2 cost row is
        optimal; returns 'optimal', or 'infeasible' when a row has no
        entering column (the standard form has no feasible point).

        Bland's rule on the dual: the leaving row is the lexicographically
        negative block row with the smallest basis index; the entering
        column minimises N[m, j] / -N[r, j] over N[r, j] < 0, ties going to
        the smallest j."""
        m, n, k = self.m, self.n, self.k
        while True:
            N = self.N
            if k == 1:
                first = N[:m, 0].tolist()
            else:  # each block row's first nonzero entry
                block = N[:m, :k]
                first = block[np.arange(m), (block != 0).argmax(axis=1)].tolist()
            negative = [i for i, v in enumerate(first) if v < 0]
            if not negative:
                return OPTIMAL
            r = min(negative, key=self.basis.__getitem__)
            row, cost = N[r, k:k + n].tolist(), N[m, k:k + n].tolist()
            enter = None
            for j, a in enumerate(row):
                if a < 0 and (enter is None or cost[j] * row[enter] > cost[enter] * a):
                    enter = j
            if enter is None:
                return INFEASIBLE
            self.pivot(r, k + enter)

    def drop_rows(self, rows_to_drop: List[int]) -> None:
        """Remove the given constraint rows and the phase-1 cost row."""
        keep = [i for i in range(self.m) if i not in rows_to_drop]
        sel = keep + [self.m]
        self.N = self.N[sel]
        self.basis = [self.basis[i] for i in keep]
        self.m = len(keep)


def solve_standard(A: Sequence[Sequence], b: Sequence, c: Sequence,
                   ties: Sequence[Sequence] = (),
                   warm: Optional[_Tableau] = None) -> StandardResult:
    """
    Solve min c.z s.t. A z = b, z >= 0 exactly, for A, b, c and ``ties`` of
    Python ints.  Deterministic: Bland's rule, ties by smallest variable
    index, row order as given.

    ``ties`` are further right-hand sides t_1, t_2, ...: the program solved
    is then A z = b + eps t_1 + eps^2 t_2 + ... for all small eps > 0 (see
    the module docstring).  An optimal result's ``z_ints`` belong to b, and
    its ``value_ints`` hold the optimal value for b and then for each t_j.

    ``warm`` is the ``_tableau`` of an earlier result for the same A and c;
    the solve updates it in place (see "Warm starts" in the module
    docstring).
    """
    m, n = len(A), len(c)
    if m == 0:
        if all(x >= 0 for x in c):
            return StandardResult(OPTIMAL, basis=(), z_ints=(0,) * n,
                                  value_ints=(0,) * (1 + len(ties)))
        j = next(j for j, x in enumerate(c) if x < 0)
        ray = tuple(1 if k == j else 0 for k in range(n))
        return StandardResult(UNBOUNDED, ray=ray)

    if warm is not None:
        warm.set_rhs([b, *ties])
        if warm.dual_run() == OPTIMAL:
            return _optimal(warm)
        res = _solve_cold(A, b, c, ties)
        if res._tableau is None:
            res._tableau = warm  # still dual feasible: keep it for the next solve
        return res
    return _solve_cold(A, b, c, ties)


def _solve_cold(A: Sequence[Sequence], b: Sequence, c: Sequence,
                ties: Sequence[Sequence]) -> StandardResult:
    """Two-phase solve from the artificial basis (m > 0)."""
    n, k = len(c), 1 + len(ties)
    blocks = [[b[i]] + [t[i] for t in ties] for i in range(len(A))]
    signs = [lex_sign(block) or 1 for block in blocks]
    tab = _Tableau(A, blocks, c, signs)
    p1 = tab.m + 1

    tab.run(p1)
    if lex_sign(tab.N[p1, :k]) < 0:  # phase-1 optimum lex-positive: infeasible
        return StandardResult(
            INFEASIBLE,
            basis=tuple(tab.basis),
            _art_costs=tab.N[p1, k + n:].tolist(), den=tab.det, _signs=signs,
        )

    # Drive zero-level artificials out of the basis; drop dependent rows
    # and the phase-1 cost row, which phase 2 no longer reads.
    to_drop = []
    for i in range(tab.m):
        if tab.basis[i] >= n and not any(tab.N[i, :k]):
            s = next((j for j in range(k, k + n) if tab.N[i, j] != 0), None)
            if s is None:
                to_drop.append(i)
            else:
                tab.pivot(i, s)
    tab.drop_rows(to_drop)

    status = tab.run(tab.m)

    if status == UNBOUNDED:
        s = tab._unbounded_col
        ray = [0] * n
        ray[s - k] = tab.det
        for i in range(tab.m):
            if tab.basis[i] < n:
                ray[tab.basis[i]] = -int(tab.N[i, s])
        return StandardResult(UNBOUNDED, ray=tuple(ray))

    # a dropped row's constraint would go unchecked under a new block
    return _optimal(tab, reusable=not to_drop)


def _optimal(tab: _Tableau, reusable: bool = True) -> StandardResult:
    """The result read off an optimal phase-2 tableau, in integers; it
    carries the tableau for warm starts when ``reusable``."""
    m, n, k = tab.m, tab.n, tab.k
    rhs, cost = tab.N[:m, 0].tolist(), tab.N[m].tolist()
    z = [0] * n
    for i, j in enumerate(tab.basis):
        if j < n:
            z[j] = rhs[i]
    return StandardResult(
        OPTIMAL,
        basis=tuple(tab.basis),
        z_ints=tuple(z), value_ints=tuple(-v for v in cost[:k]),
        den=tab.det, _art_costs=cost[k + n:], _signs=tab.signs.tolist(),
        _tableau=tab if reusable else None,
    )
