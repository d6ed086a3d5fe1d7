"""
Inequality systems and exact linear programming over them.

Canonical geometry: a system is a finite list of rows (f, b) each meaning
``f . x >= b``; the solution set is the polyhedron P = {x : L x >= a}.
Equalities are represented as paired rows (f, b), (-f, -b).  Rows are
normalized on ingest to coprime integer coefficients (positive scaling only,
so the inequality is unchanged), which makes rows hashable and deduplicable.

``combine`` is the one elimination kernel, for FME's steps; through it
``pivot_equations`` and ``substitute`` solve equations for coordinates, for
FME's implicit equalities and for the chart of a flat image.

``lp_minimize`` solves min c.x over P exactly.  Internally it solves the dual

    max a.q   s.t.   L^T q = c,  q >= 0

with the fraction-free simplex from :mod:`polyproj.simplex`, which takes and
returns integers only.  For the systems this package cares about (many rows,
comparatively few coordinates) the dual tableau is far smaller than a primal
encoding with split free variables.  Rows are integers (``Face``); each
objective is multiplied by the lcm of its denominators, which moves no
minimizer and no pivot, and divided back out of the value and the duals.
The primal point is x = -pi for the simplex multipliers pi, read off the
terminal cost row as integers X and D > 0 with x = X / D (feasible by the
termination condition).  The simplex returns the optimal values as integers
too, (objective, tie values) = -V / den, so every check is in integers:
c.X den = -V_0 D for the objective and each tie, and f.X >= b D for every
row.  The point is kept in that form, as ``LpSolution.point``, the coprime
integer tuple (X, D) (see ``geometry``), and x's rationals are built only
when ``LpSolution.x`` is read.  The dual vector is the simplex solution
itself, kept as integers until ``LpSolution.duals`` is read, so a solve
builds one rational, its objective.  No primal-form tableau
is ever built.  An unbounded dual's ray is checked as the Farkas certificate
r >= 0, r.L = 0, r.a > 0 of an infeasible system.  An infeasible dual means
an unbounded minimum if the system has a point, which the zero objective
decides: its dual, with right-hand side 0, is feasible, so that solve ends
with a point checked against every row or a checked Farkas certificate.  A
standard-form program min p.q, A q = b, q >= 0 is the dual of the rows
(A^T)_i . x >= -p_i with the objective b, so it needs no entry of its own
(see ``epm``).

Tie-break objectives t_1, t_2, ... make the minimum lexicographic: min c.x,
then min t_1.x among those minimizers, and so on.  That is min
(c + eps t_1 + eps^2 t_2 + ...).x for every small eps > 0, whose dual has the
right-hand side  c + eps t_1 + ...: the tie objectives become the extra
columns of the simplex's right-hand-side block, and one solve yields the
point the chain of staged LPs (each pinning the previous optimum) would.

The dual of every ``lp_minimize`` on one system has the same matrix and
costs; only its right-hand side, the objective, changes.  So each system
caches that matrix and those costs, and the last optimal dual tableau, and
the next ``lp_minimize`` on it starts from that tableau with a dual simplex
instead of a phase 1 (see :mod:`polyproj.simplex`); when the dual simplex
finds the dual infeasible, the solve goes cold.  Status, objective, tie
values and, with ties that span R^d, the point do not depend on the cache.
With several optimal points, the point returned (and the duals) may depend
on which solves came before on the same system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import gcd
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import simplex
from .rationals import (common_denominator, dot, lex_sign, mpq, scale_to_coprime_ints,
                        scaled_ints)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class InfeasibleSystem(ValueError):
    """Raised by operations that require a nonempty solution set."""


class Face(NamedTuple):
    """One inequality f.x >= b with Python int coefficients, as exact LPs need."""

    f: Tuple[int, ...]
    b: int

    def pad(self, dim: int) -> "Face":
        """Zero-extend the coefficient vector to a wider space."""
        if len(self.f) == dim:
            return self
        if len(self.f) > dim:
            raise ValueError("cannot pad to a smaller dimension")
        return Face(self.f + (0,) * (dim - len(self.f)), self.b)

    def __neg__(self) -> "Face":
        return Face(tuple(-x for x in self.f), -self.b)


def normalize_face(coeffs: Sequence, rhs=0) -> Face:
    """
    Scale (f, b) by the positive rational making all entries coprime integers.
    Orientation is preserved; (0, b) rows keep the sign of b.
    """
    scaled = scale_to_coprime_ints(tuple(coeffs) + (rhs,))
    return Face(scaled[:-1], scaled[-1])


def combine(p: Face, q: Face, v: int) -> Face:
    """p_v (q, b_q) - q_v (p, b_p) for faces of equal width, divided by the
    gcd of its entries (``normalize_face`` of it, since faces are integers):
    its v-coefficient cancels.  For p_v > 0 > q_v this is a positive
    combination of the two rows; for an equation p with p_v > 0, a positive
    multiple of q plus a multiple of p.
    """
    pv, qv = p.f[v], q.f[v]
    f = [pv * qf - qv * pf for pf, qf in zip(p.f, q.f)]
    b = pv * q.b - qv * p.b
    g = gcd(*f, b)  # 0 only for the zero row, which stays as it is
    return Face(tuple(c // g for c in f), b // g) if g > 1 else Face(tuple(f), b)


def substitute(row: Face, equations: Sequence[Face], pivots: Sequence[int]) -> Face:
    """``row`` with each pivot eliminated in turn by its equation: 0 on every
    pivot, and a positive multiple of the row on the equations' solutions."""
    for eq, p in zip(equations, pivots):
        if row.f[p]:
            row = combine(eq, row, p)
    return row


def pivot_equations(eqs: Iterable[Face],
                    columns: Iterable[int]) -> Tuple[List[Face], List[int]]:
    """(equations, pivots) for ``substitute``: each equation f.x = b in turn,
    with the earlier pivots substituted out, is solved for its column in
    ``columns`` of least nonzero |coefficient| (ties to the lowest index) and
    oriented so that coefficient is positive; one 0 on every column is left
    out."""
    columns = sorted(columns)
    equations, pivots = [], []
    for eq in eqs:
        eq = substitute(eq, equations, pivots)
        p = min((c for c in columns if eq.f[c]), key=lambda c: abs(eq.f[c]), default=None)
        if p is not None:
            equations.append(eq if eq.f[p] > 0 else -eq)
            pivots.append(p)
    return equations, pivots


@dataclass(frozen=True)
class ConstraintSystem:
    """An inequality description L x >= a of a polyhedron in R^dim."""

    rows: Tuple[Face, ...]
    dim: int
    names: Optional[Tuple[str, ...]] = None

    @classmethod
    def from_rows(cls, rows: Iterable, dim: Optional[int] = None,
                  names=None) -> "ConstraintSystem":
        """Build a system from Face objects or (coeffs, rhs) pairs, each
        normalized.  ``dim`` defaults to the width of the first row, so an
        empty system needs it."""
        faces = [normalize_face(*r) for r in rows]
        if dim is None:
            if not faces:
                raise ValueError("dimension required for an empty system")
            dim = len(faces[0].f)
        for face in faces:
            if len(face.f) != dim:
                raise ValueError("inconsistent row widths")
        return cls(tuple(faces), dim, tuple(names) if names else None)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def homogeneous(self) -> bool:
        return all(r.b == 0 for r in self.rows)

    def with_rows(self, extra: Iterable) -> "ConstraintSystem":
        extra = [normalize_face(*r).pad(self.dim) for r in extra]
        return ConstraintSystem(self.rows + tuple(extra), self.dim, self.names)

    def _dual(self) -> Tuple[List[List[int]], List[int]]:
        """(L^T, -a), cached: the dual's constraint matrix and costs.  Raises
        ValueError when a row has a non-int entry."""
        cached = getattr(self, "_dual_cache", None)
        if cached is None:
            cached = ([[row.f[k] for row in self.rows] for k in range(self.dim)],
                      [-row.b for row in self.rows])
            if not set(map(type, chain(cached[1], *cached[0]))) <= {int}:
                raise ValueError("exact LPs need integer rows; normalize_face makes them")
            object.__setattr__(self, "_dual_cache", cached)
        return cached


@dataclass
class LpSolution:
    status: str
    point: Optional[Tuple[int, ...]] = None  # (X, D), coprime with D > 0: x = X / D
    objective: Optional[object] = None
    ray: Optional[Tuple[int, ...]] = None  # recession direction, (c, t_1, ...).ray lex < 0
    # the duals as integers (Q, D) with D > 0, q = Q / D
    _duals: Optional[Tuple[Tuple[int, ...], int]] = field(default=None, repr=False)

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL

    @property
    def x(self) -> Optional[Tuple]:
        """The attaining point as rationals; lp_minimize's optima with a point only."""
        if self.point is None:
            return None
        D = self.point[-1]
        return tuple(mpq(v, D) for v in self.point[:-1])

    @property
    def duals(self) -> Optional[Tuple]:
        """q >= 0 with q.L = c and q.a = objective; lp_minimize's optima only."""
        if self._duals is None:
            return None
        Q, D = self._duals
        return tuple(mpq(v, D) for v in Q)


def lp_minimize(system: ConstraintSystem, objective: Sequence, *,
                ties: Sequence[Sequence] = (),
                want_point: bool = True) -> LpSolution:
    """
    Exact min of objective.x over the system.  Status is one of optimal /
    unbounded / infeasible; optimal solutions carry the attaining point, the
    exact objective and dual multipliers, unbounded ones an integer ray.

    ``ties`` are tie-break objectives, in order: the minimum is then
    lexicographic (see the module docstring), the point is checked against
    each t_j.x too, and an unbounded ray has (c.ray, t_1.ray, ...)
    lexicographically negative.

    ``want_point=False`` skips the attaining point and its exact check
    against every row (status, objective and duals only), which callers on
    hot paths use.
    """
    objectives = [list(objective)] + [list(t) for t in ties]
    if any(len(v) != system.dim for v in objectives):
        raise ValueError("objective width does not match the system")
    # each objective as ints, times the lcm of its denominators
    scales = [1] * len(objectives)
    for i, v in enumerate(objectives):
        if not set(map(type, v)) <= {int}:
            scales[i] = common_denominator(v)
            objectives[i] = scaled_ints(v, scales[i])
    c = objectives[0]

    # The cache is emptied during the solve, which pivots the tableau in
    # place, so a solve that fails part-way leaves no tableau behind.
    warm = getattr(system, "_tableau_cache", None)
    object.__setattr__(system, "_tableau_cache", None)
    A, costs = system._dual()
    res = simplex.solve_standard(A, c, costs, ties=objectives[1:], warm=warm)
    object.__setattr__(system, "_tableau_cache", res._tableau)
    if res.status == simplex.OPTIMAL:
        # the primal values are minus the dual's: -value_ints / den / scales[0]
        V, den = res.value_ints, res.den
        sol = LpSolution(OPTIMAL, objective=mpq(-V[0], den * scales[0]),
                         _duals=(res.z_ints, den * scales[0]))
        if want_point:
            X, D = res.multipliers()
            if any(dot(v, X) * den != -num * D for v, num in zip(objectives, V)):
                raise AssertionError("recovered point does not attain the LP objective")
            if any(dot(row.f, X) < row.b * D for row in system.rows):
                raise AssertionError("recovered LP point violates the system")
            g = gcd(*X, D)
            sol.point = tuple(v // g for v in X) + (D // g,)
        return sol

    if res.status == simplex.UNBOUNDED:
        # The dual is unbounded, so the primal is infeasible.
        return _infeasible(system, res.ray)

    # Dual infeasible: the primal is unbounded if it has a point, which the
    # zero objective decides (its dual, with right-hand side 0, is feasible).
    feasible = lp_minimize(system, [0] * system.dim)
    if feasible.status != OPTIMAL:
        return feasible
    ray = tuple(-y for y in res.farkas())
    if lex_sign(dot(v, ray) for v in objectives) >= 0:
        raise AssertionError("invalid unboundedness certificate")
    for row in system.rows:
        if dot(row.f, ray) < 0:
            raise AssertionError("certificate is not a recession direction")
    return LpSolution(UNBOUNDED, ray=ray)


def _infeasible(system: ConstraintSystem, r: Sequence) -> LpSolution:
    """INFEASIBLE, once r is checked as its certificate: r >= 0, r.L = 0, r.a > 0."""
    A, costs = system._dual()  # L^T and -a
    if any(v < 0 for v in r) or any(dot(col, r) for col in A) or dot(costs, r) >= 0:
        raise AssertionError("invalid infeasibility certificate")
    return LpSolution(INFEASIBLE)


def lp_feasible(system: ConstraintSystem) -> bool:
    """True when the system has at least one solution."""
    sol = lp_minimize(system, [0] * system.dim, want_point=False)
    return sol.status == OPTIMAL

