"""Face sampling through the polytope of row combinations.

Projecting a system L x >= a onto its first d coordinates can be phrased
entirely in terms of the rows: every valid inequality of the shadow is a
non-negative combination q of input rows whose coefficients cancel on the
eliminated coordinates.  Normalizing by sum(q) = 1 makes the feasible q a
polytope, and optimizing a linear objective over it yields faces of the
shadow directly -- one exact LP per sample, no vertex structure needed.

Minimizing p.q over that polytope is the dual ``lp.lp_minimize`` solves
for the rows (1, L_i[d:]) . y >= -p_i and the objective e_0, so a sample is
one simplex solve of dim - d + 1 rows, whose duals are q, checked exactly:
q >= 0, sum(q) = 1, (q^T L)[d:] = 0 and p.q = -objective.

The sampled face for an optimal vertex q is ((q^T L)[:d], q^T a).  AFI
draws its seed facet this way, from a random objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .lp import ConstraintSystem, Face, InfeasibleSystem, lp_minimize, normalize_face
from .rationals import dot


@dataclass(frozen=True)
class CombinationPolytope:
    """Normalized non-negative row combinations landing in the output space.

    The combination vectors are {q >= 0 : sum(q) = 1, (q^T L)[d:] = 0}:
    ``rows`` holds (1, L_i[d:]) for each row of ``link``, the system the
    combinations are drawn from, so any feasible q maps to the inequality
    (q^T L)[:d] . x >= q^T a, valid on the projection by construction (see
    ``combination_face``).
    """

    rows: Tuple[Tuple[int, ...], ...]
    link: ConstraintSystem
    d: int


def build_combination_polytope(system: ConstraintSystem, d: int) -> CombinationPolytope:
    """Set up the combination polytope for projecting onto the first d coords."""
    if not 0 <= d <= system.dim:
        raise ValueError("output dimension out of range")
    rows = tuple((1,) + row.f[d:] for row in system.rows)
    return CombinationPolytope(rows=rows, link=system, d=d)


def combination_face(cp: CombinationPolytope, q: Sequence) -> Face:
    """The (normalized) inequality ((q^T L)[:d], q^T a) of a combination q."""
    columns = cp.link.transpose()
    coeffs = [dot(q, columns[j]) for j in range(cp.d)]
    rhs = dot(q, [row.b for row in cp.link.rows])
    return normalize_face(coeffs, rhs)


def epm_sample_face(cp: CombinationPolytope, p: Sequence) -> Face:
    """The face of the projection selected by minimizing p.q over the polytope.

    The optimum is attained at a vertex q, which maps to its
    ``combination_face``.  The result can be a face of any rank, including
    the trivial 0 . x >= b one.  Raises InfeasibleSystem when no combination
    cancels the eliminated coordinates (the shadow is the whole output space
    and has no nontrivial valid inequalities).
    """
    p = list(p)
    if len(p) != len(cp.rows):
        raise ValueError("objective width does not match the row count")
    # not from_rows: normalizing a row would rescale its entry of q
    width = cp.link.dim - cp.d + 1
    dual = ConstraintSystem(tuple(Face(f, -v) for f, v in zip(cp.rows, p)), width)
    sol = lp_minimize(dual, (1,) + (0,) * (width - 1), want_point=False)
    if not sol.optimal:
        raise InfeasibleSystem("no normalized row combination lands in the output space")
    q = sol.duals
    support = [(v, f) for v, f in zip(q, cp.rows) if v]
    if (any(v < 0 for v in q) or dot(p, q) != -sol.objective
            or any(sum(v * f[j] for v, f in support) != (j == 0) for j in range(width))):
        raise AssertionError("sampled combination is not an optimal point of the polytope")
    return combination_face(cp, q)
