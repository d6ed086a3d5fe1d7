"""Face sampling through the polytope of row combinations.

Projecting a system L x >= a onto its first d coordinates can be phrased
entirely in terms of the rows: every valid inequality of the shadow is a
non-negative combination q of input rows whose coefficients cancel on the
eliminated coordinates.  Normalizing by sum(q) = 1 makes the feasible q a
polytope, and optimizing a linear objective over it yields faces of the
shadow directly -- one exact LP per sample, no vertex structure needed.

That polytope is already in standard form, {q >= 0 : A q = b} with one row
for sum(q) = 1 and one per eliminated coordinate, so each sample is a single
``lp.lp_standard`` solve of dim - d + 1 rows: q >= 0 is never written out as
rows, and nothing is dualized.

The sampled face for an optimal vertex q is ((q^T L)[:d], q^T a).  AFI
draws its seed facet this way, from a random objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .lp import ConstraintSystem, Face, InfeasibleSystem, lp_standard, normalize_face
from .rationals import dot


@dataclass(frozen=True)
class CombinationPolytope:
    """Normalized non-negative row combinations landing in the output space.

    The combination vectors are {q >= 0 : A q = b}: the first row of ``A``
    is sum(q) = 1, each further row sets (q^T L)_j = 0 for one coordinate j
    past ``d``.  ``link`` is the system the combinations are drawn from, so
    any feasible q maps to the inequality (q^T L)[:d] . x >= q^T a, valid on
    the projection by construction (see ``combination_face``).
    """

    A: Tuple[Tuple[int, ...], ...]
    b: Tuple[int, ...]
    link: ConstraintSystem
    d: int


def build_combination_polytope(system: ConstraintSystem, d: int) -> CombinationPolytope:
    """Set up the combination polytope for projecting onto the first d coords."""
    if not 0 <= d <= system.dim:
        raise ValueError("output dimension out of range")
    columns = system.transpose()
    A = ((1,) * len(system.rows),) + tuple(tuple(columns[j]) for j in range(d, system.dim))
    b = (1,) + (0,) * (system.dim - d)
    return CombinationPolytope(A=A, b=b, link=system, d=d)


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
    if len(p) != len(cp.link.rows):
        raise ValueError("objective width does not match the row count")
    sol = lp_standard(cp.A, cp.b, p)
    if not sol.optimal:
        raise InfeasibleSystem("no normalized row combination lands in the output space")
    return combination_face(cp, sol.x)

