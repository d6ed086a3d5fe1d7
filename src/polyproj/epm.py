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

The sampled face for an optimal vertex q is ((q^T L)[:d], q^T a), valid on
the shadow by construction.  AFI draws its seed facet this way, from a
random objective.
"""

from __future__ import annotations

from typing import Sequence

from .lp import ConstraintSystem, Face, InfeasibleSystem, lp_minimize, normalize_face
from .rationals import dot


def epm_sample_face(system: ConstraintSystem, d: int, p: Sequence) -> Face:
    """The face of the projection of ``system`` onto its first d coordinates
    selected by minimizing p.q over the combination polytope, p holding one
    weight per row.

    The optimum is attained at a vertex q, which maps to the normalized
    inequality ((q^T L)[:d], q^T a).  The result can be a face of any rank,
    including the trivial 0 . x >= b one.  Raises InfeasibleSystem when no
    combination cancels the eliminated coordinates (the shadow is the whole
    output space and has no nontrivial valid inequalities).
    """
    p = list(p)
    if len(p) != len(system.rows) or not 0 <= d <= system.dim:
        raise ValueError("objective width or output dimension does not match the system")
    # not from_rows: normalizing a row would rescale its entry of q
    width = system.dim - d + 1
    dual = ConstraintSystem(
        tuple(Face((1,) + row.f[d:], -v) for row, v in zip(system.rows, p)), width)
    sol = lp_minimize(dual, (1,) + (0,) * (width - 1), want_point=False)
    if not sol.optimal:
        raise InfeasibleSystem("no normalized row combination lands in the output space")
    q = sol.duals
    support = [(v, row) for v, row in zip(q, system.rows) if v]
    combo = [sum(v * row.f[j] for v, row in support) for j in range(system.dim)]
    if (any(v < 0 for v in q) or dot(p, q) != -sol.objective or sum(q) != 1
            or any(combo[d:])):
        raise AssertionError("sampled combination is not an optimal point of the polytope")
    return normalize_face(combo[:d], sum(v * row.b for v, row in support))
