"""
polyproj: exact projection of high-dimensional polyhedra.

The package computes facet descriptions of coordinate projections

    pi_d(P) = {x in R^d : exists y, (x, y) in P},   P = {z : L z >= a},

entirely in rational arithmetic, via three interchangeable methods (iterated
variable elimination, convex-hull expansion and adjacent-facet traversal,
whose seed facet is a face sampled from the polytope of row combinations and
tightened), plus the marginal-cone
machinery built on top: entropy spaces, correlation scenarios, causal models
with hidden common ancestors, symmetry reduction and exact marginal proofs.
"""

from .lp import ConstraintSystem, Face, LpSolution, lp_feasible, lp_minimize, normalize_face

__all__ = [
    "ConstraintSystem",
    "Face",
    "LpSolution",
    "lp_feasible",
    "lp_minimize",
    "normalize_face",
]

__version__ = "0.1.0"
