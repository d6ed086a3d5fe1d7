"""Projection by vertex discovery and incremental hulling.

The image pi(P) of a polytope under "keep the first d coordinates" is
computed from the outside in:

1. seed with d+1 affinely independent vertices of pi(P), the driver's
   vertex-probed basis simplex, then insert the vertices the caller
   already knows,
2. hull the vertex set collected so far,
3. test each hull facet for validity on pi(P) with one exact LP unless the
   face is known valid,
4. every invalid facet yields a new vertex of pi(P) (the LP minimizer,
   sharpened to a vertex), which is inserted into the hull,
5. repeat until all hull facets are valid — then the hull *is* pi(P).

The driver ``geometry.project_image`` caps cones, answers points and
segments, charts flat images and drops the cap's facets; this module hulls
the bounded, full-dimensional image of rank at least 2 it hands over.

A symmetry group, when supplied, multiplies every discovered vertex into
its whole orbit before re-hulling, which cuts the number of LP rounds
roughly by the orbit size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from .geometry import Known, find_vertex, is_implied, project_image
from .hull import IncrementalHull
from .lp import ConstraintSystem, Face


@dataclass
class HullResult:
    """Outcome of ``chm_project``: the facets of pi(P), normalized and sorted
    (for cones: the genuine cone facets), the rounds of hull validation it
    took, and vertices of the image (of the capped image, for a cone): every
    point of its hull, or its basis simplex where no hull was built."""

    facets: List[Face]
    lp_rounds: int = 0
    vertices: List[Tuple] = field(default_factory=list)


def _orbit_points(group, point: Tuple) -> List[Tuple]:
    if group is None:
        return [point]
    return [group.apply_point(perm, point) for perm in group.elements]


def _full_dim_chm(work: ConstraintSystem, d: int, seeds: List[Tuple], group,
                  known: Known) -> Tuple[List[Face], List[Tuple], int]:
    """The facets of the full-dimensional image of ``work``, hulled from
    ``seeds``, its basis simplex, and the known vertices outwards, the
    points of that hull, and the number of validation rounds.  A hull facet
    among the known valid faces takes no LP."""
    hull = IncrementalHull(seeds)
    for point in known.vertices:
        hull.add_point(point)
    validated = dict.fromkeys(known.valid, True)
    rounds = 0
    while True:
        rounds += 1
        facets = hull.facets()
        new_points: List[Tuple] = []
        for face in facets:
            if validated.get(face):
                continue
            valid = is_implied(work, face)
            validated[face] = valid
            if not valid:
                new_points += _orbit_points(group, find_vertex(work, d, face.f))
        if not new_points:
            return facets, hull.points, rounds
        added = [hull.add_point(point) for point in new_points]
        if not any(added):
            raise AssertionError(
                "invalid hull facets but no new vertices; exactness bug"
            )


def chm_project(system: ConstraintSystem, d: int, *, group=None,
                known: Known = Known()) -> HullResult:
    """Facets of the projection of ``system`` onto its first ``d``
    coordinates.

    Homogeneous systems are capped and the cap artifacts removed, so the
    returned facets are exactly the facets of the cone's projection.
    Unbounded non-homogeneous projections raise
    :class:`geometry.UnboundedProjection`; bound the system first.  Cones
    whose image has a ray outside the cap's domain raise it too (see
    ``geometry.capped``).  ``known`` seeds the basis simplex
    (``geometry.basis_simplex``) and the hull, and spares the LP of each
    hull facet it knows valid; the facets do not depend on it.
    """
    result = HullResult(facets=[])

    def full_dim(work, r, bs, g, kn):
        facets, points, result.lp_rounds = _full_dim_chm(work, r, bs.points, g, kn)
        return facets, points

    result.facets, result.vertices = project_image(system, d, full_dim, group, known)
    return result
