"""Projection by vertex discovery and incremental hulling.

The image pi(P) of a polytope under "keep the first d coordinates" is
computed from the outside in:

1. seed with d+1 affinely independent vertices of pi(P) (vertex probes),
2. hull the vertex set collected so far,
3. test each hull facet for validity on pi(P) with one exact LP,
4. every invalid facet yields a new vertex of pi(P) (the LP minimizer,
   sharpened to a vertex), which is inserted into the hull,
5. repeat until all hull facets are valid — then the hull *is* pi(P).

Cones are bounded by the canonical cap on the output coordinates first;
facets of the truncated image that are tight only at the cap carry a
nonzero right-hand side and are dropped again on output.  Images that are
flat (rank r < d) are charted onto R^r exactly and processed there; facets
are lifted back to the ambient coordinates.

A symmetry group, when supplied, multiplies every discovered vertex into
its whole orbit before re-hulling, which cuts the number of LP rounds
roughly by the orbit size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .geometry import (
    AffineEmbedding,
    basis_simplex,
    capped,
    find_vertex,
    is_implied,
    reduce_system,
)
from .hull import IncrementalHull
from .lp import ConstraintSystem, Face


@dataclass
class HullResult:
    """Outcome of a hull-based projection.

    ``facets``: valid inequalities of pi(P), normalized, sorted (for cones:
    the genuine cone facets, cap artifacts removed).  ``vertices``: the
    vertices of the hulled polytope — for cones that is the truncated cone,
    so the list contains the apex and the cap representatives of extreme
    rays.  ``embedding`` is set when pi(P) is flat; ``rank`` is its affine
    dimension.
    """

    facets: List[Face]
    vertices: List[Tuple]
    rank: int
    embedding: Optional[AffineEmbedding] = None
    lp_rounds: int = 0


def _orbit_points(group, point: Tuple) -> List[Tuple]:
    if group is None:
        return [point]
    return [group.apply_point(perm, point) for perm in group.elements]


def _full_dim_chm(
    work: ConstraintSystem, d: int, seeds: List[Tuple], group
) -> HullResult:
    hull = IncrementalHull(seeds)
    validated = {}
    rounds = 0
    while True:
        rounds += 1
        new_points: List[Tuple] = []
        invalid: List[Face] = []
        for face in hull.facets():
            if validated.get(face):
                continue
            valid = is_implied(work, face.pad(work.dim))
            validated[face] = valid
            if not valid:
                invalid.append(face)
                for image in _orbit_points(group, find_vertex(work, d, face.f)):
                    new_points.append(image)
        if not invalid:
            break
        progressed = False
        for point in new_points:
            if hull.add_point(point):
                progressed = True
        if not progressed:
            raise AssertionError(
                "invalid hull facets but no new vertices; exactness bug"
            )
    return HullResult(
        facets=hull.facets(),
        vertices=sorted(hull.vertex_points()),
        rank=d,
        lp_rounds=rounds,
    )


def chm_project(system: ConstraintSystem, d: int, *, group=None) -> HullResult:
    """Facets and vertices of the projection of ``system`` onto its first
    ``d`` coordinates.

    Homogeneous systems are capped and the cap artifacts removed, so the
    returned facets are exactly the facets of the cone's projection.
    Unbounded non-homogeneous projections raise
    :class:`geometry.UnboundedProjection`; bound the system first.  Cones
    whose image has a ray outside the cap's domain raise it too (see
    ``geometry.cap_face``).
    """

    if not 1 <= d <= system.dim:
        raise ValueError(f"projection dimension {d} out of range")
    work = capped(system, d)

    def vertex_probe(direction):
        return find_vertex(work, d, direction)

    bs = basis_simplex(work, d, probe=vertex_probe)
    if bs.rank == 0:
        result = HullResult(facets=[], vertices=[bs.base], rank=0)
    elif bs.rank < d:
        emb = AffineEmbedding.chart(system, bs)
        reduced = reduce_system(work, d, emb)
        seeds = [emb.embed_point(p) for p in bs.points]
        # the group acts on the ambient output coordinates; orbit expansion
        # is skipped in the chart (correctness is unaffected)
        inner = _full_dim_chm(reduced, bs.rank, seeds, group=None)
        result = HullResult(
            facets=sorted(emb.lift_face(f) for f in inner.facets),
            vertices=sorted(emb.lift_point(v[: bs.rank]) for v in inner.vertices),
            rank=bs.rank,
            embedding=emb,
            lp_rounds=inner.lp_rounds,
        )
    else:
        result = _full_dim_chm(work, d, list(bs.points), group)

    if system.homogeneous:
        result.facets = [face for face in result.facets if face.b == 0]
    return result
