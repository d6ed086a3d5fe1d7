"""
Polyhedron primitives shared by every projection algorithm.

Throughout, a *projection problem* is a pair (system, d): the polyhedron
P = {z in R^(d+e) : L z >= a} together with the subspace of its first d
coordinates.  pi(P) denotes the image of P under z -> z[:d].

The vertex-finding and basis-simplex routines operate on pi(P) without ever
materializing it: every query is answered by an exact LP over the input
system.  Homogeneous systems (cones) are bounded internally by the canonical
cap  sum_{i<d} x_i <= 1  where a polytope is required; ranks and affine hulls
of cone faces are unchanged by the cap.

``project_image`` is the one driver of the facet-listing methods (CHM and
AFI): it caps cones, charts flat images and drops the cap's facets, and
hands each method a bounded, full-dimensional image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .linalg import orthogonal_complement, solve_linear
from .lp import (INFEASIBLE, UNBOUNDED, ConstraintSystem, Face, InfeasibleSystem,
                 LpSolution, as_face, lp_minimize, normalize_face)
from .rationals import dot, is_zero_vector, vec_sub


class UnboundedProjection(Exception):
    """The projected polyhedron is unbounded in a queried direction.

    For cones this usually means the cone is outside the domain of the
    canonical cap (see ``cap_face``), which ``capped`` adds."""


class DegenerateInput(Exception):
    """Input violates a rank/shape precondition (e.g. empty interior)."""


def pad_objective(direction: Sequence, dim: int) -> List:
    out = list(direction) + [0] * (dim - len(direction))
    return out


def cap_face(dim: int, d: int) -> Face:
    """The canonical bounding cap  -sum_{i<d} x_i >= -1  in R^dim.

    This truncates a cone into a polytope whenever the cone's image in the
    first d coordinates lies in the nonnegative orthant and is pointed
    (entropy-style cones).  Cones with a nonzero image ray of coordinate
    sum <= 0 are outside the cap's domain; downstream LPs then stay
    unbounded and the callers raise rather than return wrong facets."""
    return Face(tuple(-1 if i < d else 0 for i in range(dim)), -1)


def capped(system: ConstraintSystem, d: int) -> ConstraintSystem:
    """A cone bounded by the canonical cap on its first d coordinates; a
    system with a nonzero right-hand side comes back unchanged."""
    if not system.homogeneous:
        return system
    return system.with_rows([cap_face(system.dim, d)])


def is_implied(system: ConstraintSystem, face) -> bool:
    """
    True iff f.x >= b holds on all of the system's solution set: the exact
    minimum of f over the system is >= b.  Unbounded below means not implied;
    an infeasible system implies everything (vacuously true).
    """
    face = as_face(face)
    sol = lp_minimize(system, pad_objective(face.f, system.dim), want_point=False)
    if sol.status == UNBOUNDED:
        return False
    if sol.status == INFEASIBLE:
        return True
    return sol.objective >= face.b


def minimize_image(system: ConstraintSystem, direction: Sequence, *,
                   ties: Sequence[Sequence] = (), want_point: bool = True) -> LpSolution:
    """
    The optimal solution of min direction.x over the system, with the
    direction and each tie objective zero-padded to the system's width.
    Raises InfeasibleSystem for an empty system and UnboundedProjection when
    the minimum is unbounded.
    """
    sol = lp_minimize(system, pad_objective(direction, system.dim),
                      ties=[pad_objective(t, system.dim) for t in ties],
                      want_point=want_point)
    if sol.status == INFEASIBLE:
        raise InfeasibleSystem("system is infeasible")
    if sol.status == UNBOUNDED:
        raise UnboundedProjection(f"unbounded along {tuple(direction)} or a tie objective")
    return sol


def find_vertex(system: ConstraintSystem, d: int, direction: Sequence) -> Tuple:
    """
    A vertex of pi(P) minimizing ``direction`` (stage 1), refined to a unique
    point by exact lexicographic minimization along the unit vectors
    (stages 2..d), leaving out e_i for the first i with direction[i] != 0.
    The stages together span R^d, so the lexicographic minimizers all share
    one image point.  One LP finds it: the later stages are tie-break
    objectives of ``lp_minimize``, which returns the point a chain of d LPs
    would (each pinning the previous optimum with an equality).  Raises
    UnboundedProjection if some stage is unbounded and InfeasibleSystem if
    the system is empty.
    """
    if is_zero_vector(direction):
        raise ValueError("direction must be nonzero")
    skip = next(i for i, a in enumerate(direction) if a != 0)
    ties = [[int(j == i) for j in range(d)] for i in range(d) if i != skip]
    return tuple(minimize_image(system, direction, ties=ties).x[:d])


@dataclass
class BasisSimplex:
    """Affinely independent points spanning pi(P)."""

    points: List[Tuple]

    @property
    def rank(self) -> int:
        return len(self.points) - 1

    @property
    def base(self) -> Tuple:
        return self.points[0]


def basis_simplex(system: ConstraintSystem, d: int, probe=None) -> BasisSimplex:
    """
    r+1 affinely independent points of pi(P) (r = dim pi(P)).  Homogeneous
    systems are capped first; the affine hull and ranks of cone faces are
    unaffected.

    Directions are probed in a deterministic order: at each step the first
    basis vector of the exact orthogonal complement of everything recorded so
    far (both spanning directions and those along which pi(P) is flat).  The
    default probe is a single LP — the points only need to be affinely
    independent members of pi(P), not vertices, so the lexicographic
    refinement of find_vertex is skipped.  ``project_image`` needs genuine
    vertices, which seed the hull, and passes
    ``probe=lambda c: find_vertex(system, d, c)``.
    """
    work = capped(system, d)

    if probe is None:
        def probe(direction):
            return tuple(minimize_image(work, direction).x[:d])

    x0 = probe(tuple(1 if i == 0 else 0 for i in range(d)))
    points = [x0]
    recorded: List[Tuple] = []
    while len(recorded) < d:
        g = orthogonal_complement(recorded, d)[0]
        for cand in (g, tuple(-a for a in g)):
            x = probe(cand)
            if dot(cand, x) != dot(cand, x0):
                points.append(x)
                recorded.append(vec_sub(x, x0))
                break
        else:
            recorded.append(g)
    return BasisSimplex(points=points)


@dataclass
class AffineEmbedding:
    """
    Exact chart for a flat polytope: x = base + V y identifies the affine
    hull (base point plus independent direction vectors) with R^r, so that
    full-dimensional machinery can run in the reduced coordinates y.
    """

    base: Tuple
    directions: List[Tuple]  # r independent vectors in R^d

    @classmethod
    def chart(cls, system: ConstraintSystem, bs: BasisSimplex) -> "AffineEmbedding":
        """Chart for the flat image of ``system`` spanned by ``bs``.  A cone's
        affine hull is a linear subspace, so its chart is rooted at the apex:
        the cone's facets keep b = 0 in the chart, and the reduced bare cone
        stays homogeneous."""
        dirs = [vec_sub(p, bs.base) for p in bs.points[1:]]
        base = (0,) * len(bs.base) if system.homogeneous else bs.base
        return cls(base=base, directions=dirs)

    @property
    def ambient_dim(self) -> int:
        return len(self.base)

    @property
    def reduced_dim(self) -> int:
        return len(self.directions)

    def embed_point(self, x: Sequence) -> Tuple:
        """Coordinates y with base + V y = x; errors if x is off the hull."""
        rhs = vec_sub(x, self.base)
        rows = [[v[i] for v in self.directions] for i in range(self.ambient_dim)]
        y = solve_linear(rows, rhs)
        if y is None:
            raise DegenerateInput("point is outside the affine hull")
        return tuple(y)

    def lift_face(self, face) -> Face:
        """
        Any ambient inequality agreeing with the reduced one on the hull
        (the kernel component is chosen by the exact solver).
        """
        face = as_face(face)
        rows = [list(v) for v in self.directions]
        f = solve_linear(rows, list(face.f))
        if f is None:
            raise DegenerateInput("face does not lift")
        return normalize_face(f, face.b + dot(f, self.base))


def reduce_system(system: ConstraintSystem, d: int, emb: AffineEmbedding) -> ConstraintSystem:
    """
    Rewrite a projection problem whose image is flat into reduced output
    coordinates: substituting x[:d] = base + V y turns each row (f, b) into
    (f[:d] V  ++  f[d:],  b - f[:d] . base) over r + (dim - d) variables.
    A solution's first r entries y map back to x = base + V y.
    """
    if emb.ambient_dim != d:
        raise ValueError("embedding does not chart the first d coordinates")
    rows = []
    for row in system.rows:
        obs, hid = row.f[:d], row.f[d:]
        coeffs = [dot(obs, v) for v in emb.directions] + list(hid)
        rows.append(normalize_face(coeffs, row.b - dot(obs, emb.base)))
    return ConstraintSystem(
        rows=tuple(rows), dim=emb.reduced_dim + (system.dim - d)
    )


def project_image(system: ConstraintSystem, d: int, full_dim, group=None) -> List[Face]:
    """The facets of pi(P), sorted, with ``full_dim`` listing the facets of
    a bounded, full-dimensional image.

    ``full_dim(work, r, bs, group)`` returns the facets of the image of
    ``work`` in its first r coordinates; ``bs`` is that image's basis
    simplex, whose points are vertices.  Around it:

    - a cone is bounded by the canonical cap on the output coordinates
      (``capped``), and the facets with a nonzero right-hand side, which are
      tight only at the cap, are dropped on output; so a cone comes back as
      its genuine facets;
    - the image's basis simplex is computed once; a single point has no
      facets;
    - a flat image (rank r < d) is charted onto R^r exactly by
      ``AffineEmbedding.chart`` (rooted at the apex for cones, so the cone's
      own facets keep b = 0), ``full_dim`` runs on the reduced system and
      its facets are lifted back to the ambient coordinates.  The group acts
      on the ambient coordinates, so the chart runs without it.
    """
    if not 1 <= d <= system.dim:
        raise ValueError(f"projection dimension {d} out of range")
    if group is not None and group.dim != d:
        raise ValueError("symmetry group dimension does not match the output space")
    work = capped(system, d)
    bs = basis_simplex(work, d, probe=lambda c: find_vertex(work, d, c))
    if bs.rank == 0:
        return []
    if bs.rank < d:
        emb = AffineEmbedding.chart(system, bs)
        charted = BasisSimplex([emb.embed_point(p) for p in bs.points])
        inner = full_dim(reduce_system(work, d, emb), bs.rank, charted, None)
        faces = [emb.lift_face(f) for f in inner]
    else:
        faces = full_dim(work, d, bs, group)
    if system.homogeneous:
        faces = [f for f in faces if f.b == 0]
    return sorted(faces)
