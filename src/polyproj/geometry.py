"""
Polyhedron primitives shared by every projection algorithm.

Throughout, a *projection problem* is a pair (system, d): the polyhedron
P = {z in R^(d+e) : L z >= a} together with the subspace of its first d
coordinates.  pi(P) denotes the image of P under z -> z[:d].

The vertex-finding and basis-simplex routines operate on pi(P) without ever
materializing it: every query is answered by an exact LP over the input
system, which must have a bounded image.

``project_image`` is the one driver of the facet-listing methods (CHM and
AFI) and the one place that decides their preconditions: it bounds a cone
by the canonical cap  sum_{i<d} x_i <= 1  (``capped``; ranks and affine
hulls of cone faces are unchanged by the cap), answers a point or a segment
itself, charts flat images, drops the cap's facets, and hands each method a
bounded, full-dimensional image of rank at least 2.

Points are exact and integer: a point p of R^k is the coprime integer tuple
(D p_1, ..., D p_k, D) with D > 0, the form ``lp.LpSolution.point`` holds,
so equal points are equal tuples.  The vertices, basis simplices, charts and
known vertices below all hold points in this form, and only this module
reads it: CHM and the walk cut points to their first coordinates (``cut``),
take directions between them (``difference``), their group orbits
(``orbit``), and faces at them (``slack``, ``face_through``), all in
integers; the hull takes each point as it is, as homogeneous coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .linalg import orthogonal_complement
from .lp import (INFEASIBLE, UNBOUNDED, ConstraintSystem, Face, InfeasibleSystem,
                 LpSolution, lp_minimize, normalize_face, pivot_equations,
                 substitute)
from .rationals import dot, is_zero_vector


class UnboundedProjection(Exception):
    """The projected polyhedron is unbounded in a queried direction.

    For cones this usually means the cone is outside the domain of the
    canonical cap (see ``capped``)."""


class DegenerateInput(Exception):
    """Input violates a rank/shape precondition (e.g. empty interior)."""


def _coprime(values: Sequence[int]) -> Tuple[int, ...]:
    """Integers divided by their gcd: a point once its last entry is positive."""
    g = gcd(*values)
    return tuple(values) if g == 1 else tuple(v // g for v in values)


def cut(point: Tuple[int, ...], d: int) -> Tuple[int, ...]:
    """The point's first d coordinates, a point of R^d."""
    return _coprime(point[:d] + point[-1:])


def difference(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    """The integer direction D_q X_p - D_p X_q, a positive multiple of p - q."""
    Dp, Dq = p[-1], q[-1]
    return tuple(Dq * a - Dp * b for a, b in zip(p[:-1], q[:-1]))


def orbit(group, point: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """The point's images under the group's elements, in their order
    (the point itself without a group)."""
    if group is None:
        return [point]
    D = point[-1:]
    return [group.apply_point(perm, point[:-1]) + D for perm in group.elements]


def slack(face: Face, point: Tuple[int, ...]) -> int:
    """f.X - b D, which is D (f.p - b): of the sign of the face's slack at p."""
    return dot(face.f, point[:-1]) - face.b * point[-1]


def face_through(normal: Sequence[int], point: Tuple[int, ...]) -> Face:
    """The normalized face n.x >= n.p, whose hyperplane passes through p."""
    return normalize_face([a * point[-1] for a in normal], dot(normal, point[:-1]))


def pad_objective(direction: Sequence, dim: int) -> List:
    out = list(direction) + [0] * (dim - len(direction))
    return out


def capped(system: ConstraintSystem, d: int) -> ConstraintSystem:
    """A cone bounded by the canonical cap  -sum_{i<d} x_i >= -1  on its
    first d coordinates; a system with a nonzero right-hand side comes back
    unchanged.

    The cap truncates a cone into a polytope whenever the cone's image in
    the first d coordinates lies in the nonnegative orthant and is pointed
    (entropy-style cones).  Cones with a nonzero image ray of coordinate
    sum <= 0 are outside the cap's domain; downstream LPs then stay
    unbounded and the callers raise rather than return wrong facets."""
    if not system.homogeneous:
        return system
    return system.with_rows([Face(tuple(-1 if i < d else 0 for i in range(system.dim)), -1)])


def is_implied(system: ConstraintSystem, face) -> bool:
    """
    True iff f.x >= b holds on all of the system's solution set: the exact
    minimum of f over the system is >= b.  Unbounded below means not implied;
    an infeasible system implies everything (vacuously true).
    """
    face = normalize_face(*face)
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
    return cut(minimize_image(system, direction, ties=ties).point, d)


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


@dataclass(frozen=True)
class Known:
    """What a caller already knows of an image pi(P): some of its vertices
    (points), normals n along which it is flat (n.x is constant on pi(P)),
    and faces valid on it, normalized.  The default knows nothing."""

    vertices: Tuple[Tuple, ...] = ()
    flat: Tuple[Tuple, ...] = ()
    valid: Tuple[Face, ...] = ()


def _parallel(u: Sequence, v: Sequence) -> bool:
    """True iff u is a nonzero multiple of the nonzero vector v."""
    k = next(i for i, a in enumerate(v) if a)
    return u[k] != 0 and all(a * v[k] == b * u[k] for a, b in zip(u, v))


def _farthest(plane: Face, vertices: Sequence[Tuple[int, ...]]) -> Optional[Tuple[int, ...]]:
    """The first of the vertices farthest from the plane, None when all lie
    on it.  A vertex's distance is |slack| / D up to one positive factor, so
    two are compared by cross-multiplying."""
    far, top, den = None, 0, 1
    for p in vertices:
        s = abs(slack(plane, p))
        if s * den > top * p[-1]:
            far, top, den = p, s, p[-1]
    return far


def basis_simplex(system: ConstraintSystem, d: int, probe=None,
                  known: Known = Known()) -> BasisSimplex:
    """
    r+1 affinely independent points of pi(P) (r = dim pi(P)), which must
    be bounded: a cone is capped first (``project_image`` does it).

    x0 is probed along e_0; then g, the first basis vector of the exact
    orthogonal complement of everything recorded so far (spanning directions
    and those along which pi(P) is flat), is decided in turn:

    - g parallel to a normal in ``known.flat`` is recorded as flat;
    - else, if a vertex p in ``known.vertices`` has g.p != g.x0, the one
      farthest from x0 along +-g (the first such in order on a tie) is kept;
    - else g and -g are tried, each by one LP without ties: a candidate
      fails when min cand.x = cand.x0, and +e_0, which x0 minimizes, is not
      solved.  A kept candidate's point is that LP's by default (the points
      only need to be affinely independent members of pi(P)), else
      ``probe(cand)``: ``project_image`` needs vertices to seed the hull and
      probes with ``find_vertex``, whose tie stages then warm-start from the
      stage-1 optimum.

    Every test is exact, and each kept point is off the span recorded before
    it.  ``known`` saves LPs, not correctness: its vertices must be vertices
    of the image whenever the points must be, and its normals flat on it.
    The result spans the same affine hull whatever is known, so
    ``AffineEmbedding.chart`` gives the same chart.
    """
    e0 = tuple(int(i == 0) for i in range(d))
    x0 = cut(minimize_image(system, e0).point, d) if probe is None else probe(e0)
    points = [x0]
    recorded: List[Tuple] = []
    while len(recorded) < d:
        g = orthogonal_complement(recorded, d)[0]
        if any(_parallel(g, n) for n in known.flat):
            recorded.append(g)
            continue
        far = _farthest(face_through(g, x0), known.vertices)
        if far is not None:
            points.append(far)
            recorded.append(difference(far, x0))
            continue
        for cand in (g, tuple(-a for a in g)):
            if cand == e0:
                continue
            sol = minimize_image(system, cand, want_point=probe is None)
            if sol.objective * x0[-1] != dot(cand, x0[:-1]):
                x = cut(sol.point, d) if probe is None else probe(cand)
                points.append(x)
                recorded.append(difference(x, x0))
                break
        else:
            recorded.append(g)
    return BasisSimplex(points=points)


@dataclass
class AffineEmbedding:
    """
    Coordinate chart for a flat polytope.  Its affine hull is E x = e, and
    each equation is solved for its own pivot coordinate, so the remaining
    free coordinates y = x[free] identify the hull with R^r, and
    full-dimensional machinery can run in them.
    """

    equations: List[Face]  # E_k x = e_k, each zero on the earlier pivots, E_k[p_k] > 0
    pivots: List[int]      # p_k, the coordinate each equation is solved for
    free: List[int]

    @classmethod
    def chart(cls, bs: BasisSimplex) -> "AffineEmbedding":
        """Chart for the affine hull of ``bs``.  ``lp.pivot_equations``
        solves each hull equation for its coordinate of smallest nonzero
        |coefficient|, so a hull with a unit coefficient gives integer
        substitutions.  A cone's hull passes through the apex, so e = 0
        there, and a cone's facets keep b = 0 in the chart."""
        x0 = bs.base
        d = len(x0) - 1
        normals = orthogonal_complement([difference(p, x0) for p in bs.points[1:]], d)
        equations, pivots = pivot_equations([face_through(n, x0) for n in normals], range(d))
        free = [i for i in range(d) if i not in pivots]
        return cls(equations=equations, pivots=pivots, free=free)

    @property
    def ambient_dim(self) -> int:
        return len(self.pivots) + len(self.free)

    @property
    def reduced_dim(self) -> int:
        return len(self.free)

    def embed_point(self, x: Tuple[int, ...]) -> Tuple[int, ...]:
        """The chart coordinates x[free]; errors if x is off the hull."""
        if any(slack(eq, x) for eq in self.equations):
            raise DegenerateInput("point is outside the affine hull")
        return _coprime([x[i] for i in self.free] + [x[-1]])

    def lift_point(self, y: Tuple[int, ...]) -> Tuple[int, ...]:
        """The point of the hull with chart coordinates y, the inverse of
        ``embed_point``: each pivot is solved from its equation, the last
        first, since an equation is zero on the earlier pivots only.  The
        pivot's coefficient c > 0 may not divide the solved value, so the
        point found so far, D included, is scaled by c over their gcd."""
        x = [0] * self.ambient_dim + [y[-1]]
        for i, a in zip(self.free, y[:-1]):
            x[i] = a
        for eq, p in zip(reversed(self.equations), reversed(self.pivots)):
            c, num = eq.f[p], -slack(eq, x)
            g = gcd(c, num)
            if g != c:
                x = [v * (c // g) for v in x]
            x[p] = num // g
        return _coprime(x)

    def embed_face(self, face: Face) -> Face:
        """``face``, over the charted coordinates and possibly more after
        them, with the pivots substituted out (``lp.substitute``, the
        equations zero-padded to its width): it keeps f[free] and the
        coordinates after the charted ones, and on the hull it is a
        positive multiple of ``face``."""
        row = substitute(face, [eq.pad(len(face.f)) for eq in self.equations], self.pivots)
        return normalize_face([row.f[i] for i in self.free] + list(row.f[self.ambient_dim:]),
                              row.b)

    def lift_face(self, face) -> Face:
        """The reduced inequality on the free coordinates, 0 on the pivots:
        it agrees with the reduced one on the hull."""
        face = normalize_face(*face)
        f = [0] * self.ambient_dim
        for i, a in zip(self.free, face.f):
            f[i] = a
        return normalize_face(f, face.b)


def reduce_system(system: ConstraintSystem, d: int, emb: AffineEmbedding) -> ConstraintSystem:
    """
    Rewrite a projection problem whose image is flat into reduced output
    coordinates: each row is embedded (``AffineEmbedding.embed_face``) over
    r + (dim - d) variables.  A solution's first r entries are the free
    coordinates of a point of the hull.
    """
    if emb.ambient_dim != d:
        raise ValueError("embedding does not chart the first d coordinates")
    return ConstraintSystem(rows=tuple(emb.embed_face(row) for row in system.rows),
                            dim=emb.reduced_dim + (system.dim - d))


def _endpoints(bs: BasisSimplex) -> List[Face]:
    """The facets y >= lo and -y >= -hi of a segment in R^1 whose basis
    simplex holds its two endpoints, ordered by value: X_p / D_p against
    X_q / D_q, cross-multiplied."""
    lo, hi = bs.points
    if lo[0] * hi[1] > hi[0] * lo[1]:
        lo, hi = hi, lo
    return [face_through((1,), lo), face_through((-1,), hi)]


def project_image(system: ConstraintSystem, d: int, full_dim, group=None,
                  known: Known = Known()) -> Tuple[List[Face], List[Tuple]]:
    """The facets of pi(P), sorted, with ``full_dim`` listing the facets of
    a bounded, full-dimensional image, and vertices of pi(P) in the input's
    coordinates: those ``full_dim`` reports, else the basis simplex's.

    ``full_dim(work, r, bs, group, known)`` returns the facets of the image
    of ``work`` in its first r >= 2 coordinates and vertices of that image;
    ``bs`` is the image's basis simplex, r+1 vertices, and ``known`` what
    the caller knows of the image.  Around it:

    - a cone is bounded by the canonical cap on the output coordinates
      (``capped``, whose only caller this is), and the facets with a
      nonzero right-hand side, which are tight only at the cap, are dropped
      on output; so a cone comes back as its genuine facets, and with
      vertices of the capped image;
    - the image's basis simplex is computed once, by ``basis_simplex`` with
      ``find_vertex`` probes and ``known``, what the caller knows of the
      capped image, which saves the LPs it answers; a single point has no
      facets, and a segment's facets are its endpoints, both probed;
    - a flat image (rank r < d) is charted onto r free coordinates of its
      affine hull by ``AffineEmbedding.chart`` (a cone's own facets keep
      b = 0), as are the known vertices and valid faces; its facets are
      found on the reduced system and lifted back with 0 on the chart's
      pivots, and its vertices through the chart.  The group acts on the
      ambient coordinates, so the chart runs without it.
    """
    if not 1 <= d <= system.dim:
        raise ValueError(f"projection dimension {d} out of range")
    if group is not None and group.dim != d:
        raise ValueError("symmetry group dimension does not match the output space")
    work = capped(system, d)
    bs = basis_simplex(work, d, probe=lambda c: find_vertex(work, d, c), known=known)
    vertices = bs.points
    if bs.rank == 0:
        return [], vertices
    if bs.rank < d:
        emb = AffineEmbedding.chart(bs)
        charted = BasisSimplex([emb.embed_point(p) for p in bs.points])
        if bs.rank == 1:
            inner = _endpoints(charted)
        else:
            on_chart = Known(tuple(map(emb.embed_point, known.vertices)), (),
                             tuple(map(emb.embed_face, known.valid)))
            inner, points = full_dim(reduce_system(work, d, emb), bs.rank, charted, None, on_chart)
            vertices = [emb.lift_point(y) for y in points]
        faces = [emb.lift_face(f) for f in inner]
    elif d == 1:
        faces = _endpoints(bs)
    else:
        faces, vertices = full_dim(work, d, bs, group, known)
    if system.homogeneous:
        faces = [f for f in faces if f.b == 0]
    return sorted(faces), vertices
