"""
Exact convex hull of points, as a list of facet inequalities.

The facets of conv(points) in R^k are computed as the extreme rays of the
polar-style cone

    C = {(f, c) in R^(k+1) : f . p + c >= 0 for every point p},

whose ray (f, c) is the inequality f . x >= -c,

which is pointed and full-dimensional exactly when the points affinely span
R^k.  Rays are maintained by the double-description method: start from the
simplicial cone cut out by an initial simplex, the k+1 affinely independent
points the caller passes (the driver's basis simplex; its rays are the
columns of the inverse constraint matrix), then insert further points one at
a time, combining adjacent rays across the new hyperplane.
The structure is incremental: callers may keep inserting points and reading
off the current facet list, which is how the projection driver avoids
recomputing hulls from scratch while it discovers vertices.

Points come in ``geometry``'s format: p in R^k is the coprime integer tuple
(D p, D) with D > 0, a positive multiple of p's constraint normal (p, 1).  So
each point is its own constraint normal, the cone is unchanged, and every
ray value and combined ray is an integer.

Two rays are adjacent iff no third ray is tight on every constraint they are
both tight on; tight sets are tracked as bitmasks over the points processed
so far.  A combined ray s+ . r-  +  (-s-) . r+ is tight on an old constraint
iff both parents are (a positive combination of nonnegative values), so the
new mask is exactly (mask+ & mask-) | new_bit.

Every ray of the final cone with f != 0 is a facet of the hull; f = 0 cannot
occur for an extreme ray (such a ray would be interior).
"""

from math import gcd
from typing import List, Sequence, Tuple

from .geometry import DegenerateInput
from .linalg import rref
from .lp import Face
from .rationals import dot


def _solve_inverse_columns(mat: List[List]) -> List[List[int]]:
    """Columns of mat^-1 for a square exact matrix, all scaled by one
    positive integer (raises if singular)."""
    n = len(mat)
    reduced, pivots, _ = rref([list(row) + [int(i == j) for j in range(n)]
                               for i, row in enumerate(mat)])
    if pivots != list(range(n)):
        raise DegenerateInput("singular initial simplex")
    return [[row[n + j] for row in reduced] for j in range(n)]


class _Ray:
    __slots__ = ("vec", "mask")

    def __init__(self, vec: Sequence[int], mask: int):
        g = gcd(*vec)  # the ray's coprime integer multiple
        self.vec = tuple(c // g for c in vec)
        self.mask = mask


class IncrementalHull:
    """Double-description state for conv(points), extensible point by point,
    started from the k+1 vertices of a simplex in R^k."""

    def __init__(self, points: Sequence[Tuple[int, ...]]):
        pts = list(points)
        if not pts:
            raise DegenerateInput("no points")
        self.k = len(pts[0]) - 1
        if self.k == 0:
            raise DegenerateInput("zero-dimensional ambient space")
        if any(len(p) != self.k + 1 for p in pts):
            raise ValueError("points of mixed dimensions")
        if len(pts) != self.k + 1:
            raise DegenerateInput("the initial simplex needs %d points" % (self.k + 1))

        self._rays: List[_Ray] = []
        for j, col in enumerate(_solve_inverse_columns(pts)):
            # Ray j is tight on every initial constraint except the j-th.
            self._rays.append(_Ray(col, (1 << len(pts)) - 1 - (1 << j)))
        self.points: List[Tuple] = pts
        self._seen = set(pts)

    def add_point(self, point: Tuple[int, ...]) -> bool:
        """Insert one more point; returns False if it was already present."""
        if len(point) != self.k + 1:
            raise ValueError("point of wrong dimension")
        if point in self._seen:
            return False
        self.points.append(point)
        self._seen.add(point)
        self._insert(point, 1 << (len(self.points) - 1))
        return True

    def _insert(self, normal: Tuple[int, ...], bit: int) -> None:
        rays = self._rays
        values = [dot(normal, r.vec) for r in rays]
        keep, pos, neg = [], [], []
        for r, v in zip(rays, values):
            if v > 0:
                pos.append((r, v))
                keep.append(r)
            elif v == 0:
                r.mask |= bit
                keep.append(r)
            else:
                neg.append((r, v))
        required = self.k + 1 - 2  # a 2-face of a pointed cone in R^(k+1)
        masks = [r.mask for r in rays]
        new_rays = []
        for (rp, vp), (rn, vn) in ((a, b) for a in pos for b in neg):
            common = rp.mask & rn.mask
            if common.bit_count() < required:
                continue
            if any(
                m & common == common
                for r3, m in zip(rays, masks)
                if r3 is not rp and r3 is not rn
            ):
                continue
            vec = [vp * x - vn * y for x, y in zip(rn.vec, rp.vec)]
            new_rays.append(_Ray(vec, common | bit))
        self._rays = keep + new_rays

    def facets(self) -> List[Face]:
        """Current facet list, normalized and sorted."""
        out = []
        for r in self._rays:
            face = Face(r.vec[:-1], -r.vec[-1])  # already coprime integers
            if all(c == 0 for c in face.f):
                raise AssertionError("interior direction reported as extreme ray")
            out.append(face)
        return sorted(set(out))
