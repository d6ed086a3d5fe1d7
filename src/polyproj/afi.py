"""Facet enumeration by walking facet adjacencies.

Every ridge ((r-2)-face) of an r-dimensional polytope lies in exactly two
facets, and the facet graph is connected.  So the complete facet list can be
grown from a single seed facet: compute the ridges of a known facet by
projecting the facet's own polytope (one rank lower), find the neighboring
facet across each ridge, repeat until no facet is left unexplored.  A
neighbor already found is named by an exact integer test: the facets through
a ridge are the members of one pencil of inequalities.  Only a ridge whose
neighbor is new is rotated around, an exact LP sweep, so a complete walk
makes one rotation per facet orbit after the seed's.  The ridge projector is
chosen recursively — depth 0 uses the hull-based projector (chm), depth k
uses this walk again — which trades hull size against LP count.

The seed facet comes from EPM: a random objective over the polytope of row
combinations samples a valid inequality (``epm.epm_sample_face``), one
exact LP raises its offset to the supporting value, and ``_tighten``
rotates it up the face lattice until its tight set has rank d - 1.  Each
rotation's axis is the first vector of the orthogonal complement of the
tight set's directions and the face's normal; the image is
full-dimensional, so that complement is never empty.

The walk keeps a pool of the exact vertices of its image: its own basis
simplex's, then those of each ridge subproblem.  A facet's subproblem starts
from the pool's vertices on that facet and from the facet's normal, along
which it is flat, so its basis simplex runs LPs only for the directions they
leave open; what is known about a facet is reused across its subproblem, as
in the adjacency decomposition of Bremner, Dutour Sikirić & Schürmann
(2009).  Only the subproblem's hull seeds change, not its facets.

``afi_project`` with a ``budget`` of hulls built is the randomized
facet discovery (RFD): the walk cut off early, whose ``BudgetExhausted``
error carries a sound, possibly partial facet list.

Each image reaches the walk through ``geometry.project_image``, which caps
cones, answers points and segments (a segment's two facets are not
adjacent, so no walk could connect them), charts flat images and drops the
cap's facets; the walk traverses a capped cone's truncated polytope, cap
facet included, since the cap's ridges lead to genuine neighbors.  A
facet's polytope is a flat image, charted by solving the facet's equation
for a unit coefficient where it has one (every paper facet does), so the
ridge subproblems keep the input's small integers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Set, Tuple

from .chm import chm_project
from .epm import epm_sample_face
from .geometry import (
    BasisSimplex,
    DegenerateInput,
    Known,
    basis_simplex,
    minimize_image,
    project_image,
)
from .linalg import orthogonal_complement
from .lp import ConstraintSystem, Face, normalize_face
from .rationals import dot, is_zero_vector, vec_sub

_SAMPLE_RETRIES = 32


@dataclass(frozen=True)
class AfiConfig:
    """Knobs for the adjacency walk.

    ``depth`` is the number of walk levels above the hull-based projector
    (depth 0 is plain chm).  ``group`` marks whole orbits done from a single
    representative.  ``seed`` drives every random choice, so equal seeds
    give identical runs.
    """

    depth: int = 1
    group: Optional[object] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError("depth must be non-negative")


class BudgetExhausted(Exception):
    """A budgeted walk was cut off at a refused hull-projector call.
    ``facets`` is the sound, possibly partial, facet list found by then."""

    def __init__(self, facets: List[Face]):
        super().__init__(f"budget exhausted after {len(facets)} facets")
        self.facets = facets


class _Budget:
    """Counts down the hulls that leaf calls build; None means unlimited."""

    def __init__(self, left: Optional[int]):
        self.left = left
        self.denied = False  # a leaf call was refused: the walks stop

    def allows(self) -> bool:
        """Whether a leaf call may run: refused once no hull is left."""
        self.denied = self.left == 0
        return not self.denied

    def spend(self) -> None:
        if self.left is not None:
            self.left -= 1


def rotate(system: ConstraintSystem, g, s) -> Tuple[Face, Face]:
    """Sweep the candidate inequality g around the pivot axis s until valid.

    The system's image must be bounded (a cone capped, as
    ``project_image`` hands it over); g and s are width-d inequalities with
    exactly orthogonal coefficient vectors.  Each step finds a point x
    violating the current candidate and replaces the pair by the unique (up
    to positive scale) pair in span{g, s} that is tight at x and at the
    running pivot, keeping the sweep monotone:

        g' = sigma*g - gamma*s              b' = sigma*b - gamma*c
        s' = gamma*|s|^2*g + sigma*|g|^2*s  c' = gamma*|s|^2*b + sigma*|g|^2*c

    with gamma = g.x - b < 0 and sigma = s.x - c.  These are the unit-norm
    update rules cleared of denominators — the pair is only meaningful up to
    positive scaling, so exact integer faces can be kept throughout.  On
    return g is valid and tight (min g.x = b, asserted) and s is the rotated
    companion axis, still exactly orthogonal.
    """
    g = normalize_face(*g)
    s = normalize_face(*s)
    if len(g.f) != len(s.f):
        raise ValueError("face and axis must have equal width")
    if is_zero_vector(g.f) or is_zero_vector(s.f):
        raise ValueError("rotation requires nonzero face and axis vectors")
    if dot(g.f, s.f) != 0:
        raise ValueError("rotation axis must be orthogonal to the face")
    d = len(g.f)
    if d > system.dim:
        raise ValueError("face is wider than the system")
    norm_g = dot(g.f, g.f)
    norm_s = dot(s.f, s.f)
    moved = False
    while True:
        sol = minimize_image(system, g.f)
        x = sol.x[:d]
        gamma = sol.objective - g.b
        if gamma >= 0:
            if moved and gamma != 0:
                raise AssertionError("rotation terminated on a non-tight face")
            return g, s
        sigma = dot(s.f, x) - s.b
        g2 = normalize_face(
            [sigma * a - gamma * c for a, c in zip(g.f, s.f)],
            sigma * g.b - gamma * s.b,
        )
        s2 = normalize_face(
            [gamma * norm_s * a + sigma * norm_g * c for a, c in zip(g.f, s.f)],
            gamma * norm_s * g.b + sigma * norm_g * s.b,
        )
        if dot(g2.f, s2.f) != 0:
            raise AssertionError("rotation update broke orthogonality")
        g, s = g2, s2
        norm_g = dot(g.f, g.f)
        norm_s = dot(s.f, s.f)
        moved = True


def _tighten(work: ConstraintSystem, d: int, face: Face) -> Face:
    """Drive a nonzero, valid and tight width-d inequality up the face
    lattice until it is a facet of the full-dimensional image of ``work``:
    until its tight set, whose basis simplex F each round computes, has
    rank d - 1.

    Each round: take as pivot axis the first vector of the orthogonal
    complement of F's directions and the face's normal, orient it toward
    the polytope's slack side, and rotate the *negated* face around it.  The
    landing face is valid, tight, and its tight set is strictly larger in
    rank (asserted).
    """
    F = basis_simplex(work.with_rows([-face]), d)
    while F.rank != d - 1:
        fdirs = [vec_sub(q, F.base) for q in F.points[1:]]
        g = orthogonal_complement(fdirs + [face.f], d)[0]
        axis = normalize_face(g, dot(g, F.base))
        if minimize_image(work, axis.f, want_point=False).objective >= axis.b:
            axis = -axis
        face, _ = rotate(work, -face, -axis)
        G = basis_simplex(work.with_rows([-face]), d)
        if G.rank <= F.rank:
            raise AssertionError("face rank did not increase during tightening")
        F = G
    return face


def _seed_facet(work: ConstraintSystem, d: int, rng: random.Random) -> Face:
    """A facet of the full-dimensional image of ``work``: sample a valid
    inequality from the row-combination polytope with a random objective,
    raise its offset to the supporting value (one exact LP, so a sample
    slack everywhere becomes tight), then tighten it.  Trivial samples are
    redrawn a bounded number of times."""
    for _ in range(_SAMPLE_RETRIES):
        sample = epm_sample_face(work, d, [rng.randint(-(2**20), 2**20) for _ in work.rows])
        if not is_zero_vector(sample.f):
            support = minimize_image(work, sample.f, want_point=False).objective
            return _tighten(work, d, normalize_face(sample.f, support))
    raise DegenerateInput("row combinations produced only trivial faces")


def _reject_from(face: Face, axis: Face) -> Face:
    """Component of ``axis`` orthogonal to ``face.f`` (offset adjusted the
    same way), preserving the axis' orientation on the face's hyperplane:
    norm * axis - (axis.f . face.f) * face, in integers, norm = |face.f|^2."""
    norm = dot(face.f, face.f)
    lam = dot(axis.f, face.f)
    coeffs = [norm * a - lam * b for a, b in zip(axis.f, face.f)]
    if is_zero_vector(coeffs):
        raise AssertionError("ridge inequality is parallel to its facet")
    return normalize_face(coeffs, norm * axis.b - lam * face.b)


def _pencil(g: Face, h: Face) -> Callable[[Face], bool]:
    """A predicate accepting exactly the faces in the pencil of g and h:
    those whose (f, b) is a rational combination of (g.f, g.b) and
    (h.f, h.b), which must be independent.  Cramer's rule on two entries
    with a nonzero minor D gives the only possible coefficients alpha, beta;
    D*Phi = alpha*G + beta*H is then checked entry by entry in integers."""
    G = g.f + (g.b,)
    H = h.f + (h.b,)
    minors = ((i, j, G[i] * H[j] - G[j] * H[i])
              for i in range(len(G)) for j in range(i + 1, len(G)))
    i, j, D = next((m for m in minors if m[2]), (0, 0, 0))
    if not D:
        raise ValueError("the pencil needs two independent faces")

    def contains(face: Face) -> bool:
        phi = face.f + (face.b,)
        alpha = phi[i] * H[j] - phi[j] * H[i]
        beta = G[i] * phi[j] - G[j] * phi[i]
        return all(D * p == alpha * x + beta * y for p, x, y in zip(phi, G, H))

    return contains


def _walk(work: ConstraintSystem, d: int, P: BasisSimplex, group, depth: int,
          budget: _Budget, rng: random.Random) -> Set[Face]:
    """The adjacency walk proper, on a bounded full-dimensional image of
    ``work`` with basis simplex ``P`` and rank d >= 2.

    ``found`` holds every facet discovered so far with its orbit, and
    ``pending`` the representatives not yet explored, of which the walk
    explores the least.  For a ridge R of facet F, the ridge inequality a,
    made orthogonal to F.f, gives aff(R) = {F.x = b_F, a.x = b_a}; so a
    found facet other than F is F's neighbor across R exactly when it lies
    in the pencil of F and a (``_pencil``).  Only a ridge with no such facet
    is rotated around, and the rotation must land outside ``found``
    (asserted).

    ``pool`` holds the exact vertices of the image known so far, in the
    order they were found: P's points, then the basis-simplex points that
    each ridge subproblem reports back.  The subproblem of F is handed the
    pool's vertices on F (F.f.p = F.b, exactly) and F's normal, along which
    F's polytope is flat, so its basis simplex solves only the directions
    they leave open (``geometry.basis_simplex``).

    Returns ``found``.  Once a leaf call is refused the walk stops
    exploring, so under a budget the result may be partial; each member is
    still a facet.
    """
    def orbit(facet: Face):
        return group.orbit(facet) if group is not None else (facet,)

    seed = _seed_facet(work, d, rng)
    found: Set[Face] = set(orbit(seed))
    pending = {seed}
    pool = dict.fromkeys(P.points)  # an ordered set
    while pending and not budget.denied:
        facet = min(pending)
        pending.remove(facet)
        sub = work.with_rows([-facet])
        known = Known(tuple(p for p in pool if dot(facet.f, p) == facet.b), (facet.f,))
        ridges, vertices = _project(sub, d, depth - 1, None, budget, rng, known)
        pool.update(dict.fromkeys(vertices))
        for ridge in ridges:
            axis = _reject_from(facet, ridge)
            in_pencil = _pencil(facet, axis)
            if any(g != facet and in_pencil(g) for g in found):
                continue
            neighbor, _ = rotate(work, -facet, axis)
            if neighbor in found:
                raise AssertionError("rotation reached a found facet the pencil test missed")
            found.update(orbit(neighbor))
            pending.add(neighbor)
    return found


def _project(system: ConstraintSystem, d: int, depth: int, group,
             budget: _Budget, rng: random.Random,
             known: Known = Known()) -> Tuple[List[Face], List[Tuple]]:
    """Recursive facet-list driver shared by the complete and budgeted
    modes: the hull projector at depth 0, else the walk.  Returns the
    facets and the vertices of the image's basis simplex, which ``known``
    seeds."""
    if depth == 0:
        if not budget.allows():
            return [], []
        result = chm_project(system, d, group=group, known=known)
        if result.lp_rounds > 0:  # the leaf built a hull
            budget.spend()
        return result.facets, result.vertices
    facets, bs = project_image(
        system, d, lambda work, r, P, g: _walk(work, r, P, g, depth, budget, rng), group, known
    )
    return facets, bs.points


def afi_project(system: ConstraintSystem, d: int, cfg: Optional[AfiConfig] = None,
                *, budget: Optional[int] = None) -> List[Face]:
    """The facet list of the projection via the adjacency walk.

    cfg.depth picks the ridge projector (0 = hull-based, k = walk of depth
    k-1); cfg.group marks whole orbits explored from one representative.
    Cones come back as genuine cone facets (cap artifacts removed).

    Without a budget the list is complete.  A ``budget`` allows that many
    hulls built in all by the hull-projector leaf calls (randomized facet
    discovery); a leaf the driver answers without a hull, a point or a
    segment, is free.  The walk stops at the first leaf call refused once
    no budget is left and raises ``BudgetExhausted``, which carries the
    sound, possibly partial, facet list found by then: the explored facets
    and the discovered, not yet explored ones, each with its whole orbit.
    Every member is a facet.  A walk that finishes within the budget
    returns its complete list.
    """
    if budget is not None and budget < 1:
        raise ValueError("budget must be at least 1")
    cfg = cfg or AfiConfig()
    left = _Budget(budget)
    facets, _ = _project(system, d, cfg.depth, cfg.group, left, random.Random(cfg.seed))
    if left.denied:
        raise BudgetExhausted(facets)
    return facets
