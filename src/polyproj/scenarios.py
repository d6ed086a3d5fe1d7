"""Problem-instance constructors.

This module builds every concrete system the package works on:

* entropy spaces (one coordinate ``H(X_S)`` per nonempty subset ``S``),
* the elemental (Shannon) inequality systems,
* multipartite marginal scenarios where only some subsets are observable,
* common-ancestor causal models (ring topology ``C_n``),
* symmetry groups acting on the observable coordinates, and orbit
  classification of facets.

Coordinate order is canonical and defined once, by ``EntropySpace.coords``:
subsets sorted by cardinality first, then by their sorted member tuple.  Every
scenario builder picks its observables by filtering that order.  Scenario
systems are permuted so the observable coordinates come first (projection
code always eliminates "everything after the first ``d`` coordinates").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .lp import ConstraintSystem, Face, normalize_face

Subset = FrozenSet[int]


# ---------------------------------------------------------------------------
# Entropy spaces and elemental systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropySpace:
    """Real coordinates ``H(X_S)``, one per nonempty ``S ⊆ {1..n}``.

    ``names[i-1]`` is the display name of variable ``i``; subset labels are
    the concatenated member names in index order (e.g. ``A1B2``).
    """

    n: int
    names: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one random variable")
        if len(self.names) != self.n:
            raise ValueError("need exactly one name per variable")

    @cached_property
    def coords(self) -> Tuple[Subset, ...]:
        return tuple(
            frozenset(combo)
            for k in range(1, self.n + 1)
            for combo in combinations(range(1, self.n + 1), k)
        )

    @cached_property
    def index(self) -> Dict[Subset, int]:
        return {subset: pos for pos, subset in enumerate(self.coords)}

    @property
    def dim(self) -> int:
        return (1 << self.n) - 1

    @property
    def full(self) -> Subset:
        return frozenset(range(1, self.n + 1))

    def label(self, subset: Iterable[int]) -> str:
        return "".join(self.names[i - 1] for i in sorted(subset))

    @cached_property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(self.label(subset) for subset in self.coords)


def entropy_space(n: int, names: Optional[Sequence[str]] = None) -> EntropySpace:
    if names is None:
        names = tuple(str(i) for i in range(1, n + 1))
    return EntropySpace(n=n, names=tuple(names))


class ElementalForm(NamedTuple):
    """One elemental information quantity.

    ``kind == "H"``: the conditional entropy ``H(X_i | X_{Ω−i})`` (``j`` is 0).
    ``kind == "I"``: the conditional mutual information ``I(X_i : X_j | X_cond)``.
    """

    kind: str
    i: int
    j: int
    cond: Subset

    def describe(self, space: EntropySpace) -> str:
        given = "," .join(space.names[k - 1] for k in sorted(self.cond))
        if self.kind == "H":
            return f"H({space.names[self.i - 1]}|{given})" if given else (
                f"H({space.names[self.i - 1]})"
            )
        head = f"{space.names[self.i - 1]}:{space.names[self.j - 1]}"
        return f"I({head}|{given})" if given else f"I({head})"


def elemental_forms(n: int) -> Tuple[ElementalForm, ...]:
    """All elemental forms of ``n`` variables in documented order.

    Conditional entropies come first (by variable index), then the
    conditional mutual informations ordered by the pair ``(i, j)`` and then
    by the conditioning set in canonical subset order (empty set first).
    """

    omega = frozenset(range(1, n + 1))
    forms: List[ElementalForm] = [
        ElementalForm("H", i, 0, omega - {i}) for i in range(1, n + 1)
    ]
    for i, j in combinations(range(1, n + 1), 2):
        others = sorted(omega - {i, j})
        for k in range(len(others) + 1):
            for cond in combinations(others, k):
                forms.append(ElementalForm("I", i, j, frozenset(cond)))
    return tuple(forms)


def form_row(space: EntropySpace, form: ElementalForm) -> Face:
    """The coefficient row asserting ``form >= 0`` over ``space``."""

    coeffs = [0] * space.dim
    index = space.index
    if form.kind == "H":
        coeffs[index[space.full]] += 1
        if form.cond:
            coeffs[index[form.cond]] -= 1
    else:
        pair = frozenset((form.i, form.j))
        coeffs[index[form.cond | {form.i}]] += 1
        coeffs[index[form.cond | {form.j}]] += 1
        coeffs[index[form.cond | pair]] -= 1
        if form.cond:
            coeffs[index[form.cond]] -= 1
    return Face(f=tuple(coeffs), b=0)


def elemental_inequalities(
    n: int, names: Optional[Sequence[str]] = None
) -> ConstraintSystem:
    """The elemental (Shannon) system over ``EntropySpace(n)``.

    Row count is ``n + C(n,2) * 2^(n-2)`` for ``n >= 2`` and 1 for ``n = 1``.
    """

    space = entropy_space(n, names)
    rows = tuple(form_row(space, form) for form in elemental_forms(n))
    return ConstraintSystem(rows=rows, dim=space.dim, names=space.column_names)


# ---------------------------------------------------------------------------
# Marginal scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarginalScenario:
    """A choice of observable subsets inside an entropy space.

    ``order`` lists all coordinates with the observable ones first; systems
    arranged by :meth:`reorder` can be projected onto their first ``d``
    coordinates by any algorithm in this package.
    """

    space: EntropySpace
    observable: Tuple[Subset, ...]

    def __post_init__(self) -> None:
        seen = set()
        for subset in self.observable:
            if not subset or not subset <= self.space.full:
                raise ValueError(f"not a variable subset: {set(subset)}")
            if subset in seen:
                raise ValueError(f"duplicate observable subset: {set(subset)}")
            seen.add(subset)

    @property
    def d(self) -> int:
        return len(self.observable)

    @cached_property
    def order(self) -> Tuple[Subset, ...]:
        hidden = [s for s in self.space.coords if s not in set(self.observable)]
        return tuple(self.observable) + tuple(hidden)

    @cached_property
    def observable_names(self) -> Tuple[str, ...]:
        return tuple(self.space.label(subset) for subset in self.observable)

    def reorder(self, system: ConstraintSystem) -> ConstraintSystem:
        """Permute a system over ``space.coords`` into this scenario's order."""

        if system.dim != self.space.dim:
            raise ValueError("system does not live on this entropy space")
        source = [self.space.index[subset] for subset in self.order]
        rows = tuple(
            Face(f=tuple(row.f[pos] for pos in source), b=row.b)
            for row in system.rows
        )
        names = tuple(self.space.label(subset) for subset in self.order)
        return ConstraintSystem(rows=rows, dim=system.dim, names=names)


def marginal_scenario(
    space: EntropySpace, subsets: Iterable[Iterable[int]]
) -> MarginalScenario:
    """Build a scenario with observable subsets in ``space.coords`` order.
    A subset outside the space sorts first, for ``MarginalScenario`` to
    reject."""

    normalized = sorted({frozenset(s) for s in subsets},
                        key=lambda s: space.index.get(s, -1))
    return MarginalScenario(space=space, observable=tuple(normalized))


# ---------------------------------------------------------------------------
# Bell scenarios
# ---------------------------------------------------------------------------


def bell_scenario(
    parties: int, settings: int, body_sizes: Iterable[int]
) -> Tuple[ConstraintSystem, MarginalScenario]:
    """Elemental system + scenario for a multipartite measurement setup.

    Variables are party-major (``A1, A2, B1, ...``), so variable ``v``
    belongs to party ``(v - 1) // settings``.  Observable subsets contain at
    most one variable per party and have cardinality in ``body_sizes``;
    they are listed in canonical order, which groups them by size and then
    by party affiliation.
    """

    if not 1 <= parties <= 26:
        raise ValueError("parties must be between 1 and 26")
    if settings < 1:
        raise ValueError("settings must be at least 1")
    sizes = set(body_sizes)
    if not sizes or any(k < 1 or k > parties for k in sizes):
        raise ValueError(f"body sizes must be within 1..{parties}")
    names = tuple(
        f"{chr(ord('A') + p)}{s}"
        for p in range(parties)
        for s in range(1, settings + 1)
    )
    space = entropy_space(parties * settings, names)
    scenario = marginal_scenario(space, (
        subset for subset in space.coords
        if len(subset) in sizes
        and len({(v - 1) // settings for v in subset}) == len(subset)
    ))
    system = scenario.reorder(elemental_inequalities(space.n, names))
    return system, scenario


# ---------------------------------------------------------------------------
# Common-ancestor models
# ---------------------------------------------------------------------------


def _common_ancestor(n: int) -> Tuple[ConstraintSystem, MarginalScenario]:
    if n < 3:
        raise ValueError("ring models need at least 3 observables")
    names = tuple(str(i) for i in range(1, n + 1)) + tuple(
        f"L{i}" for i in range(1, n + 1)
    )
    space = entropy_space(2 * n, names)
    index = space.index
    rows: List[Face] = []

    def equality(coeffs: List) -> None:
        face = Face(f=tuple(coeffs), b=0)
        rows.append(face)
        rows.append(-face)

    # The ancestors are mutually independent: H(λ_1..λ_n) = Σ H(λ_i).
    coeffs = [0] * space.dim
    coeffs[index[frozenset(range(n + 1, 2 * n + 1))]] += 1
    for i in range(1, n + 1):
        coeffs[index[frozenset({n + i})]] -= 1
    equality(coeffs)

    # Each observable i depends only on its two neighbouring ancestors
    # Pa_i = {λ_i, λ_(i mod n)+1}:  I(X_i : everything else | λ_Pa_i) = 0,
    # written as H(X_i, λ_Pa) + H(all − X_i) − H(all) − H(λ_Pa) = 0.
    for i in range(1, n + 1):
        parents = frozenset({n + i, n + (i % n) + 1})
        coeffs = [0] * space.dim
        coeffs[index[parents | {i}]] += 1
        coeffs[index[space.full - {i}]] += 1
        coeffs[index[space.full]] -= 1
        coeffs[index[parents]] -= 1
        equality(coeffs)

    observed = frozenset(range(1, n + 1))
    scenario = marginal_scenario(space, (s for s in space.coords if s <= observed))
    system = elemental_inequalities(2 * n, names).with_rows(rows)
    return scenario.reorder(system), scenario


# ---------------------------------------------------------------------------
# Symmetry groups
# ---------------------------------------------------------------------------


Permutation = Tuple[int, ...]


def _compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply ``q`` first, then ``p``."""

    return tuple(p[q[k]] for k in range(len(p)))


@dataclass(frozen=True)
class SymmetryGroup:
    """A permutation group acting on the first ``d`` (observable) coordinates.

    A permutation ``p`` moves coordinate ``k`` to position ``p[k]``; the
    action on a face is ``(g·f)[p[k]] = f[k]`` (and the same on points, so
    that ``(g·f)·(g·x) = f·x``).
    """

    generators: Tuple[Permutation, ...]
    dim: int

    def __post_init__(self) -> None:
        for perm in self.generators:
            if sorted(perm) != list(range(self.dim)):
                raise ValueError("generator is not a permutation of coordinates")

    @cached_property
    def elements(self) -> Tuple[Permutation, ...]:
        identity = tuple(range(self.dim))
        seen = {identity}
        frontier = [identity]
        while frontier:
            nxt: List[Permutation] = []
            for element in frontier:
                for gen in self.generators:
                    image = _compose(gen, element)
                    if image not in seen:
                        seen.add(image)
                        nxt.append(image)
            frontier = nxt
        return tuple(sorted(seen))

    def apply_point(self, perm: Permutation, point: Sequence) -> Tuple:
        moved = [0] * self.dim
        for k, value in enumerate(point):
            moved[perm[k]] = value
        return tuple(moved)

    def orbit(self, face) -> Tuple[Face, ...]:
        """The images of a face, normalized (a coordinate permutation keeps
        a normalized face normalized), sorted and without repeats."""
        face = normalize_face(*face)
        if len(face.f) != self.dim:
            raise ValueError("face dimension does not match the group")
        images = {Face(self.apply_point(perm, face.f), face.b)
                  for perm in self.elements}
        return tuple(sorted(images))


def _lift_variable_map(
    scenario: MarginalScenario, variable_map: Dict[int, int]
) -> Permutation:
    """Turn a permutation of variables into a permutation of observables."""

    positions = {subset: k for k, subset in enumerate(scenario.observable)}
    perm = [0] * scenario.d
    for k, subset in enumerate(scenario.observable):
        image = frozenset(variable_map.get(v, v) for v in subset)
        if image not in positions:
            raise ValueError(
                "variable relabeling does not preserve the observable subsets"
            )
        perm[k] = positions[image]
    return tuple(perm)


def bell_symmetry_group(
    parties: int, settings: int, scenario: MarginalScenario
) -> SymmetryGroup:
    """Party relabelings and per-party setting swaps, as coordinate maps."""

    def var(p: int, s: int) -> int:
        return p * settings + s + 1

    generators: List[Permutation] = []
    for p in range(parties - 1):
        swap = {}
        for s in range(settings):
            swap[var(p, s)] = var(p + 1, s)
            swap[var(p + 1, s)] = var(p, s)
        generators.append(_lift_variable_map(scenario, swap))
    for p in range(parties):
        for s in range(settings - 1):
            swap = {var(p, s): var(p, s + 1), var(p, s + 1): var(p, s)}
            generators.append(_lift_variable_map(scenario, swap))
    return SymmetryGroup(generators=tuple(generators), dim=scenario.d)


def cca_symmetry_group(n: int, scenario: MarginalScenario) -> SymmetryGroup:
    """The dihedral symmetry of the ring: rotation and reflection."""

    rotation = {i: (i % n) + 1 for i in range(1, n + 1)}
    reflection = {i: n + 1 - i for i in range(1, n + 1)}
    generators = (
        _lift_variable_map(scenario, rotation),
        _lift_variable_map(scenario, reflection),
    )
    return SymmetryGroup(generators=generators, dim=scenario.d)


# ---------------------------------------------------------------------------
# Scenario spec strings (shared by the CLI and the test-suite)
# ---------------------------------------------------------------------------


SCENARIO_GRAMMAR = (
    "scenario spec: 'elemental:N' | 'cca:N' | 'bell:PxS:body=K[,K...]' "
    "(e.g. bell:3x2:body=1,2)"
)


class ScenarioBundle(NamedTuple):
    system: ConstraintSystem
    scenario: MarginalScenario
    group: Optional[SymmetryGroup]  # None: no symmetry is used


def parse_scenario(text: str) -> ScenarioBundle:
    """Resolve a scenario spec string into (system, scenario, group)."""

    parts = text.strip().split(":")
    kind = parts[0].lower() if parts else ""
    try:
        if kind == "elemental" and len(parts) == 2:
            n = int(parts[1])
            system = elemental_inequalities(n)
            space = entropy_space(n)
            scenario = marginal_scenario(space, space.coords)
            return ScenarioBundle(system, scenario, None)
        if kind == "cca" and len(parts) == 2:
            n = int(parts[1])
            system, scenario = _common_ancestor(n)
            return ScenarioBundle(system, scenario, cca_symmetry_group(n, scenario))
        if kind == "bell" and len(parts) == 3:
            size, body = parts[1], parts[2]
            parties_text, _, settings_text = size.partition("x")
            if not body.startswith("body="):
                raise ValueError("missing body= clause")
            parties, settings = int(parties_text), int(settings_text)
            sizes = [int(tok) for tok in body[len("body="):].split(",") if tok]
            system, scenario = bell_scenario(parties, settings, sizes)
            group = bell_symmetry_group(parties, settings, scenario)
            return ScenarioBundle(system, scenario, group)
    except ValueError as exc:
        raise ValueError(f"bad scenario spec {text!r} ({exc}); {SCENARIO_GRAMMAR}")
    raise ValueError(f"bad scenario spec {text!r}; {SCENARIO_GRAMMAR}")
