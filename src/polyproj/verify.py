"""Comparison of facet listings modulo normalization and symmetry orbits.

Two listings describe the same object when their rows, mapped to canonical
orbit representatives (lexicographically smallest normalized member under
the group action), form the same set.  Proper containment in either
direction is reported separately so a partial result can still be
recognized as sound.

The package ships reference listings as matrix files under
``polyproj/data/``, read by ``load_fixture``.  Each carries a ``scenario:``
comment naming the space its columns live in; it documents the listing for
a reader, and code that checks a listing builds its scenario from the spec
itself (see ``scenarios.parse_scenario``).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Optional, Tuple

from .lp import ConstraintSystem, Face, normalize_face
from .matrixfile import MatrixFile, parse
from .scenarios import SymmetryGroup

#: verdicts, strongest first
MATCH = "match"
COMPUTED_IMPLIES_GOLDEN = "computed-implies-golden"
GOLDEN_IMPLIES_COMPUTED = "golden-implies-computed"
MISMATCH = "mismatch"


@dataclass(frozen=True)
class VerifyReport:
    relation: str
    computed_classes: int
    golden_classes: int
    #: golden classes with no computed counterpart
    missing: Tuple[Face, ...]
    #: computed classes not present in the golden listing
    extra: Tuple[Face, ...]

    def summary(self) -> str:
        parts = [
            f"{self.relation}:",
            f"computed {self.computed_classes} classes,",
            f"golden {self.golden_classes} classes",
        ]
        if self.missing:
            parts.append(f"({len(self.missing)} missing)")
        if self.extra:
            parts.append(f"({len(self.extra)} extra)")
        return " ".join(parts)


def canonical_classes(system: ConstraintSystem,
                      group: Optional[SymmetryGroup] = None) -> set:
    """The set of canonical orbit representatives of the system's rows."""
    if group is not None and group.dim != system.dim:
        raise ValueError("group dimension does not match the system")
    out = set()
    for row in system.rows:
        face = normalize_face(row.f, row.b)
        out.add(min(group.orbit(face)) if group is not None else face)
    return out


def compare_listings(computed: ConstraintSystem, golden: ConstraintSystem,
                     group: Optional[SymmetryGroup] = None) -> VerifyReport:
    """Relate two aligned listings (same column meaning, same order)."""
    if computed.dim != golden.dim:
        raise ValueError("listings live in different spaces")
    got = canonical_classes(computed, group)
    want = canonical_classes(golden, group)
    missing = tuple(sorted(want - got))
    extra = tuple(sorted(got - want))
    if not missing and not extra:
        relation = MATCH
    elif not missing:
        relation = COMPUTED_IMPLIES_GOLDEN
    elif not extra:
        relation = GOLDEN_IMPLIES_COMPUTED
    else:
        relation = MISMATCH
    return VerifyReport(relation, len(got), len(want), missing, extra)


# ---------------------------------------------------------------------------
# Bundled reference listings
# ---------------------------------------------------------------------------


def _data_root():
    return resources.files("polyproj").joinpath("data")


def fixture_names() -> Tuple[str, ...]:
    """Names of the bundled listings (sorted, without extension)."""
    return tuple(sorted(
        entry.name[:-4]
        for entry in _data_root().iterdir()
        if entry.name.endswith(".txt")
    ))


def load_fixture(name: str) -> MatrixFile:
    path = _data_root().joinpath(f"{name}.txt")
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise KeyError(
            f"no bundled listing {name!r}; available: {', '.join(fixture_names())}"
        ) from None
    return parse(text)
