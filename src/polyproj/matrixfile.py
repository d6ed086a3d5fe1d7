"""Plain-text matrix format for constraint systems.

A file holds one inequality system ``row . (1, x) >= 0``.  The first column
is the constant term and is named ``_1``; the remaining columns are named
after the coordinates they multiply.  Lines starting with ``#`` are
comments; the column order is documented in a ``# columns:`` comment so
files remain self-describing::

    # columns: _1 x y
    1  -1   0
    1   0  -1
    0   1   0
    0   0   1

Entries are integers or rationals written ``p/q``.  A row with a ``p/q``
entry is read times the lcm of its denominators, so every row is an integer
``Face``; integer rows are read as written.  Rendering a system of integer
rows then parsing returns the identical system, including column names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from .lp import ConstraintSystem, Face
from .rationals import common_denominator, format_rational, rational, scaled_ints

_COLUMNS_PREFIX = "# columns:"
_CONSTANT_COLUMN = "_1"


class MatrixFileError(ValueError):
    """Raised when a matrix file cannot be parsed."""


@dataclass(frozen=True)
class MatrixFile:
    """A parsed matrix file: the system plus any leading comments."""

    system: ConstraintSystem
    comments: Tuple[str, ...] = field(default_factory=tuple)


def default_names(dim: int) -> Tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, dim + 1))


def render(system: ConstraintSystem, comments: Iterable[str] = ()) -> str:
    """Serialize ``system`` (first column: constant, i.e. ``-b``).

    Each comment becomes one ``#`` line.  A comment that ``parse`` would not
    read back as written (one holding a line break, one with leading or
    trailing whitespace, or one read as the ``# columns:`` header) raises
    :class:`MatrixFileError`.
    """

    names = system.names if system.names is not None else default_names(system.dim)
    if len(names) != system.dim:
        raise MatrixFileError(
            f"have {len(names)} column names for dimension {system.dim}"
        )
    if len({_CONSTANT_COLUMN, *names}) <= system.dim or any(n.split() != [n] for n in names):
        raise MatrixFileError(f"column names {names} are not distinct words other than _1")
    lines: List[str] = []
    for comment in comments:
        text = str(comment)
        line = f"# {text}" if text else "#"
        # parse reads one stripped line per comment, and a header as a header
        if (len(text.splitlines()) > 1 or text != text.strip()
                or line.startswith(_COLUMNS_PREFIX)):
            raise MatrixFileError(f"comment {text!r} would not read back as written")
        lines.append(line)
    lines.append(f"{_COLUMNS_PREFIX} {_CONSTANT_COLUMN} " + " ".join(names))
    cells = [
        [format_rational(-row.b)] + [format_rational(v) for v in row.f]
        for row in system.rows
    ]
    widths = [
        max((len(r[j]) for r in cells), default=1) for j in range(system.dim + 1)
    ]
    for row_cells in cells:
        lines.append(" ".join(cell.rjust(w) for cell, w in zip(row_cells, widths)))
    return "\n".join(lines) + "\n"


def parse(text: str) -> MatrixFile:
    """Parse the matrix format back into a :class:`ConstraintSystem`."""

    names: Optional[Tuple[str, ...]] = None
    comments: List[str] = []
    rows: List[Face] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith(_COLUMNS_PREFIX):
                fields = line[len(_COLUMNS_PREFIX):].split()
                if not fields or fields[0] != _CONSTANT_COLUMN:
                    raise MatrixFileError(
                        f"line {lineno}: first column must be {_CONSTANT_COLUMN!r}"
                    )
                repeated = sorted({name for name in fields if fields.count(name) > 1})
                if repeated:
                    raise MatrixFileError(
                        f"line {lineno}: repeated column names {repeated}"
                    )
                names = tuple(fields[1:])
            else:
                comments.append(line[1:].strip())
            continue
        entries = line.split()
        if names is not None and len(entries) != len(names) + 1:
            raise MatrixFileError(
                f"line {lineno}: expected {len(names) + 1} entries, got {len(entries)}"
            )
        try:
            values = [
                int(entry) if "/" not in entry else rational(entry)
                for entry in entries
            ]
        except (ValueError, ZeroDivisionError) as exc:
            raise MatrixFileError(f"line {lineno}: {exc}") from exc
        if not all(isinstance(v, int) for v in values):
            # a positive scale, so the same inequality, with integer entries
            values = scaled_ints(values, common_denominator(values))
        rows.append(Face(f=tuple(values[1:]), b=-values[0]))
    if names is None:
        if not rows:
            raise MatrixFileError("empty file: no column header and no rows")
        names = default_names(len(rows[0].f))
    dim = len(names)
    for row in rows:
        if len(row.f) != dim:
            raise MatrixFileError("inconsistent row widths")
    system = ConstraintSystem(rows=tuple(rows), dim=dim, names=names)
    return MatrixFile(system=system, comments=tuple(comments))


def load(path) -> MatrixFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


def reorder_to(system: ConstraintSystem, names: Sequence[str]) -> ConstraintSystem:
    """Permute columns of ``system`` to match the given name order.

    Both systems must use exactly the same name set; this lets files with a
    different documented column order be compared coefficient-wise.
    """

    if system.names is None:
        raise MatrixFileError("system has no column names to match against")
    if sorted(system.names) != sorted(names):
        missing = set(names) - set(system.names)
        extra = set(system.names) - set(names)
        raise MatrixFileError(
            f"column names differ (missing {sorted(missing)}, extra {sorted(extra)})"
        )
    position = {name: i for i, name in enumerate(system.names)}
    order = [position[name] for name in names]
    rows = [Face(f=tuple(row.f[i] for i in order), b=row.b) for row in system.rows]
    return ConstraintSystem(rows=tuple(rows), dim=system.dim, names=tuple(names))
