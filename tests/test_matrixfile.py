import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polyproj.lp import OPTIMAL, ConstraintSystem, Face, lp_minimize
from polyproj.matrixfile import (
    MatrixFileError,
    load,
    parse,
    render,
    reorder_to,
)
from polyproj.rationals import mpq
from polyproj.verify import canonical_classes


def sample_system():
    return ConstraintSystem(
        rows=(
            Face((1, 0, 0), 0),
            Face((-1, -2, 3), -5),
            Face((9, 0, -42), 4),
        ),
        dim=3,
        names=("x", "y", "z"),
    )


def test_round_trip_exact():
    system = sample_system()
    text = render(system, comments=["generated for a test"])
    parsed = parse(text)
    assert parsed.system == system
    assert parsed.comments == ("generated for a test",)
    # scaled rows survive untouched (no silent normalization)
    doubled = ConstraintSystem(
        rows=(Face((2, 0, 0), 0),), dim=3, names=("x", "y", "z")
    )
    assert parse(render(doubled)).system.rows[0] == Face((2, 0, 0), 0)
    # a row with p/q entries is read times the lcm of its denominators, 18
    fractional = ConstraintSystem(
        rows=(Face((mpq(1, 2), 0, mpq(-7, 3)), mpq(2, 9)),),
        dim=3, names=("x", "y", "z"),
    )
    assert parse(render(fractional)).system.rows == (Face((9, 0, -42), 4),)


def test_rows_with_fractions_are_read_as_integer_faces():
    # 1/2 + x >= 0 reads as 1 + 2x >= 0, so exact LPs take the system
    system = parse("# columns: _1 x\n1/2 1\n1 -1\n").system
    assert system.rows == (Face((2,), -1), Face((-1,), -1))
    solution = lp_minimize(system, [1])
    assert solution.status == OPTIMAL and solution.objective == Fraction(-1, 2)


def test_constant_column_semantics():
    # row . (1, x) >= 0 with constant column first: "1 -1 0" means 1 - x >= 0
    parsed = parse("# columns: _1 x y\n1 -1 0\n")
    assert parsed.system.rows[0] == Face((-1, 0), -1)


def test_file_round_trip(tmp_path):
    path = tmp_path / "system.txt"
    system = sample_system()
    path.write_text(render(system, comments=["a", "b"]), encoding="utf-8")
    assert load(path).system == system


def test_default_names_when_header_missing():
    parsed = parse("0 1 0\n")
    assert parsed.system.names == ("x1", "x2")


def test_parse_errors():
    with pytest.raises(MatrixFileError):
        parse("# columns: x y\n0 1\n")  # constant column missing
    with pytest.raises(MatrixFileError):
        parse("# columns: _1 x\n1 2 3\n")  # wrong width
    with pytest.raises(MatrixFileError):
        parse("# columns: _1 x\n1 oops\n")
    with pytest.raises(MatrixFileError):
        parse("")


def test_parse_rejects_repeated_column_names():
    # with two columns named x, reorder_to would read both from the last one
    with pytest.raises(MatrixFileError, match="repeated"):
        parse("# columns: _1 x x\n0 1 2\n")
    with pytest.raises(MatrixFileError, match="repeated"):
        parse("# columns: _1 x _1\n0 1 2\n")


@pytest.mark.parametrize("names", [("x", "x"), ("_1", "y"), ("x y", "z"), ("", "z")])
def test_render_rejects_names_parse_would_not_read_back(names):
    system = ConstraintSystem.from_rows([((1, 2), 0)], 2, names)
    with pytest.raises(MatrixFileError, match="not distinct words"):
        render(system)


@pytest.mark.parametrize("comment", [
    "two\nlines", "ends in a break\r\n", "a\u2028b",   # line breaks
    " leading", "trailing\t",                       # whitespace parse strips
    "columns: _1 x y z", "columns:",                # read back as the header
])
def test_render_rejects_comments_parse_would_not_read_back(comment):
    with pytest.raises(MatrixFileError, match="comment"):
        render(sample_system(), comments=["fine", comment])


def _reads_back(comment):
    """Independent statement of the comments a file can carry: one line,
    nothing for parse to strip, and not the column header."""
    return ("\n" not in comment and "\r" not in comment and comment == comment.strip()
            and not comment.startswith("columns:") and comment.isprintable())


_VALUES = st.one_of(st.integers(-10 ** 12, 10 ** 12),
                    st.fractions(max_denominator=50).filter(lambda q: q.denominator > 1))


@st.composite
def named_systems(draw):
    dim = draw(st.integers(1, 4))
    names = draw(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_()]{0,5}", fullmatch=True)
                          .filter(lambda name: name != "_1"),
                          min_size=dim, max_size=dim, unique=True))
    rows = draw(st.lists(st.tuples(st.tuples(*[_VALUES] * dim), _VALUES), max_size=5))
    return ConstraintSystem(tuple(Face(f, b) for f, b in rows), dim, tuple(names))


@given(named_systems(), st.lists(st.text(max_size=8).filter(_reads_back), max_size=3))
def test_render_then_parse_is_the_identity(system, comments):
    # the module docstring's promise: the same rows, unnormalized, the same
    # column names and the same comments; a row with p/q entries comes back
    # times the lcm of its denominators, so every entry is an int
    parsed = parse(render(system, comments))
    scales = [math.lcm(*(Fraction(v).denominator for v in row.f + (row.b,)))
              for row in system.rows]
    assert parsed.system == ConstraintSystem(
        tuple(Face(tuple(v * k for v in row.f), row.b * k)
              for row, k in zip(system.rows, scales)), system.dim, system.names)
    assert parsed.comments == tuple(comments)
    assert all(type(v) is int for row in parsed.system.rows for v in row.f + (row.b,))


def test_reorder_to_matches_by_name():
    system = sample_system()
    flipped = reorder_to(system, ("z", "x", "y"))
    assert flipped.names == ("z", "x", "y")
    assert flipped.rows[1] == Face((3, -1, -2), -5)
    with pytest.raises(MatrixFileError):
        reorder_to(system, ("x", "y", "w"))


def test_normalized_row_set_identifies_scaled_rows():
    a = ConstraintSystem.from_rows([((2, 4), 2)], 2)
    b = ConstraintSystem.from_rows([((1, 2), 1)], 2)
    assert canonical_classes(a) == canonical_classes(b)
