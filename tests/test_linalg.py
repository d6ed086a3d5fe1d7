"""The fraction-free ``rref`` against a Gauss-Jordan reference on Fractions."""

from hypothesis import given, settings, strategies as st

from polyproj.linalg import integer_rref, rref
from polyproj.rationals import mpq

from .oracles import reduced_row_echelon

_ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.integers(-2 ** 40, 2 ** 40),
)


@st.composite
def matrices(draw):
    """Rational matrices with dependent and zero rows mixed in."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows),
                               max_size=len(rows)))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)])
    return draw(st.permutations(rows))


@settings(max_examples=300)
@given(matrices())
def test_rref_matches_fraction_gauss_jordan(rows):
    reduced, pivots = rref(rows)
    want, want_pivots = reduced_row_echelon(rows)
    assert pivots == want_pivots
    assert reduced == want
    assert all(isinstance(x, mpq) for row in reduced for x in row)
    det = integer_rref(rows)[2]
    assert det > 0  # so the integer rows have the orientation of the reduced ones

