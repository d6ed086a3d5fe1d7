"""The fraction-free ``rref`` and ``nullspace`` against a Gauss-Jordan
reference on Fractions."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from polyproj.linalg import nullspace, rref
from polyproj.rationals import scale_to_coprime_ints

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
    reduced, pivots, det = rref(rows)
    want, want_pivots = reduced_row_echelon(rows)
    assert pivots == want_pivots
    assert all(type(x) is int for row in reduced for x in row)
    assert det > 0  # so the integer rows have the orientation of the reduced ones
    assert [[Fraction(x, det) for x in row] for row in reduced] == want


@settings(max_examples=200)
@given(matrices())
def test_nullspace_matches_the_fraction_basis(rows):
    # the basis read off the reduced rows on Fractions: 1 on each free
    # column, minus that column of the reduced rows on the pivots
    n = len(rows[0]) if rows else 3
    want_rows, pivots = reduced_row_echelon(rows)
    want = []
    for free in (j for j in range(n) if j not in pivots):
        vec = [Fraction(int(j == free)) for j in range(n)]
        for row, c in zip(want_rows, pivots):
            vec[c] = -row[free]
        want.append(scale_to_coprime_ints(vec))
    assert nullspace(rows, n) == want
