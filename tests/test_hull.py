from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, strategies as st

from polyproj.geometry import DegenerateInput
from polyproj.hull import IncrementalHull
from polyproj.rationals import dot

from .oracles import affine_rank, brute_hull_facets, exact_point


def as_oracle_format(facets):
    return sorted((tuple(f.f), f.b) for f in facets)


def hull_of(simplex, rest):
    """The hull started from the simplex, with the other points added one
    at a time; asserts that exactly the new ones are reported as added."""
    hull = IncrementalHull(points(simplex))
    seen = set(points(simplex))
    for p in points(rest):
        assert hull.add_point(p) == (p not in seen)
        seen.add(p)
    return hull


def points(rationals):
    return [exact_point(p) for p in rationals]


def test_unit_square():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    facets = hull_of(pts[:3], pts[3:]).facets()
    assert len(facets) == 4
    assert as_oracle_format(facets) == brute_hull_facets(pts)


def test_interior_and_boundary_points_are_ignored():
    # (1, 1) is inside the first triangle and (2, 0) on its edge; after
    # (4, 4) every later point is inside the square or on its boundary, so
    # no ray value is negative and the facets stay those of the square
    pts = [(0, 0), (4, 0), (0, 4), (1, 1), (2, 0), (4, 4), (2, 2), (1, 3), (4, 2), (0, 1)]
    facets = hull_of(pts[:3], pts[3:]).facets()
    assert len(facets) == 4
    for f in facets:
        assert all(dot(f.f, p) >= f.b for p in pts)
    assert as_oracle_format(facets) == brute_hull_facets(pts)


def test_simplex_3d():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(IncrementalHull(points(pts)).facets()) == 4


def test_octahedron():
    pts = [p for p in product((-1, 0, 1), repeat=3) if sum(abs(c) for c in p) == 1]
    facets = hull_of(pts[:4], pts[4:]).facets()
    assert len(facets) == 8
    assert as_oracle_format(facets) == brute_hull_facets(pts)


def test_cube_with_duplicates():
    simplex = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    pts = [p for p in product((0, 1), repeat=3)] * 2
    facets = hull_of(simplex, pts).facets()
    assert len(facets) == 6
    assert as_oracle_format(facets) == brute_hull_facets(pts)


def test_degenerate_flat_input():
    # the initial simplex is k+1 affinely independent points in R^k
    with pytest.raises(DegenerateInput):
        IncrementalHull(points([(0, 0), (1, 0), (0, 1), (1, 1)]))  # k+2 points
    with pytest.raises(DegenerateInput):
        IncrementalHull(points([(0, 0), (1, 1), (2, 2)]))  # k+1 collinear points
    with pytest.raises(DegenerateInput):
        IncrementalHull(points([(1, 2)]))


def test_rational_coordinates():
    pts = [("1/2", 0), (0, "1/3"), ("-1/2", 0), (0, "-1/3")]
    facets = hull_of(pts[:3], pts[3:]).facets()
    assert len(facets) == 4
    assert as_oracle_format(facets) == brute_hull_facets(pts)


point2d = st.tuples(
    st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5)
)
point3d = st.tuples(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)


@given(st.lists(point2d, min_size=3, max_size=3), st.lists(point2d, max_size=9))
def test_matches_oracle_2d(simplex, rest):
    assume(affine_rank(simplex) == 2)
    facets = hull_of(simplex, rest).facets()
    assert as_oracle_format(facets) == brute_hull_facets(simplex + rest)


@given(st.lists(point3d, min_size=4, max_size=4), st.lists(point3d, max_size=5))
def test_matches_oracle_3d(simplex, rest):
    assume(affine_rank(simplex) == 3)
    facets = hull_of(simplex, rest).facets()
    assert as_oracle_format(facets) == brute_hull_facets(simplex + rest)


# large primes and products of them: the points' denominators are pairwise
# coprime or share a large factor, so each constraint normal (D p, -D) has
# entries far beyond 64 bits
_DENOMINATORS = (1, 1000003, 2147483647, 1000003 * 998244353, 2**61 - 1)
big_rational = st.builds(Fraction, st.integers(-10**12, 10**12), st.sampled_from(_DENOMINATORS))


@given(st.integers(2, 3).flatmap(lambda k: st.tuples(
    st.lists(st.tuples(*[big_rational] * k), min_size=k + 1, max_size=k + 1),
    st.lists(st.tuples(*[big_rational] * k), max_size=6))))
def test_matches_oracle_with_large_coprime_denominators(case):
    simplex, rest = case
    assume(affine_rank(simplex) == len(simplex[0]))
    facets = hull_of(simplex, rest).facets()
    assert as_oracle_format(facets) == brute_hull_facets(simplex + rest)
    assert all(type(c) is int for f in facets for c in f.f + (f.b,))
