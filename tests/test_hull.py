from itertools import product

import pytest
from hypothesis import given, strategies as st

from polyproj.geometry import DegenerateInput
from polyproj.hull import IncrementalHull
from polyproj.rationals import dot

from .oracles import brute_hull_facets


def as_oracle_format(facets):
    return sorted((tuple(f.f), f.b) for f in facets)


def test_unit_square():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    facets = IncrementalHull(pts).facets()
    assert len(facets) == 4
    assert as_oracle_format(facets) == brute_hull_facets(pts)


def test_interior_and_boundary_points_are_ignored():
    pts = [(0, 0), (4, 0), (0, 4), (4, 4), (2, 2), (1, 3), (4, 2), (0, 1)]
    facets = IncrementalHull(pts).facets()
    assert len(facets) == 4
    for f in facets:
        assert all(dot(f.f, p) >= f.b for p in pts)


def test_simplex_3d():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(IncrementalHull(pts).facets()) == 4


def test_octahedron():
    pts = [p for p in product((-1, 0, 1), repeat=3) if sum(abs(c) for c in p) == 1]
    facets = IncrementalHull(pts).facets()
    assert len(facets) == 8
    assert as_oracle_format(facets) == brute_hull_facets(pts)


def test_cube_with_duplicates():
    pts = [p for p in product((0, 1), repeat=3)] * 2
    facets = IncrementalHull(pts).facets()
    assert len(facets) == 6


def test_degenerate_flat_input():
    with pytest.raises(DegenerateInput):
        IncrementalHull([(0, 0), (1, 1), (2, 2), (3, 3)]).facets()
    with pytest.raises(DegenerateInput):
        IncrementalHull([(1, 2)]).facets()


def test_rational_coordinates():
    pts = [("1/2", 0), (0, "1/3"), ("-1/2", 0), (0, "-1/3")]
    facets = IncrementalHull(pts).facets()
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


@given(st.lists(point2d, min_size=3, max_size=12))
def test_matches_oracle_2d(pts):
    try:
        facets = IncrementalHull(pts).facets()
    except DegenerateInput:
        return
    assert as_oracle_format(facets) == brute_hull_facets(pts)


@given(st.lists(point3d, min_size=4, max_size=9))
def test_matches_oracle_3d(pts):
    try:
        facets = IncrementalHull(pts).facets()
    except DegenerateInput:
        return
    assert as_oracle_format(facets) == brute_hull_facets(pts)
