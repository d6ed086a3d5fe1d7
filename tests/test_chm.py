import random
from unittest import mock

import pytest
from hypothesis import assume, given, strategies as st

from polyproj import chm
from polyproj.chm import chm_project
from polyproj.geometry import Known, UnboundedProjection, basis_simplex, is_implied
from polyproj.lp import ConstraintSystem, Face, normalize_face

from .oracles import affine_rank, brute_hull_facets, brute_projection_facets, brute_vertices


def cube_system(n=3, lo=0, hi=1):
    rows = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rows.append((tuple(e), lo))
        rows.append((tuple(-v for v in e), -hi))
    return ConstraintSystem.from_rows(rows, n)


def test_square_projection_of_cube():
    result = chm_project(cube_system(3), 2)
    assert basis_simplex(cube_system(3), 2).rank == 2
    assert len(result.facets) == 4
    expected = {
        normalize_face((1, 0), 0),
        normalize_face((0, 1), 0),
        normalize_face((-1, 0), -1),
        normalize_face((0, -1), -1),
    }
    assert set(result.facets) == expected


def test_full_dimensional_no_elimination():
    # d == dim: chm acts as an H-to-H normalizer through vertex enumeration
    raw = [((1, 0), 0), ((0, 1), 0), ((-1, -1), -2), ((-1, -2), -4), ((2, 2), 0)]
    system = ConstraintSystem.from_rows(raw, 2)
    verts = brute_vertices([r for r, _ in raw], [b for _, b in raw], 2)
    result = chm_project(system, 2)
    oracle = {normalize_face(*f) for f in brute_hull_facets(verts)}
    assert set(result.facets) == oracle


def test_homogeneous_cone_cap_removed():
    # the orthant cone in 3D projected to 2D is the quadrant: 2 facets, b == 0
    orthant = ConstraintSystem.from_rows(
        [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)], 3
    )
    result = chm_project(orthant, 2)
    assert set(result.facets) == {Face((1, 0), 0), Face((0, 1), 0)}
    assert all(face.b == 0 for face in result.facets)


def test_unbounded_projection_raises():
    # non-homogeneous unbounded image: vertex enumeration cannot describe it
    shifted = ConstraintSystem.from_rows([((1, 0), -1)], 2)
    with pytest.raises(UnboundedProjection):
        chm_project(shifted, 1)


def test_homogeneous_halfline_image():
    # cones are capped internally, so unbounded homogeneous images are fine
    halfplane = ConstraintSystem.from_rows([((1, 0), 0)], 2)
    result = chm_project(halfplane, 1)
    assert result.facets == [Face((1,), 0)]


def test_point_projection():
    # x = 0 exactly, projected to the first coordinate
    point = ConstraintSystem.from_rows([((1, 1), 0), ((-1, -1), 0), ((1, -1), 0), ((-1, 1), 0)], 2)
    result = chm_project(point, 2)
    assert result.facets == []
    bs = basis_simplex(point, 2)
    assert bs.rank == 0
    assert bs.points == [(0, 0)]


def test_flat_segment_lifts_endpoint_faces():
    # the segment x = y, 0 <= x <= 1 in the plane (no hidden coordinates)
    segment = ConstraintSystem.from_rows(
        [((1, -1), 0), ((-1, 1), 0), ((1, 0), 0), ((-1, 0), -1)], 2
    )
    result = chm_project(segment, 2)
    assert basis_simplex(segment, 2).rank == 1
    assert len(result.facets) == 2
    for face in result.facets:
        assert is_implied(segment, face)
    # each endpoint constraint is tight at one end and strict at the other
    ends = [(0, 0), (1, 1)]
    tight = {tuple(_eval(face, v) == face.b for v in ends) for face in result.facets}
    assert tight == {(True, False), (False, True)}


def _eval(face, point):
    return sum(c * x for c, x in zip(face.f, point))


@pytest.mark.parametrize("seed", range(12))
def test_random_projections_match_brute_force(seed):
    rng = random.Random(seed)
    dim = rng.choice([3, 4])
    d = dim - rng.choice([1, 2])
    points = [
        tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(dim + 4)
    ]
    facets = brute_hull_facets(points)
    if not facets:
        pytest.skip("degenerate sample")
    system = ConstraintSystem.from_rows(facets, dim)
    expected = {
        normalize_face(*f)
        for f in brute_projection_facets(
            [f for f, _ in facets], [b for _, b in facets], dim, d
        )
    }
    if not expected:
        pytest.skip("flat projection sample")
    result = chm_project(system, d)
    assert set(result.facets) == expected


@st.composite
def projection_with_knowledge(draw):
    """A polytope in R^3 or R^4, its shadow on d >= 2 coordinates (full
    dimensional, as the polytope is), and random subsets of the shadow's
    oracle vertices and facets."""
    dim = draw(st.integers(3, 4))
    d = draw(st.integers(2, dim - 1))
    coord = st.integers(-3, 3)
    points = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=dim + 3))
    assume(affine_rank(points) == dim)
    rows = brute_hull_facets(points)
    shadow = [normalize_face(*f) for f in brute_projection_facets(
        [f for f, _ in rows], [b for _, b in rows], dim, d)]
    vertices = brute_vertices([f.f for f in shadow], [f.b for f in shadow], d)
    known = Known(tuple(draw(st.lists(st.sampled_from(vertices), unique=True))), (),
                  tuple(draw(st.lists(st.sampled_from(shadow), unique=True))))
    return ConstraintSystem.from_rows(rows, dim), d, sorted(shadow), vertices, known


@given(projection_with_knowledge())
def test_known_vertices_and_valid_faces_leave_the_facets_unchanged(case):
    # the hull starts from the known vertices, a hull facet known valid takes
    # no LP, and every hull point comes back as a vertex of the image
    system, d, shadow, vertices, known = case
    proved = []

    def spy(work, face, _inner=chm.is_implied):
        proved.append(face)
        return _inner(work, face)

    with mock.patch.object(chm, "is_implied", spy):
        result = chm_project(system, d, known=known)
        assert not set(proved) & set(known.valid)
        proved.clear()
        # knowing every vertex and facet, the first hull is the image: no LP
        everything = Known(tuple(vertices), (), tuple(shadow))
        assert chm_project(system, d, known=everything).facets == shadow
        assert proved == []
    assert result.facets == chm_project(system, d).facets == shadow
    assert set(known.vertices) <= set(result.vertices) <= set(vertices)
