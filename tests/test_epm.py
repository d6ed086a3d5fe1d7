import random

import pytest

from polyproj.epm import build_combination_polytope, epm_sample_face
from polyproj.geometry import is_implied
from polyproj.lp import INFEASIBLE, ConstraintSystem, Face, InfeasibleSystem, lp_standard
from polyproj.rationals import dot, rational
from polyproj.scenarios import elemental_inequalities

from .oracles import brute_hull_facets, brute_vertices


def test_unique_combination_interval():
    # {y >= 0, -y >= -1}, eliminate everything: only q = (1/2, 1/2) survives
    system = ConstraintSystem.from_rows([((1,), 0), ((-1,), -1)], 1)
    cp = build_combination_polytope(system, 0)
    # two combination weights; rows sum(q) = 1 and the cancelled coordinate
    assert cp.A == ((1, 1), (1, -1)) and cp.b == (1, 0)
    for p in ([0, 0], [1, 0], [-3, 7]):
        face = epm_sample_face(cp, p)
        assert face.f == ()
        assert face.b < 0  # 0 >= -1/2 up to scaling: strictly slack
    # the combination polytope itself is the single point (1/2, 1/2): each
    # weight has minimum and maximum 1/2, so q_1 >= 2/3 is infeasible
    for c in ([1, 0], [-1, 0], [0, 1], [0, -1]):
        sol = lp_standard(cp.A, cp.b, c)
        assert sol.x == (rational(1, 2), rational(1, 2))
    # q_1 - s = 2/3 with a slack s >= 0
    rows = [row + (0,) for row in cp.A] + [(1, 0, -1)]
    above = lp_standard(rows, cp.b + (rational(2, 3),), [0, 0, 0])
    assert above.status == INFEASIBLE


def test_untouched_variables_full_simplex():
    # no row touches an eliminated coordinate -> every simplex vertex works
    system = ConstraintSystem.from_rows([((1, 0, 0), 0), ((0, 1, 0), -2)], 3)
    cp = build_combination_polytope(system, 2)
    assert epm_sample_face(cp, [0, 1]) == Face((1, 0), 0)
    assert epm_sample_face(cp, [1, 0]) == Face((0, 1), -2)


def test_elemental_one_body_feasible():
    system = elemental_inequalities(3)
    cp = build_combination_polytope(system, 3)
    assert lp_standard(cp.A, cp.b, [0] * len(system.rows)).optimal
    face = epm_sample_face(cp, [1] * len(system.rows))
    assert is_implied(system, face.pad(system.dim))


def test_infeasible_when_no_combination_cancels():
    # single row with a live eliminated coordinate: nothing to cancel it with
    system = ConstraintSystem.from_rows([((1, 1), 0)], 2)
    cp = build_combination_polytope(system, 1)
    with pytest.raises(InfeasibleSystem):
        epm_sample_face(cp, [1])


def test_sampled_faces_valid_on_square():
    rng = random.Random(5)
    square3d = ConstraintSystem.from_rows(
        [((1, 0, 0), 0), ((-1, 0, 0), -1), ((0, 1, 0), 0), ((0, -1, 0), -1),
         ((0, 0, 1), 0), ((0, 0, -1), -1), ((1, 1, 1), 0)], 3
    )
    cp = build_combination_polytope(square3d, 2)
    for _ in range(20):
        p = [rng.randint(-5, 5) for _ in square3d.rows]
        face = epm_sample_face(cp, p)
        assert is_implied(square3d, face.pad(3))


@pytest.mark.parametrize("seed", range(10))
def test_separation_of_exterior_points(seed):
    rng = random.Random(seed)
    dim = rng.choice([3, 4])
    d = dim - 1
    points = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(dim + 4)]
    facets = brute_hull_facets(points)
    if not facets:
        pytest.skip("degenerate sample")
    system = ConstraintSystem.from_rows(facets, dim)
    shadow = brute_hull_facets(sorted({p[:d] for p in points}))
    if not shadow:
        pytest.skip("flat shadow")
    cp = build_combination_polytope(system, d)
    hits = 0
    for _ in range(40):
        x0 = tuple(rng.randint(-8, 8) for _ in range(d))
        if all(dot(f, x0) >= b for f, b in shadow):
            continue  # inside or on the shadow
        hits += 1
        # the slack f_i . x - b_i of each row at x = (x0, 0): minimizing it
        # picks the sampled face of least slack at x0, which separates x0
        x = x0 + (0,) * (dim - d)
        face = epm_sample_face(cp, [dot(row.f, x) - row.b for row in system.rows])
        assert dot(face.f, x0) < face.b, (x0, face)
    assert hits > 0
