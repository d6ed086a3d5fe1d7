import random

import pytest

from polyproj.epm import epm_sample_face
from polyproj.geometry import is_implied
from polyproj.lp import (UNBOUNDED, ConstraintSystem, Face, InfeasibleSystem, LpSolution,
                         lp_minimize)
from polyproj.rationals import dot, mpq
from polyproj.scenarios import elemental_inequalities

from .oracles import brute_hull_facets, brute_vertices


def _rows(system, d):
    """(1, L_i[d:]) for each row: row i's weight in sum(q) = 1 and in the
    cancelled coordinates."""
    return [(1,) + row.f[d:] for row in system.rows]


def _minimize(rows, p):
    """min p.q over {q >= 0 : sum_i q_i rows_i = e_0}, as lp_minimize's dual:
    rows_i . y >= -p_i minimizing e_0 . y, the system epm_sample_face solves."""
    width = len(rows[0])
    system = ConstraintSystem(tuple(Face(f, -v) for f, v in zip(rows, p)), width)
    return lp_minimize(system, (1,) + (0,) * (width - 1), want_point=False)


def test_unique_combination_interval():
    # {y >= 0, -y >= -1}, eliminate everything: only q = (1/2, 1/2) survives
    system = ConstraintSystem.from_rows([((1,), 0), ((-1,), -1)], 1)
    # two combination weights; per row, its weight in sum(q) = 1 and in the
    # cancelled coordinate
    rows = _rows(system, 0)
    assert rows == [(1, 1), (1, -1)]
    for p in ([0, 0], [1, 0], [-3, 7]):
        face = epm_sample_face(system, 0, p)
        assert face.f == ()
        assert face.b < 0  # 0 >= -1/2 up to scaling: strictly slack
    with pytest.raises(ValueError):
        epm_sample_face(system, 0, [0, 0, 0])  # one weight per row
    # the combination polytope itself is the single point (1/2, 1/2): each
    # weight has minimum and maximum 1/2, so q_1 >= 2/3 is infeasible
    for c in ([1, 0], [-1, 0], [0, 1], [0, -1]):
        assert _minimize(rows, c).duals == (mpq(1, 2), mpq(1, 2))
    # q_1 - s = 2/3 with a slack s >= 0 has no solution: in lp_minimize's
    # form, one row per weight q_1, q_2, s, each a column of that program,
    # the minimum of (1, 0, 2/3).y is unbounded
    rows = [(1, 1, 1), (1, -1, 0), (0, 0, -1)]
    system = ConstraintSystem(tuple(Face(f, 0) for f in rows), 3)
    assert lp_minimize(system, [1, 0, mpq(2, 3)]).status == UNBOUNDED


def test_untouched_variables_full_simplex():
    # no row touches an eliminated coordinate -> every simplex vertex works
    system = ConstraintSystem.from_rows([((1, 0, 0), 0), ((0, 1, 0), -2)], 3)
    assert epm_sample_face(system, 2, [0, 1]) == Face((1, 0), 0)
    assert epm_sample_face(system, 2, [1, 0]) == Face((0, 1), -2)


def test_elemental_one_body_feasible():
    system = elemental_inequalities(3)
    assert _minimize(_rows(system, 3), [0] * len(system.rows)).optimal
    face = epm_sample_face(system, 3, [1] * len(system.rows))
    assert is_implied(system, face.pad(system.dim))


def test_infeasible_when_no_combination_cancels():
    # single row with a live eliminated coordinate: nothing to cancel it with
    system = ConstraintSystem.from_rows([((1, 1), 0)], 2)
    with pytest.raises(InfeasibleSystem):
        epm_sample_face(system, 1, [1])


def test_sampled_faces_valid_on_square():
    rng = random.Random(5)
    square3d = ConstraintSystem.from_rows(
        [((1, 0, 0), 0), ((-1, 0, 0), -1), ((0, 1, 0), 0), ((0, -1, 0), -1),
         ((0, 0, 1), 0), ((0, 0, -1), -1), ((1, 1, 1), 0)], 3
    )
    for _ in range(20):
        p = [rng.randint(-5, 5) for _ in square3d.rows]
        face = epm_sample_face(square3d, 2, p)
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
    hits = 0
    for _ in range(40):
        x0 = tuple(rng.randint(-8, 8) for _ in range(d))
        if all(dot(f, x0) >= b for f, b in shadow):
            continue  # inside or on the shadow
        hits += 1
        # the slack f_i . x - b_i of each row at x = (x0, 0): minimizing it
        # picks the sampled face of least slack at x0, which separates x0
        x = x0 + (0,) * (dim - d)
        face = epm_sample_face(system, d, [dot(row.f, x) - row.b for row in system.rows])
        assert dot(face.f, x0) < face.b, (x0, face)
    assert hits > 0


INTERVAL = ConstraintSystem.from_rows([((1,), 0), ((-1,), -1)])
QUADRANT = ConstraintSystem.from_rows([((1, 0), 0), ((0, 1), -2)])


@pytest.mark.parametrize("system, d, p, corrupt", [
    (INTERVAL, 0, [0, 0], lambda q: tuple(2 * v for v in q)),  # sum(q) = 2
    (INTERVAL, 0, [0, 0], lambda q: (1, 0)),  # y is not cancelled
    (QUADRANT, 2, [0, 1], lambda q: (q[1], q[0])),  # not the minimum
    (QUADRANT, 2, [0, 0], lambda q: (q[0] - 2, q[1] + 2)),  # q_1 < 0
], ids=["sum", "cancel", "minimum", "sign"])
def test_corrupted_combination_is_caught(monkeypatch, system, d, p, corrupt):
    # the q read from lp_minimize's duals is checked before its face is built
    epm_sample_face(system, d, p)
    read = LpSolution.duals
    monkeypatch.setattr(LpSolution, "duals", property(lambda sol: corrupt(read.fget(sol))))
    with pytest.raises(AssertionError, match="combination"):
        epm_sample_face(system, d, p)
