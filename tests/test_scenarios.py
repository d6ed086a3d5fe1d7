import math
from itertools import combinations, product

import pytest

from polyproj.geometry import is_implied
from polyproj.lp import ConstraintSystem, Face
from polyproj.scenarios import (
    MarginalScenario,
    ScenarioBundle,
    SymmetryGroup,
    bell_scenario,
    bell_symmetry_group,
    cca_symmetry_group,
    elemental_forms,
    elemental_inequalities,
    entropy_space,
    marginal_scenario,
    parse_scenario,
)
from polyproj.verify import canonical_classes


def expected_row_count(n: int) -> int:
    if n == 1:
        return 1
    return n + (1 << (n - 2)) * math.comb(n, 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_elemental_row_counts(n):
    system = elemental_inequalities(n)
    assert len(system) == expected_row_count(n)
    assert system.dim == (1 << n) - 1
    assert system.homogeneous


def test_elemental_counts_match_published_sequence():
    assert [expected_row_count(n) for n in range(2, 9)] == [
        3, 9, 28, 85, 246, 679, 1800,
    ]


def test_coordinate_order_is_cardinality_then_lexicographic():
    space = entropy_space(3)
    assert [sorted(s) for s in space.coords] == [
        [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3],
    ]
    assert space.column_names == ("1", "2", "3", "12", "13", "23", "123")


def test_form_descriptions():
    space = entropy_space(4, names=("A1", "A2", "B1", "B2"))
    forms = elemental_forms(4)
    labels = [form.describe(space) for form in forms]
    assert labels[0] == "H(A1|A2,B1,B2)"
    assert "I(A1:A2)" in labels
    assert "I(A1:B2|A2,B1)" in labels


@pytest.mark.parametrize("n", [2, 3, 4])
def test_elemental_system_is_minimal(n):
    system = elemental_inequalities(n)
    for k, row in enumerate(system.rows):
        others = ConstraintSystem(
            rows=system.rows[:k] + system.rows[k + 1:], dim=system.dim
        )
        assert not is_implied(others, row), f"row {k} is redundant"


def test_bell_scenario_dimensions():
    expected = {
        frozenset({1}): 6,
        frozenset({2}): 12,
        frozenset({3}): 8,
        frozenset({1, 3}): 14,
        frozenset({1, 2}): 18,
        frozenset({2, 3}): 20,
        frozenset({1, 2, 3}): 26,
    }
    for sizes, d in expected.items():
        system, scenario = bell_scenario(3, 2, sizes)
        assert scenario.d == d
        assert len(system) == expected_row_count(6)
        assert system.dim == 63
    _, chsh = bell_scenario(2, 2, {1, 2})
    assert chsh.d == 8
    assert chsh.observable_names == (
        "A1", "A2", "B1", "B2", "A1B1", "A1B2", "A2B1", "A2B2",
    )


def _nonempty_subsets(items):
    items = list(items)
    return [set(c) for k in range(1, len(items) + 1) for c in combinations(items, k)]


@pytest.mark.parametrize("parties", [1, 2, 3])
@pytest.mark.parametrize("settings", [1, 2, 3])
def test_bell_observables_are_one_setting_per_party_of_a_body_size(parties, settings):
    for sizes in _nonempty_subsets(range(1, parties + 1)):
        _, scenario = bell_scenario(parties, settings, sizes)
        # choose k parties, then one setting of each; party p's setting s
        # is variable p * settings + s + 1
        expected = {
            frozenset(p * settings + s + 1 for p, s in zip(chosen, choice))
            for k in sizes
            for chosen in combinations(range(parties), k)
            for choice in product(range(settings), repeat=k)
        }
        assert len(scenario.observable) == len(expected)
        assert scenario.observable == tuple(
            subset for subset in scenario.space.coords if subset in expected)
    # variables are party-major
    assert scenario.space.names == tuple(
        f"{party}{s}" for party in "ABC"[:parties] for s in range(1, settings + 1))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cca_observables_are_the_nonempty_subsets_of_the_observed(n):
    scenario = parse_scenario(f"cca:{n}").scenario
    expected = tuple(frozenset(s) for s in _nonempty_subsets(range(1, n + 1)))
    assert scenario.observable == expected
    assert scenario.observable == tuple(
        subset for subset in scenario.space.coords if subset in set(expected))


@pytest.mark.parametrize("bad", [[()], [(4,)], [(1,), (0, 1)]],
                         ids=["empty", "out-of-range", "zero"])
def test_marginal_scenario_rejects_non_subsets(bad):
    with pytest.raises(ValueError, match="not a variable subset"):
        marginal_scenario(entropy_space(3), [(1, 2)] + bad)


def test_marginal_scenario_sorts_and_merges_repeats():
    scenario = marginal_scenario(entropy_space(3), [(2, 3), (1,), (3, 2), (2,)])
    assert scenario.observable == (frozenset({1}), frozenset({2}), frozenset({2, 3}))
    with pytest.raises(ValueError, match="duplicate"):
        MarginalScenario(entropy_space(3), (frozenset({1}), frozenset({1})))


@pytest.mark.parametrize("parties, settings", [(0, 2), (27, 2), (2, 0)])
def test_bell_scenario_rejects_party_and_setting_counts(parties, settings):
    with pytest.raises(ValueError, match="parties|settings"):
        bell_scenario(parties, settings, {1})


def test_bell_reorder_is_a_bijection_preserving_labels():
    system, scenario = bell_scenario(2, 2, {1, 2})
    assert sorted(system.names) == sorted(scenario.space.column_names)
    # the observable block leads, the hidden block follows
    assert system.names[: scenario.d] == scenario.observable_names


def test_group_orders():
    _, sc32 = bell_scenario(3, 2, {2})
    assert len(bell_symmetry_group(3, 2, sc32).elements) == 48
    _, sc22 = bell_scenario(2, 2, {1, 2})
    assert len(bell_symmetry_group(2, 2, sc22).elements) == 8
    _, sc11 = bell_scenario(1, 1, {1})
    assert len(bell_symmetry_group(1, 1, sc11).elements) == 1


def test_group_action_preserves_validity():
    system, scenario = bell_scenario(2, 2, {1, 2})
    group = bell_symmetry_group(2, 2, scenario)
    # H(A1) >= 0 is valid on the projection; so is every orbit image.
    face = Face((1,) + (0,) * (scenario.d - 1), 0).pad(system.dim)
    for image in group.orbit(Face(face.f[: scenario.d], 0)):
        assert is_implied(system, image.pad(system.dim))


def test_cca_model_shape():
    cca3 = parse_scenario("cca:3")
    system, scenario = cca3.system, cca3.scenario
    assert scenario.d == 7
    assert system.dim == 63
    # elemental rows plus 2*(n+1) equality rows
    assert len(system) == expected_row_count(6) + 8
    assert system.names[:7] == ("1", "2", "3", "12", "13", "23", "123")
    assert len(cca_symmetry_group(3, scenario).elements) == 6
    assert len(cca_symmetry_group(5, parse_scenario("cca:5").scenario).elements) == 10


def test_orbit_normalizes_and_checks_the_width():
    swap = SymmetryGroup(generators=((1, 0),), dim=2)
    assert swap.orbit(((2, 4), 2)) == (Face((1, 2), 1), Face((2, 1), 1))
    assert swap.orbit(Face((1, 1), 0)) == (Face((1, 1), 0),)
    with pytest.raises(ValueError, match="face dimension"):
        swap.orbit(Face((1, 0, 0), 0))


def test_classify_with_identity_group_counts_distinct_faces():
    faces = [Face((1, 0), 0), Face((2, 0), 0), Face((0, 1), 0)]
    assert len(canonical_classes(ConstraintSystem.from_rows(faces, 2), None)) == 2


def test_classify_merges_symmetric_faces():
    scenario = parse_scenario("cca:3").scenario
    group = cca_symmetry_group(3, scenario)
    # H(1) >= 0, H(2) >= 0, H(3) >= 0 form one orbit
    faces = []
    for k in range(3):
        coeffs = [0] * scenario.d
        coeffs[k] = 1
        faces.append(Face(tuple(coeffs), 0))
    assert len(canonical_classes(ConstraintSystem.from_rows(faces, scenario.d), group)) == 1


def test_parse_scenario_strings():
    bundle = parse_scenario("elemental:3")
    assert isinstance(bundle, ScenarioBundle)
    assert bundle.system.dim == 7 and bundle.scenario.d == 7
    assert parse_scenario("cca:3").scenario.d == 7
    bell = parse_scenario("bell:3x2:body=1,2")
    assert bell.scenario.d == 18
    assert len(bell.group.elements) == 48
    for bad in ["bell:3x2", "bell:axb:body=1", "cca", "nope:1", "bell:3x2:body=9"]:
        with pytest.raises(ValueError):
            parse_scenario(bad)
