"""Tests for dual proofs of marginal inequalities."""

import pytest
from hypothesis import given, strategies as st

from polyproj.analysis import ElementalProof, extract_proof, lift_to_space
from polyproj.chm import chm_project
from polyproj.lp import Face, normalize_face
from polyproj.matrixfile import reorder_to
from polyproj.scenarios import (ElementalForm, bell_scenario,
                                elemental_inequalities, entropy_space,
                                form_row)
from polyproj.verify import load_fixture

F = frozenset


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bipartite():
    """2-party, 2-setting scenario with one- and two-body observables."""

    system, scenario = bell_scenario(2, 2, (1, 2))
    return system, scenario


def scenario_face(scenario, terms):
    """Build a face over the observable coordinates from (varset, coeff)."""

    index = {s: pos for pos, s in enumerate(scenario.observable)}
    coeffs = [0] * scenario.d
    for varset, coeff in terms:
        coeffs[index[F(varset)]] += coeff
    return Face(f=tuple(coeffs), b=0)


def chshe_face(scenario):
    """H(A1B1) + H(A1B2) + H(A2B1) − H(A2B2) − H(A1) − H(B1) ≥ 0."""

    return scenario_face(scenario, [
        ({1, 3}, 1), ({1, 4}, 1), ({2, 3}, 1), ({2, 4}, -1),
        ({1}, -1), ({3}, -1),
    ])


# ---------------------------------------------------------------------------
# extract_proof
# ---------------------------------------------------------------------------


def test_elemental_row_proves_itself():
    system = elemental_inequalities(3)
    for row in system.rows:
        proof = extract_proof(system, row)
        assert proof.reconstruction() == row
        assert len(proof) >= 1


def test_chshe_has_elemental_proof(bipartite):
    system, scenario = bipartite
    g4 = elemental_inequalities(4, scenario.space.names)
    target = lift_to_space(scenario, chshe_face(scenario))
    proof = extract_proof(g4, target)
    assert proof.reconstruction() == target
    assert all(coeff > 0 for _, coeff in proof.terms)
    assert all(form.kind in ("H", "I") for form, _ in proof.terms)


def test_invalid_inequality_rejected():
    g2 = elemental_inequalities(2)
    bad = Face(f=(-1, 0, 0), b=0)            # −H(X1) ≥ 0 is false
    with pytest.raises(ValueError):
        extract_proof(g2, bad)


def test_slack_inequality_rejected():
    g2 = elemental_inequalities(2)
    mi = form_row(entropy_space(2), ElementalForm("I", 1, 2, F(())))
    with pytest.raises(ValueError):
        extract_proof(g2, Face(f=mi.f, b=-1))


def test_misordered_system_rejected(bipartite):
    system, scenario = bipartite
    # The scenario system puts observable columns first, which is not the
    # canonical entropy-space order the proof extraction contracts.
    with pytest.raises(ValueError):
        extract_proof(system, Face(f=(0,) * system.dim, b=0))


def test_proof_scales_with_target():
    system = elemental_inequalities(3)
    row = system.rows[5]
    tripled = Face(f=tuple(3 * c for c in row.f), b=0)
    proof = extract_proof(system, tripled)
    assert proof.reconstruction() == tripled


def test_proof_rejects_negative_coefficients():
    space = entropy_space(2)
    mi = ElementalForm("I", 1, 2, F(()))
    with pytest.raises(ValueError):
        ElementalProof(space=space, target=form_row(space, mi),
                       terms=((mi, -1),))


def test_proof_rejects_wrong_sum():
    space = entropy_space(2)
    mi = ElementalForm("I", 1, 2, F(()))
    with pytest.raises(ValueError):
        ElementalProof(space=space, target=Face(f=(1, 0, 0), b=0),
                       terms=((mi, 1),))


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 3)),
                min_size=1, max_size=5))
def test_random_combinations_reconstruct(terms):
    system = elemental_inequalities(3)
    coeffs = [0] * system.dim
    for row_index, coeff in terms:
        row = system.rows[row_index]
        for pos, value in enumerate(row.f):
            coeffs[pos] += coeff * value
    target = Face(f=tuple(coeffs), b=0)
    if all(c == 0 for c in target.f):
        return
    proof = extract_proof(system, target)
    assert proof.reconstruction() == target


def test_i17_printed_expansion_and_own_proof():
    """The known eight-term unit certificate for row 17 of the 26D
    reference listing sums exactly, and the extracted dual proof
    reconstructs the same row."""

    system, scenario = bell_scenario(3, 2, (1, 2, 3))
    golden = reorder_to(load_fixture("bell-26d").system,
                        scenario.observable_names)
    target = lift_to_space(scenario, golden.rows[17])
    printed = (
        ElementalForm("H", 1, 0, F({2, 3, 4, 5, 6})),
        ElementalForm("H", 5, 0, F({1, 2, 3, 4, 6})),
        ElementalForm("I", 1, 2, F({3, 4, 5, 6})),
        ElementalForm("I", 4, 5, F({1, 2, 3, 6})),
        ElementalForm("I", 1, 5, F({2, 3, 6})),
        ElementalForm("I", 1, 4, F({3, 5, 6})),
        ElementalForm("I", 5, 6, F({1, 3})),
        ElementalForm("I", 2, 6, F({3, 5})),
    )
    proof = ElementalProof(space=scenario.space, target=target,
                           terms=tuple((form, 1) for form in printed))
    assert len(proof) == 8
    assert proof.reconstruction() == target

    g6 = elemental_inequalities(6, scenario.space.names)
    own = extract_proof(g6, target)
    assert own.reconstruction() == target


# ---------------------------------------------------------------------------
# Complete facet lists
# ---------------------------------------------------------------------------


def test_bipartite_enumeration_sound_and_complete(bipartite):
    system, scenario = bipartite
    facets = set(chm_project(system, scenario.d).facets)
    assert len(facets) == 16
    assert normalize_face(chshe_face(scenario).f, 0) in facets
    mi = scenario_face(scenario, [({1}, 1), ({3}, 1), ({1, 3}, -1)])
    assert normalize_face(mi.f, 0) in facets


def test_pure_two_body_enumeration():
    system, scenario = bell_scenario(2, 2, (2,))
    facets = chm_project(system, scenario.d).facets
    # four submodularity-style chains plus the four nonnegativity rows
    assert len(facets) == 8
    assert sum(sorted(face.f) == [0] * (scenario.d - 1) + [1] for face in facets) == 4
