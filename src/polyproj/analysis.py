"""Structural analysis of marginal-cone inequalities.

Exact proofs for inequalities produced by the projection algorithms: an
inequality valid over an elemental system is a nonnegative combination of
elemental rows, read off the dual of the verifying LP and re-checked
coordinate by coordinate.

``lift_to_space`` rewrites a facet over a scenario's observable coordinates
as a face over its full entropy space, the form ``extract_proof`` takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .lp import ConstraintSystem, Face, lp_minimize
from .rationals import format_rational
from .scenarios import (ElementalForm, EntropySpace, MarginalScenario,
                        elemental_forms, entropy_space, form_row)


# ---------------------------------------------------------------------------
# Coordinate plumbing
# ---------------------------------------------------------------------------


def lift_to_space(scenario: MarginalScenario, face: Face) -> Face:
    """Rewrite a face over the observable coordinates as a face over the
    scenario's full entropy space in canonical coordinate order."""

    if len(face.f) != scenario.d:
        raise ValueError("face width does not match the scenario")
    coeffs = [0] * scenario.space.dim
    for coeff, subset in zip(face.f, scenario.observable):
        coeffs[scenario.space.index[subset]] = coeff
    return Face(f=tuple(coeffs), b=face.b)


def _space_of(system: ConstraintSystem) -> EntropySpace:
    """The entropy space a system lives on, requiring canonical column order."""

    n = (system.dim + 1).bit_length() - 1
    if (1 << n) - 1 != system.dim:
        raise ValueError(f"{system.dim} columns is not an entropy space")
    names = system.names[:n] if system.names else None
    space = entropy_space(n, names)
    if system.names and tuple(system.names) != space.column_names:
        raise ValueError("system columns are not in entropy-space order")
    return space


# ---------------------------------------------------------------------------
# Dual proofs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ElementalProof:
    """A nonnegative combination of elemental rows summing to ``target``.

    The combination is a validity certificate anyone can re-check by
    addition alone; construction verifies it exactly, coordinate by
    coordinate.
    """

    space: EntropySpace
    target: Face
    terms: Tuple[Tuple[ElementalForm, object], ...]

    def __post_init__(self) -> None:
        if any(coeff < 0 for _, coeff in self.terms):
            raise ValueError("proof coefficients must be nonnegative")
        if self.reconstruction() != self.target:
            raise ValueError("proof terms do not sum to the target")

    def reconstruction(self) -> Face:
        """The exact sum of the terms, as a face."""

        coeffs = [0] * self.space.dim
        rhs = 0
        for form, coeff in self.terms:
            row = form_row(self.space, form)
            for pos, value in enumerate(row.f):
                if value:
                    coeffs[pos] += coeff * value
            rhs += coeff * row.b
        return Face(f=tuple(coeffs), b=rhs)

    def __len__(self) -> int:
        return len(self.terms)


def extract_proof(system: ConstraintSystem, ineq: Face) -> ElementalProof:
    """Prove ``ineq`` over an elemental system by nonnegative combination.

    The multipliers are the duals of the LP minimizing ``ineq.f`` over the
    system.  Every row the proof uses must be an elemental form row;
    extra non-elemental rows in the system are fine as long as the dual
    does not touch them.  Valid-but-slack inequalities are rejected: a
    sum of rows with zero right-hand side reconstructs the supporting
    offset, so tighten ``b`` to the LP value first.
    """

    space = _space_of(system)
    if len(ineq.f) != system.dim:
        raise ValueError("inequality width does not match the system")
    sol = lp_minimize(system, list(ineq.f), want_point=False)
    if not sol.optimal or sol.objective < ineq.b:
        raise ValueError("inequality is not valid over the system")
    if sol.objective != ineq.b:
        raise ValueError(
            "inequality is valid but not supporting (LP value %s, b %s)"
            % (format_rational(sol.objective), format_rational(ineq.b)))
    row_to_form = {form_row(space, form): form
                   for form in elemental_forms(space.n)}
    terms = []
    for row, coeff in zip(system.rows, sol.duals):
        if coeff == 0:
            continue
        form = row_to_form.get(Face(f=tuple(row.f), b=row.b))
        if form is None:
            raise ValueError("dual proof uses a non-elemental row")
        terms.append((form, coeff))
    return ElementalProof(space=space, target=Face(f=tuple(ineq.f), b=ineq.b),
                          terms=tuple(terms))

