"""
Fourier-Motzkin elimination: project a polyhedron by eliminating coordinates.

Eliminating coordinate v from L x >= a partitions the rows by the sign of
their v-coefficient.  Rows with zero coefficient pass through; every
positive/negative pair (p, a_p), (q, a_q) combines into the valid row

    p_v * (q, a_q)  +  (-q_v) * (p, a_p),

whose v-coefficient cancels (``lp.combine``).  Doing this for every coordinate
past the first d yields a description of the shadow of the polyhedron on
those first d coordinates.  Row counts can square at each step, so
``fme_project`` first substitutes away the implicit equalities that
``implied_equalities`` finds, with ``lp.pivot_equations``; then it picks
each next coordinate by Duffin's growth score and drops redundant rows after
every step: a row that is another row loosened or the sum of two goes with
no LP, and for the rest float probes steer and exact certificates decide.
Its ``row_budget`` adds a hard row cap.

Every row produced is a nonnegative combination of input rows plus
multiples of implied equalities, hence valid for the projection no matter
which rows are later dropped: pruning affects completeness, never soundness.

Many rows of a step are pass-through rows, and after the first step their
redundancy is already settled.  Let P be full-dimensional and described
irredundantly, and let F be a facet of P whose row has coefficient 0 at v.
The direction e_v lies in the hyperplane of F, so F loses exactly one
dimension in the projection along v: its image has dimension dim P - 2, a
facet of the (full-dimensional) shadow.  So a step whose input was pruned
needs to probe only the rows it creates, and ``fme_project`` protects the
others in its per-step sweeps, matching them by value, not by position, so
that a row budget cannot misalign them.  Should the premise fail (the
working system is flat, through an equality among the kept coordinates or
one the float search missed, or a float verdict kept a redundant row), a
protected row may be redundant: keeping a valid row is always sound, and the
final sweep, which protects nothing, removes it.

One float point serves every sweep: the point z of the interior LP that
``implied_equalities`` solves anyway, where as many input rows as possible
are strict.  Every row FME makes is a positive combination of input rows
after substitution, so it is strict wherever they all are, and its value
at z does not depend on the coordinates it no longer has: each step's sweep
takes z as it is, and the final sweep its first d coordinates.  A sweep
keeps a row with no probe when the ray from z to the row's plane meets it
strictly inside every other row (``redundancy._Sweep.keeps``).  That test is
its own proof, so z needs no guarantee: a poor z, or a flat system such as
cca:4's, only gives fewer such verdicts.
"""

from itertools import chain
from typing import List, Optional, Sequence, Set

from .lp import (ConstraintSystem, Face, InfeasibleSystem, combine, lp_feasible,
                 pivot_equations, substitute)
from .redundancy import implied_equalities, prune_redundant


def fme_step(system: ConstraintSystem, var: int) -> ConstraintSystem:
    """One elimination step: all rows of the result have coefficient 0 at var.

    The output is the pass-through rows followed by the pairwise
    combinations, deduplicated after normalization.
    """
    if not 0 <= var < system.dim:
        raise ValueError("variable %d out of range" % var)
    zero, pos, neg = [], [], []
    for row in system.rows:
        c = row.f[var]
        if c > 0:
            pos.append(row)
        elif c < 0:
            neg.append(row)
        else:
            zero.append(row)
    combined = (combine(p, q, var) for p in pos for q in neg)
    return ConstraintSystem(tuple(dict.fromkeys(chain(zero, combined))),
                            system.dim, system.names)


def choose_elimination_variable(system: ConstraintSystem,
                                candidates: Sequence[int]) -> int:
    """The candidate minimizing E+ E- - (E+ + E-); ties to the lowest index.

    E+/E- count rows with positive/negative coefficient at the candidate, so
    the score is the worst-case row growth of eliminating it.
    """
    if not candidates:
        raise ValueError("no candidates")
    best, best_score = None, None
    for var in sorted(candidates):
        ep = sum(1 for row in system.rows if row.f[var] > 0)
        en = sum(1 for row in system.rows if row.f[var] < 0)
        score = ep * en - (ep + en)
        if best_score is None or score < best_score:
            best, best_score = var, score
    return best


def _purge_trivial(rows: Sequence[Face]) -> List[Face]:
    """Drop all-zero rows, which must be vacuous (0 >= b with b <= 0)."""
    out = []
    for row in rows:
        if any(c != 0 for c in row.f):
            out.append(row)
        elif row.b > 0:
            raise InfeasibleSystem("derived the contradiction 0 >= %s" % (row.b,))
    return out


def _truncate(system: ConstraintSystem, d: int) -> ConstraintSystem:
    for row in system.rows:
        assert all(c == 0 for c in row.f[d:]), "uneliminated coefficient"
    rows = tuple(Face(row.f[:d], row.b) for row in system.rows)
    names = system.names[:d] if system.names else None
    return ConstraintSystem(rows, d, names)


def _enforce_budget(rows: Sequence[Face], budget: int) -> List[Face]:
    if len(rows) <= budget:
        return list(rows)
    scored = sorted(
        range(len(rows)),
        key=lambda i: (sum(1 for c in rows[i].f if c != 0), i),
    )
    keep = sorted(scored[:budget])
    return [rows[i] for i in keep]


def fme_project(system: ConstraintSystem, d: int, *,
                row_budget: Optional[int] = None) -> ConstraintSystem:
    """Shadow of the system on its first d coordinates, irredundant.

    Implied equalities are substituted away first; then each remaining
    coordinate is eliminated in Duffin's order (see
    ``choose_elimination_variable``), with a redundancy sweep after every
    step and a final one on the result.  The sweep after a step tests only
    the rows that are not pass-through rows of the previous pruned system;
    the first step's sweep, whose input was never pruned, and the final
    sweep test every row, and every sweep first tries the keep verdict from
    the interior LP's point (see the module docstring for both).  Setting
    ``row_budget`` makes this the budgeted outer approximation: after every
    elimination step the row count is capped at the budget, keeping the
    sparsest rows (ties by position).  Every surviving row is still implied
    by the input system; only completeness is lost.
    Raises ValueError for a d outside 0..dim or a negative row_budget, and
    InfeasibleSystem when the input has no solutions.
    """
    if not 0 <= d <= system.dim:
        raise ValueError("cannot project %d-dim system to %d coordinates"
                         % (system.dim, d))
    if row_budget is not None and row_budget < 0:
        raise ValueError("row budget must be nonnegative, got %d" % row_budget)
    # a homogeneous system contains x = 0, so only an affine one needs the LP
    if not system.homogeneous and not lp_feasible(system):
        raise InfeasibleSystem("input system has no solutions")
    equalities, inside = implied_equalities(system)
    equations, pivots = pivot_equations(
        [system.rows[i] for i in equalities], range(d, system.dim))
    rows = _purge_trivial([substitute(row, equations, pivots) for row in system.rows])
    work = ConstraintSystem(tuple(dict.fromkeys(rows)), system.dim, system.names)
    cols = range(d, system.dim)
    pruned: Set[Face] = set()  # rows of the last pruned system
    while cols := [c for c in cols if any(row.f[c] != 0 for row in work.rows)]:
        var = choose_elimination_variable(work, cols)
        cols.remove(var)
        work = fme_step(work, var)
        rows = _purge_trivial(work.rows)
        if row_budget is not None:
            rows = _enforce_budget(rows, row_budget)
        work = ConstraintSystem(tuple(rows), work.dim, work.names)
        if cols:
            passed = [i for i, row in enumerate(rows) if row in pruned]
            work = prune_redundant(work, protect=passed, inside=inside)
            pruned = set(work.rows)
    return prune_redundant(_truncate(work, d),
                           inside=None if inside is None else inside[:d])
