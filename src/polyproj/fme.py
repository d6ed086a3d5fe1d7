"""
Fourier-Motzkin elimination: project a polyhedron by eliminating coordinates.

Eliminating coordinate v from L x >= a partitions the rows by the sign of
their v-coefficient.  Rows with zero coefficient pass through; every
positive/negative pair (p, a_p), (q, a_q) combines into the valid row

    p_v * (q, a_q)  +  (-q_v) * (p, a_p),

whose v-coefficient cancels.  Doing this for every coordinate past the first
d yields a description of the shadow of the polyhedron on those first d
coordinates.  Row counts can square at each step, so redundancy removal
between steps (and, in the budgeted variant, hard row caps) is what makes
the method usable.

Every row produced is a nonnegative combination of input rows, hence valid
for the projection no matter which rows are later dropped: pruning affects
completeness, never soundness.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from .lp import (ConstraintSystem, Face, InfeasibleSystem, lp_feasible,
                 normalize_face)
from .redundancy import implied_equalities, prune_redundant

#: redundancy_mode values
PER_STEP = "per-step"
FINAL_ONLY = "final-only"

#: heuristic values
INPUT_ORDER = "input-order"
DUFFIN = "duffin"


@dataclass(frozen=True)
class FmeOptions:
    redundancy_mode: Optional[str] = PER_STEP
    heuristic: str = DUFFIN
    row_budget: Optional[int] = None
    use_float_filter: bool = True
    #: detect rows forced to equality by the rest of the system and use them
    #: for Gaussian substitution before any pairwise elimination; a major
    #: saving on systems of conditional-independence models, never a
    #: semantic change
    detect_equalities: bool = True

    def __post_init__(self):
        if self.redundancy_mode not in (None, PER_STEP, FINAL_ONLY):
            raise ValueError("unknown redundancy_mode %r" % (self.redundancy_mode,))
        if self.heuristic not in (INPUT_ORDER, DUFFIN):
            raise ValueError("unknown heuristic %r" % (self.heuristic,))


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
    out: List[Face] = []
    seen: Set[Face] = set()
    for row in zero:
        if row not in seen:
            seen.add(row)
            out.append(row)
    for p in pos:
        pv = p.f[var]
        for q in neg:
            qv = q.f[var]
            f = tuple(pv * qf - qv * pf for pf, qf in zip(p.f, q.f))
            face = normalize_face(f, pv * q.b - qv * p.b)
            if face not in seen:
                seen.add(face)
                out.append(face)
    return ConstraintSystem(tuple(out), system.dim, system.names)


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


def _substitute_equalities(system: ConstraintSystem, cols: List[int]
                           ) -> Tuple[ConstraintSystem, List[int]]:
    """Use detected equality pairs to zero out elimination columns exactly.

    A pair f.x >= b, -f.x >= -b is the equality f.x = b; adding multiples of
    an equality to other rows never changes the solution set, so any
    elimination column with a nonzero coefficient in f can be cleared by
    Gaussian substitution, after which the pair itself is discarded and the
    column is done.
    """
    rows = list(system.rows)
    remaining = list(cols)
    while True:
        index = {}
        pair = None
        for i, row in enumerate(rows):
            j = index.get(-row)
            if j is not None:
                pivot = next((c for c in remaining if rows[j].f[c] != 0), None)
                if pivot is not None:
                    pair = (j, i, pivot)
                    break
            index.setdefault(row, i)
        if pair is None:
            break
        j, i, pivot = pair
        eq = rows[j]
        new_rows: List[Face] = []
        for k, row in enumerate(rows):
            if k in (i, j):
                continue
            c = row.f[pivot]
            if c == 0:
                new_rows.append(row)
                continue
            # |e|.row - sign(e).c.eq: row - (c/e).eq scaled by |e| > 0,
            # which normalize_face removes again
            e = eq.f[pivot]
            a, g = (e, c) if e > 0 else (-e, -c)
            f = tuple(a * rf - g * ef for rf, ef in zip(row.f, eq.f))
            new_rows.append(normalize_face(f, a * row.b - g * eq.b))
        rows = new_rows
        remaining.remove(pivot)
    deduped: List[Face] = []
    seen: Set[Face] = set()
    for row in _purge_trivial(rows):
        if row not in seen:
            seen.add(row)
            deduped.append(row)
    return ConstraintSystem(tuple(deduped), system.dim, system.names), remaining


def _truncate(system: ConstraintSystem, d: int) -> ConstraintSystem:
    for row in system.rows:
        assert all(c == 0 for c in row.f[d:]), "uneliminated coefficient"
    rows = tuple(Face(row.f[:d], row.b) for row in system.rows)
    names = system.names[:d] if system.names else None
    return ConstraintSystem(rows, d, names)


def fme_project(system: ConstraintSystem, d: int,
                opts: FmeOptions = FmeOptions()) -> ConstraintSystem:
    """Shadow of the system on its first d coordinates.

    With redundancy_mode="per-step" the result is the irredundant
    description; "final-only" prunes once at the end; None never prunes.
    Raises InfeasibleSystem when the input has no solutions.
    """
    if not 0 <= d <= system.dim:
        raise ValueError("cannot project %d-dim system to %d coordinates"
                         % (system.dim, d))
    if not lp_feasible(system):
        raise InfeasibleSystem("input system has no solutions")
    return _run(system, d, opts)


def fme_partial(system: ConstraintSystem, d: int,
                opts: FmeOptions) -> ConstraintSystem:
    """Budgeted outer approximation of the shadow.

    After every elimination step the row count is capped at
    opts.row_budget, keeping the sparsest rows (ties by position).  Every
    surviving row is still implied by the input system; only completeness
    is sacrificed.
    """
    if opts.row_budget is None:
        raise ValueError("fme_partial requires row_budget")
    if not lp_feasible(system):
        raise InfeasibleSystem("input system has no solutions")
    return _run(system, d, opts)


def _enforce_budget(rows: Sequence[Face], budget: int) -> List[Face]:
    if len(rows) <= budget:
        return list(rows)
    scored = sorted(
        range(len(rows)),
        key=lambda i: (sum(1 for c in rows[i].f if c != 0), i),
    )
    keep = sorted(scored[:budget])
    return [rows[i] for i in keep]


def _promote_equalities(system: ConstraintSystem,
                        use_float: bool) -> ConstraintSystem:
    """Make every implicit equality explicit by adding its reverse row.

    The added rows are implied, so the solution set is untouched; the
    explicit pairs then feed the Gaussian substitution pass.
    """
    idx = implied_equalities(system, use_float=use_float)
    if not idx:
        return system
    present = set(system.rows)
    extra: List[Face] = []
    for i in idx:
        rev = normalize_face(tuple(-c for c in system.rows[i].f),
                             -system.rows[i].b)
        if rev not in present:
            present.add(rev)
            extra.append(rev)
    if not extra:
        return system
    return ConstraintSystem(system.rows + tuple(extra), system.dim,
                            system.names)


def _run(system: ConstraintSystem, d: int, opts: FmeOptions) -> ConstraintSystem:
    if opts.detect_equalities:
        system = _promote_equalities(system, opts.use_float_filter)
    work, cols = _substitute_equalities(system, list(range(d, system.dim)))
    cols = [c for c in cols if any(row.f[c] != 0 for row in work.rows)]
    while cols:
        if opts.heuristic == DUFFIN:
            var = choose_elimination_variable(work, cols)
        else:
            var = cols[0]
        cols.remove(var)
        work = fme_step(work, var)
        rows = _purge_trivial(work.rows)
        work = ConstraintSystem(tuple(rows), work.dim, work.names)
        if opts.row_budget is not None:
            rows = _enforce_budget(work.rows, opts.row_budget)
            work = ConstraintSystem(tuple(rows), work.dim, work.names)
        if opts.redundancy_mode == PER_STEP and cols:
            work = prune_redundant(work, use_float=opts.use_float_filter)
        cols = [c for c in cols if any(row.f[c] != 0 for row in work.rows)]
    out = _truncate(work, d)
    if opts.redundancy_mode in (PER_STEP, FINAL_ONLY):
        out = prune_redundant(out, use_float=opts.use_float_filter)
    return out
