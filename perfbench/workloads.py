"""The benchmark's workloads: inputs made from a seed, and output checks.

Each workload projects one of polyproj's scenario systems with one method.
The seed shuffles the input rows (seed 0 keeps the order ``parse_scenario``
builds) and, for AFI, is also ``AfiConfig.seed``.  Every projection's facet
set is checked against an expected listing under ``expected/``.

polyproj is imported inside the functions, never at module level, so that
``run.py`` can time the imports as part of set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str                  # parse_scenario spec
    method: str                # "fme", "chm" or "afi"
    expected: str              # facet listing under expected/
    timeout_s: float           # per projection; past it the projection fails
    golden: Optional[str] = None   # bundled polyproj listing to compare with
    golden_extra: Optional[str] = None  # classes computed beyond the golden one


WORKLOADS = {
    w.name: w for w in (
        Workload("fme-cca3", "cca:3", "fme", "cca-3.txt", 60.0,
                 golden="cca-3", golden_extra="cca-3-extra.txt"),
        Workload("chm-cca3", "cca:3", "chm", "cca-3.txt", 120.0,
                 golden="cca-3", golden_extra="cca-3-extra.txt"),
        Workload("afi-bell2x2", "bell:2x2:body=1,2", "afi", "bell-2x2.txt", 60.0),
    )
}

#: modules whose import is part of a workload's set-up
METHOD_MODULES = {"fme": "polyproj.fme", "chm": "polyproj.chm", "afi": "polyproj.afi"}


@dataclass
class Problem:
    """One workload input: the system, the output dimension and the group."""

    workload: Workload
    seed: int
    rows: Tuple
    dim: int
    names: Tuple[str, ...]        # system column names
    d: int
    observable: Tuple[str, ...]   # names of the first d columns
    group: object

    def system(self):
        """A fresh system object, so no projection reuses another's caches."""
        from polyproj.lp import ConstraintSystem

        return ConstraintSystem(self.rows, self.dim, self.names)

    def projector(self) -> Callable[[], List]:
        """A call that projects a fresh system and returns its facets.

        The method is looked up at call time, so an installed tracer sees it.
        """
        method, d, group, seed = self.workload.method, self.d, self.group, self.seed
        if method == "fme":
            from polyproj import fme
            return lambda: list(fme.fme_project(self.system(), d).rows)
        if method == "chm":
            from polyproj import chm
            return lambda: chm.chm_project(self.system(), d, group=group).facets
        if method == "afi":
            from polyproj import afi
            cfg = afi.AfiConfig(depth=1, group=group, seed=seed)
            return lambda: afi.afi_project(self.system(), d, cfg)
        raise ValueError("unknown method %r" % method)


def build_problem(workload: Workload, seed: int) -> Problem:
    """Parse the scenario and shuffle its rows by the seed (this is set-up)."""
    import importlib

    from polyproj.scenarios import parse_scenario

    importlib.import_module(METHOD_MODULES[workload.method])
    bundle = parse_scenario(workload.spec)
    rows = list(bundle.system.rows)
    if seed:
        random.Random(seed).shuffle(rows)
    return Problem(workload, seed, tuple(rows), bundle.system.dim,
                   bundle.system.names, bundle.scenario.d,
                   bundle.scenario.observable_names, bundle.group)


def load_listing(name: str, names: Tuple[str, ...]):
    """A listing under expected/ as a system over the given column order."""
    from polyproj import matrixfile

    system = matrixfile.load(EXPECTED_DIR / name).system
    return matrixfile.reorder_to(system, names)


def facet_set(facets) -> Tuple:
    """Sorted, normalized facets with duplicates removed."""
    from polyproj.lp import normalize_face

    return tuple(sorted({normalize_face(f.f, f.b) for f in facets}))


class Checker:
    """Checks one workload's outputs; built once per run, outside the timing."""

    def __init__(self, problem: Problem):
        from polyproj import verify
        from polyproj.matrixfile import reorder_to

        w = problem.workload
        self.problem = problem
        self.expected = facet_set(load_listing(w.expected, problem.observable).rows)
        self.golden = None
        if w.golden is not None:
            self.golden = reorder_to(verify.load_fixture(w.golden).system,
                                     problem.observable)
            self.golden_extra = facet_set(
                load_listing(w.golden_extra, problem.observable).rows)

    def check(self, facets) -> Optional[str]:
        """None when the facets are right, else what is wrong."""
        from polyproj import verify
        from polyproj.lp import ConstraintSystem

        got = facet_set(facets)
        if got != self.expected:
            return ("facet set differs from expected/%s: %d facets, %d missing, "
                    "%d extra" % (self.problem.workload.expected, len(got),
                                  len(set(self.expected) - set(got)),
                                  len(set(got) - set(self.expected))))
        if self.golden is not None:
            computed = ConstraintSystem(got, self.problem.d, self.problem.observable)
            report = verify.compare_listings(computed, self.golden, self.problem.group)
            if report.missing:
                return "compare_listings reports %d missing classes" % len(report.missing)
            if tuple(sorted(report.extra)) != self.golden_extra:
                return "compare_listings extra classes differ from expected/%s" % (
                    self.problem.workload.golden_extra)
        return None
