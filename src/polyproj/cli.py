"""
Command line entry point::

    polyproj project SPEC [--method {fme,chm,afi,rfd}] [--budget N] [--verify FIXTURE]

projects the scenario system named by SPEC (see
:func:`polyproj.scenarios.parse_scenario`) onto its observable coordinates
and prints the facets as a matrix file.  ``--method rfd`` is AFI with a
budget: it needs ``--budget N`` and prints the facets that the adjacency
walk finds within N hulls built (randomized facet discovery).
When the budget runs out first, that sound but partial list gets a
``partial`` header line and the exit status is 1.
``--verify`` compares the facets with a bundled listing (see
:mod:`polyproj.verify`) and prints the verdict on stderr; the exit status
is then 1 when the listing has a class the projection lacks.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .afi import AfiConfig, BudgetExhausted, afi_project
from .chm import chm_project
from .fme import fme_project
from .lp import ConstraintSystem, Face, normalize_face
from .matrixfile import render, reorder_to
from .scenarios import ScenarioBundle, parse_scenario
from .verify import compare_listings, load_fixture

METHODS = ("fme", "chm", "afi", "rfd")


def _project(bundle: ScenarioBundle, method: str, budget: Optional[int]) -> List[Face]:
    system, d, group = bundle.system, bundle.scenario.d, bundle.group
    if method == "fme":
        return list(fme_project(system, d).rows)
    if method == "chm":
        return chm_project(system, d, group=group).facets
    return afi_project(system, d, AfiConfig(group=group), budget=budget)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyproj", description="Exact projection of polyhedra.")
    commands = parser.add_subparsers(dest="command", required=True)
    project = commands.add_parser(
        "project", help="project a scenario system onto its observables")
    project.add_argument("spec", help="scenario spec, e.g. cca:3 or bell:2x2:body=1,2")
    project.add_argument("--method", choices=METHODS, default="fme")
    project.add_argument("--budget", type=int, metavar="N",
                         help="hulls built that --method rfd may spend (required there)")
    project.add_argument("--verify", metavar="FIXTURE",
                         help="bundled listing to compare with, e.g. cca-3")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if (args.method == "rfd") != (args.budget is not None):
        parser.error("--budget N goes with --method rfd, and only with it")
    if args.budget is not None and args.budget < 1:
        parser.error("--budget must be at least 1")
    try:
        bundle = parse_scenario(args.spec)
        names = bundle.scenario.observable_names
        golden = reorder_to(load_fixture(args.verify).system, names) if args.verify else None
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))
    try:
        found, partial = _project(bundle, args.method, args.budget), False
    except BudgetExhausted as exc:
        found, partial = exc.facets, True
    facets = sorted({normalize_face(f.f, f.b) for f in found})
    result = ConstraintSystem.from_rows(facets, bundle.scenario.d, names)
    # one comment line each: the spec's whitespace, line breaks included, is folded
    header = [f"scenario: {' '.join(args.spec.split())}", f"method: {args.method}"]
    if partial:
        header.append(f"partial: the budget of {args.budget} ran out before the walk finished")
    sys.stdout.write(render(result, header + [f"{len(facets)} facets"]))
    if golden is None:
        return int(partial)
    report = compare_listings(result, golden, bundle.group)
    print(f"{args.verify}: {report.summary()}", file=sys.stderr)
    return 1 if report.missing or partial else 0


if __name__ == "__main__":
    sys.exit(main())
