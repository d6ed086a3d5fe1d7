"""Benchmark of polyproj's exact projections (see README.md in this directory).

    python3 perfbench/run.py --workload fme-cca3 --seed 0 --seconds 45 --trace 0

Run from the root of a source tree; polyproj is imported from ``src/`` there
and nowhere else.  One process, closed loop, one client: each projection
starts after the previous one has finished and been checked.

``--trace 0`` prints the end-to-end metrics: ``project_s`` (median time of
one projection), ``setup_s`` (median, over fresh interpreters, of the imports
plus scenario parse and system build) and ``peak_rss_mb``.  Both times are
in reference seconds: each wall time is divided by the wall time of the fixed
calibration in calibration.py, run next to it, and multiplied by
``calibration.REF_S``.  The raw wall times go to ``perfbench/out/``.
``--trace 1`` alternates untraced and traced projections and prints the
per-layer metrics of the traced ones (see tracing.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine and the scalar backend.  Both also go to
``perfbench/out/``, with the spans of a traced run.
"""

import os

# Pin BLAS and OpenMP threads before anything imports numpy.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import calibration
import tracing
from workloads import WORKLOADS, Checker, build_problem

#: fresh interpreters timed for setup_s; the median is reported
SETUP_SAMPLES = 7
#: a whole run ends within this many seconds, whatever --seconds says
RUN_BUDGET_S = 165.0

END_TO_END_UNITS = {"project_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ProjectionTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ProjectionTimeout()


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name == "simplex.tableau_cells":
        return "cells"
    return "count"


def source_fingerprint() -> str:
    """Hash of the polyproj sources and of this benchmark's code."""
    h = hashlib.sha256()
    for path in sorted(list(SRC.rglob("*.py")) + list(HERE.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_record(args, fingerprint: str) -> dict:
    from polyproj import rationals

    mpq = rationals.mpq
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpq": "%s.%s" % (mpq.__module__, mpq.__name__),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": {var: os.environ[var] for var in THREAD_PINS},
        "machine": platform.machine(),
        "calibration_ref_s": calibration.REF_S,
        "source": fingerprint,
    }


def setup_probe(args) -> None:
    """Child mode: time imports plus scenario parse and system build, then a
    calibration right after them."""
    start = time.perf_counter()
    build_problem(WORKLOADS[args.workload], args.seed)
    elapsed = time.perf_counter() - start
    calibration.prepare()
    print(repr(elapsed), repr(calibration.loop_seconds()))


def measure_setup(args) -> list:
    """(wall seconds, calibration seconds) of fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                              check=True, cwd=ROOT)
        samples.append(tuple(float(x) for x in done.stdout.split()[-2:]))
    return samples


def reference_seconds(wall_s: float, *calibration_s: float) -> float:
    """A wall time in reference seconds, by the calibrations next to it."""
    return wall_s * calibration.REF_S / statistics.mean(calibration_s)


def project_once(project, checker, timeout_s, tracer=None):
    """One checked projection: (seconds, error or None)."""
    gc.collect()
    error = None
    facets = None
    signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout_s)
            facets = tracer.root(project) if tracer is not None else project()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ProjectionTimeout:
        error = "timeout after %.1f s" % timeout_s
    except Exception:  # a failed projection is counted, never dropped
        error = traceback.format_exc()
    if error is None:
        error = checker.check(facets)
    return elapsed, error


def traced_once(project, checker, timeout_s):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        elapsed, error = project_once(project, checker, timeout_s, tracer)
    finally:
        tracer.uninstall()
    return elapsed, error, tracer.spans


def counts_of(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if unit_of(k) != "s"}


def check_counts_across_runs(args, fingerprint: str, counts: dict):
    """Counts at one seed and one source must repeat in every run."""
    path = OUT / "counts" / ("%s-seed%d-%s.json" % (args.workload, args.seed,
                                                     fingerprint))
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            diff = sorted(k for k in counts if before.get(k) != counts[k])
            return "per-layer counts differ from an earlier run: %s" % ", ".join(diff)
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    run_start = time.perf_counter()
    if not (SRC / "polyproj" / "__init__.py").is_file():
        print("perfbench: no polyproj sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args)
        return 0

    workload = WORKLOADS[args.workload]
    fingerprint = source_fingerprint()
    setup = measure_setup(args) if not args.trace else []
    problem = build_problem(workload, args.seed)
    import polyproj

    if Path(polyproj.__file__).resolve().parent != SRC / "polyproj":
        print("perfbench: polyproj imported from %s" % polyproj.__file__, file=sys.stderr)
        return 2
    checker = Checker(problem)
    project = problem.projector()
    record = machine_record(args, fingerprint)

    deadline = run_start + RUN_BUDGET_S
    # Warm-up: one checked projection before any timing.  Peak memory is read
    # after it, before the calibration first runs.
    warmup_s, error = project_once(project, checker,
                                   min(workload.timeout_s, deadline - time.perf_counter()))
    errors = [error]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calibration.prepare()

    # wall seconds of each projection, and of each calibration around them
    untraced, traced, layer = [], [], []
    untraced_ref, traced_ref = [], []
    spans_out = []
    measure_start = time.perf_counter()
    calibrations = [calibration.loop_seconds()]
    cycle_s = 0.0
    while True:
        now = time.perf_counter()
        longest = max(untraced + traced + [warmup_s])
        # stop before a cycle that would end past --seconds, so runs end on time
        if untraced and (now + cycle_s - measure_start > args.seconds
                         or now + 1.1 * longest > deadline):
            break
        # a traced run alternates: untraced, then traced
        timeout = min(workload.timeout_s, deadline - now)
        if timeout <= 0:
            break
        elapsed, error = project_once(project, checker, timeout)
        calibrations.append(calibration.loop_seconds())
        untraced.append(elapsed)
        untraced_ref.append(reference_seconds(elapsed, *calibrations[-2:]))
        errors.append(error)
        if args.trace:
            timeout = min(workload.timeout_s, deadline - time.perf_counter())
            if timeout <= 0:
                break
            elapsed, error, spans = traced_once(project, checker, timeout)
            calibrations.append(calibration.loop_seconds())
            traced.append(elapsed)
            traced_ref.append(reference_seconds(elapsed, *calibrations[-2:]))
            errors.append(error)
            if error is None:
                layer.append(tracing.layer_metrics(spans))
                spans_out.append(spans)
        cycle_s = time.perf_counter() - now

    failed = [e for e in errors if e is not None]
    for error in failed:
        print("perfbench: projection failed: %s" % error, file=sys.stderr)
    correct = not failed
    if args.trace:
        if not layer:
            correct = False
            print("perfbench: no traced projection succeeded", file=sys.stderr)
            metrics = {}
        else:
            first = counts_of(layer[0])
            if any(counts_of(m) != first for m in layer[1:]):
                correct = False
                print("perfbench: counts differ between projections of one run",
                      file=sys.stderr)
            problem_counts = check_counts_across_runs(args, fingerprint, first)
            if problem_counts:
                correct = False
                print("perfbench: " + problem_counts, file=sys.stderr)
            metrics = {k: (statistics.median(m[k] for m in layer) if unit_of(k) == "s"
                           else first[k]) for k in layer[0]}
            metrics["trace.project_s"] = statistics.median(traced)
            metrics["trace.overhead_frac"] = (statistics.median(traced_ref)
                                              / statistics.median(untraced_ref) - 1)
    else:
        metrics = {
            "project_s": statistics.median(untraced_ref),
            "setup_s": statistics.median(reference_seconds(*s) for s in setup),
            "peak_rss_mb": peak_rss_mb,
        }

    result = {
        "correct": correct,
        "attempted": len(errors),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (OUT / (stem + ".json")).write_text(json.dumps({
        "machine": record, "result": result,
        "samples": {"warmup_s": warmup_s, "untraced_s": untraced, "traced_s": traced,
                    "calibration_s": calibrations, "setup_s": setup,
                    "untraced_ref_s": untraced_ref, "traced_ref_s": traced_ref},
        "errors": failed,
    }, indent=1))
    if spans_out:
        (OUT / ("spans-%s-seed%d.json" % (args.workload, args.seed))).write_text(
            json.dumps(spans_out))
    print(json.dumps({"machine": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
