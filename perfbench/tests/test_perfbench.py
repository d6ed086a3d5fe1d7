"""Tests of the benchmark itself: tracer coverage, span trees, expected data.

    python3 -m pytest perfbench/tests            # about 30 s
    python3 -m pytest perfbench/tests -m slow    # chm-cca3 reference counts
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Checker, Workload, build_problem, facet_set, load_listing  # noqa: E402


class _NoCheck:
    def check(self, facets):
        return None


@pytest.fixture
def installed():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_tracer_leaves_no_unwrapped_original(installed):
    assert tracing.unwrapped_bindings() == []
    import polyproj.analysis
    import polyproj.geometry
    import polyproj.simplex

    for module in (polyproj.geometry, polyproj.analysis):
        assert module.lp_minimize._span == "lp.lp_minimize"
    assert polyproj.simplex.StandardResult.multipliers._span == "simplex.multipliers"


def test_uninstall_restores_every_original():
    before = tracing.unwrapped_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracing.unwrapped_bindings() == before
    assert len(before) >= len(tracing.TARGETS)


@pytest.mark.parametrize("method", ["fme", "chm"])
def test_smoke_span_tree_is_well_formed(method):
    problem = build_problem(Workload("smoke", "elemental:3", method, "", 10.0), 1)
    elapsed, error, spans = run.traced_once(problem.projector(), _NoCheck(), 10.0)
    assert error is None
    assert elapsed < 1.0
    assert tracing.check_tree(spans) == []
    roots = [s for s in spans if s[3] == -1]
    assert len(roots) == 1
    total = roots[0][2] - roots[0][1]
    assert sum(tracing.self_times(spans)) == pytest.approx(total, rel=1e-6)
    metrics = tracing.layer_metrics(spans)
    assert metrics["lp.exact_lps"] >= 1
    assert metrics[method + "." + method + "_project.self_s"] > 0
    layers = sum(metrics[m + ".self_s"] for m in tracing.MODULES)
    assert layers + metrics["trace.root_self_s"] == pytest.approx(total, rel=1e-6)


def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(w["name"] for w in bench["workloads"]) <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    problem = build_problem(Workload("smoke", "elemental:3", "chm", "", 10.0), 0)
    _, _, spans = run.traced_once(problem.projector(), _NoCheck(), 10.0)
    reported = list(tracing.layer_metrics(spans)) + ["trace.project_s",
                                                     "trace.overhead_frac"]
    assert [m["name"] for m in bench["per_layer"]] == reported
    for m in bench["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])


def test_afi_expected_set_is_what_fme_gives():
    from polyproj.fme import fme_project

    problem = build_problem(WORKLOADS["afi-bell2x2"], 0)
    got = facet_set(fme_project(problem.system(), problem.d).rows)
    assert len(got) == 16
    assert Checker(problem).check(got) is None


def test_cca_expected_set_passes_the_golden_comparison():
    problem = build_problem(WORKLOADS["fme-cca3"], 0)
    expected = load_listing("cca-3.txt", problem.observable).rows
    assert len(expected) == 16
    assert Checker(problem).check(expected) is None
    assert Checker(problem).check(expected[1:]) is not None


def _counts(name, seed=0):
    problem = build_problem(WORKLOADS[name], seed)
    runs = []
    for _ in range(2):
        _, error, spans = run.traced_once(problem.projector(), Checker(problem), 120.0)
        assert error is None
        runs.append(run.counts_of(tracing.layer_metrics(spans)))
    assert runs[0] == runs[1]
    return runs[0]


def test_reference_counts_fme_cca3():
    counts = _counts("fme-cca3")
    assert counts["lp.exact_lps"] == 1
    assert counts["redundancy.float_probes"] == 1397


def test_reference_counts_afi_bell2x2():
    assert _counts("afi-bell2x2")["lp.exact_lps"] == 763


@pytest.mark.slow
def test_reference_counts_chm_cca3():
    assert _counts("chm-cca3")["lp.exact_lps"] == 102


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fme-cca3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_compare_refuses_a_different_backend(tmp_path):
    record = {"machine": {"workload": "fme-cca3", "trace": 0, "mpq": "fractions.Fraction"},
              "result": {"metrics": {"project_s": {"value": 1.0, "unit": "s"}}}}
    other = json.loads(json.dumps(record))
    other["machine"]["mpq"] = "gmpy2.mpq"
    paths = []
    for i, rec in enumerate((record, record, other)):
        paths.append(tmp_path / ("r%d.json" % i))
        paths[-1].write_text(json.dumps(rec))
    script = str(HERE / "compare.py")
    same = subprocess.run([sys.executable, script, str(paths[0]), str(paths[1])],
                          capture_output=True, text=True, timeout=60)
    assert same.returncode == 0
    differ = subprocess.run([sys.executable, script, str(paths[0]), str(paths[2])],
                            capture_output=True, text=True, timeout=60)
    assert differ.returncode == 2
    assert "mpq" in differ.stderr


def test_calibration_loops_give_their_checksums():
    import math

    import calibration

    assert calibration.rational_loop() == calibration.RATIONAL_CHECKSUM
    assert math.isclose(calibration.float_lp_loop(), calibration.LP_CHECKSUM, rel_tol=1e-7)
    assert calibration.loop_seconds() > 0


def test_reference_seconds_scale_by_the_calibration():
    import calibration

    assert run.reference_seconds(2.0, calibration.REF_S) == 2.0
    assert run.reference_seconds(2.0, 0.5 * calibration.REF_S,
                                 1.5 * calibration.REF_S) == 2.0
    assert run.reference_seconds(2.0, 2 * calibration.REF_S) == 1.0
