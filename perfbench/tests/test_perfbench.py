"""The benchmark's own tests.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import choquetkit as ck
import run
import worker
import workloads
from conftest import BENCH_DIR, ROOT
from tracer import Tracer


def thinned(base, step, skip=()):
    """``base`` restricted to every ``step``-th cell, for quick passes."""

    class Thinned(type(base)):
        def cells(self, fx):
            return [c for c in super().cells(fx)[::step] if c[0] not in skip]

    return Thinned()


# the grid engine's slow integrands are left out of the quick passes
QUICK = {
    "kernel_table": thinned(workloads.WORKLOADS["kernel_table"], 5),
    "grid_crosscheck": thinned(workloads.WORKLOADS["grid_crosscheck"], 3,
                               skip=("abs_dev_off_centre", "sqrt", "pw_linear")),
    "bernstein_table": workloads.WORKLOADS["bernstein_table"],
    "capacity_verify": thinned(workloads.WORKLOADS["capacity_verify"], 2),
}


def points(workload, fx, seed):
    return workload.make_points(fx, np.random.default_rng(seed))


def outcome(workload, fx, point, span=workloads.no_span):
    try:
        return ("ok", repr(workload.run(fx, point, span)))
    except Exception as exc:
        return ("raised", type(exc).__name__)


@pytest.mark.parametrize("nudge_target, tol", [
    ("bernstein_choquet_closedform", workloads.CLOSED_FORM_TOL),
    ("choquet_integral_layer_cake", workloads.LAYER_CAKE_TOL),
])
def test_result_nudged_past_tolerance_counts_as_failed(monkeypatch, nudge_target, tol):
    workload = workloads.WORKLOADS["bernstein_table"]
    fx = workload.fixtures(3)
    honest = worker.run_phase(workload, fx, points(workload, fx, 3), 0.0, min_rounds=1)
    assert honest[2] == []

    original = getattr(ck, nudge_target)
    monkeypatch.setattr(ck, nudge_target, lambda *a, **k: original(*a, **k) + 1.5 * tol)
    result = worker.run_phase(workload, fx, points(workload, fx, 3), 0.0, min_rounds=1)
    failures = result[2]
    kind = "bernstein" if nudge_target == "bernstein_choquet_closedform" else "discrete"
    expected = {cell for cell in workload.cells(fx) if cell[0] == kind}
    assert {cell for cell, reason in failures if reason == "check"} == expected
    summary = worker.summarize(workload, *result)
    assert summary["failed"] == len(expected) * workload.copies
    assert summary["unexpected_failures"]


def test_raising_point_counts_as_failed(monkeypatch):
    workload = workloads.WORKLOADS["bernstein_table"]
    fx = workload.fixtures(3)

    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(ck, "perturbation_gap", broken)
    failures = worker.run_phase(workload, fx, points(workload, fx, 3), 0.0, min_rounds=1)[2]
    assert {reason for _, reason in failures} == {"ValueError"}
    assert len(failures) == workload.copies * sum(
        1 for c in workload.cells(fx) if c[0] == "bernstein")


@pytest.mark.parametrize("name", sorted(QUICK))
def test_traced_values_equal_untraced(name):
    workload = QUICK[name]
    fx = workload.fixtures(7)
    pts = points(workload, fx, 7)
    plain = [outcome(workload, fx, p) for p in pts]
    originals = (ck.choquet_integral_real, ck.Kernel.__call__, ck.check_properties,
                 ck.IntervalUnion.__dict__["from_pairs"])
    tracer = Tracer()
    tracer.install()
    try:
        traced = [outcome(workload, fx, p, tracer.span) for p in pts]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.spans
    assert (ck.choquet_integral_real, ck.Kernel.__call__, ck.check_properties,
            ck.IntervalUnion.__dict__["from_pairs"]) == originals


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.point = 0
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    inner, outer = tracer.spans
    assert outer[1] == "outer" and inner[4] == outer[0]
    assert math.isclose(outer[6], (outer[3] - outer[2]) - (inner[3] - inner[2]))
    assert outer[7] == 1


@pytest.mark.parametrize("name", sorted(QUICK))
def test_smoke_pass_fails_only_known_cells(name):
    workload = QUICK[name]
    fx = workload.fixtures(11)
    pts = points(workload, fx, 11)
    summary = worker.summarize(workload, *worker.run_phase(workload, fx, pts, 0.0,
                                                           min_rounds=1))
    assert summary["attempts"] == len(pts)
    assert summary["failed"] == sum(workload.known_defect(p.cell) for p in pts)
    assert summary["unexpected_failures"] == []
    metrics = run.end_to_end({"phases": {"untraced": summary}, "peak_rss_mb": 1.0}, [0.5])
    assert all(value > 0 for value, _ in metrics.values())


def test_layer_metrics_cover_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = QUICK["bernstein_table"]
    fx = workload.fixtures(5)
    tracer = Tracer()
    tracer.install()
    try:
        worker.run_phase(workload, fx, points(workload, fx, 5), 0.0, tracer, min_rounds=1)
    finally:
        tracer.uninstall()
    names = set(worker.layer_metrics(tracer, 1)) | {
        "cli.import_total_s", "cli.import_scipy_s", "cli.import_numpy_s",
        "trace.overhead_ratio"}
    assert names == {m["name"] for m in spec["per_layer"]}


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_result_line():
    proc = run_bench(ROOT, "--workload", "bernstein_table", "--seed", "4",
                     "--seconds", "0.2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "points_per_s", "point_p50_ms",
                                      "point_p90_ms", "passed_ratio", "peak_rss_mb"}


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_bench(tmp_path, "--workload", "bernstein_table", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_prints_verdicts(tmp_path, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def records(path, scale):
        with open(path, "w") as fh:
            for seed in range(10):
                metrics = {m["name"]: {"value": (1.0 + 0.01 * (seed % 3)) * scale,
                                       "unit": m["unit"]} for m in spec["end_to_end"]}
                fh.write(json.dumps({"workload": "kernel_table", "trace": 0,
                                     "seed": seed, "metrics": metrics}) + "\n")

    records(tmp_path / "before.jsonl", 1.0)
    records(tmp_path / "after.jsonl", 2.0)
    run.compare(str(tmp_path / "before.jsonl"), str(tmp_path / "after.jsonl"), spec)
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()
             if line.startswith("  ") and not line.strip().startswith("metric")}
    assert lines["points_per_s"].endswith("gain")
    assert lines["point_p50_ms"].endswith("regression")
