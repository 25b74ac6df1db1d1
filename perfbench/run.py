"""choquetkit benchmark: one command that runs a workload and prints every metric.

Run from the root of a checkout (choquetkit is imported from ``src``)::

    python3 perfbench/run.py --workload kernel_table --seed 1 --seconds 20 --trace 0

A point is one certified number the way a CLI row produces it (value,
second-engine or reference check, bound column); see workloads.py.  Points
per run: kernel_table 312, grid_crosscheck 72, bernstein_table 1818,
capacity_verify 110.  A run draws its points from ``--seed`` and repeats
them in rounds (at least three) for ``--seconds``, single-threaded in a
fresh interpreter (worker.py), closed loop, one caller.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``:
``setup_s`` (median over five fresh interpreters of start to "choquetkit
imported and fixtures built"), ``points_per_s``, ``point_p50_ms`` and
``point_p90_ms`` over every attempt, ``passed_ratio`` (the complement of
the failed share; failed attempts stay in the latency sample) and
``peak_rss_mb``.  Times are scaled by the speed probe of speed.py, which
takes out the host's contention; wall-clock figures stay in the record.
``--trace 1`` prints the per-layer metrics from a traced run (tracer.py,
layers.py; spans go to ``perfbench/out/``).

Every metric is printed with its unit and sample count, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``correct`` is false
when a point fails outside the known-defect cells of workloads.py.
``--out FILE`` appends the run's full record to a JSON-lines file, and
``--compare BEFORE AFTER`` prints a per-workload before/after table from
two such files, pairing runs by seed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
SETUP_RUNS = 5          # fresh interpreters per run that time the set-up
IMPORT_RUNS = 3         # `-X importtime` children per traced run
DEADLINE_S = 170.0      # the whole run, children included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Children:
    """Starts worker processes and makes sure each one has ended."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.env = child_env(root)
        self.deadline = deadline

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left

    def setup_time(self, worker_args: list[str]) -> float:
        """Seconds from starting a set-up-only worker to its `ready` line,
        scaled by the speed probes taken just before and after."""
        before = speed.probe()
        ready_s, _ = self.worker(worker_args + ["--setup-only"])
        return speed.scale(ready_s, (before + speed.probe()) / 2)

    def worker(self, worker_args: list[str]) -> tuple[float, list[str]]:
        """Run worker.py; return (seconds to its `ready` line, later stdout lines)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), *worker_args],
                                cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                text=True)
        try:
            readable, _, _ = select.select([proc.stdout], [], [], self.remaining())
            line = proc.stdout.readline() if readable else ""
            ready_s = time.perf_counter() - t0
            if line.strip() != "ready":
                raise BenchError(f"worker did not get ready: {line.strip()!r}")
            out, _ = proc.communicate(timeout=self.remaining())
        except (subprocess.TimeoutExpired, BenchError):
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return ready_s, out.splitlines()

    def import_times(self) -> dict:
        """`python -X importtime -c "import choquetkit"` split by package."""
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import choquetkit"],
                              cwd=self.root, env=self.env, capture_output=True, text=True,
                              timeout=self.remaining())
        if proc.returncode != 0:
            raise BenchError(f"import choquetkit failed:\n{proc.stderr[-2000:]}")
        return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> dict:
    """Total (cumulative of choquetkit) and the self time of scipy and numpy modules."""
    out = {"total": 0.0, "scipy": 0.0, "numpy": 0.0}
    for line in text.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:  # the header line
            continue
        name = parts[2].strip()
        if name == "choquetkit":
            out["total"] = cum_us / 1e6
        top = name.split(".")[0]
        if top in ("scipy", "numpy"):
            out[top] += self_us / 1e6
    return out


def git_sha(root: Path) -> str:
    """The checkout's commit, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(result: dict, setup_samples: list[float]) -> dict:
    phase = result["phases"]["untraced"]
    n = phase["attempts"]
    return {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "points_per_s": (phase["points_per_s"], n),
        "point_p50_ms": (phase["point_p50_ms"], n),
        "point_p90_ms": (phase["point_p90_ms"], n),
        "passed_ratio": (1.0 - phase["failed"] / n, n),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
    }


def run(args, root: Path, spec: dict) -> dict:
    if not (root / "src" / "choquetkit" / "__init__.py").is_file():
        raise BenchError(f"no choquetkit sources under {root / 'src'}; "
                         "run from the root of a checkout")
    children = Children(root, time.monotonic() + DEADLINE_S)
    inputs = ["--workload", args.workload, "--seed", str(args.seed)]
    worker_args = inputs + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        imports = [children.import_times() for _ in range(IMPORT_RUNS)]
        spans = BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        _, lines = children.worker(worker_args + ["--spans", str(spans)])
        result = json.loads(lines[-1])
        metrics = dict(result["layers"])
        for key in ("total", "scipy", "numpy"):
            metrics[f"cli.import_{key}_s"] = (
                statistics.median(i[key] for i in imports), len(imports))
        wanted = spec["per_layer"]
    else:
        setup = [children.setup_time(inputs) for _ in range(SETUP_RUNS)]
        _, lines = children.worker(worker_args)
        result = json.loads(lines[-1])
        metrics = end_to_end(result, setup)
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {names}")
    phases = result["phases"].values()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "points": result["points"],
        "stamp": {**result["stamp"], "git_sha": git_sha(root), "nproc": os.cpu_count()},
        "correct": not any(p["unexpected_failures"] for p in phases),
        "attempted": sum(p["attempts"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "failed_cells": {k: v for p in phases for k, v in p["failed_cells"].items()},
        "unexpected_failures": sorted({u for p in phases for u in p["unexpected_failures"]}),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"],
                                "samples": metrics[m["name"]][1]} for m in wanted},
    }


def report(record: dict) -> None:
    s = record["stamp"]
    print(f"# workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print(f"# python {s['python']}  numpy {s['numpy']}  scipy {s['scipy']}  "
          f"git {s['git_sha']}  nproc {s['nproc']}")
    print(f"# points {record['points']} x rounds: attempted {record['attempted']}, "
          f"failed {record['failed']}")
    for cell, count in sorted(record["failed_cells"].items()):
        print(f"#   failed {count:5d} x {cell}")
    for cell in record["unexpected_failures"]:
        print(f"#   UNEXPECTED failure: {cell}")
    for name, m in record["metrics"].items():
        print(f"{name:45s} {m['value']:14.6g} {m['unit']:6s} (n={m['samples']})")
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()}}))


# ---------------------------------------------------------------------------
# compare


def load_records(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def verdict(before, after, better, bound):
    """A gain needs at least ten pairs, wins in 9/10 of them (ties count for
    neither side) and a median shift larger than the quartile spread of the
    parent's runs.  A spread wider than the bound leaves the metric
    unresolved unless every run of the change beats every parent run."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, a in zip(before, after) if sign * (a - b) > 0)
    med_b, med_a = statistics.median(before), statistics.median(after)
    q1, q3 = quartiles(before)
    spread = q3 - q1
    if len(before) >= 10 and wins >= 0.9 * len(before) and sign * (med_a - med_b) > spread:
        return wins, "gain"
    if bound is None:
        return wins, "-"
    if med_b and spread / abs(med_b) > bound and not (
            min(sign * a for a in after) > max(sign * b for b in before)):
        return wins, "unresolved"
    if sign * (med_b - med_a) > bound * abs(med_b):
        return wins, "regression"
    return wins, "within bound"


def summary(values) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def compare(before_path: str, after_path: str, spec: dict) -> None:
    metric_info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = load_records(before_path), load_records(after_path)
    groups = sorted({(r["workload"], r["trace"]) for r in before + after})
    for workload, trace in groups:
        b_runs = {r["seed"]: r for r in before if (r["workload"], r["trace"]) == (workload, trace)}
        a_runs = {r["seed"]: r for r in after if (r["workload"], r["trace"]) == (workload, trace)}
        seeds = sorted(set(b_runs) & set(a_runs))
        print(f"\n{workload} (trace={trace}): {len(b_runs)} before, {len(a_runs)} after, "
              f"{len(seeds)} paired by seed")
        if not seeds:
            continue
        print(f"  {'metric':42s} {'unit':6s} {'before median [q1, q3]':>32s} "
              f"{'after median [q1, q3]':>32s} {'wins':>6s}  verdict")
        for name, info in metric_info.items():
            if name not in b_runs[seeds[0]]["metrics"]:
                continue
            bv = [b_runs[s]["metrics"][name]["value"] for s in seeds]
            av = [a_runs[s]["metrics"][name]["value"] for s in seeds]
            wins, word = verdict(bv, av, info["better"], info.get("bound"))
            print(f"  {name:42s} {info['unit']:6s} {summary(bv):>32s} {summary(av):>32s} "
                  f"{wins:>3d}/{len(seeds):<2d}  {word}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        if args.compare:
            compare(*args.compare, spec)
            return 0
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        record = run(args, root, spec)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
