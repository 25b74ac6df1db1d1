"""One workload process: set up, run the timed rounds, report as JSON.

Started by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``.
It prints ``ready`` once choquetkit is imported and the fixtures are built,
then (unless ``--setup-only``) one JSON line with the run's results.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from array import array
from pathlib import Path

import numpy as np
import scipy

import choquetkit as ck
import speed
import workloads
from layers import layer_metrics
from tracer import Tracer

MIN_ROUNDS = 3
# a traced phase starts no new round past this many full spans (~20 MB)
SPAN_LIMIT = 100_000


def run_phase(workload, fx, points, seconds, tracer=None, min_rounds=MIN_ROUNDS):
    """Run the point list in rounds until ``seconds`` have gone by and at
    least ``min_rounds`` rounds are done.

    Returns every attempt's latency scaled by the speed probe (see speed.py)
    and as wall time, every failed attempt as (cell, reason), and the
    elapsed wall time.
    """
    span = tracer.span if tracer is not None else workloads.no_span
    scaled, wall, failures = array("d"), array("d"), []
    rounds, elapsed = 0, 0.0
    probe_s, probed_at = speed.probe(), time.perf_counter()
    while rounds < min_rounds or (
            elapsed < seconds and (tracer is None or len(tracer.spans) < SPAN_LIMIT)):
        t_round = time.perf_counter()
        for i, point in enumerate(points):
            if time.perf_counter() - probed_at >= speed.PROBE_EVERY_S:
                probe_s, probed_at = speed.probe(), time.perf_counter()
            if tracer is not None:
                tracer.point = i
            reason = None
            t0 = time.perf_counter()
            try:
                with span("bench.point"):
                    if not workload.run(fx, point, span).ok:
                        reason = "check"
            except Exception as exc:  # a raising point is a failed point
                reason = type(exc).__name__
            took = time.perf_counter() - t0
            during = probe_s
            if took >= speed.PROBE_EVERY_S:  # the speed may have changed meanwhile
                probe_s, probed_at = speed.probe(), time.perf_counter()
                during = (during + probe_s) / 2
            scaled.append(speed.scale(took, during))
            wall.append(took)
            if reason is not None:
                failures.append((point.cell, reason))
        elapsed += time.perf_counter() - t_round
        rounds += 1
    return scaled, wall, failures, elapsed


def failure_key(cell, reason):
    return f"{'/'.join(map(str, cell))}: {reason}"


def summarize(workload, scaled, wall, failures, elapsed):
    scaled_ms, wall_ms = np.asarray(scaled) * 1e3, np.asarray(wall) * 1e3
    by_cell: dict = {}
    for cell, reason in failures:
        key = failure_key(cell, reason)
        by_cell[key] = by_cell.get(key, 0) + 1
    return {
        "attempts": len(scaled),
        "failed": len(failures),
        "elapsed_s": elapsed,
        "points_per_s": len(scaled) / float(np.sum(scaled)),
        "point_p50_ms": float(np.percentile(scaled_ms, 50)),
        "point_p90_ms": float(np.percentile(scaled_ms, 90)),
        "wall_points_per_s": len(wall) / elapsed,
        "wall_point_p50_ms": float(np.percentile(wall_ms, 50)),
        "wall_point_p90_ms": float(np.percentile(wall_ms, 90)),
        "failed_cells": by_cell,
        "unexpected_failures": sorted({failure_key(cell, reason) for cell, reason in failures
                                       if not workload.known_defect(cell)}),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    fx = workload.fixtures(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    points = workload.make_points(fx, np.random.default_rng([args.seed, 0]))
    result = {
        "workload": args.workload, "seed": args.seed, "points": len(points),
        "stamp": {"python": platform.python_version(), "numpy": np.__version__,
                  "scipy": scipy.__version__,
                  "choquetkit": ck.__file__},
    }
    if args.trace:
        # the same points untraced (for the overhead ratio), then traced
        plain = summarize(workload, *run_phase(workload, fx, points, args.seconds / 2,
                                               min_rounds=1))
        tracer = Tracer()
        tracer.install()
        try:
            traced = summarize(workload, *run_phase(workload, fx, points, args.seconds / 2,
                                                    tracer, min_rounds=1))
        finally:
            tracer.uninstall()
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans)
        result["phases"] = {"untraced": plain, "traced": traced}
        result["layers"] = layer_metrics(tracer, traced["attempts"])
        result["layers"]["trace.overhead_ratio"] = (
            plain["points_per_s"] / traced["points_per_s"], traced["attempts"])
    else:
        result["phases"] = {"untraced": summarize(workload, *run_phase(
            workload, fx, points, args.seconds))}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
