"""Per-layer metrics computed from a traced phase.

Each metric is ``name -> (value, samples)``.  "per point" figures divide a
total by the traced points; "per call" figures are means over the calls of
that span.  A layer a workload never enters reads 0 with 0 samples.
"""

from __future__ import annotations


def layer_metrics(tracer, points: int) -> dict:
    totals = tracer.totals()
    names = {s[0]: s[1] for s in tracer.spans}

    def calls(name):
        return totals[name][0] if name in totals else 0

    def total(name):
        return totals[name][1] if name in totals else 0.0

    def self_time(name):
        return totals[name][2] if name in totals else 0.0

    def per_point(value):
        return (value / points if points else 0.0, points)

    def mean(name, scale):
        n = calls(name)
        return (total(name) / n * scale if n else 0.0, n)

    def share(spans, test):
        spans = list(spans)
        return (sum(1 for s in spans if test(s)) / len(spans) if spans else 0.0,
                len(spans))

    def spans_named(prefix):
        return [s for s in tracer.spans if s[1] == prefix or s[1].startswith(prefix + ".")]

    grid_calls = calls("continuous.grid")
    grid_oracle = sum(acc[0] for (_, anchor, name), acc in tracer.rollups.items()
                      if name == "continuous.oracle"
                      and names.get(anchor) == "continuous.grid")
    checks = spans_named("capacity.check_properties")
    out = {
        "continuous.oracle_calls_per_point": per_point(calls("continuous.oracle")),
        "continuous.oracle_self_ms_per_point":
            per_point(self_time("continuous.oracle") * 1e3),
        "continuous.quad_self_ms_per_point":
            per_point(self_time("continuous.adaptive") * 1e3),
        "continuous.integrals_per_point":
            per_point(calls("continuous.adaptive") + grid_calls),
        "continuous.normalizer_shortcut_ratio":
            share(spans_named("continuous.kernel_normalizer"), lambda s: s[7] == 0),
        "continuous.product_build_ms_per_point":
            per_point(total("continuous.product_level_function") * 1e3),
        "continuous.adaptive_ms_per_integral": mean("continuous.adaptive", 1e3),
        "continuous.grid_ms_per_integral": mean("continuous.grid", 1e3),
        "continuous.grid_oracle_calls_per_integral":
            (grid_oracle / grid_calls if grid_calls else 0.0, grid_calls),
        "realline.capacity_value_calls_per_point":
            per_point(calls("realline.capacity_value")),
        "realline.capacity_value_self_ms_per_point":
            per_point(self_time("realline.capacity_value") * 1e3),
        "realline.kernel_calls_per_point": per_point(calls("realline.kernel")),
        "realline.kernel_self_ms_per_point":
            per_point(self_time("realline.kernel") * 1e3),
        "intervals.from_pairs_calls_per_point": per_point(calls("intervals.from_pairs")),
        "intervals.from_pairs_self_ms_per_point":
            per_point(self_time("intervals.from_pairs") * 1e3),
        "estimates.bound_ms_per_point": per_point(total("bench.bound") * 1e3),
        "estimates.modulus_ms_per_call": mean("estimates.modulus", 1e3),
        "estimates.modulus_grid_ratio":
            share(spans_named("estimates.modulus_detailed"), lambda s: s[8] == "grid"),
        "estimates.chebyshev_us_per_check": mean("estimates.chebyshev", 1e6),
        "operators.picard_choquet_ms": mean("operators.picard_choquet", 1e3),
        "operators.weierstrass_choquet_ms": mean("operators.weierstrass_choquet", 1e3),
        "operators.picard_classical_ms": mean("operators.picard_classical", 1e3),
        "operators.bernstein_classical_us": mean("operators.bernstein_classical.n64", 1e6),
        "operators.bernstein_choquet_us": mean("operators.bernstein_choquet.n64", 1e6),
        "operators.bernstein_closedform_us": mean("operators.bernstein_closedform.n64", 1e6),
        "operators.basis_capacity_us": mean("operators.basis_capacity.n64", 1e6),
        "discrete.property_suite_ms": mean("discrete.property_suite", 1e3),
        "capacity.tails_self_us": (self_time("capacity.tails") / calls("capacity.tails") * 1e6
                                   if calls("capacity.tails") else 0.0,
                                   calls("capacity.tails")),
        "capacity.evaluator_calls_per_check":
            (calls("capacity.evaluator") / len(checks) if checks else 0.0, len(checks)),
        "capacity.sampled_ratio": share(checks, lambda s: s[8] is True),
    }
    for m in (3, 16, 64):
        out[f"discrete.sorted_us.m{m}"] = mean(f"discrete.sorted.m{m}", 1e6)
        out[f"discrete.layer_cake_us.m{m}"] = mean(f"discrete.layer_cake.m{m}", 1e6)
    for m in (8, 12):
        out[f"capacity.random_build_ms.m{m}"] = mean(f"capacity.random_build.m{m}", 1e3)
    for m in (6, 12):
        out[f"capacity.check_properties_ms.m{m}"] = mean(
            f"capacity.check_properties.m{m}", 1e3)
    return out
