"""In-memory span tracer around choquetkit's public callables.

The tracer patches the package from outside: every module attribute that
is one of the traced functions is replaced by an observing wrapper, so
calls between choquetkit's own modules are seen too.  Wrappers pass the
arguments through and return the result unchanged; ``uninstall`` puts the
originals back.

Two kinds of span are kept:

* *full* spans, one record each: id, name, start, end, parent span, point
  id, self time, number of child spans and an optional note taken from the
  result (for example whether ``check_properties`` sampled);
* *hot* spans -- the level oracle, kernel and capacity evaluations, interval
  construction, discrete tails -- run thousands of times per point, so they
  are rolled up per (point, enclosing full span, name) into call count,
  total time and self time.  They still take part in every parent's self
  time.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import sys
import time
from collections import defaultdict

import choquetkit as ck

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.rollups: dict[tuple, list] = {}
        self.point = -1
        self._frames: list[list] = []   # open spans: [child_time, n_children]
        self._full: list[int] = []      # ids of the open full spans
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name, hot):
        frames = self._frames
        token = (name, hot, frames[-1] if frames else None,
                 self._full[-1] if self._full else None, [0.0, 0])
        frames.append(token[4])
        if not hot:
            self._full.append(self._next_id)
            self._next_id += 1
        return token

    def _close(self, token, start, end, noted=None):
        name, hot, parent, anchor, frame = token
        self._frames.pop()
        duration = end - start
        if parent is not None:
            parent[0] += duration
            parent[1] += 1
        self_time = duration - frame[0]
        if hot:
            acc = self.rollups.get((self.point, anchor, name))
            if acc is None:
                self.rollups[(self.point, anchor, name)] = [1, duration, self_time]
            else:
                acc[0] += 1
                acc[1] += duration
                acc[2] += self_time
        else:
            span_id = self._full.pop()
            self.spans.append((span_id, name, start, end, anchor, self.point,
                               self_time, frame[1], noted))

    def call(self, fn, name, hot, args, kwargs, note=None):
        token = self._open(name, hot)
        noted = None
        start = _now()
        try:
            result = fn(*args, **kwargs)
            if note is not None:
                noted = note(result)
            return result
        finally:
            self._close(token, start, _now(), noted)

    def wrap(self, fn, name, hot=False, label=None, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if label is None else f"{name}.{label(*args)}"
            return tracer.call(fn, span_name, hot, args, kwargs, note)

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A full span around a block of the benchmark's own code."""
        token = self._open(name, False)
        start = _now()
        try:
            yield
        finally:
            self._close(token, start, _now())

    # -- installing ---------------------------------------------------------

    def _replace_everywhere(self, original, wrapped):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "choquetkit" and not mod_name.startswith("choquetkit."):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, original))

    def _patch_method(self, cls, attr, name, static=False, **kw):
        original = cls.__dict__[attr]
        fn = original.__func__ if static else original
        wrapped = self.wrap(fn, name, **kw)
        setattr(cls, attr, staticmethod(wrapped) if static else wrapped)
        self._restore.append((cls, attr, original))

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        by_n = lambda *a: f"n{a[1]}"            # noqa: E731
        by_m = lambda *a: f"m{a[1].size}"       # noqa: E731

        def observe_levels(build):
            def traced_build(*args, **kwargs):
                g = build(*args, **kwargs)
                return dataclasses.replace(
                    g, level=self.wrap(g.level, "continuous.oracle", hot=True))
            return functools.wraps(build)(traced_build)

        def count_evaluator(check):
            def traced_check(cap, *args, **kwargs):
                counted = dataclasses.replace(
                    cap, evaluator=self.wrap(cap.evaluator, "capacity.evaluator", hot=True))
                return check(counted, *args, **kwargs)
            return functools.wraps(check)(traced_check)

        for fn, name in ((ck.product_level_function, "continuous.product_level_function"),
                         (ck.kernel_level_function, "continuous.kernel_level_function")):
            self._replace_everywhere(fn, self.wrap(observe_levels(fn), name))
        self._replace_everywhere(
            ck.check_properties,
            self.wrap(count_evaluator(ck.check_properties), "capacity.check_properties",
                      label=lambda *a: f"m{a[0].size}", note=lambda r: r.sampled))

        plain = [
            (ck.choquet_integral_real_with_error, "continuous.adaptive", {}),
            (ck.choquet_integral_real, "continuous.choquet_integral_real", {}),
            (ck.choquet_integral_real_grid, "continuous.grid", {}),
            (ck.kernel_normalizer, "continuous.kernel_normalizer", {}),
            (ck.picard_choquet, "operators.picard_choquet", {}),
            (ck.weierstrass_choquet, "operators.weierstrass_choquet", {}),
            (ck.picard_classical, "operators.picard_classical", {}),
            (ck.bernstein_classical, "operators.bernstein_classical", {"label": by_n}),
            (ck.bernstein_choquet, "operators.bernstein_choquet", {"label": by_n}),
            (ck.bernstein_choquet_closedform, "operators.bernstein_closedform",
             {"label": by_n}),
            (ck.bernstein_choquet_capacity, "operators.basis_capacity",
             {"label": lambda *a: f"n{a[0]}"}),
            (ck.perturbation_gap, "operators.perturbation_gap", {}),
            (ck.choquet_integral, "discrete.sorted", {"label": by_m, "hot": True}),
            (ck.choquet_integral_layer_cake, "discrete.layer_cake", {"label": by_m}),
            (ck.property_suite, "discrete.property_suite", {}),
            (ck.random_monotone_capacity, "capacity.random_build",
             {"label": lambda *a: f"m{a[1]}"}),
            (ck.dual, "capacity.dual", {}),
            (ck.modulus_of_continuity, "estimates.modulus", {}),
            (ck.modulus_of_continuity_detailed, "estimates.modulus_detailed",
             {"note": lambda r: r.method}),
            (ck.chebyshev_check, "estimates.chebyshev", {}),
        ]
        for fn, name, kw in plain:
            self._replace_everywhere(fn, self.wrap(fn, name, **kw))
        self._patch_method(ck.Kernel, "__call__", "realline.kernel", hot=True)
        self._patch_method(ck.RealCapacity, "value", "realline.capacity_value", hot=True)
        self._patch_method(ck.IntervalUnion, "from_pairs", "intervals.from_pairs",
                           static=True, hot=True)
        self._patch_method(ck.DiscreteCapacity, "tails", "capacity.tails", hot=True)

    def uninstall(self):
        while self._restore:
            obj, key, original = self._restore.pop()
            setattr(obj, key, original)

    # -- output -------------------------------------------------------------

    def write(self, path):
        names = {s[0]: s[1] for s in self.spans}
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent",
                                            "point", "self", "children", "note"],
                                 "rollup_fields": ["point", "parent", "parent_name",
                                                   "name", "calls", "total", "self"]})
                     + "\n")
            for s in self.spans:
                fh.write(json.dumps({"span": s}, separators=(",", ":")) + "\n")
            for (point, anchor, name), (calls, total, self_time) in self.rollups.items():
                fh.write(json.dumps({"rollup": [point, anchor, names.get(anchor), name,
                                                calls, total, self_time]},
                                    separators=(",", ":")) + "\n")

    def totals(self):
        """name -> [calls, total seconds, self seconds] over all spans."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            acc = out[s[1]]
            acc[0] += 1
            acc[1] += s[3] - s[2]
            acc[2] += s[6]
        for (_, _, name), (calls, total, self_time) in self.rollups.items():
            acc = out[name]
            acc[0] += calls
            acc[1] += total
            acc[2] += self_time
        return out
