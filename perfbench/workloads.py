"""The four benchmark workloads: fixtures, seeded points and their checks.

A *point* is one certified number the way a CLI row produces it: the value,
its reference or second-engine check and, for operators, the bound column.
Every point is checked at the tolerance the test suite pins; a point that
raises or misses its check counts as failed and stays in the latency sample.

A run's points are drawn once from the seed: each of the workload's cells
several times, each time with its own inputs, in a seeded order.  The seed draws the
x jitter, the random capacities and the discrete integrands; choquetkit only
ever receives the generated inputs.  The run repeats that whole list, so the
share of failing cells does not depend on how many rounds fit into it.  All
library calls go through the ``ck`` package namespace so the traced run can
observe them.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import choquetkit as ck

# kernel_table ---------------------------------------------------------------

KERNEL_N = (2, 4, 8, 16)
KERNEL_X = np.linspace(-1.0, 1.5, 6)   # every cell runs at each x, jittered
KERNEL_JITTER = 0.1
# the CLI's bound window: the x grid widened by 1 on both sides
KERNEL_WINDOW = (-2.0, 2.5)
BOUND_SLACK = 1e-6          # criterion 10
EXACT_TOL = 1e-6            # criterion 5

# grid_crosscheck ------------------------------------------------------------

GRID_N = (2, 8)
# Integrands that move with the kernel (the bare kernel, exp_neg, the
# centred deviation) have an x-independent relative error, so they take two
# seeded x per run.  For the others the Simpson grid's error at its default
# 4001 nodes is close to the 1e-6 pin and moves with x, so they stay at one
# fixed x: a seeded x would make the failing cells depend on the seed.
GRID_SHIFTING = ("kernel", "exp_neg", "abs_dev_centred")
GRID_SHIFTING_COPIES = 2
GRID_X = 0.3
GRID_REL, GRID_ABS = 1e-6, 1e-9     # test_grid_engine_agrees

# bernstein_table ------------------------------------------------------------

BERNSTEIN_N = (4, 8, 16, 32, 64)
BERNSTEIN_X = np.linspace(0.0, 1.0, 101)
CLOSED_FORM_TOL = 1e-12     # criterion 6
GAP_SLACK = 1e-15           # criterion 7
LAYER_CAKE_TOL = 1e-9       # criterion 2
DISCRETE_M = (3, 16, 64)

# capacity_verify ------------------------------------------------------------

CAPACITY_M = tuple(range(2, 13))
SUITE_TRIALS = 200          # the CLI's per-suite cap
DUAL_TOL = 1e-12

REAL_CAPACITIES = ("possibility", "sqrt_lebesgue")


def real_capacity(kind: str, n: float, x: float) -> ck.RealCapacity:
    """The CLI's capacity factory: possibility follows the operator's
    (n, x) with a Laplace profile, sqrt_lebesgue is fixed."""
    if kind == "possibility":
        return ck.RealCapacity.possibility(ck.Kernel.laplace(n, x))
    return ck.RealCapacity.sqrt_lebesgue()


def pw_linear_spec() -> ck.FunctionSpec:
    return ck.function_spec("pw_linear", knots=[(-1.0, 1.0), (0.0, 2.0), (1.0, 0.5)])


@dataclass(frozen=True)
class Point:
    cell: tuple
    inputs: tuple


@dataclass
class Outcome:
    values: tuple
    ok: bool


Span = Callable[[str], contextlib.AbstractContextManager]


def no_span(name: str):
    return contextlib.nullcontext()


class Workload:
    name = ""

    def fixtures(self, seed: int) -> dict:
        return {}

    def cells(self, fx: dict) -> list[tuple]:
        raise NotImplementedError

    def inputs(self, fx: dict, cell: tuple, rng: np.random.Generator) -> list[tuple]:
        """The inputs of each of the cell's points in a run."""
        raise NotImplementedError

    def run(self, fx: dict, point: Point, span: Span) -> Outcome:
        raise NotImplementedError

    def known_defect(self, cell: tuple) -> bool:
        """True for the cell families that fail at the seed commit."""
        return False

    def make_points(self, fx: dict, rng: np.random.Generator) -> list[Point]:
        points = [Point(cell, inputs) for cell in self.cells(fx)
                  for inputs in self.inputs(fx, cell, rng)]
        return [points[i] for i in rng.permutation(len(points))]


class KernelTable(Workload):
    """Picard/Gauss-Weierstrass Choquet operator rows with their bound column."""

    name = "kernel_table"

    def fixtures(self, seed):
        return {"specs": {"exp_neg": ck.function_spec("exp_neg"),
                          "sqrt": ck.function_spec("sqrt", shift=3.0),
                          "pw_linear": pw_linear_spec()}}

    def cells(self, fx):
        out = [(op, spec, cap, n)
               for op in ("picard_choquet", "weierstrass_choquet")
               for spec in fx["specs"]
               for cap in REAL_CAPACITIES
               for n in KERNEL_N]
        out += [("picard_classical", "exp_neg", "possibility", n) for n in KERNEL_N]
        return out

    def inputs(self, fx, cell, rng):
        xs = KERNEL_X + rng.uniform(-KERNEL_JITTER, KERNEL_JITTER, size=len(KERNEL_X))
        return [(float(x),) for x in np.clip(xs, KERNEL_X[0], KERNEL_X[-1])]

    def run(self, fx, point, span):
        op_name, spec_name, cap_kind, n = point.cell
        (x,) = point.inputs
        spec = fx["specs"][spec_name]
        mu = real_capacity(cap_kind, n, x)
        if op_name == "picard_classical":
            value = ck.picard_classical(spec.fn, n, x)
            with span("bench.bound"):
                bound = kernel_bound(ck.picard_choquet, spec, n, x, mu)
            closed = math.exp(-x) * n * n / (n * n - 1.0)
            return Outcome((value, bound), abs(value - closed) <= EXACT_TOL)
        op = getattr(ck, op_name)
        value = op(spec, n, x, mu)
        with span("bench.bound"):
            bound = kernel_bound(op, spec, n, x, mu)
        fx_val = spec.fn(x)
        ok = abs(value - fx_val) <= bound + BOUND_SLACK
        if (op_name, spec_name, cap_kind) == ("picard_choquet", "exp_neg", "possibility"):
            ok = ok and abs(value - math.exp(-x)) <= EXACT_TOL
        return Outcome((value, bound), ok)

    def known_defect(self, cell):
        # weierstrass_choquet(abs_dev(center=x), n, x, sqrt_lebesgue) is inf,
        # so the bound is NaN or the modulus grid overflows
        return cell[0] == "weierstrass_choquet" and cell[2] == "sqrt_lebesgue"


def kernel_bound(op, spec, n, x, mu) -> float:
    """The CLI's bound column: deviation integral, delta rule, modulus."""
    tn_phi = op(ck.function_spec("abs_dev", center=x), n, x, mu)
    delta = ck.delta_rule(tn_phi, n)
    omega = ck.modulus_of_continuity(spec, delta, KERNEL_WINDOW)
    return ck.quantitative_bound(tn_phi, delta, omega)


class GridCrosscheck(Workload):
    """One real-line integral by the adaptive and the Simpson-grid engine."""

    name = "grid_crosscheck"
    INTEGRANDS = ("kernel", "exp_neg", "abs_dev_centred", "abs_dev_off_centre",
                  "sqrt", "pw_linear")
    # cells where the grid engine at its default 4001 nodes misses rel 1e-6
    # (exp_neg at every x, the others at x = 0.3); at 64001 nodes it
    # converges to the adaptive value
    GRID_TOLERANCE_MISSES = frozenset({
        ("exp_neg", "gauss", "possibility", 8),
        ("abs_dev_off_centre", "laplace", "possibility", 2),
        ("abs_dev_off_centre", "laplace", "sqrt_lebesgue", 2),
        ("abs_dev_off_centre", "gauss", "sqrt_lebesgue", 2),
        ("abs_dev_off_centre", "gauss", "sqrt_lebesgue", 8),
        ("pw_linear", "gauss", "possibility", 2),
        ("pw_linear", "gauss", "possibility", 8),
        ("pw_linear", "gauss", "sqrt_lebesgue", 2),
        ("pw_linear", "gauss", "sqrt_lebesgue", 8),
    })

    def fixtures(self, seed):
        return {"specs": {"exp_neg": ck.function_spec("exp_neg"),
                          "abs_dev_off_centre": ck.function_spec("abs_dev", center=0.0),
                          "sqrt": ck.function_spec("sqrt", shift=3.0),
                          "pw_linear": pw_linear_spec()}}

    def cells(self, fx):
        return [(g, family, cap, n)
                for g in self.INTEGRANDS
                for family in ("laplace", "gauss")
                for cap in REAL_CAPACITIES
                for n in GRID_N]

    def inputs(self, fx, cell, rng):
        if cell[0] in GRID_SHIFTING:
            return [(float(rng.uniform(KERNEL_X[0], KERNEL_X[-1])),)
                    for _ in range(GRID_SHIFTING_COPIES)]
        return [(GRID_X,)]

    def run(self, fx, point, span):
        name, family, cap_kind, n = point.cell
        (x,) = point.inputs
        kernel = getattr(ck.Kernel, family)(n, x)
        mu = real_capacity(cap_kind, n, x)
        if name == "kernel":
            g = ck.kernel_level_function(kernel)
        elif name == "abs_dev_centred":
            g = ck.product_level_function(ck.function_spec("abs_dev", center=x), kernel)
        else:
            g = ck.product_level_function(fx["specs"][name], kernel)
        adaptive = ck.choquet_integral_real(g, mu)
        grid = ck.choquet_integral_real_grid(g, mu)
        ok = abs(adaptive - grid) <= max(GRID_REL * abs(grid), GRID_ABS)
        return Outcome((adaptive, grid), ok)

    def known_defect(self, cell):
        # the first grid node of the Gaussian centred deviation hits
        # lambertw(-1/e) = nan and the interval constructor raises
        if cell[0] == "abs_dev_centred" and cell[1] == "gauss":
            return True
        return cell in self.GRID_TOLERANCE_MISSES


class BernsteinTable(Workload):
    """Bernstein rows (classical, sorted Choquet path, closed form) interleaved
    with discrete integrals by the sorted and the layer-cake engine."""

    name = "bernstein_table"
    copies = len(BERNSTEIN_X)   # rows run at every x; as many integrands per m

    def fixtures(self, seed):
        rng = np.random.default_rng([seed, 1])
        weights = rng.uniform(0.1, 1.0, size=64)
        return {
            "specs": {"sqrt": ck.function_spec("sqrt"),
                      "exp_neg": ck.function_spec("exp_neg"),
                      "concave_quad": ck.function_spec("concave_quad")},
            "caps": {3: ck.counting_distortion(ck.DistortionFunction.sqrt(), 3),
                     16: ck.random_monotone_capacity(rng, 16),
                     64: ck.distorted_probability(ck.DistortionFunction.sqrt(),
                                                  (weights / weights.sum()).tolist())},
        }

    def cells(self, fx):
        rows = [("bernstein", spec, n) for spec in fx["specs"] for n in BERNSTEIN_N]
        return rows + [("discrete", m) for m in DISCRETE_M]

    def inputs(self, fx, cell, rng):
        if cell[0] == "discrete":
            return [(rng.uniform(0.0, 4.0, size=cell[1]).tolist(),)
                    for _ in range(self.copies)]
        return [(float(x),) for x in BERNSTEIN_X]

    def run(self, fx, point, span):
        if point.cell[0] == "discrete":
            (values,) = point.inputs
            cap = fx["caps"][point.cell[1]]
            a = ck.choquet_integral(values, cap)
            b = ck.choquet_integral_layer_cake(values, cap)
            return Outcome((a, b), abs(a - b) <= LAYER_CAKE_TOL)
        _, spec_name, n = point.cell
        (x,) = point.inputs
        spec = fx["specs"][spec_name]
        classical = ck.bernstein_classical(spec.fn, n, x)
        choquet = ck.bernstein_choquet(spec.fn, n, x)
        closed = ck.bernstein_choquet_closedform(spec, n, x)
        gap = ck.perturbation_gap(n, x)
        # the CLI's bound column for monotone specs
        anchor = 0.0 if spec.monotone == "nondecreasing" else 1.0
        bound = abs(spec.fn(ck.DEFAULT_PROFILE.i0 / n) - spec.fn(anchor)) * 2.0 ** -n
        ok = (abs(choquet - closed) <= CLOSED_FORM_TOL
              and 0.0 <= gap <= 2.0 ** -n + GAP_SLACK)
        return Outcome((classical, choquet, closed, gap, bound), ok)


class CapacityVerify(Workload):
    """One verify-style trial: build a random monotone capacity and verify it."""

    name = "capacity_verify"
    copies = 10

    def cells(self, fx):
        return [("trial", m) for m in CAPACITY_M]

    def inputs(self, fx, cell, rng):
        m = cell[1]
        return [(int(rng.integers(1 << 31)), rng.uniform(-3.0, 3.0, size=m).tolist(),
                 float(rng.uniform(0.05, 3.0))) for _ in range(self.copies)]

    def run(self, fx, point, span):
        m = point.cell[1]
        seed, values, r = point.inputs
        cap = ck.random_monotone_capacity(np.random.default_rng(seed), m)
        report = ck.check_properties(cap)
        ok = (report.monotone and report.normalized
              and (report.subadditive or not report.submodular))
        twice = ck.dual(ck.dual(cap))
        for mask in range(1 << m):
            subset = frozenset(i for i in range(m) if mask >> i & 1)
            if abs(twice.evaluator(subset) - cap.evaluator(subset)) > DUAL_TOL:
                ok = False
                break
        suite = ck.property_suite(cap, trials=SUITE_TRIALS, seed=seed)
        cheb = ck.chebyshev_check(values, cap, r)
        ok = ok and suite.ok and cheb.holds
        return Outcome((report.monotone, report.subadditive, report.submodular,
                        report.sampled, len(suite.violations), cheb.lhs, cheb.rhs), ok)


WORKLOADS = {w.name: w for w in (KernelTable(), GridCrosscheck(),
                                 BernsteinTable(), CapacityVerify())}
