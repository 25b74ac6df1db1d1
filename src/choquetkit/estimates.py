"""Error functionals and convergence diagnostics.

The quantitative estimate bounds the pointwise operator error by
``[1 + T_n(|. - x|)(x) / delta] * omega1(f; delta)`` where ``omega1`` is
the modulus of continuity; ``delta`` defaults to the deviation integral
itself when positive (which balances the bracket to a factor of 2) and
to ``1/n`` otherwise.

Moduli are evaluated on an explicit compact window.  For the specs whose
shape pins down where the supremum is attained (constants, Lipschitz
ramps, concave or convex monotone rules) the value is analytic; otherwise
a pair-sup over ``MODULUS_GRID`` equispaced points is used, which is a
certified lower approximation reported with a refinement delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .capacity import EXACT_TOL, DiscreteCapacity
from .discrete import choquet_integral, choquet_variance
from .functions import FunctionSpec
from .operators import (DEFAULT_PROFILE, PerturbationProfile,
                        bernstein_choquet_capacity)

MODULUS_GRID = 2001


@dataclass(frozen=True)
class ModulusResult:
    value: float
    refinement_delta: float
    method: str  # "analytic" | "grid"


def _modulus_grid(fn: Callable[[float], float], delta: float,
                  window: tuple[float, float], points: int) -> ModulusResult:
    a, b = window

    def grid_sup(num: int) -> float:
        ts = np.linspace(a, b, num)
        vals = np.array([fn(float(t)) for t in ts])
        h = (b - a) / (num - 1)
        max_shift = min(num - 1, int(delta / h))
        best = 0.0
        for k in range(1, max_shift + 1):
            best = max(best, float(np.max(np.abs(vals[k:] - vals[:-k]))))
        return best

    coarse = grid_sup(points)
    fine = grid_sup(2 * points - 1)
    return ModulusResult(max(coarse, fine), abs(fine - coarse), "grid")


def modulus_of_continuity_detailed(spec: FunctionSpec, delta: float,
                                   window: tuple[float, float]) -> ModulusResult:
    if not math.isfinite(delta):
        raise ValueError("modulus step must be finite")
    if delta <= 0:
        raise ValueError("modulus step must be positive")
    a, b = window
    if not a < b:
        raise ValueError("window must have positive length")
    reach = min(delta, b - a)
    name = spec.name

    if name == "const":
        return ModulusResult(0.0, 0.0, "analytic")
    if name == "e1":
        return ModulusResult(reach, 0.0, "analytic")
    if name == "abs_dev":
        c = spec.param("center", 0.0)
        # slope +-1; the longest monotone run inside the window caps the rise
        run = max(min(c, b) - a, b - max(c, a))
        return ModulusResult(min(delta, max(run, 0.0)), 0.0, "analytic")
    if name == "exp_neg":
        lam = spec.param("lam", 1.0)
        scale = spec.param("scale", 1.0)
        # decreasing convex: largest drop at the left edge
        return ModulusResult(scale * (math.exp(-lam * a) - math.exp(-lam * (a + reach))),
                             0.0, "analytic")
    if name == "sqrt":
        shift = spec.param("shift", 0.0)
        lo = a + shift
        hi = b + shift
        if hi <= 0:
            return ModulusResult(0.0, 0.0, "analytic")
        # concave increasing: largest rise starts as far left as possible
        if lo <= 0:
            return ModulusResult(math.sqrt(min(delta, hi)), 0.0, "analytic")
        return ModulusResult(math.sqrt(min(lo + delta, hi)) - math.sqrt(lo),
                             0.0, "analytic")
    if name == "concave_quad" and b <= 1.0:
        # increasing concave on (-inf, 1]: largest rise at the left edge
        fn = spec.fn
        return ModulusResult(fn(a + reach) - fn(a), 0.0, "analytic")
    return _modulus_grid(spec.fn, delta, window, MODULUS_GRID)


def modulus_of_continuity(spec: FunctionSpec, delta: float,
                          window: tuple[float, float]) -> float:
    """omega1(f; delta) over the window (see module docstring)."""
    return modulus_of_continuity_detailed(spec, delta, window).value


def quantitative_bound(tn_phi_x: float, delta: float, omega1: float) -> float:
    """[1 + T_n(phi_x)(x)/delta] * omega1(f; delta)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return (1.0 + tn_phi_x / delta) * omega1


def delta_rule(tn_phi_x: float, n: float) -> float:
    """Step choice for reports: the deviation integral when positive, else 1/n."""
    return tn_phi_x if tn_phi_x > 0 else 1.0 / n


# ---------------------------------------------------------------------------
# Chebyshev inequality


@dataclass(frozen=True)
class ChebyshevResult:
    lhs: float
    rhs: float
    holds: bool


def chebyshev_check(values: Sequence[float], cap: DiscreteCapacity,
                    r: float) -> ChebyshevResult:
    """Capacity of the r-deviation set vs Choquet variance over r**2.

    The left side is evaluated exactly on the deviation subset; the right
    side divides the Choquet variance by r**2.  The inequality holds when
    the left side exceeds the right by at most ``EXACT_TOL``.
    """
    if r <= 0:
        raise ValueError("deviation radius must be positive")
    mean = choquet_integral(values, cap)
    deviation_set = frozenset(i for i, v in enumerate(values) if abs(v - mean) >= r)
    lhs = cap.evaluator(deviation_set)
    rhs = choquet_variance(values, cap) / (r * r)
    return ChebyshevResult(lhs, rhs, lhs <= rhs + EXACT_TOL)


# ---------------------------------------------------------------------------
# constructive-scheme moment diagnostics


@dataclass(frozen=True)
class MomentDiagnostics:
    """Choquet mean and variance of the lattice variable of a scheme."""

    mean: float
    variance: float


@dataclass(frozen=True)
class DiscreteScheme:
    """A family (ground set, capacity, lattice values) indexed by (n, x)."""

    name: str
    capacity_at: Callable[[int, float], DiscreteCapacity]
    values_at: Callable[[int, float], list[float]]


def bernstein_choquet_scheme(profile: PerturbationProfile = DEFAULT_PROFILE) -> DiscreteScheme:
    return DiscreteScheme(
        name="bernstein_choquet",
        capacity_at=lambda n, x: bernstein_choquet_capacity(n, x, profile),
        values_at=lambda n, x: [i / n for i in range(n + 1)])


def scheme_moments(scheme: DiscreteScheme, n: int, x: float) -> MomentDiagnostics:
    """Choquet expectance and variance of Z(n, x); the operator converges
    where the mean tends to x and the variance to zero."""
    cap = scheme.capacity_at(n, x)
    values = scheme.values_at(n, x)
    mean = choquet_integral(values, cap)
    var = choquet_integral([(v - mean) ** 2 for v in values], cap)
    return MomentDiagnostics(mean, var)


# ---------------------------------------------------------------------------
# error tables


CSV_COLUMNS = ("n", "x", "operator_value", "f_x", "abs_error", "bound_value")


def format_float(v: float) -> str:
    return f"{v:.15g}"


@dataclass
class ErrorTable:
    """Rows of (n, x, operator value, f(x), absolute error, bound)."""

    rows: list = field(default_factory=list)

    def add(self, n, x, value, fx, bound=math.nan) -> None:
        self.rows.append((n, float(x), float(value), float(fx),
                          abs(float(value) - float(fx)), float(bound)))

    def max_errors(self) -> dict:
        out: dict = {}
        for n, _x, _v, _f, err, _b in self.rows:
            out[n] = max(out.get(n, 0.0), err)
        return out

    def max_error_decreasing(self) -> bool:
        """Whether the max error strictly decreases along increasing n."""
        errs = [e for _, e in sorted(self.max_errors().items())]
        return all(b < a for a, b in zip(errs, errs[1:]))

    def nondecreasing_error_flags(self) -> list:
        """The (n_prev, n) steps where the max error failed to decrease."""
        items = sorted(self.max_errors().items())
        return [(a_n, b_n) for (a_n, a_e), (b_n, b_e) in zip(items, items[1:])
                if b_e >= a_e]

    def to_csv(self, stream) -> None:
        stream.write(",".join(CSV_COLUMNS) + "\n")
        for n, x, value, fx, err, bound in self.rows:
            stream.write(",".join([
                str(n), format_float(x), format_float(value), format_float(fx),
                format_float(err), format_float(bound)]) + "\n")


def convergence_report(operator: Callable[[int, float], float],
                       f: Callable[[float], float],
                       n_list: Iterable[int],
                       x_grid: Iterable[float],
                       bound: Callable[[int, float], float] | None = None) -> ErrorTable:
    """Evaluate an operator over an (n, x) grid against the target function."""
    table = ErrorTable()
    for n in n_list:
        for x in x_grid:
            value = operator(n, float(x))
            b = bound(n, float(x)) if bound is not None else math.nan
            table.add(n, x, value, f(float(x)), b)
    return table
