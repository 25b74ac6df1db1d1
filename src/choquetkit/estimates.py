"""Error functionals and convergence diagnostics.

The quantitative estimate bounds the pointwise operator error by
``[1 + T_n(|. - x|)(x) / delta] * omega1(f; delta)`` where ``omega1`` is
the modulus of continuity; ``delta`` defaults to the deviation integral
itself when positive (which balances the bracket to a factor of 2) and
to ``1/n`` otherwise.

Moduli are exact, on an explicit compact window, for every registered
spec, so the bound is a true upper bound.  Constants, Lipschitz ramps and
the monotone concave or convex rules have closed forms; ``concave_quad``
is a max over the window ends and the turning points of ``f(t + h) - f(t)``,
and ``pw_linear`` a max over the vertices of the cells on which that
difference is linear.  Any other family raises :class:`CapabilityError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .capacity import EXACT_TOL, DiscreteCapacity
from .discrete import choquet_integral, choquet_variance
from .errors import CapabilityError
from .functions import FunctionSpec


@dataclass(frozen=True)
class ModulusResult:
    value: float
    method: str  # always "analytic"; the benchmark tracer reads it


def _pw_linear_modulus(knots, reach: float, a: float, b: float) -> float:
    """omega1 of the interpolant through ``knots`` on [a, b] up to ``reach``.

    On the domain ``a <= t``, ``t + h <= b``, ``0 <= h <= reach`` the
    difference ``f(t + h) - f(t)`` is linear on each cell cut out by the
    lines ``t = knot``, ``t + h = knot`` and ``h = reach``, so its modulus
    peaks at a vertex: ``t`` at a start (``a`` or an inner knot) and
    ``t + h`` at an end (an inner knot or ``b``), or ``h = reach`` with one
    of the two at such a point.  Clipping, not filtering, moves a candidate
    that falls outside the domain onto a vertex, so rounding loses none.
    """
    ts, vs = np.array(knots).T
    inner = ts[(ts > a) & (ts < b)]
    starts = np.concatenate(([a], inner))
    ends = np.concatenate((inner, [b]))
    pair_t = np.repeat(starts, ends.size)
    pair_h = np.clip(np.tile(ends, starts.size) - pair_t, 0.0, reach)
    reach_t = np.clip(np.concatenate((starts, ends - reach)), a, b - reach)
    t = np.concatenate((pair_t, reach_t))
    h = np.concatenate((pair_h, np.full(reach_t.size, reach)))
    return float(np.max(np.abs(np.interp(t + h, ts, vs) - np.interp(t, ts, vs))))


def _concave_quad_modulus(fn, reach: float, a: float, b: float) -> float:
    """omega1 of ``2t - t**2`` on [a, b] up to ``reach``.

    ``f(t + h) - f(t) = h(2 - 2t - h)`` falls as ``t`` grows, so its largest
    rise starts at ``t = a`` and its largest drop ends at ``t + h = b``.  Both
    are concave in ``h``: each peaks at ``h = reach`` or at its turning point,
    ``h = 1 - a`` for the rise and ``h = b - 1`` for the drop.
    """
    hs = [h for h in (reach, 1.0 - a, b - 1.0) if 0.0 < h <= reach]
    return max(max(fn(a + h) - fn(a), fn(b - h) - fn(b)) for h in hs)


def _omega1(spec: FunctionSpec, delta: float, a: float, b: float) -> float:
    reach = min(delta, b - a)
    name = spec.name
    if name == "const":
        return 0.0
    if name == "e1":
        return reach
    if name == "abs_dev":
        c = spec.param("center")
        # slope +-1; the longest monotone run inside the window caps the rise
        run = max(min(c, b) - a, b - max(c, a))
        return min(delta, max(run, 0.0))
    if name == "exp_neg":
        lam = spec.param("lam")
        scale = spec.param("scale")
        # decreasing convex: largest drop at the left edge
        return scale * (math.exp(-lam * a) - math.exp(-lam * (a + reach)))
    if name == "sqrt":
        shift = spec.param("shift")
        lo = a + shift
        hi = b + shift
        if hi <= 0:
            return 0.0
        # concave increasing: largest rise starts as far left as possible
        if lo <= 0:
            return math.sqrt(min(delta, hi))
        return math.sqrt(min(lo + delta, hi)) - math.sqrt(lo)
    if name == "concave_quad":
        return _concave_quad_modulus(spec.fn, reach, a, b)
    if name == "pw_linear":
        return _pw_linear_modulus(spec.param("knots"), reach, a, b)
    raise CapabilityError(f"no modulus of continuity for function family {name!r}")


def modulus_of_continuity_detailed(spec: FunctionSpec, delta: float,
                                   window: tuple[float, float]) -> ModulusResult:
    if not math.isfinite(delta):
        raise ValueError("modulus step must be finite")
    if delta <= 0:
        raise ValueError("modulus step must be positive")
    a, b = window
    if not a < b:
        raise ValueError("window must have positive length")
    return ModulusResult(_omega1(spec, delta, a, b), "analytic")


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
