"""Error functionals and convergence diagnostics.

The quantitative estimate bounds the pointwise operator error by
``[1 + T_n(|. - x|)(x) / delta] * omega1(f; delta)`` where ``omega1`` is
the modulus of continuity; ``delta`` defaults to the deviation integral
itself when positive (which balances the bracket to a factor of 2) and
to ``1/n`` otherwise.

Moduli are exact, on an explicit compact window, for every registered
spec, so the bound is a true upper bound.  One vertex rule serves every
family: ``omega1`` is the largest ``|f(t + h) - f(t)|`` over the vertices
of the cells that the family's breakpoints cut out of the ``(t, h)``
domain (:func:`_omega1` states when that is exact).  A spec without
``breakpoints`` raises :class:`CapabilityError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .capacity import EXACT_TOL, DiscreteCapacity
from .discrete import choquet_integral, choquet_variance
from .errors import CapabilityError
from .functions import FunctionSpec


@dataclass(frozen=True)
class ModulusResult:
    value: float
    method: str  # always "analytic"; the benchmark tracer reads it


def _omega1(spec: FunctionSpec, delta: float, a: float, b: float) -> float:
    """omega1 of ``spec`` on [a, b] up to ``reach = min(delta, b - a)``: the
    largest ``|D|``, ``D(t, h) = f(t + h) - f(t)``, over the vertices of the
    cells that the lines ``t = s``, ``t + h = s`` (``s`` a breakpoint or a
    window end) and ``h = reach`` cut out of its domain.  Exact when,
    between breakpoints, f is monotone and ``f'(t + h) - f'(t)`` keeps one
    sign on each cell: then D is monotone along every cell edge (slopes
    ``f'(t + h) - f'(t)``, ``f'(t + h)`` and ``-f'(t)``).  Every registered
    family meets this: linear pieces, sqrt's flat part next to its concave
    part, and the single convex or concave piece of ``exp_neg`` and
    ``concave_quad``.  Clipping, not filtering, moves a candidate that falls
    outside the domain onto a vertex, so rounding loses none.
    """
    if spec.breakpoints is None:
        raise CapabilityError(f"no modulus of continuity for function family {spec.name!r}")
    reach = min(delta, b - a)
    inner = [s for s in spec.breakpoints if a < s < b]
    starts = [a, *inner]
    ends = [*inner, b]
    pairs = [(t, min(max(e - t, 0.0), reach)) for t in starts for e in ends]
    pairs += [(min(max(t, a), b - reach), reach)
              for t in starts + [e - reach for e in ends]]
    f = spec.fn
    return max(abs(f(t + h) - f(t)) for t, h in pairs)


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
