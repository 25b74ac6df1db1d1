"""Registry of test functions the operators and error bounds work with.

Fixed names (used by the CLI and JSON configs): ``exp_neg``, ``const``,
``abs_dev``, ``sqrt``, ``concave_quad``, ``e0``, ``e1``, ``pw_linear``.
Monotonicity metadata refers to the spec's natural domain ([0, 1] for the
polynomial-type specs); ``nonneg_real_line`` marks the specs that are valid
integrands for the real-line operators.  Every factory stores all of its
parameters in ``params`` and rejects a non-numeric or non-finite one with
``ValueError``.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple


@dataclass(frozen=True)
class FunctionSpec:
    name: str
    fn: Callable[[float], float]
    monotone: Optional[str] = None  # "nondecreasing" | "nonincreasing" | None
    nonneg_real_line: bool = False
    params: tuple = field(default=())

    def __call__(self, t: float) -> float:
        return self.fn(t)

    def param(self, key: str):
        return dict(self.params)[key]


def _finite(key: str, value):
    """``value`` itself, if it is a finite real number (not a bool)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return value


def exp_neg(lam: float = 1.0, scale: float = 1.0) -> FunctionSpec:
    """f(t) = scale * exp(-lam * t)."""
    if _finite("lam", lam) <= 0 or _finite("scale", scale) <= 0:
        raise ValueError("exp_neg requires lam > 0 and scale > 0")
    return FunctionSpec(
        "exp_neg", lambda t: scale * math.exp(-lam * t),
        monotone="nonincreasing", nonneg_real_line=True,
        params=(("lam", lam), ("scale", scale)))


def const(c: float = 1.0) -> FunctionSpec:
    _finite("c", c)
    return FunctionSpec("const", lambda t: c, monotone="nondecreasing",
                        nonneg_real_line=c >= 0, params=(("c", c),))


def e0() -> FunctionSpec:
    return const(1.0)


def e1() -> FunctionSpec:
    return FunctionSpec("e1", lambda t: t, monotone="nondecreasing")


def abs_dev(center: float = 0.0) -> FunctionSpec:
    """f(t) = |t - center| (the deviation the quantitative bound integrates)."""
    _finite("center", center)
    return FunctionSpec(
        "abs_dev", lambda t: abs(t - center), nonneg_real_line=True,
        params=(("center", center),))


def sqrt_spec(shift: float = 0.0) -> FunctionSpec:
    """f(t) = sqrt(max(t + shift, 0)); concave and nondecreasing on its support."""
    _finite("shift", shift)
    return FunctionSpec(
        "sqrt", lambda t: math.sqrt(t + shift) if t + shift > 0 else 0.0,
        monotone="nondecreasing", nonneg_real_line=True,
        params=(("shift", shift),))


def concave_quad() -> FunctionSpec:
    """f(t) = 2t - t**2: increasing and strictly concave on [0, 1]."""
    return FunctionSpec("concave_quad", lambda t: 2.0 * t - t * t,
                        monotone="nondecreasing")


def pw_linear(knots: Sequence[Tuple[float, float]]) -> FunctionSpec:
    """Piecewise-linear interpolation through ``knots``; constant beyond the
    first and last knot (keeps the function bounded on the whole line)."""
    pts = sorted((float(_finite("knot", t)), float(_finite("knot", v)))
                 for t, v in knots)
    if len(pts) < 2:
        raise ValueError("pw_linear needs at least two knots")
    ts = [t for t, _ in pts]
    if len(set(ts)) != len(ts):
        raise ValueError("pw_linear knots must have distinct abscissae")
    vs = [v for _, v in pts]
    slopes = [(vs[j + 1] - vs[j]) / (ts[j + 1] - ts[j]) for j in range(len(ts) - 1)]
    if not all(map(math.isfinite, slopes)):
        raise ValueError("pw_linear knots are too close for a finite slope")

    def fn(t: float) -> float:
        if t <= ts[0]:
            return vs[0]
        if t >= ts[-1]:
            return vs[-1]
        j = bisect_right(ts, t) - 1
        # from the nearer knot, with the distance to it taken directly: next
        # to a zero-valued knot the value is one product, good to a few ulp
        left, right = t - ts[j], ts[j + 1] - t
        if left <= right:
            return vs[j] + slopes[j] * left
        return vs[j + 1] - slopes[j] * right

    if all(s >= 0 for s in slopes):
        mono = "nondecreasing"
    elif all(s <= 0 for s in slopes):
        mono = "nonincreasing"
    else:
        mono = None
    return FunctionSpec("pw_linear", fn, monotone=mono,
                        nonneg_real_line=all(v >= 0 for v in vs),
                        params=(("knots", tuple(pts)),))


_FACTORY = {
    "exp_neg": exp_neg,
    "const": const,
    "e0": e0,
    "e1": e1,
    "abs_dev": abs_dev,
    "sqrt": sqrt_spec,
    "concave_quad": concave_quad,
    "pw_linear": pw_linear,
}


def function_spec(name: str, **params) -> FunctionSpec:
    """Build a registered spec by name, e.g. ``function_spec("exp_neg", lam=2)``."""
    try:
        factory = _FACTORY[name]
    except KeyError:
        raise ValueError(f"unknown function spec {name!r}; "
                         f"registered: {sorted(_FACTORY)}") from None
    return factory(**params)


REGISTERED = tuple(sorted(_FACTORY))

# family -> the abscissae where f stops being monotone, smooth or of one
# convexity: the modulus of continuity takes its vertices there (a family
# without an entry has no modulus) and the classical Picard operator splits
# its quadrature there
_BREAKPOINTS = {
    "const": lambda spec: (),
    "e1": lambda spec: (),
    "exp_neg": lambda spec: (),
    "abs_dev": lambda spec: (spec.param("center"),),
    "sqrt": lambda spec: (-spec.param("shift"),),
    "concave_quad": lambda spec: (1.0,),
    "pw_linear": lambda spec: tuple(t for t, _ in spec.param("knots")),
}
