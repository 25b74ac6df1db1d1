"""Registry of test functions the operators and error bounds work with.

Fixed names (used by the CLI and JSON configs): ``exp_neg``, ``const``,
``abs_dev``, ``sqrt``, ``concave_quad``, ``e0``, ``e1``, ``pw_linear``.
Monotonicity metadata refers to the spec's natural domain ([0, 1] for the
polynomial-type specs); ``nonneg_real_line`` marks the specs that are valid
integrands for the real-line operators.  Every factory stores all of its
parameters in ``params`` and rejects a non-numeric or non-finite one with
``ValueError``.

Every registered family's ``fn`` also carries an array form ``fn.array(t)``:
it takes a float ndarray and returns f at every element, bit for bit the
value the scalar ``fn`` gives there (``-0.0`` and NaN included).  Like the
scalar form's float arithmetic it overflows to ``inf`` and meets ``inf - inf``
silently: numpy's overflow and invalid-value warnings are off inside it.  The
scalar form stays a plain function on ``math``, so a scalar call costs what
it did without the array form; a reader that needs f at many points (the
classical Picard quadrature) calls ``fn.array`` where it is present and
``fn`` per element where it is not.  ``exp_neg``'s array form keeps
``math.exp`` per element, since ``np.exp`` can differ from it by an ulp.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np


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


# Python floats overflow and form NaN without a word; numpy would warn
_QUIET = np.errstate(over="ignore", invalid="ignore")


def _with_array(fn: Callable[[float], float],
                array: Callable[[np.ndarray], np.ndarray]) -> Callable[[float], float]:
    """``fn`` itself, with ``array``, run without numpy's overflow and
    invalid-value warnings, attached as its array form ``fn.array``."""
    fn.array = _QUIET(array)
    return fn


def exp_neg(lam: float = 1.0, scale: float = 1.0) -> FunctionSpec:
    """f(t) = scale * exp(-lam * t)."""
    if _finite("lam", lam) <= 0 or _finite("scale", scale) <= 0:
        raise ValueError("exp_neg requires lam > 0 and scale > 0")

    def array(t: np.ndarray) -> np.ndarray:
        # math.exp per element: np.exp can round to the other neighbouring float
        e = np.fromiter(map(math.exp, (-lam * t).ravel().tolist()), float, t.size)
        return scale * e.reshape(t.shape)

    return FunctionSpec(
        "exp_neg", _with_array(lambda t: scale * math.exp(-lam * t), array),
        monotone="nonincreasing", nonneg_real_line=True,
        params=(("lam", lam), ("scale", scale)))


def const(c: float = 1.0) -> FunctionSpec:
    _finite("c", c)
    return FunctionSpec(
        "const", _with_array(lambda t: c, lambda t: np.full(t.shape, c, float)),
        monotone="nondecreasing", nonneg_real_line=c >= 0, params=(("c", c),))


def e0() -> FunctionSpec:
    return const(1.0)


def e1() -> FunctionSpec:
    return FunctionSpec("e1", _with_array(lambda t: t, lambda t: t.astype(float)),
                        monotone="nondecreasing")


def abs_dev(center: float = 0.0) -> FunctionSpec:
    """f(t) = |t - center| (the deviation the quantitative bound integrates)."""
    _finite("center", center)

    def fn(t):  # on a float or an ndarray alike
        return abs(t - center)

    return FunctionSpec(
        "abs_dev", _with_array(fn, fn), nonneg_real_line=True,
        params=(("center", center),))


def sqrt_spec(shift: float = 0.0) -> FunctionSpec:
    """f(t) = sqrt(max(t + shift, 0)); concave and nondecreasing on its support."""
    _finite("shift", shift)

    def array(t: np.ndarray) -> np.ndarray:
        # the scalar form's branch: 0.0 wherever t + shift > 0 fails (-0.0, NaN)
        u = t + shift
        return np.sqrt(u, out=np.zeros(u.shape), where=u > 0.0)

    return FunctionSpec(
        "sqrt", _with_array(lambda t: math.sqrt(t + shift) if t + shift > 0 else 0.0,
                            array),
        monotone="nondecreasing", nonneg_real_line=True, params=(("shift", shift),))


def concave_quad() -> FunctionSpec:
    """f(t) = 2t - t**2: increasing and strictly concave on [0, 1]."""
    def fn(t):  # on a float or an ndarray alike
        return 2.0 * t - t * t

    return FunctionSpec("concave_quad", _with_array(fn, fn), monotone="nondecreasing")


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
        if t != t:   # NaN, which bisect_right would put past the last knot
            return t
        j = bisect_right(ts, t) - 1
        # from the nearer knot, with the distance to it taken directly: next
        # to a zero-valued knot the value is one product, good to a few ulp
        left, right = t - ts[j], ts[j + 1] - t
        if left <= right:
            return vs[j] + slopes[j] * left
        return vs[j + 1] - slopes[j] * right

    knot_t, knot_v, knot_s = np.array(ts), np.array(vs), np.array(slopes)

    def array(t: np.ndarray) -> np.ndarray:
        # fn's rule elementwise: searchsorted(side="right") is bisect_right,
        # and the clip keeps the constant ends out of the interpolation
        inner = np.clip(t, ts[0], ts[-1])
        j = np.minimum(np.searchsorted(knot_t, inner, side="right") - 1, len(ts) - 2)
        left, right = inner - knot_t[j], knot_t[j + 1] - inner
        out = np.where(left <= right, knot_v[j] + knot_s[j] * left,
                       knot_v[j + 1] - knot_s[j] * right)
        return np.where(t <= ts[0], vs[0], np.where(t >= ts[-1], vs[-1], out))

    if all(s >= 0 for s in slopes):
        mono = "nondecreasing"
    elif all(s <= 0 for s in slopes):
        mono = "nonincreasing"
    else:
        mono = None
    return FunctionSpec("pw_linear", _with_array(fn, array), monotone=mono,
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
