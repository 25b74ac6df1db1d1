"""Choquet integration of nonnegative functions on the real line.

The integral is computed from the layer-cake representation: integrate
``alpha -> mu({g >= alpha})`` over ``(0, sup g]``.  A function enters the
engine as a :class:`LevelSetFunction`, i.e. bundled with an oracle that
returns each super-level set as an :class:`IntervalUnion`.

Two things keep the quadrature honest:

* the integration variable is substituted ``alpha = exp(-s)``, since the
  level sets of kernel-type integrands grow logarithmically as
  ``alpha -> 0`` (the substituted integrand is smooth and decays
  exponentially, which adaptive quadrature handles well);
* the domain is split at every level where the super-level set changes
  component structure (level of a knot, of a local extremum, ...), since
  adaptive refinement across such kinks is not trusted.

Level sets of the registered products are closed forms where possible
(constants, decaying exponentials, the deviation ``|t - x|`` against its
own kernel via the two real Lambert W branches) and bracketed root-finding
on the piecewise monotone profile otherwise.  Lambert W is solved here, in
log space: the level enters as ``log(alpha)``, so the deviation's level
sets stay finite down to the smallest positive ``alpha``.

The oracle comes in two forms.  ``level(alpha)`` returns one canonical
:class:`IntervalUnion`; ``levels(alphas)`` answers a whole array of N
levels at once with two endpoint arrays ``(lo, hi)`` of shape
``[pieces, N]``.  Column ``i`` describes the level set at ``alphas[i]`` as
pieces that are pairwise disjoint except at shared endpoints; an empty
piece has ``lo > hi`` (never NaN).  Closed forms evaluate their formulas
on the arrays; root-finding products solve each monotone bracket for all
levels at once.

The two engines are independent of each other.  The adaptive engine
(:func:`choquet_integral_real`) runs ``scipy.quad`` over the scalar oracle
at the fixed tolerances ``QUAD_ABS_TOL``, ``QUAD_REL_TOL`` and ``QUAD_LIMIT``,
whose root-finding uses ``brentq`` (both imported on first use, so that
importing this module loads no scipy); the cross-check engine
(:func:`choquet_integral_real_grid`) applies a fixed Simpson rule of about
``GRID_NODES`` nodes over ``s`` in ``[-log(sup), -log(sup) + GRID_S_SPAN]``
to the batched oracle, whose root-finding is a vectorised bisection.  They
share only the pieces of the layer cake in ``s`` (:func:`_layer_edges`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapabilityError, DivergenceError, QuadratureError
from .functions import FunctionSpec
from .intervals import IntervalUnion, empty_pieces, pieces_where
from .realline import LAPLACE, Kernel, RealCapacity

_ROOT_XTOL = 1e-13
_ROOT_RTOL = 4.0 * np.finfo(float).eps   # brentq's default
GRID_NODES = 4001
GRID_S_SPAN = 60.0
# scipy.quad's absolute and relative tolerance and subinterval limit
QUAD_ABS_TOL = 1e-9
QUAD_REL_TOL = 1e-8
QUAD_LIMIT = 2000


@dataclass(frozen=True)
class LevelSetFunction:
    """A nonnegative function together with its super-level-set oracle.

    ``level_batch`` is the batched form of ``level`` (see :meth:`levels`).
    """

    value: Callable[[float], float]
    level: Callable[[float], IntervalUnion]
    sup_value: float
    level_batch: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    alpha_breakpoints: tuple = ()
    label: str = ""

    def levels(self, alphas) -> tuple[np.ndarray, np.ndarray]:
        """Super-level sets at every positive level of ``alphas`` as endpoint
        arrays ``(lo, hi)`` of shape ``[pieces, N]``; empty pieces have
        ``lo > hi``."""
        alphas = np.asarray(alphas, dtype=float)
        if alphas.ndim != 1:
            raise ValueError("levels takes a 1-d array of levels")
        if not np.all(alphas > 0):
            raise ValueError("level must be positive")
        return self.level_batch(alphas)


def kernel_level_function(kernel: Kernel) -> LevelSetFunction:
    """The bare kernel as a level-set function (sup is 1 at the peak)."""
    return LevelSetFunction(kernel.__call__, kernel.level_set, 1.0,
                            label=f"{kernel.family}-kernel",
                            level_batch=kernel.levels)


def indicator_plateau(height: float, a: float, b: float) -> LevelSetFunction:
    """height * indicator of [a, b]: a single layer of the given height."""
    if height < 0:
        raise ValueError("plateau height must be nonnegative")
    if a > b:
        raise ValueError("plateau needs a <= b")

    def level(alpha: float) -> IntervalUnion:
        if alpha <= 0:
            raise ValueError("level must be positive")
        return IntervalUnion.single(a, b) if alpha <= height else IntervalUnion.empty()

    def levels(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return pieces_where(alphas <= height, a, b)

    return LevelSetFunction(lambda t: height if a <= t <= b else 0.0, level, height,
                            label="plateau", level_batch=levels)


# ---------------------------------------------------------------------------
# products  f(t) * kernel(t)


# Both real branches of Lambert W at z = -exp(L), L <= -1, solve
# w + log(-w) = L (Corless, Gonnet, Hare, Jeffrey & Knuth, "On the Lambert W
# function", 1996).  The callers pass L, never z: z = -2*n*alpha**2
# underflows to -0.0 long before L leaves the float range, and
# W_{-1}(-0) = -inf would make the level set the whole line.
#
# * Near the branch point (p < _BRANCH_P, with p = sqrt(2(1 + e z)) taken
#   from L by expm1) both branches start from the series
#   w = -1 + p - p**2/3 + 11/72 p**3 (with -p for W_{-1}).
# * Away from it W_{-1} starts from the asymptotic L - log(-L) + log(-L)/L and
#   W_0 from the series -q - q**2 - 3/2 q**3 in q = -z = exp(L), which may
#   underflow to 0: the inner radius is then 0 as well.
# * Halley steps in v = w + 1 on v + log1p(-v) = L + 1 finish W_{-1}, and
#   W_0 near the branch point; the terms are of the size of v, so v keeps
#   full relative precision as w -> -1.  W_0 away from the branch point
#   takes the usual steps on w*exp(w) = z, whose residual scales with q.
# Three steps from every start end within 2 ulps of the exact value.
_BRANCH_P = 1.0
_HALLEY_STEPS = 3


def _branch_v(p):
    return p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))


def _halley_v(v, l1, xp):
    for _ in range(_HALLEY_STEPS):
        f = v + xp.log1p(-v) - l1
        v = v + 2.0 * v * (1.0 - v) * f / (2.0 * v * v + f)
    return v


def _halley_w(w, q, xp):
    for _ in range(_HALLEY_STEPS):
        e = xp.exp(w)
        r = w * e + q
        w = w - r / (e * (w + 1.0) - (w + 2.0) * r / (2.0 * w + 2.0))
    return w


def _pair_near(p, L, xp):
    return (_halley_v(_branch_v(p), L + 1.0, xp) - 1.0,
            _halley_v(_branch_v(-p), L + 1.0, xp) - 1.0)


def _pair_far(L, xp):
    q = xp.exp(L)
    l2 = xp.log(-L)
    return (_halley_w(-q * (1.0 + q * (1.0 + 1.5 * q)), q, xp),
            _halley_v(L + 1.0 - l2 + l2 / L, L + 1.0, xp) - 1.0)


def _lambert_pair(L: float) -> tuple[float, float]:
    """``(W_0, W_{-1})`` at ``z = -exp(L)``, from ``math``.

    For ``L >= -1`` (at and, after rounding, past the branch point -1/e)
    both branches are -1.
    """
    if L >= -1.0:
        return -1.0, -1.0
    p = math.sqrt(-2.0 * math.expm1(L + 1.0))
    return _pair_near(p, L, math) if p < _BRANCH_P else _pair_far(L, math)


def _lambert_pairs(L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_lambert_pair` on an array, from numpy."""
    w0 = np.full(L.shape, -1.0)
    wm1 = np.full(L.shape, -1.0)
    p = np.sqrt(-2.0 * np.expm1(np.minimum(L, -1.0) + 1.0))
    near = (L < -1.0) & (p < _BRANCH_P)
    far = p >= _BRANCH_P
    w0[near], wm1[near] = _pair_near(p[near], L[near], np)
    w0[far], wm1[far] = _pair_far(L[far], np)
    return w0, wm1


def _product_exp_neg(spec: FunctionSpec, kernel: Kernel) -> LevelSetFunction:
    lam = spec.param("lam", 1.0)
    scale = spec.param("scale", 1.0)
    n, x = kernel.n, kernel.x

    def value(t: float) -> float:
        return scale * math.exp(-lam * t) * kernel(t)

    if kernel.family == LAPLACE:
        if n <= lam:
            raise DivergenceError(
                f"exp_neg(lam={lam}) against a Laplace kernel needs n > lam, got n={n}")
        sup = scale * math.exp(-lam * x)

        def level(alpha: float) -> IntervalUnion:
            if alpha <= 0:
                raise ValueError("level must be positive")
            if alpha > sup:
                return IntervalUnion.empty()
            la = math.log(alpha / scale)
            lo = (n * x + la) / (n - lam)
            hi = (n * x - la) / (n + lam)
            return IntervalUnion.single(min(lo, hi), max(lo, hi))

        def levels(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            inside = alphas <= sup
            la = np.log(np.minimum(alphas, sup) / scale)
            lo = (n * x + la) / (n - lam)
            hi = (n * x - la) / (n + lam)
            return pieces_where(inside, np.minimum(lo, hi), np.maximum(lo, hi))

    else:
        # exponential times Gaussian always decays; the exponent is a
        # downward parabola with vertex x - lam/(2n)
        sup = scale * math.exp(-lam * x + lam * lam / (4 * n))

        def level(alpha: float) -> IntervalUnion:
            if alpha <= 0:
                raise ValueError("level must be positive")
            if alpha > sup:
                return IntervalUnion.empty()
            la = math.log(alpha / scale)
            disc = max(lam * lam - 4 * n * lam * x - 4 * n * la, 0.0)
            root = math.sqrt(disc)
            lo = ((2 * n * x - lam) - root) / (2 * n)
            hi = ((2 * n * x - lam) + root) / (2 * n)
            return IntervalUnion.single(lo, hi)

        def levels(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            inside = alphas <= sup
            la = np.log(np.minimum(alphas, sup) / scale)
            root = np.sqrt(np.maximum(lam * lam - 4 * n * lam * x - 4 * n * la, 0.0))
            return pieces_where(inside, ((2 * n * x - lam) - root) / (2 * n),
                           ((2 * n * x - lam) + root) / (2 * n))

    return LevelSetFunction(value, level, sup, label=f"exp_neg*{kernel.family}",
                            level_batch=levels)


def _product_abs_dev_centered(kernel: Kernel) -> LevelSetFunction:
    """|t - x| * kernel(t) with the deviation centered at the kernel peak.

    Substituting y = |t - x| the profile is y*exp(-n*y) (or y*exp(-n*y**2)),
    so each super-level set is an annulus around x whose radii come from
    the two real Lambert W branches.
    """
    n, x = kernel.n, kernel.x

    def value(t: float) -> float:
        return abs(t - x) * kernel(t)

    if kernel.family == LAPLACE:
        sup = 1.0 / (n * math.e)
        log_n = math.log(n)

        def radii(alpha: float) -> tuple[float, float]:
            w0, wm1 = _lambert_pair(log_n + math.log(alpha))
            return -w0 / n, -wm1 / n

        def radii_batch(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            w0, wm1 = _lambert_pairs(log_n + np.log(alphas))
            return -w0 / n, -wm1 / n

    else:
        sup = 1.0 / math.sqrt(2.0 * n * math.e)
        log_2n = math.log(2.0 * n)

        def radii(alpha: float) -> tuple[float, float]:
            w0, wm1 = _lambert_pair(log_2n + 2.0 * math.log(alpha))
            return math.sqrt(-w0 / (2 * n)), math.sqrt(-wm1 / (2 * n))

        def radii_batch(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            w0, wm1 = _lambert_pairs(log_2n + 2.0 * np.log(alphas))
            return np.sqrt(-w0 / (2 * n)), np.sqrt(-wm1 / (2 * n))

    def level(alpha: float) -> IntervalUnion:
        if alpha <= 0:
            raise ValueError("level must be positive")
        if alpha > sup:
            return IntervalUnion.empty()
        y1, y2 = radii(alpha)
        return IntervalUnion.from_pairs([(x - y2, x - y1), (x + y1, x + y2)])

    def levels(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y1, y2 = radii_batch(np.minimum(alphas, sup))
        return pieces_where(alphas <= sup, np.array([x - y2, x + y1]),
                       np.array([x - y1, x + y2]))

    return LevelSetFunction(value, level, sup, label=f"abs_dev*{kernel.family}",
                            level_batch=levels)


def _linear_pieces(spec: FunctionSpec) -> list[tuple[float, float, float, float]]:
    """(lo, hi, a, b) pieces with f = a + b*t covering the line."""
    if spec.name == "abs_dev":
        c = spec.param("center", 0.0)
        return [(-math.inf, c, c, -1.0), (c, math.inf, -c, 1.0)]
    knots = spec.param("knots")
    ts = [t for t, _ in knots]
    vs = [v for _, v in knots]
    pieces = [(-math.inf, ts[0], vs[0], 0.0)]
    for j in range(len(ts) - 1):
        b = (vs[j + 1] - vs[j]) / (ts[j + 1] - ts[j])
        a = vs[j] - b * ts[j]
        pieces.append((ts[j], ts[j + 1], a, b))
    pieces.append((ts[-1], math.inf, vs[-1], 0.0))
    return pieces


def _linear_stationaries(pieces, kernel: Kernel) -> list[float]:
    """Interior zeros of d/dt[(a + b t) * kernel(t)] for every piece."""
    n, x = kernel.n, kernel.x
    out = []
    for lo, hi, a, b in pieces:
        if kernel.family == LAPLACE:
            # split at the kernel kink; on each side K = exp(s*n*(t-x))
            for plo, phi, s in ((lo, min(hi, x), 1.0), (max(lo, x), hi, -1.0)):
                if plo >= phi or b == 0.0:
                    continue
                t_star = -1.0 / (s * n) - a / b
                if plo < t_star < phi:
                    out.append(t_star)
        else:
            if b == 0.0:
                if lo < x < hi and a != 0.0:
                    out.append(x)
                continue
            # 2nb t^2 + 2n(a - bx) t - (2nax + b) = 0
            coeffs = [2 * n * b, 2 * n * (a - b * x), -(2 * n * a * x + b)]
            for r in np.roots(coeffs):
                if abs(r.imag) < 1e-12 and lo < r.real < hi:
                    out.append(float(r.real))
    return out


def _sqrt_stationaries(shift: float, kernel: Kernel) -> list[float]:
    n, x = kernel.n, kernel.x
    if kernel.family == LAPLACE:
        t_star = 1.0 / (2 * n) - shift
        return [t_star] if t_star > x else []
    # 1 = 4n(t - x)(t + shift)
    coeffs = [4 * n, 4 * n * (shift - x), -(4 * n * x * shift + 1.0)]
    return [float(r.real) for r in np.roots(coeffs)
            if abs(r.imag) < 1e-12 and r.real + shift > 0]


def _expand(g, start: float, alpha: float, step: float) -> float:
    """The first ``start + step * 2**k`` where ``g`` drops below ``alpha``; a
    negative ``step`` searches to the left."""
    for _ in range(200):
        t = start + step
        if g(t) < alpha:
            return t
        step *= 2.0
    side = "left" if step < 0 else "right"
    raise DivergenceError(f"product does not decay to the {side}")


def _bisect(g: Callable[[np.ndarray], np.ndarray], a: float, b: float,
            alphas: np.ndarray, rising: bool) -> np.ndarray:
    """Crossings ``g(t) = alpha`` of a monotone ``g`` on ``[a, b]``, one lane
    per level, by vectorised bisection.

    ``rising`` says whether ``g`` increases on the bracket.  Each lane stops
    on brentq's rule (bracket narrower than ``xtol + rtol * |t|``) and the
    midpoint of its bracket is returned.  The bracket halves every step, so
    ``ceil(log2(width / xtol)) + 2`` steps suffice; a bracket that is not
    finite, a NaN profile value or a lane still open after that many steps
    raises :class:`QuadratureError`.
    """
    width = b - a
    if not (math.isfinite(width) and width >= 0.0):
        raise QuadratureError(f"bisection bracket [{a}, {b}] is not finite",
                              value=math.nan, error_estimate=math.inf)
    lo = np.full(alphas.shape, a)
    hi = np.full(alphas.shape, b)
    steps = math.ceil(math.log2(max(width, _ROOT_XTOL)) - math.log2(_ROOT_XTOL)) + 2
    for _ in range(steps):
        mid = lo + 0.5 * (hi - lo)
        if np.all(hi - lo < _ROOT_XTOL + _ROOT_RTOL * np.abs(mid)):
            return mid
        gm = g(mid)
        if np.isnan(gm).any():
            raise QuadratureError(f"level profile is NaN inside [{a}, {b}]",
                                  value=math.nan, error_estimate=width)
        # the crossing lies left of mid when mid is on the rising side of it
        left = (gm >= alphas) == rising
        lo = np.where(left, lo, mid)
        hi = np.where(left, mid, hi)
    raise QuadratureError(f"bisection on [{a}, {b}] did not converge in {steps} steps",
                          value=math.nan, error_estimate=float(np.max(hi - lo)))


def _generic_product(spec: FunctionSpec, kernel: Kernel) -> LevelSetFunction:
    """Bracketed root-finding on the piecewise monotone product profile."""
    from scipy.optimize import brentq

    f = spec.fn

    def g(t: float) -> float:
        return f(t) * kernel(t)

    if spec.name in ("pw_linear", "abs_dev"):
        pieces = _linear_pieces(spec)
        knots = [p for piece in pieces for p in piece[:2] if math.isfinite(p)]
        stationaries = _linear_stationaries(pieces, kernel)
    elif spec.name == "sqrt":
        shift = spec.param("shift", 0.0)
        knots = [-shift]
        stationaries = _sqrt_stationaries(shift, kernel)
    else:
        raise CapabilityError(
            f"no level-set construction for function family {spec.name!r}")

    pts = sorted(set(knots) | {kernel.x} | set(stationaries))
    vals = [g(p) for p in pts]
    sup = max(vals)
    step0 = max(1.0, 1.0 / kernel.n)

    def level(alpha: float) -> IntervalUnion:
        if alpha <= 0:
            raise ValueError("level must be positive")
        if alpha > sup:
            return IntervalUnion.empty()
        out = []
        open_start = None
        if vals[0] >= alpha:
            lo = _expand(g, pts[0], alpha, -step0)
            open_start = brentq(lambda t: g(t) - alpha, lo, pts[0], xtol=_ROOT_XTOL)
        for j in range(len(pts) - 1):
            inside_next = vals[j + 1] >= alpha
            if open_start is not None and not inside_next:
                c = brentq(lambda t: g(t) - alpha, pts[j], pts[j + 1], xtol=_ROOT_XTOL)
                out.append((open_start, c))
                open_start = None
            elif open_start is None and inside_next:
                open_start = brentq(lambda t: alpha - g(t), pts[j], pts[j + 1],
                                    xtol=_ROOT_XTOL)
        if open_start is not None:
            hi = _expand(g, pts[-1], alpha, step0)
            c = brentq(lambda t: g(t) - alpha, pts[-1], hi, xtol=_ROOT_XTOL)
            out.append((open_start, c))
        return IntervalUnion.from_pairs(out)

    f_array = spec.array_fn

    def g_array(t: np.ndarray) -> np.ndarray:
        return f_array(t) * kernel.values(t)

    def levels(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # one piece per monotone bracket: the left tail, the gaps between
        # consecutive pts, the right tail
        lo, hi = empty_pieces(len(pts) + 1, alphas.size)

        def fill(row: int, a: float, b: float, va: float, vb: float) -> None:
            in_a = va >= alphas
            in_b = vb >= alphas
            lo[row, in_a] = a
            hi[row, in_b] = b
            cross = in_a != in_b
            if cross.any():
                rising = vb > va
                root = _bisect(g_array, a, b, alphas[cross], rising)
                # like brentq, take the bracket end where the profile meets
                # the level exactly (a local maximum at alpha = its value)
                end, v_end = (b, vb) if rising else (a, va)
                root[alphas[cross] == v_end] = end
                (lo if rising else hi)[row, cross] = root

        # the tails decay to 0; one bracket, wide enough for the lowest
        # level that reaches them, serves every level
        if np.any(alphas <= vals[0]):
            start = _expand(g, pts[0], alphas[alphas <= vals[0]].min(), -step0)
            fill(0, start, pts[0], 0.0, vals[0])
        for j in range(len(pts) - 1):
            fill(j + 1, pts[j], pts[j + 1], vals[j], vals[j + 1])
        if np.any(alphas <= vals[-1]):
            end = _expand(g, pts[-1], alphas[alphas <= vals[-1]].min(), step0)
            fill(len(pts), pts[-1], end, vals[-1], 0.0)
        return lo, hi

    alpha_breaks = tuple(sorted(v for v in set(vals) if 0.0 < v < sup))
    return LevelSetFunction(g, level, sup, alpha_breakpoints=alpha_breaks,
                            label=f"{spec.name}*{kernel.family}", level_batch=levels)


def product_level_function(spec: FunctionSpec, kernel: Kernel) -> LevelSetFunction:
    """Level-set function of t -> f(t) * kernel(t) for a registered spec."""
    if not spec.nonneg_real_line:
        raise ValueError(
            f"function {spec.name!r} is not nonnegative on the real line")
    if spec.name == "const":
        c = spec.param("c", 1.0)
        if c == 0.0:
            return LevelSetFunction(lambda t: 0.0, lambda a: IntervalUnion.empty(), 0.0,
                                    level_batch=lambda alphas: empty_pieces(1, alphas.size))

        def level(alpha: float) -> IntervalUnion:
            if alpha <= 0:
                raise ValueError("level must be positive")
            return kernel.level_set(alpha / c)

        return LevelSetFunction(lambda t: c * kernel(t), level, c,
                                label=f"const*{kernel.family}",
                                level_batch=lambda alphas: kernel.levels(alphas / c))
    if spec.name == "exp_neg":
        return _product_exp_neg(spec, kernel)
    if spec.name == "abs_dev" and spec.param("center", 0.0) == kernel.x:
        return _product_abs_dev_centered(kernel)
    return _generic_product(spec, kernel)


# ---------------------------------------------------------------------------
# quadrature


def integrate_adaptive(fn, a: float, b: float) -> tuple[float, float]:
    """Adaptive quadrature of ``fn`` on [a, b] to ``QUAD_ABS_TOL`` or
    ``QUAD_REL_TOL`` in at most ``QUAD_LIMIT`` subintervals.

    Raises :class:`QuadratureError` (carrying the partial value and error
    estimate) instead of silently returning a non-converged result.
    """
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        value, err = quad(fn, a, b, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL,
                          limit=QUAD_LIMIT)
    bad = [w for w in caught if issubclass(w.category, IntegrationWarning)]
    if bad:
        raise QuadratureError(
            f"quadrature did not converge on [{a}, {b}]: {bad[0].message}",
            value=value, error_estimate=err)
    return value, err


def _layer_edges(g: LevelSetFunction, span: float) -> list[float]:
    """Edges of the pieces on which both engines integrate ``g``'s layer
    cake on ``(0, sup]``.  The variable is ``s`` with ``alpha = exp(-s)``
    (the integrand carries the Jacobian ``alpha``); it runs over
    ``[-log(sup), -log(sup) + span]``, split at every level breakpoint."""
    sup = g.sup_value
    s0 = -math.log(sup)
    breaks = sorted(-math.log(b) for b in g.alpha_breakpoints if 0.0 < b < sup)
    return [s0] + breaks + [s0 + span]


def choquet_integral_real_with_error(g: LevelSetFunction,
                                     mu: RealCapacity) -> tuple[float, float]:
    """Layer-cake Choquet integral with the quadrature error estimate."""
    sup = g.sup_value
    if not math.isfinite(sup):
        raise DivergenceError("integrand has an infinite supremum")
    if sup <= 0:
        return 0.0, 0.0

    def integrand(s: float) -> float:
        alpha = math.exp(-s)
        if alpha == 0.0:  # underflow deep in the tail
            return 0.0
        return mu.value(g.level(alpha)) * alpha

    edges = _layer_edges(g, math.inf)
    total = 0.0
    err = 0.0
    for a, b in zip(edges, edges[1:]):
        if a >= b:
            continue
        v, e = integrate_adaptive(integrand, a, b)
        # quad returns (inf, inf) on an infinite tail without a warning
        if not (math.isfinite(v) and math.isfinite(e)):
            raise QuadratureError(f"layer-cake piece [{a}, {b}] is not finite",
                                  value=v, error_estimate=e)
        total += v
        err += e
    return total, err


def choquet_integral_real(g: LevelSetFunction, mu: RealCapacity) -> float:
    return choquet_integral_real_with_error(g, mu)[0]


def choquet_integral_real_grid(g: LevelSetFunction, mu: RealCapacity) -> float:
    """Fixed-grid Simpson evaluation of the same layer-cake integral.

    Deliberately independent of the adaptive path; used as a cross-check
    engine (and by the CLI to report both paths).  Each piece of the
    layer cake takes one batched oracle call (:meth:`LevelSetFunction.levels`)
    and one batched capacity call (:meth:`RealCapacity.values`).  A piece
    whose sum is not finite raises :class:`QuadratureError`, as in the
    adaptive engine.
    """
    sup = g.sup_value
    if sup <= 0:
        return 0.0

    edges = _layer_edges(g, GRID_S_SPAN)
    span = edges[-1] - edges[0]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        if a >= b:
            continue
        m = max(8, int(GRID_NODES * (b - a) / span))
        m += m % 2  # Simpson needs an even cell count
        # smoothstep substitution clusters nodes at both piece ends, where
        # the level-set length can vanish with a square-root profile
        us = np.linspace(0.0, 1.0, m + 1)
        ts = a + (b - a) * (3.0 * us ** 2 - 2.0 * us ** 3)
        dts = (b - a) * 6.0 * us * (1.0 - us)
        # the layer at level 0 (or one underflowed to it) adds nothing
        alphas = np.exp(-ts)
        live = alphas > 0.0
        hs = np.zeros_like(alphas)
        hs[live] = mu.values(*g.levels(alphas[live]))
        with np.errstate(invalid="ignore"):  # an infinite layer at a zero weight
            ys = hs * alphas * dts
        wts = np.ones(m + 1)
        wts[1:-1:2] = 4.0
        wts[2:-1:2] = 2.0
        piece = 1.0 / m / 3.0 * float(wts @ ys)
        if not math.isfinite(piece):
            raise QuadratureError(f"layer-cake piece [{a}, {b}] is not finite",
                                  value=piece, error_estimate=math.inf)
        total += piece
    return total


def kernel_normalizer(kernel: Kernel, mu: RealCapacity) -> float:
    """Choquet integral of the bare kernel (the operator normalizer).

    For a possibility capacity whose own kernel peaks at the same point,
    every nonempty level set contains the peak, so the integrand is 1 on
    (0, 1] and the normalizer is exactly 1 -- no quadrature involved.
    """
    if mu.kind == "possibility" and mu.kernel.x == kernel.x:
        return 1.0
    return choquet_integral_real(kernel_level_function(kernel), mu)

