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
sets stay finite down to the smallest positive ``alpha``.  W_0 of a
positive argument, also from its log, serves the root-finding products
against a Laplace kernel.

The oracle comes in two forms.  ``level(alpha)`` returns one canonical
:class:`IntervalUnion`; ``levels(alphas)`` answers a whole array of N
levels at once with two endpoint arrays ``(lo, hi)`` of shape
``[pieces, N]``.  Column ``i`` describes the level set at ``alphas[i]`` as
pieces that are pairwise disjoint except at shared endpoints; an empty
piece has ``lo > hi`` (never NaN).  A closed form is one endpoint formula
that serves both forms (:func:`_closed_form`): ``level`` evaluates it with
``math`` on a float, ``levels`` with numpy on the array.  Root-finding
products share one table of monotone brackets, built from one table of
pieces ``f = c |t + d|**p`` (:func:`_log_pieces`), and are solved
separately in each form.  ``level`` runs ``brentq`` on ``f * kernel`` one
level at a time.  ``levels`` solves every bracket for all levels in one
call: against a Laplace kernel each crossing is a Lambert W value
(:func:`_lambert_lanes`), against a Gauss kernel one safeguarded Newton
iteration (:func:`_newton`) runs on the log profile
``log c + p log|t + d| + log K - log alpha``.  brentq stays so that the
two forms check each other: it never sees the pieces or a W.

The two engines are independent of each other.  The double-exponential
engine (:func:`choquet_integral_real_grid`) serves the kernel operators and
their normalizers: tanh-sinh on each finite piece of the layer cake in
``s``, exp-sinh on the tail, all nodes of all pieces through one batched
oracle call whose root-finding is a single Lambert W or Newton solve, and
a step that halves, from ``TS_STEP`` up to ``TS_HALVINGS`` times, only on the
pieces that miss ``QUAD_ABS_TOL``/``QUAD_REL_TOL``.  The adaptive engine
(:func:`choquet_integral_real`) is the check engine: it runs ``scipy.quad``
over the scalar oracle at the same tolerances and ``QUAD_LIMIT``, and its
root-finding uses ``brentq``.  Both are imported on first use, so the
operators, and importing this module, load no scipy.  The engines share
only the pieces of the layer cake in ``s`` (:func:`_layer_edges`).

The kernel moment ``T_n(|. - x|)(x)``, through which the paper states
every quantitative estimate, and the operator normalizer have closed forms
in n alone for the capacities the command line builds
(:func:`kernel_moment`, :func:`kernel_normalizer`): the Laplace kernel
against its own possibility capacity, and Lebesgue length distorted by
the identity or sqrt, one row each of ``_POWER_MOMENTS``.  Every other
pair runs the tanh-sinh engine; the tests hold both engines to each
formula.
"""

from __future__ import annotations

import functools
import math
import types
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapabilityError, DivergenceError, QuadratureError
from .functions import FunctionSpec, abs_dev
from .intervals import IntervalUnion, pieces_where
from .realline import LAPLACE, Kernel, RealCapacity

_ROOT_XTOL = 1e-13
_ROOT_RTOL = 4.0 * np.finfo(float).eps   # brentq's default
# the Newton solver's residual stop |h| <= _ROOT_HTOL (1 + |log alpha|) and
# its cap on passes
_ROOT_HTOL = 8.0 * np.finfo(float).eps
_NEWTON_PASSES = 32
# the Lambert lanes' Newton step is taken where the quadratic term it
# neglects is below half this fraction of it
_STEP_TRUST = 0.1
_TINY = np.finfo(float).tiny
# scipy.quad's absolute and relative tolerance and subinterval limit
QUAD_ABS_TOL = 1e-9
QUAD_REL_TOL = 1e-8
QUAD_LIMIT = 2000
# the double-exponential engine's first step and its most halvings of it
TS_STEP = 1.0 / 16.0
TS_HALVINGS = 10


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


# ``math`` under the numpy names the endpoint formulas use, so that one
# formula evaluates on a float as well as on an array
_MATH = types.SimpleNamespace(**vars(math), minimum=min, maximum=max)


def _closed_form(value: Callable[[float], float], ends, sup: float) -> LevelSetFunction:
    """A level-set function whose level sets come from one endpoint formula.

    ``ends(alpha, xp)`` returns ``(lo_rows, hi_rows)``, the pieces
    ``[lo_rows[j], hi_rows[j]]`` of the level set at ``0 < alpha <= sup``;
    a row is a number or an array shaped like ``alpha``.  ``xp`` is numpy
    for an array of levels and :data:`_MATH` for one float.  Levels above
    ``sup`` give the empty set; the batched oracle evaluates the formula on
    the levels clipped to ``sup`` and empties those columns afterwards.
    """

    def level(alpha: float) -> IntervalUnion:
        if alpha <= 0:
            raise ValueError("level must be positive")
        if alpha > sup:
            return IntervalUnion.empty()
        return IntervalUnion.from_pairs(zip(*ends(alpha, _MATH)))

    def levels(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return pieces_where(alphas <= sup, *ends(np.minimum(alphas, sup), np))

    return LevelSetFunction(value, level, sup, level_batch=levels)


def _kernel_ends(kernel: Kernel, c: float = 1.0):
    """Endpoint formula of ``{c * kernel >= alpha}`` for ``alpha <= c``: the
    interval ``[x - r, x + r]`` with radius ``r = (ln(c) - ln(alpha))/n``,
    its square root for the Gaussian kernel.  The logs are taken apart, so
    a level whose quotient ``alpha / c`` underflows keeps a finite radius."""
    n, x, gauss = kernel.n, kernel.x, kernel.family != LAPLACE
    log_c = math.log(c)

    def ends(alpha, xp):
        r = (log_c - xp.log(alpha)) / n
        if gauss:
            r = xp.sqrt(r)
        return (x - r,), (x + r,)

    return ends


def kernel_level_function(kernel: Kernel) -> LevelSetFunction:
    """The bare kernel as a level-set function (sup is 1 at the peak)."""
    return _closed_form(kernel.__call__, _kernel_ends(kernel), 1.0)


def indicator_plateau(height: float, a: float, b: float) -> LevelSetFunction:
    """height * indicator of [a, b]: a single layer of the given height."""
    if height < 0:
        raise ValueError("plateau height must be nonnegative")
    if a > b:
        raise ValueError("plateau needs a <= b")
    return _closed_form(lambda t: height if a <= t <= b else 0.0,
                        lambda alpha, xp: ((a,), (b,)), height)


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
# Three steps from every start end within 2 ulps of the exact value.  The
# numpy form solves only the branch each lane asks for, its v-form lanes in
# one loop.
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


def _lambert_pair(L: float) -> tuple[float, float]:
    """``(W_0, W_{-1})`` at ``z = -exp(L)``, from ``math``.

    For ``L >= -1`` (at and, after rounding, past the branch point -1/e)
    both branches are -1.
    """
    if L >= -1.0:
        return -1.0, -1.0
    p = math.sqrt(-2.0 * math.expm1(L + 1.0))
    if p < _BRANCH_P:
        return (_halley_v(_branch_v(p), L + 1.0, math) - 1.0,
                _halley_v(_branch_v(-p), L + 1.0, math) - 1.0)
    q = math.exp(L)
    l2 = math.log(-L)
    return (_halley_w(-q * (1.0 + q * (1.0 + 1.5 * q)), q, math),
            _halley_v(L + 1.0 - l2 + l2 / L, L + 1.0, math) - 1.0)


def _lambert_branch(L: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """:func:`_lambert_pair` on an array, from numpy, one branch per lane:
    ``W_0`` where ``upper`` (which broadcasts against ``L``) and ``W_{-1}``
    elsewhere."""
    w = np.full(L.shape, -1.0)
    p = np.sqrt(-2.0 * np.expm1(np.minimum(L, -1.0) + 1.0))
    far = p >= _BRANCH_P
    near = (L < -1.0) & ~far
    v_lanes = near | far & ~upper
    Lv = L[v_lanes]
    l2 = np.log(-Lv)
    start = np.where(near[v_lanes], _branch_v(np.where(upper, p, -p)[v_lanes]),
                     Lv + 1.0 - l2 + l2 / Lv)
    w[v_lanes] = _halley_v(start, Lv + 1.0, np) - 1.0
    w_lanes = far & upper
    q = np.exp(L[w_lanes])
    w[w_lanes] = _halley_w(-q * (1.0 + q * (1.0 + 1.5 * q)), q, np)
    return w


# W_0 at z = exp(L) > 0, for any float L.  Below L = _W0_TINY_L, W_0(z) =
# z - z**2 + ... is z to the last bit.  Above, every lane starts from
# Winitzki's approximation l (1 - log(1 + l)/(2 + l)) with l = log(1 + z)
# taken from L ("Uniform approximations for transcendental functions",
# 2003), within 2% of W_0 for every z > 0.  Halley steps finish it: on
# w + log(w) = L for L >= 0, where w >= 0.56 and the terms stay finite up to
# the largest float, and on w*exp(w) = z below, where log(w) would carry an
# absolute rounding of |L| ulps.
_W0_TINY_L = -40.0


def _lambert_w0(L: np.ndarray) -> np.ndarray:
    """``W_0`` at ``z = exp(L) > 0``, from numpy."""
    w = np.exp(np.minimum(L, _W0_TINY_L))
    mid = L > _W0_TINY_L
    big = L >= 0.0
    small = mid & ~big
    l1 = np.logaddexp(0.0, L[mid])
    w[mid] = l1 * (1.0 - np.log1p(l1) / (2.0 + l1))
    w[small] = _halley_w(w[small], -np.exp(L[small]), np)
    wb, Lb = w[big], L[big]
    for _ in range(_HALLEY_STEPS):
        r = (wb + np.log(wb) - Lb) / (wb + 1.0)
        wb = wb - wb * r / (1.0 + 0.5 * r / (wb + 1.0))
    w[big] = wb
    return w


def _product_exp_neg(spec: FunctionSpec, kernel: Kernel) -> LevelSetFunction:
    lam = spec.param("lam")
    scale = spec.param("scale")
    n, x = kernel.n, kernel.x
    # the logs are taken apart: alpha / scale underflows at the smallest levels
    log_scale = math.log(scale)

    def value(t: float) -> float:
        return scale * math.exp(-lam * t) * kernel(t)

    if kernel.family == LAPLACE:
        if n <= lam:
            raise DivergenceError(
                f"exp_neg(lam={lam}) against a Laplace kernel needs n > lam, got n={n}")
        sup = scale * math.exp(-lam * x)

        def ends(alpha, xp):
            la = xp.log(alpha) - log_scale
            lo = (n * x + la) / (n - lam)
            hi = (n * x - la) / (n + lam)
            return (xp.minimum(lo, hi),), (xp.maximum(lo, hi),)

    else:
        # exponential times Gaussian always decays; the exponent is a
        # downward parabola with vertex x - lam/(2n)
        sup = scale * math.exp(-lam * x + lam * lam / (4 * n))

        def ends(alpha, xp):
            la = xp.log(alpha) - log_scale
            root = xp.sqrt(xp.maximum(lam * lam - 4 * n * lam * x - 4 * n * la, 0.0))
            mid = 2 * n * x - lam  # 2n times the vertex
            return ((mid - root) / (2 * n),), ((mid + root) / (2 * n),)

    return _closed_form(value, ends, sup)


def _product_abs_dev_centered(kernel: Kernel) -> LevelSetFunction:
    """|t - x| * kernel(t) with the deviation centered at the kernel peak.

    Substituting y = |t - x| the profile is y*exp(-n*y) (or y*exp(-n*y**2)),
    so each super-level set is an annulus around x whose radii come from
    the two real Lambert W branches.
    """
    n, x = kernel.n, kernel.x
    gauss = kernel.family != LAPLACE
    # the radii are -W/m, square-rooted for Gauss, with W at
    # L = log(m) + p*log(alpha)
    m, p = (2.0 * n, 2.0) if gauss else (n, 1.0)
    sup = 1.0 / math.sqrt(m * math.e) if gauss else 1.0 / (m * math.e)
    log_m = math.log(m)

    def value(t: float) -> float:
        return abs(t - x) * kernel(t)

    def ends(alpha, xp):
        L = log_m + p * xp.log(alpha)
        w0, wm1 = (_lambert_pair(L) if xp is _MATH
                   else _lambert_branch(np.stack((L, L)), np.array([[True], [False]])))
        y1, y2 = -w0 / m, -wm1 / m
        if gauss:
            y1, y2 = xp.sqrt(y1), xp.sqrt(y2)
        return (x - y2, x + y1), (x - y1, x + y2)

    return _closed_form(value, ends, sup)


def _log_pieces(spec: FunctionSpec) -> tuple[list[float], list[tuple[float, ...]]]:
    """The knots of ``spec`` and the pieces ``(lo, hi, c, p, d)`` between
    them, which cover the line, on which ``f = c |t + d|**p`` with
    ``c >= 0``, so ``f'/f = p/(t + d)``: a linear piece ``a + b t`` is
    ``c = |b|, p = 1, d = a/b``, ``|t - center|`` is ``p = 1, d = -center``
    and ``sqrt(t + shift)`` is ``p = 1/2, d = shift``.  A constant stretch
    is ``p = 0``, with ``d`` putting the zero of ``t + d`` a unit outside it
    so that ``log|t + d|`` stays finite there."""
    if spec.name == "abs_dev":
        c = spec.param("center")
        return [c], [(-math.inf, c, 1.0, 1.0, -c), (c, math.inf, 1.0, 1.0, -c)]
    if spec.name == "sqrt":
        shift = spec.param("shift")
        return [-shift], [(-math.inf, -shift, 0.0, 0.0, shift - 1.0),
                          (-shift, math.inf, 1.0, 0.5, shift)]
    if spec.name == "pw_linear":
        knots = spec.param("knots")
        (first, v_first), (last, v_last) = knots[0], knots[-1]
        pieces = [(-math.inf, first, v_first, 0.0, -first - 1.0)]
        for (t0, v0), (t1, v1) in zip(knots, knots[1:]):
            b = (v1 - v0) / (t1 - t0)
            pieces.append((t0, t1, abs(b), 1.0, (v0 - b * t0) / b) if b != 0.0
                          else (t0, t1, v0, 0.0, 1.0 - t0))
        pieces.append((last, math.inf, v_last, 0.0, 1.0 - last))
        return [t for t, _ in knots], pieces
    raise CapabilityError(f"no level-set construction for function family {spec.name!r}")


def _stationaries(pieces, kernel: Kernel) -> list[float]:
    """Stationary points of ``f * kernel`` strictly inside the pieces of
    :func:`_log_pieces` where ``f`` is not constant: the roots of
    ``p/(t + d) = -(log K)'(t)``.  A constant piece's only extremum, the
    kernel peak, is in every profile's table anyway."""
    n, x = kernel.n, kernel.x
    out = []
    for lo, hi, _, p, d in pieces:
        if p == 0.0:
            continue
        if kernel.family == LAPLACE:
            # -(log K)' is n left of the peak and -n right of it
            roots = [t for t in (-p / n - d,) if t < x] + [t for t in (p / n - d,) if t > x]
        else:
            # p = 2n (t - x)(t + d): t**2 + (d - x) t - (x d + p/(2n)) = 0,
            # whose discriminant ((x + d)/2)**2 + p/(2n) is positive; the
            # root of larger magnitude without cancellation, the other from
            # the product of the two
            h = 0.5 * (x - d)
            big = h + math.copysign(math.sqrt((0.5 * (x + d)) ** 2 + p / (2 * n)), h)
            roots = [big, -(x * d + p / (2 * n)) / big]
        out += [t for t in roots if lo < t < hi]
    return out


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


def _newton(kernel: Kernel, a: np.ndarray, b: np.ndarray, log_alpha: np.ndarray,
            rising: np.ndarray, log_c: np.ndarray, p: np.ndarray,
            d: np.ndarray) -> np.ndarray:
    """Crossings ``f(t) K(t) = alpha`` on ``[a, b]``, one lane per bracket
    and level, by one vectorised safeguarded Newton iteration of all lanes.

    On lane ``i`` the product is monotone, increasing where ``rising`` is
    true, ``f = c |t + d|**p`` with ``log c = log_c[i]`` (a piece of
    :func:`_log_pieces`) and ``K`` is ``kernel``, a Gauss kernel (a Laplace
    kernel's lanes are :func:`_lambert_lanes`).  The solver works on the
    log profile ``h = log c + p log|t + d| + log K(t) - log alpha``, which
    is concave on the bracket: so is each of its terms.  In ``u = t`` on a
    rising lane and ``u = -t`` on a falling one, ``h`` rises from the outer
    end (``h < 0``) to the inner end (``h >= 0``), and every tangent of it
    meets zero at or before the root.  Each pass probes three points of
    every bracket:

    * the tangent root of the bracket end with the shorter Newton step, at
      least half a tolerance inside the bracket: a lower bound, the Newton
      step that never overshoots;
    * the Newton point in ``log|t + d|`` from the outer end, which is exact
      where the log term dominates, next to a zero of ``f`` such as sqrt's
      support start (where ``h = -inf``);
    * the root of the quadratic model at the inner end, which is exact on
      a Gauss constant stretch and starts a near-double root next to a
      stationary inner end;

    the last two at least half a tolerance past the first, so that a
    tangent root within half a tolerance of the root ends the lane.  The
    bracket shrinks to the probes next to the crossing; a probe with
    ``|h| <= _ROOT_HTOL (1 + |log alpha|)`` counts as the root.  The lanes
    stop together on brentq's rule (every bracket narrower than
    ``xtol + rtol * |t|``, or ended on a probe at the root), and each lane
    returns the root of the chord across its final bracket.  A bracket
    that is not finite, a NaN profile value or a lane still open after
    ``_NEWTON_PASSES`` passes raises :class:`QuadratureError` naming the
    bracket of the first such lane.
    """
    width = b - a
    bad = ~(np.isfinite(width) & (width >= 0.0))
    if bad.any():
        i = np.argmax(bad)
        raise QuadratureError(f"root bracket [{a[i]}, {b[i]}] is not finite",
                              value=math.nan, error_estimate=math.inf)
    m = a.size
    sign = np.where(rising, 1.0, -1.0)
    # rows u, h, h' and -h'' of five blocks of m lanes: the outer end, the
    # three probes and the inner end
    state = np.zeros((4, 5 * m))
    u, h, dh, curv = state
    u[:m] = sign * np.where(rising, a, b)
    u[4 * m:] = sign * np.where(rising, b, a)
    lo, hi = u[:m], u[4 * m:]
    n = kernel.n
    dt, xt = sign * d, sign * kernel.x
    const5, p5, dt5, xt5 = (np.concatenate((v,) * 5)
                            for v in (log_c - log_alpha, p, dt, xt))
    res3 = np.concatenate((_ROOT_HTOL * (1.0 + np.abs(log_alpha)),) * 3)

    def evaluate(rows: slice) -> None:
        w = u[rows] + dt5[rows]
        q = u[rows] - xt5[rows]
        pw = p5[rows] / w
        np.add(const5[rows] + p5[rows] * np.log(np.abs(w)), -n * q * q, out=h[rows])
        np.add(pw, -2.0 * n * q, out=dh[rows])
        np.add(pw / w, 2.0 * n, out=curv[rows])

    lanes = np.arange(m)
    probes = slice(m, 4 * m)
    h_lo, h_hi, d_lo, d_hi, c_hi = h[:m], h[4 * m:], dh[:m], dh[4 * m:], curv[4 * m:]
    # a log of 0 at a zero of f; NaN quotients of infinities, which the
    # comparisons and fmin/fmax below pass over
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        evaluate(slice(0, 5 * m))
        for _ in range(_NEWTON_PASSES):
            tol = _ROOT_XTOL + _ROOT_RTOL * np.abs(hi)
            done = (hi - lo < tol) | (h_hi == 0.0)
            if done.all():
                nan = np.isnan(h_lo) | np.isnan(h_hi)
                if nan.any():
                    i = np.argmax(nan)
                    raise QuadratureError(f"level profile is NaN inside [{a[i]}, {b[i]}]",
                                          value=math.nan, error_estimate=float(width[i]))
                # unlike the midpoint, the chord does not lean towards the
                # inner end when a tangent root ended the lane; from
                # h = -inf (a zero of f) it ends at the inner end
                chord = np.fmax(np.fmin(h_lo / (h_lo - h_hi), 1.0), 0.0)
                return sign * (lo + chord * (hi - lo))
            # a finished lane probes inside its bracket without a step
            half = np.where(done, 0.0, 0.5 * tol)
            inner = hi - half
            # both ends' tangent roots are lower bounds; the shorter step
            # carries less rounding (a step across a wide tail can land past
            # the root), and a -inf or a flat end has no step
            step_lo, step_hi = -h_lo / d_lo, h_hi / np.maximum(d_hi, _TINY)
            tangent = np.where(step_lo <= step_hi, lo + step_lo, hi - step_hi)
            u[m:2 * m] = first = np.fmin(np.fmax(tangent, lo + half), inner)
            w = lo + dt
            log_newton = w * np.exp(-h_lo / (w * d_lo)) - dt
            quadratic = hi - 2.0 * h_hi / (d_hi + np.sqrt(d_hi * d_hi + 2.0 * c_hi * h_hi))
            past = first + half
            np.fmin(np.fmax(np.fmin(log_newton, quadratic), past), inner, out=u[2 * m:3 * m])
            np.fmin(np.fmax(np.fmax(log_newton, quadratic), past), inner, out=u[3 * m:4 * m])
            evaluate(probes)
            hp = h[probes]
            hp[np.abs(hp) <= res3] = 0.0
            # the probes rise along the bracket: the new outer end is the
            # last one below the level, the new inner end the one after it
            outer = (hp < 0.0).reshape(3, m).sum(axis=0) * m + lanes
            state[:, :m], state[:, 4 * m:] = state[:, outer], state[:, outer + m]
    open_ = ~done
    i = np.argmax(open_)
    raise QuadratureError(f"root finding on [{a[i]}, {b[i]}] did not converge in "
                          f"{_NEWTON_PASSES} passes", value=math.nan,
                          error_estimate=float(np.max((hi - lo)[open_])))


def _lambert_lanes(kernel: Kernel, a: np.ndarray, b: np.ndarray,
                   log_alpha: np.ndarray, rising: np.ndarray, log_c: np.ndarray,
                   p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The lanes of :func:`_newton` against a Laplace kernel, in closed form.

    A lane's bracket lies on one side ``sigma = sign(t - x)`` of the peak,
    so ``K = exp(-n sigma (t - x))``.  On a constant piece (``p = 0``) the
    crossing is the kernel's own, ``x + sigma (log c - log alpha)/n``.  On a
    power piece ``c |t + d|**p K = alpha`` is ``w exp(w) = z`` in
    ``w = -sigma m (t + d)`` with ``m = n/p``, where ``log|z| = log m +
    (log alpha - log c)/p - sigma m (x + d)`` and ``z`` has the sign of
    ``w``:

    * ``z < 0`` on a bump that peaks at ``w = -1``, a stationary point and
      so a bracket end: the rising side is ``W_0`` right of the kernel peak
      and ``W_{-1}`` left of it, and the falling side the other branch;
    * ``z > 0`` on a stretch where ``f`` and ``K`` fall together, with the
      one root ``W_0``.

    ``t = -sigma w/m - d`` carries the rounding of ``w``, ``eps |t + d|``,
    which is far more than brentq's tolerance on a nearly flat linear
    piece (``|d|`` large).  One Newton step on the log profile ``h`` of
    :func:`_newton` removes it.  The step is taken only where the quadratic
    term it neglects, ``|h h''| / (2 h'**2)``, is below ``_STEP_TRUST / 2``:
    at a level within rounding of a bump's peak, ``w = -1`` puts the start
    on the peak, where ``h`` is rounding and ``h'`` nearly 0, and the step
    would leave for the far end of the bracket.  Every root is clipped to
    its bracket.
    """
    n, x = kernel.n, kernel.x
    mid = a + 0.5 * (b - a)
    sigma = np.where(mid > x, 1.0, -1.0)
    t = np.empty(a.shape)
    flat = p == 0.0
    t[flat] = x + sigma[flat] * (log_c[flat] - log_alpha[flat]) / n
    power = np.flatnonzero(~flat)
    sig, lc, la, pp, dp = (v[power] for v in (sigma, log_c, log_alpha, p, d))
    m = n / pp
    L = np.log(m) + (la - lc) / pp - sig * m * (x + dp)
    w = np.empty(L.shape)
    bump = np.sign(mid[power] + dp) == sig
    w[bump] = _lambert_branch(L[bump], rising[power][bump] == (sig[bump] > 0.0))
    w[~bump] = _lambert_w0(L[~bump])
    tp = -sig * w / m - dp
    # the Newton step h / h' = h (t + d) / slope where t + d is not 0 (a W_0
    # that underflowed) and the step is trusted
    r = tp + dp
    live = np.flatnonzero(r != 0.0)
    r, pl = r[live], pp[live]
    h = lc[live] + pl * np.log(np.abs(r)) - n * sig[live] * (tp[live] - x) - la[live]
    slope = pl - n * sig[live] * r
    trust = np.abs(h) * pl < _STEP_TRUST * slope * slope
    tp[live[trust]] -= h[trust] * r[trust] / slope[trust]
    t[power] = tp
    return np.clip(t, a, b)


def _generic_product(spec: FunctionSpec, kernel: Kernel) -> LevelSetFunction:
    """Bracketed root-finding on the product profile, which is monotone on
    each bracket: the left tail, each gap between consecutive ``pts`` (the
    knots, the kernel peak and the stationary points) and the right tail.

    The scalar oracle solves each crossing by ``brentq`` on ``f * kernel``.
    The batched one hands every crossing of a call to one lane solver:
    :func:`_lambert_lanes` against a Laplace kernel, where the crossings
    are Lambert W values, and :func:`_newton` against a Gauss kernel,
    where they are not.  brentq is kept on purpose: it shares only the
    bracket table with the batched solvers, so the adaptive engine and the
    tests check their formulas independently."""
    knots, pieces = _log_pieces(spec)
    f = spec.fn

    def g(t: float) -> float:
        return f(t) * kernel(t)

    pts = sorted(set(knots) | {kernel.x} | set(_stationaries(pieces, kernel)))
    # the piece of f under each bracket (the left tail, each gap of pts and
    # the right tail) is the one in which the bracket's left end lies
    his = [hi for _, hi, *_ in pieces]
    _, _, c, p, d = map(np.array, zip(*(pieces[bisect_right(his, s)]
                                        for s in [-math.inf] + pts)))
    with np.errstate(divide="ignore"):  # c = 0 left of sqrt's support
        log_c = np.log(c)
    vals = [g(t) for t in pts]
    sup = max(vals)
    step0 = max(1.0, 1.0 / kernel.n)
    # the profile at the bracket ends; the tails decay to 0
    va = [0.0] + vals
    vb = vals + [0.0]

    def brackets(alpha: float) -> tuple[list[float], list[float]]:
        """Bracket ends ``(a, b)`` for every level from ``alpha`` up: a
        tail reaches to where the profile drops below ``alpha``, a tail no
        such level reaches is its point of ``pts``."""
        left = _expand(g, pts[0], alpha, -step0) if vals[0] >= alpha else pts[0]
        right = _expand(g, pts[-1], alpha, step0) if vals[-1] >= alpha else pts[-1]
        return [left] + pts, pts + [right]

    def level(alpha: float) -> IntervalUnion:
        from scipy.optimize import brentq

        if alpha <= 0:
            raise ValueError("level must be positive")
        if alpha > sup:
            return IntervalUnion.empty()
        out = []
        for a, b, ga, gb in zip(*brackets(alpha), va, vb):
            if ga < alpha and gb < alpha:
                continue
            if ga < alpha or gb < alpha:
                c = brentq(lambda t: g(t) - alpha, a, b, xtol=_ROOT_XTOL)
                a, b = (a, c) if ga >= alpha else (c, b)
            # join a piece to the one it continues: from_pairs merging every
            # whole bracket made the adaptive engine ~5% slower
            if out and out[-1][1] == a:
                a = out.pop()[0]
            out.append((a, b))
        return IntervalUnion.from_pairs(out)

    def levels(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a, b = map(np.array, brackets(alphas.min(initial=math.inf)))
        ga, gb = np.array(va), np.array(vb)
        in_a = ga[:, None] >= alphas
        in_b = gb[:, None] >= alphas
        lo = np.where(in_a, a[:, None], math.inf)
        hi = np.where(in_b, b[:, None], -math.inf)
        # every bracket and level whose set ends inside the bracket is one
        # lane of a single solve
        row, col = np.nonzero(in_a != in_b)
        if row.size:
            rising = (gb > ga)[row]
            level = alphas[col]
            # like brentq, take the bracket end where the profile meets the
            # level exactly (a local maximum at alpha = its value)
            root = np.where(rising, b[row], a[row])
            solve = level != np.where(rising, gb[row], ga[row])
            r = row[solve]
            lanes = _lambert_lanes if kernel.family == LAPLACE else _newton
            root[solve] = lanes(kernel, a[r], b[r], np.log(level[solve]), rising[solve],
                                log_c[r], p[r], d[r])
            lo[row[rising], col[rising]] = root[rising]
            hi[row[~rising], col[~rising]] = root[~rising]
        return lo, hi

    alpha_breaks = tuple(sorted(v for v in set(vals) if 0.0 < v < sup))
    return LevelSetFunction(g, level, sup, alpha_breakpoints=alpha_breaks,
                            level_batch=levels)


def product_level_function(spec: FunctionSpec, kernel: Kernel) -> LevelSetFunction:
    """Level-set function of t -> f(t) * kernel(t) for a registered spec."""
    if not spec.nonneg_real_line:
        raise ValueError(
            f"function {spec.name!r} is not nonnegative on the real line")
    if spec.name == "const":
        c = spec.param("c")
        if c == 0.0:  # no level reaches 0: one piece, always empty
            return _closed_form(lambda t: 0.0, lambda a, xp: ((math.inf,), (-math.inf,)), 0.0)
        return _closed_form(lambda t: c * kernel(t), _kernel_ends(kernel, c), c)
    if spec.name == "exp_neg":
        return _product_exp_neg(spec, kernel)
    if spec.name == "abs_dev" and spec.param("center") == kernel.x:
        return _product_abs_dev_centered(kernel)
    return _generic_product(spec, kernel)


# ---------------------------------------------------------------------------
# quadrature


def integrate_adaptive(fn, a: float, b: float) -> tuple[float, float]:
    """Adaptive quadrature of ``fn`` on [a, b] to ``QUAD_ABS_TOL`` or
    ``QUAD_REL_TOL`` in at most ``QUAD_LIMIT`` subintervals.

    Raises :class:`QuadratureError` (carrying the partial value and error
    estimate and quad's own message, which ``full_output`` returns instead
    of warning) rather than silently returning a non-converged result.
    """
    from scipy.integrate import quad

    value, err, _info, *message = quad(fn, a, b, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL,
                                       limit=QUAD_LIMIT, full_output=1)
    if message:
        raise QuadratureError(f"quadrature did not converge on [{a}, {b}]: {message[0]}",
                              value=value, error_estimate=err)
    return value, err


def _layer_edges(g: LevelSetFunction, mu: RealCapacity) -> list[float]:
    """Edges of the pieces on which both engines integrate ``g``'s layer
    cake on ``(0, sup]``.  The variable is ``s`` with ``alpha = exp(-s)``
    (the integrand carries the Jacobian ``alpha``); it runs over
    ``[-log(sup), inf)``, split at every level breakpoint of ``g`` and at
    every level where ``mu``'s formula changes (:meth:`RealCapacity.level_kinks`)."""
    sup = g.sup_value
    levels = set(g.alpha_breakpoints) | set(mu.level_kinks(g.value))
    breaks = sorted(-math.log(b) for b in levels if 0.0 < b < sup)
    return [-math.log(sup)] + breaks + [math.inf]


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

    edges = _layer_edges(g, mu)
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


# Double-exponential rules (Takahasi & Mori, 1974; Mori & Sugihara, 2001):
# the trapezoid rule in t after s = a + (b - a) (1 + tanh(u)) / 2 on a
# finite piece (tanh-sinh) and s = a + exp(u) on the tail (exp-sinh), with
# u = pi/2 sinh(t).  The t ranges end where a node comes within 4e-16 of a
# finite piece's end (relative to its length), within 4e-15 of the tail's
# start, or 80 past it, where the layer has decayed by exp(-80).
_TANH_SINH_T = 3.125
_EXP_SINH_T = (-3.75, 1.75)


@functools.lru_cache(maxsize=None)
def _de_rule(tail: bool, level: int) -> tuple[np.ndarray, ...]:
    """The nodes a pass at step ``TS_STEP / 2**level`` adds, as read-only
    arrays ``(offset, weight, coarse)``.

    Pass 0 takes every multiple ``j h`` of the step in the t range, later
    passes only the odd ones; the weights include the step.  ``coarse``
    marks the even ``j`` of pass 0, the nodes of the rule at step ``2h``.
    On the tail ``offset`` is ``exp(u)``.  On a finite piece it is the
    distance to the nearer end as a fraction of the piece, signed: negative
    when the nearer end is the right one, so that nodes next to either end
    keep full precision.
    """
    h = TS_STEP / 2 ** level
    lo_t, hi_t = _EXP_SINH_T if tail else (-_TANH_SINH_T, _TANH_SINH_T)
    j = np.arange(math.ceil(lo_t / h), math.floor(hi_t / h) + 1)
    if level:
        j = j[j % 2 == 1]
    t = j * h
    u = 0.5 * math.pi * np.sinh(t)
    if tail:
        offset = np.exp(u)
        weight = h * 0.5 * math.pi * np.cosh(t) * offset
    else:
        offset = np.copysign(1.0 / (1.0 + np.exp(2.0 * np.abs(u))), -t)
        weight = h * 0.25 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    coarse = j % 2 == 0
    for arr in (offset, weight, coarse):
        arr.flags.writeable = False
    return offset, weight, coarse


def _de_nodes(a: float, b: float, level: int) -> tuple[np.ndarray, ...]:
    """Nodes ``s``, weights and the coarse mask of one pass on ``[a, b]``."""
    tail = math.isinf(b)
    offset, weight, coarse = _de_rule(tail, level)
    if tail:
        return a + offset, weight, coarse
    width = b - a
    s = np.where(offset >= 0.0, a + width * offset, b + width * offset)
    return s, width * weight, coarse


def _layer_heights(g: LevelSetFunction, mu: RealCapacity, s: np.ndarray) -> np.ndarray:
    """``mu({g >= alpha}) * alpha`` at ``alpha = exp(-s)``, by one batched
    oracle call and one batched capacity call; a level that underflows to 0
    adds nothing."""
    alphas = np.exp(-s)
    live = alphas > 0.0
    ys = np.zeros_like(alphas)
    ys[live] = mu.values(*g.levels(alphas[live])) * alphas[live]
    return ys


def choquet_integral_real_grid(g: LevelSetFunction, mu: RealCapacity) -> float:
    """The same layer-cake integral by double-exponential rules on the
    batched oracle: tanh-sinh on each finite piece of :func:`_layer_edges`,
    exp-sinh on the tail.

    The first pass, at step ``TS_STEP``, evaluates the nodes of every piece
    with one :meth:`LevelSetFunction.levels` and one
    :meth:`RealCapacity.values` call.  A piece passes when the rule at
    step ``h`` and at ``2h`` differ by at most ``QUAD_ABS_TOL`` or
    ``QUAD_REL_TOL`` times its value; each further pass halves ``h`` on
    the pieces that failed, again in one batched call, and evaluates only
    their new nodes.  A piece still failing after ``TS_HALVINGS`` passes,
    or whose sum is not finite, raises :class:`QuadratureError` carrying
    the partial value and the summed estimate.
    """
    sup = g.sup_value
    if not math.isfinite(sup):
        raise DivergenceError("integrand has an infinite supremum")
    if sup <= 0:
        return 0.0
    edges = _layer_edges(g, mu)
    pieces = [(a, b) for a, b in zip(edges, edges[1:]) if a < b]
    values = [0.0] * len(pieces)
    errors = [math.inf] * len(pieces)
    todo = list(range(len(pieces)))
    for level in range(TS_HALVINGS + 1):
        nodes = [_de_nodes(*pieces[i], level) for i in todo]
        ys = _layer_heights(g, mu, np.concatenate([s for s, _, _ in nodes]))
        start = 0
        failing = []
        for i, (s, w, coarse) in zip(todo, nodes):
            y = ys[start:start + s.size]
            start += s.size
            with np.errstate(invalid="ignore", over="ignore"):  # an infinite layer
                added = float(w @ y)
                if level == 0:
                    previous = 2.0 * float(w[coarse] @ y[coarse])  # the rule at 2h
                    values[i] = added
                else:
                    previous = values[i]
                    values[i] = 0.5 * previous + added
            errors[i] = abs(values[i] - previous)
            if not (math.isfinite(values[i]) and math.isfinite(errors[i])):
                a, b = pieces[i]
                raise QuadratureError(f"layer-cake piece [{a}, {b}] is not finite",
                                      value=values[i], error_estimate=errors[i])
            if errors[i] > max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(values[i])):
                failing.append(i)
        todo = failing
        if not todo:
            return math.fsum(values)
    raise QuadratureError(
        f"tanh-sinh rule did not converge on {len(todo)} layer-cake piece(s) "
        f"in {TS_HALVINGS} halvings", value=math.fsum(values),
        error_estimate=math.fsum(errors))


# distortion name -> (p, T_1 Laplace, T_1 Gauss) for gamma(t) = t**p: the
# exponent and the kernel moment T_n(|. - x|)(x) at n = 1 against
# gamma(length); the sqrt moments are 30-digit mpmath values from the
# Lambert W parametrisation of the level sets
_POWER_MOMENTS = {
    "identity": (1.0, 1.0, 1.0 / math.sqrt(math.pi)),
    "sqrt": (0.5, 0.654402534226178633510813469012, 0.494485667875080293795473756008),
}


def _power_moments(mu: RealCapacity):
    """The :data:`_POWER_MOMENTS` row of a distorted Lebesgue capacity, or None."""
    if mu.kind != "distorted_lebesgue":
        return None
    return _POWER_MOMENTS.get(mu.gamma.name)


def kernel_normalizer(kernel: Kernel, mu: RealCapacity) -> float:
    """Choquet integral of the bare kernel (the operator normalizer).

    Two capacities need no quadrature:

    * a possibility capacity whose own kernel peaks at the same point:
      every nonempty level set contains the peak, so the integrand is 1 on
      (0, 1] and the normalizer is exactly 1;
    * Lebesgue length distorted by ``gamma(t) = t**p`` with p = 1 or 1/2:
      the level set at ``alpha = exp(-s)`` has length ``2 s / n``
      (Laplace) or ``2 sqrt(s / n)`` (Gauss), so the normalizer is
      ``Gamma(1 + p) (2/n)**p`` or ``Gamma(1 + p/2) 2**p n**(-p/2)``.

    Any other capacity runs the tanh-sinh engine.
    """
    if mu.kind == "possibility" and mu.kernel.x == kernel.x:
        return 1.0
    power = _power_moments(mu)
    if power is not None:
        p = power[0]
        if kernel.family == LAPLACE:
            return math.gamma(1.0 + p) * (2.0 / kernel.n) ** p
        return math.gamma(1.0 + p / 2.0) * 2.0 ** p * kernel.n ** (-p / 2.0)
    return choquet_integral_real_grid(kernel_level_function(kernel), mu)


def kernel_moment(kernel: Kernel, mu: RealCapacity) -> float:
    """The kernel operator at the deviation ``|t - x|`` from the kernel's
    own centre: ``T_n(|. - x|)(x)``, the moment the quantitative bounds
    are stated through.

    Closed forms, none of which depends on x:

    * Laplace kernel against the possibility capacity of the same kernel:
      ``(1 + e**-2) / (4 n)`` (the capacity of the annulus
      ``{y e**(-n y) >= alpha}`` is ``e**(-n y)`` at its inner radius y);
    * distorted Lebesgue with a distortion of :data:`_POWER_MOMENTS`:
      ``T_1 / n`` (Laplace) or ``T_1 / sqrt(n)`` (Gauss), by rescaling t.

    Any other pair (the Gauss kernel against a possibility capacity, a
    ``power_*`` distortion, ...) runs the tanh-sinh engine on the
    deviation and divides by :func:`kernel_normalizer`.
    """
    if (kernel.family == LAPLACE and mu.kind == "possibility"
            and mu.kernel == kernel):
        return (1.0 + math.exp(-2.0)) / (4.0 * kernel.n)
    power = _power_moments(mu)
    if power is not None:
        if kernel.family == LAPLACE:
            return power[1] / kernel.n
        return power[2] / math.sqrt(kernel.n)
    g = product_level_function(abs_dev(kernel.x), kernel)
    return choquet_integral_real_grid(g, mu) / kernel_normalizer(kernel, mu)
