"""Choquet integration of nonnegative functions on the real line.

The integral is computed from the layer-cake representation: integrate
``alpha -> mu({g >= alpha})`` over ``(0, sup g]``.  A function enters the
engine as a :class:`LevelSetFunction`, i.e. bundled with an oracle that
answers an array of levels at once with the endpoints of their
super-level sets.

Two things keep the quadrature honest:

* the integration variable is substituted ``alpha = exp(-s)``, since the
  level sets of kernel-type integrands grow logarithmically as
  ``alpha -> 0`` (the substituted integrand is smooth and decays
  exponentially, which adaptive quadrature handles well);
* the domain is split at every level where the super-level set changes
  component structure (level of a knot, of a local extremum, ...), since
  adaptive refinement across such kinks is not trusted.

A possibility capacity is 1 on every level set that holds its peak
``x_mu``, i.e. at every level up to ``g(x_mu)``
(:meth:`RealCapacity.peak_level`): the layer cake there is a rectangle of
area ``g(x_mu)``, which both engines add exactly, and only the levels above
it reach the oracle.  Where ``g`` peaks at ``x_mu`` the integral is
``g(x_mu)`` without an oracle call.

Level sets of the registered products are closed forms where possible
(constants, decaying exponentials, the deviation ``|t - x|`` against its
own kernel via the two real Lambert W branches) and bracketed root-finding
on the piecewise monotone profile otherwise, chosen from the spec's record
(``exponential``, ``pieces``), never its name.  Lambert W is solved here, in
log space: the level enters as ``log(alpha)``, so the deviation's level
sets stay finite down to the smallest positive ``alpha``.  W_0 of a
positive argument, also from its log, serves the root-finding products
against a Laplace kernel.

The oracle answers an array of N levels at once, ``levels(alphas)``, with
the endpoint arrays ``(lo, hi)`` of shape ``[pieces, N]`` that
:meth:`RealCapacity.values` takes (:mod:`.realline`): column ``i`` is the
level set at ``alphas[i]``.  A closed form is one endpoint formula in numpy
(:func:`_closed_form`).  Root-finding products share one table of monotone
brackets, built from the spec's pieces ``f = c |t + d|**p``
(``FunctionSpec.pieces``), and ``levels`` solves every bracket for all levels
in one call: against a Laplace kernel each crossing is a Lambert W value
(:func:`_lambert_lanes`), against a Gauss kernel one safeguarded Newton
iteration (:func:`_newton`) runs on the log profile ``log c + p log|t + d|
+ log K - log alpha``.  Every oracle answers one level, ``level(alpha)``,
with the column of ``levels([alpha])`` as one canonical
:class:`IntervalUnion` (:func:`_from_levels`); no engine calls ``level``.

Both engines integrate the layer cake in ``s`` over the same pieces above
the same rectangle (:func:`_layer_edges`) and evaluate it through the same
batched oracle and capacity call (:func:`_layer_heights`); their
quadratures are independent.
The double-exponential engine (:func:`choquet_integral_real_grid`) serves
the kernel operators and their normalizers: tanh-sinh on each finite piece,
exp-sinh on the tail, and a step that halves, from ``TS_STEP`` up to
``TS_HALVINGS`` times, only on the pieces that miss
``QUAD_ABS_TOL``/``QUAD_REL_TOL``.  The adaptive engine
(:func:`choquet_integral_real`) is the check engine: a globally adaptive
G7-K15 Gauss-Kronrod rule at the same tolerances, with at most
``QUAD_LIMIT`` subintervals per piece, that opens each piece as
``GK_START`` subintervals, cuts each one that fails its share of the
tolerance into ``GK_SPLIT`` and evaluates every open subinterval of every
piece in one batched call per pass.  Every piece starts where a level-set
component is born or a breakpoint is crossed, where its layer behaves like
``(s - a)**beta`` with ``beta`` down to 1/4, so the rule grades each piece
toward its start by the cube of its variable, a polynomial change of
variable that weakens endpoint singularities (as in Sidi, "A new variable
transformation for numerical integration", 1993); most integrals then
take one pass.  The same rule (:func:`_gauss_kronrod`), ungraded,
integrates the classical Picard operator in ``t``.  Everything here runs
on numpy alone.  The independence of the level sets themselves rests on
the tests: they hold every level set to ``{t : g(t) >= alpha}``, and the
root-finding lanes to brentq on ``f * kernel`` over the same brackets.

The kernel moment ``T_n(|. - x|)(x)``, through which the paper states
every quantitative estimate, and the operator normalizer have closed forms
in n alone for the capacities the command line builds
(:func:`kernel_moment`, :func:`kernel_normalizer`): either kernel against
a possibility capacity whose Laplace or Gauss profile has the kernel's
``n`` and ``x``, and Lebesgue length distorted by the identity or sqrt,
one row each of ``_POWER_MOMENTS``, keyed on the distortion's function
(so ``power(0.5)``, a function of its own, runs the engine).  Every other
pair runs the tanh-sinh engine; the tests hold both engines to each formula.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .capacity import DistortionFunction
from .errors import CapabilityError, DivergenceError, QuadratureError
from .functions import FunctionSpec, _deviation_pieces, abs_dev
from .intervals import IntervalUnion
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
# the adaptive engines' absolute and relative tolerance and their limit on
# subintervals (per piece in the Gauss-Kronrod rule)
QUAD_ABS_TOL = 1e-9
QUAD_REL_TOL = 1e-8
QUAD_LIMIT = 2000
# the Gauss-Kronrod engine opens each piece as GK_START equal subintervals
# and cuts one that does not retire into GK_SPLIT
GK_START = 8
GK_SPLIT = 4
# the double-exponential engine's first step and its most halvings of it
TS_STEP = 1.0 / 16.0
TS_HALVINGS = 10


@dataclass(frozen=True)
class LevelSetFunction:
    """A nonnegative function together with its super-level-set oracle.

    ``level_batch`` answers an array of levels (see :meth:`levels`);
    ``level`` answers one level as an :class:`IntervalUnion`.
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
        if not (alphas > 0).all():
            raise ValueError("level must be positive")
        return self.level_batch(alphas)


def _from_levels(value: Callable[[float], float],
                 levels: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                 sup: float, alpha_breakpoints: tuple = ()) -> LevelSetFunction:
    """The level-set function of the batched oracle ``levels``, whose scalar
    oracle ``level(alpha)`` is the column of ``levels([alpha])`` as one
    canonical :class:`IntervalUnion`."""

    def level(alpha: float) -> IntervalUnion:
        if not alpha > 0:
            raise ValueError("level must be positive")
        lo, hi = levels(np.array([alpha], dtype=float))
        return IntervalUnion.from_pairs((a, b) for a, b in zip(lo[:, 0], hi[:, 0]) if a <= b)

    return LevelSetFunction(value, level, sup, levels, alpha_breakpoints)


def _closed_form(value: Callable[[float], float], ends, sup: float) -> LevelSetFunction:
    """A level-set function whose level sets come from one endpoint formula.

    ``ends(alpha)`` returns ``(lo_rows, hi_rows)``, the pieces
    ``[lo_rows[j], hi_rows[j]]`` of the level set at each ``0 < alpha <=
    sup`` of a numpy array; a row is a number or an array shaped like
    ``alpha``.  Levels above ``sup`` give the empty set: the batched oracle
    evaluates the formula on the levels clipped to ``sup`` and empties
    those columns afterwards.
    """

    def levels(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        inside = alphas <= sup
        lo_rows, hi_rows = ends(np.minimum(alphas, sup))
        return (np.array([np.where(inside, lo, math.inf) for lo in lo_rows]),
                np.array([np.where(inside, hi, -math.inf) for hi in hi_rows]))

    return _from_levels(value, levels, sup)


def _kernel_ends(kernel: Kernel, c: float = 1.0):
    """Endpoint formula of ``{c * kernel >= alpha}`` for ``alpha <= c``: the
    interval ``[x - r, x + r]`` with radius ``r = (ln(c) - ln(alpha))/n``,
    its square root for the Gaussian kernel.  The logs are taken apart, so
    a level whose quotient ``alpha / c`` underflows keeps a finite radius."""
    n, x, gauss = kernel.n, kernel.x, kernel.family != LAPLACE
    log_c = math.log(c)

    def ends(alpha):
        r = (log_c - np.log(alpha)) / n
        if gauss:
            r = np.sqrt(r)
        return (x - r,), (x + r,)

    return ends


def kernel_level_function(kernel: Kernel) -> LevelSetFunction:
    """The bare kernel as a level-set function (sup is 1 at the peak)."""
    return _closed_form(kernel.__call__, _kernel_ends(kernel), 1.0)


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
# Three steps from every start end within 2 ulps of the exact value.  Each
# lane solves only the branch it asks for, the v-form lanes in one loop.
_BRANCH_P = 1.0
_HALLEY_STEPS = 3


def _branch_v(p):
    return p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))


def _halley_v(v, l1):
    for _ in range(_HALLEY_STEPS):
        f = v + np.log1p(-v) - l1
        twice = 2.0 * v
        v = v + twice * (1.0 - v) * f / (twice * v + f)
    return v


def _halley_w(w, q):
    for _ in range(_HALLEY_STEPS):
        e = np.exp(w)
        r = w * e + q
        w = w - r / (e * (w + 1.0) - (w + 2.0) * r / (2.0 * w + 2.0))
    return w


def _lanes(mask: np.ndarray):
    """The index of the true lanes of ``mask``: None when there is none,
    ``...`` (a view of every lane) when all are, else ``mask`` itself."""
    count = np.count_nonzero(mask)
    if count == 0:
        return None
    return ... if count == mask.size else mask


def _lambert_branch(L: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """A real branch of Lambert W at ``z = -exp(L)``, one per lane:
    ``W_0`` where ``upper`` (which broadcasts against ``L``) and ``W_{-1}``
    elsewhere.  For ``L >= -1`` (at and, after rounding, past the branch
    point -1/e) both branches are -1."""
    w = np.full(L.shape, -1.0)
    p = np.sqrt(-2.0 * np.expm1(np.minimum(L, -1.0) + 1.0))
    far = p >= _BRANCH_P
    near = (L < -1.0) & ~far
    v_lanes = _lanes(near | far & ~upper)
    if v_lanes is not None:
        Lv = L[v_lanes]
        l2 = np.log(-Lv)
        start = np.where(near[v_lanes], _branch_v(np.where(upper, p, -p)[v_lanes]),
                         Lv + 1.0 - l2 + l2 / Lv)
        w[v_lanes] = _halley_v(start, Lv + 1.0) - 1.0
    w_lanes = _lanes(far & upper)
    if w_lanes is not None:
        q = np.exp(L[w_lanes])
        w[w_lanes] = _halley_w(-q * (1.0 + q * (1.0 + 1.5 * q)), q)
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
    lanes = _lanes(mid)
    if lanes is not None:
        l1 = np.logaddexp(0.0, L[lanes])
        w[lanes] = l1 * (1.0 - np.log1p(l1) / (2.0 + l1))
    lanes = _lanes(mid & ~big)
    if lanes is not None:
        w[lanes] = _halley_w(w[lanes], -np.exp(L[lanes]))
    lanes = _lanes(big)
    if lanes is not None:
        wb, Lb = w[lanes], L[lanes]
        for _ in range(_HALLEY_STEPS):
            w1 = wb + 1.0
            r = (wb + np.log(wb) - Lb) / w1
            wb = wb - wb * r / (1.0 + 0.5 * r / w1)
        w[lanes] = wb
    return w


def _product_exp_neg(scale: float, lam: float, kernel: Kernel) -> LevelSetFunction:
    n, x = kernel.n, kernel.x
    # the logs are taken apart: alpha / scale underflows at the smallest levels
    log_scale = math.log(scale)

    gauss = kernel.family != LAPLACE

    def value(t: float) -> float:
        # one exponent: far left of the kernel exp(-lam t) overflows and the
        # kernel underflows while their product is a float
        return scale * math.exp(-lam * t - n * ((t - x) ** 2 if gauss else abs(t - x)))

    if not gauss:
        if n <= abs(lam):
            raise DivergenceError(
                f"exp_neg(lam={lam}) against a Laplace kernel needs n > |lam|, got n={n}")
        sup = scale * math.exp(-lam * x)

        def ends(alpha):
            la = np.log(alpha) - log_scale
            lo = (n * x + la) / (n - lam)
            hi = (n * x - la) / (n + lam)
            return (np.minimum(lo, hi),), (np.maximum(lo, hi),)

    else:
        # exponential times Gaussian always decays; the exponent is a
        # downward parabola with vertex x - lam/(2n)
        sup = scale * math.exp(-lam * x + lam * lam / (4 * n))

        def ends(alpha):
            la = np.log(alpha) - log_scale
            root = np.sqrt(np.maximum(lam * lam - 4 * n * lam * x - 4 * n * la, 0.0))
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

    def ends(alpha):
        L = log_m + p * np.log(alpha)
        w0, wm1 = _lambert_branch(np.stack((L, L)), np.array([[True], [False]]))
        y1, y2 = -w0 / m, -wm1 / m
        if gauss:
            y1, y2 = np.sqrt(y1), np.sqrt(y2)
        return (x - y2, x + y1), (x - y1, x + y2)

    return _closed_form(value, ends, sup)


def _stationaries(pieces, kernel: Kernel) -> list[float]:
    """Stationary points of ``f * kernel`` strictly inside the pieces of
    ``f`` (``FunctionSpec.pieces``) where it is not constant: the roots of
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
    true, ``f = c |t + d|**p`` with ``log c = log_c[i]`` (a row of the
    spec's ``pieces``) and ``K`` is ``kernel``, a Gauss kernel (a Laplace
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
    # scratch rows for evaluate, and the columns of state that become the
    # new outer and inner ends
    w_buf, q_buf, t_buf = np.empty((3, 5 * m))
    ends = np.empty(2 * m, dtype=np.intp)

    def evaluator(rows: slice) -> Callable[[], None]:
        """A function that sets h, h' and -h'' of the lanes in ``rows`` from
        their u, on views taken once."""
        u_r, dt_r, xt_r, c_r, p_r = u[rows], dt5[rows], xt5[rows], const5[rows], p5[rows]
        h_r, dh_r, curv_r = h[rows], dh[rows], curv[rows]
        w, q, t = w_buf[rows], q_buf[rows], t_buf[rows]

        def evaluate() -> None:
            np.add(u_r, dt_r, out=w)
            np.subtract(u_r, xt_r, out=q)
            np.log(np.abs(w, out=t), out=t)
            np.add(c_r, np.multiply(p_r, t, out=t), out=t)
            np.multiply(np.multiply(-n, q, out=h_r), q, out=h_r)
            np.add(t, h_r, out=h_r)
            pw = np.divide(p_r, w, out=t)
            np.add(pw, np.multiply(-2.0 * n, q, out=q), out=dh_r)
            np.add(np.divide(pw, w, out=t), 2.0 * n, out=curv_r)

        return evaluate

    lanes = np.arange(m)
    probes = slice(m, 4 * m)
    h_lo, h_hi, d_lo, d_hi, c_hi = h[:m], h[4 * m:], dh[:m], dh[4 * m:], curv[4 * m:]
    hp = h[probes]
    evaluate_probes = evaluator(probes)
    # a log of 0 at a zero of f; NaN quotients of infinities, which the
    # comparisons and fmin/fmax below pass over
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        evaluator(slice(0, 5 * m))()
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
            # a finished lane probes inside its bracket without a step (half
            # is 0.0 there, as tol is positive)
            half = np.multiply(0.5 * tol, ~done)
            inner = hi - half
            # both ends' tangent roots are lower bounds; the shorter step
            # carries less rounding (a step across a wide tail can land past
            # the root), and a -inf or a flat end has no step
            neg_h_lo = -h_lo
            step_lo, step_hi = neg_h_lo / d_lo, h_hi / np.maximum(d_hi, _TINY)
            tangent = np.where(step_lo <= step_hi, lo + step_lo, hi - step_hi)
            first = np.fmin(np.fmax(tangent, lo + half), inner, out=u[m:2 * m])
            w = lo + dt
            log_newton = w * np.exp(neg_h_lo / (w * d_lo)) - dt
            quadratic = hi - 2.0 * h_hi / (d_hi + np.sqrt(d_hi * d_hi + 2.0 * c_hi * h_hi))
            past = first + half
            np.fmin(np.fmax(np.fmin(log_newton, quadratic), past), inner, out=u[2 * m:3 * m])
            np.fmin(np.fmax(np.fmax(log_newton, quadratic), past), inner, out=u[3 * m:4 * m])
            evaluate_probes()
            hp[np.abs(hp) <= res3] = 0.0
            # the probes rise along the bracket: the new outer end is the
            # last one below the level, the new inner end the one after it
            below = hp < 0.0
            outer = ends[:m]
            np.add(below[:m], below[m:2 * m], out=outer, dtype=np.intp)
            np.add(outer, below[2 * m:], out=outer)
            np.add(np.multiply(outer, m, out=outer), lanes, out=outer)
            np.add(outer, m, out=ends[m:])
            gathered = state.take(ends, axis=1)
            state[:, :m], state[:, 4 * m:] = gathered[:, :m], gathered[:, m:]
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
    lanes = _lanes(flat)
    if lanes is not None:
        t[lanes] = x + sigma[lanes] * (log_c[lanes] - log_alpha[lanes]) / n
    power = _lanes(~flat)
    if power is not None:
        t[power] = _lambert_power_lanes(n, x, mid[power], *(v[power] for v in (
            rising, sigma, log_c, log_alpha, p, d)))
    # np.clip(t, a, b), bit for bit, without its dispatch
    return np.minimum(np.maximum(t, a), b)


def _lambert_power_lanes(n: float, x: float, mid: np.ndarray, rising: np.ndarray,
                         sig: np.ndarray, lc: np.ndarray, la: np.ndarray, pp: np.ndarray,
                         dp: np.ndarray) -> np.ndarray:
    """The roots of :func:`_lambert_lanes` on its power pieces, whose
    bracket midpoints are ``mid``, before the clip to the bracket."""
    m = n / pp
    L = np.log(m) + (la - lc) / pp - sig * m * (x + dp)
    w = np.empty(L.shape)
    bump = np.sign(mid + dp) == sig
    lanes = _lanes(bump)
    if lanes is not None:
        w[lanes] = _lambert_branch(L[lanes], rising[lanes] == (sig[lanes] > 0.0))
    lanes = _lanes(~bump)
    if lanes is not None:
        w[lanes] = _lambert_w0(L[lanes])
    tp = -sig * w / m - dp
    # the Newton step h / h' = h (t + d) / slope where t + d is not 0 (a W_0
    # that underflowed) and the step is trusted
    r = tp + dp
    live = _lanes(r != 0.0)
    if live is None:
        return tp
    r, pl = r[live], pp[live]
    h = lc[live] + pl * np.log(np.abs(r)) - n * sig[live] * (tp[live] - x) - la[live]
    slope = pl - n * sig[live] * r
    trust = _lanes(np.abs(h) * pl < _STEP_TRUST * slope * slope)
    if trust is not None:
        step = h[trust] * r[trust] / slope[trust]
        tp[trust if live is ... else np.flatnonzero(live)[trust]] -= step
    return tp


def _generic_product(spec: FunctionSpec, kernel: Kernel) -> LevelSetFunction:
    """Bracketed root-finding on the product profile, which is monotone on
    each bracket: the left tail, each gap between consecutive ``pts`` (the
    ends of the pieces of ``f``, which are its breakpoints, the kernel peak
    and the stationary points) and the right tail.  A spec without pieces
    raises :class:`CapabilityError`.

    The batched oracle hands every crossing of a call to one lane solver:
    :func:`_lambert_lanes` against a Laplace kernel, where the crossings are
    Lambert W values, and :func:`_newton` against a Gauss kernel, where they
    are not.  The tests hold both to ``brentq`` on ``f * kernel`` over the
    same brackets, a root finder that never sees the pieces or a W."""
    pieces = spec.pieces
    if pieces is None:
        raise CapabilityError(f"no level-set construction for function family {spec.name!r}")
    f = spec.fn

    def g(t: float) -> float:
        return f(t) * kernel(t)

    his = [hi for _, hi, *_ in pieces]
    pts = sorted(set(his[:-1]) | {kernel.x} | set(_stationaries(pieces, kernel)))
    # the piece of f under each bracket (the left tail, each gap of pts and
    # the right tail) is the one in which the bracket's left end lies
    _, _, c, p, d = map(np.array, zip(*(pieces[bisect_right(his, s)]
                                        for s in [-math.inf] + pts)))
    with np.errstate(divide="ignore"):  # c = 0 left of sqrt's support
        log_c = np.log(c)
    # the rows (log c, p, d) of each bracket's piece, taken per lane at once
    piece_rows = np.array([log_c, p, d])
    vals = [g(t) for t in pts]
    sup = max(vals)
    step0 = max(1.0, 1.0 / kernel.n)
    # the profile at the bracket ends; the tails decay to 0
    ga, gb = np.array([0.0] + vals), np.array(vals + [0.0])
    # whether the profile rises across each bracket, and its value at the
    # inner end, where a level may meet it exactly
    rising_b = gb > ga
    inner_g = np.where(rising_b, gb, ga)

    def levels(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # a tail reaches to where the profile drops below the lowest level;
        # a tail no level reaches is its point of pts
        alpha = alphas.min(initial=math.inf)
        left = _expand(g, pts[0], alpha, -step0) if vals[0] >= alpha else pts[0]
        right = _expand(g, pts[-1], alpha, step0) if vals[-1] >= alpha else pts[-1]
        ends = np.array([[left] + pts, pts + [right]])
        a, b = ends
        in_a = ga[:, None] >= alphas
        in_b = gb[:, None] >= alphas
        lo = np.where(in_a, a[:, None], math.inf)
        hi = np.where(in_b, b[:, None], -math.inf)
        # every bracket and level whose set ends inside the bracket is one
        # lane of a single solve
        row, col = np.nonzero(in_a != in_b)
        if row.size:
            rising = rising_b[row]
            level = alphas[col]
            lanes = _lambert_lanes if kernel.family == LAPLACE else _newton
            # like brentq, take the bracket end where the profile meets the
            # level exactly (a local maximum at alpha = its value)
            root = np.where(rising, b[row], a[row])
            solve = _lanes(level != inner_g[row])
            if solve is not None:
                r = row[solve]
                root[solve] = lanes(kernel, *ends.take(r, axis=1), np.log(level[solve]),
                                    rising[solve], *piece_rows.take(r, axis=1))
            lo[row[rising], col[rising]] = root[rising]
            hi[row[~rising], col[~rising]] = root[~rising]
        return lo, hi

    return _from_levels(g, levels, sup, tuple(sorted(v for v in set(vals) if 0.0 < v < sup)))


def _centred_deviation(spec: FunctionSpec, kernel: Kernel) -> bool:
    """Whether ``spec``'s pieces are those of ``|t - x|`` at the kernel's
    own centre ``x``, whose level sets are the Lambert W closed form."""
    return spec.pieces == _deviation_pieces(kernel.x)


def product_level_function(spec: FunctionSpec, kernel: Kernel) -> LevelSetFunction:
    """Level-set function of t -> f(t) * kernel(t), in closed form where the
    spec's ``exponential`` or ``pieces`` allow, else root-found on its pieces."""
    if not spec.nonneg_real_line:
        raise ValueError(
            f"function {spec.name!r} is not nonnegative on the real line")
    if spec.exponential is not None:
        scale, lam = spec.exponential
        if scale == 0.0:  # no level reaches 0: one piece, always empty
            return _closed_form(lambda t: 0.0, lambda a: ((math.inf,), (-math.inf,)), 0.0)
        if lam == 0.0:
            return _closed_form(lambda t: scale * kernel(t), _kernel_ends(kernel, scale), scale)
        return _product_exp_neg(scale, lam, kernel)
    if _centred_deviation(spec, kernel):
        return _product_abs_dev_centered(kernel)
    return _generic_product(spec, kernel)


# ---------------------------------------------------------------------------
# quadrature


def _layer_edges(g: LevelSetFunction,
                 mu: RealCapacity) -> tuple[list[tuple[float, float]], float]:
    """``(pieces, full)``: the pieces ``(a, b)`` on which both engines
    integrate ``g``'s layer cake on ``(full, sup]``, and the area ``full``
    of the rectangle below it.

    ``mu`` is 1 on every level set up to ``full``, its
    :meth:`RealCapacity.peak_level` (at most ``sup``), so the layer cake on
    ``(0, full]`` is exactly ``full``.  The variable is ``s`` with ``alpha
    = exp(-s)`` (the integrand carries the Jacobian ``alpha``); it runs
    from ``-log(sup)`` to ``-log(full)`` (to ``inf`` when ``full`` is 0),
    split at every level breakpoint of ``g`` strictly between the two.
    When ``full == sup`` there is no piece, and a zero ``sup`` gives none
    and ``full = 0`` without evaluating ``g``.  An infinite or NaN ``sup``
    raises :class:`DivergenceError`."""
    sup = g.sup_value
    if not math.isfinite(sup):
        raise DivergenceError("integrand has an infinite supremum")
    if sup <= 0:
        return [], 0.0
    full = min(mu.peak_level(g.value), sup)
    breaks = sorted(-math.log(b) for b in g.alpha_breakpoints if full < b < sup)
    end = -math.log(full) if full > 0.0 else math.inf
    edges = [-math.log(sup)] + breaks + [end]
    return [(a, b) for a, b in zip(edges, edges[1:]) if a < b], full


def _layer_heights(g: LevelSetFunction, mu: RealCapacity, s: np.ndarray,
                   full: float) -> np.ndarray:
    """``mu({g >= alpha}) * alpha`` at ``alpha = exp(-s)``, by one batched
    oracle call and one batched capacity call on the levels above ``full``
    (of :func:`_layer_edges`).  ``mu`` is 1 at a level at or below it, which
    a node next to the rectangle's edge can round to; a level that
    underflows to 0 adds nothing."""
    alphas = np.exp(-s)
    live = alphas > full
    if live.all():
        return mu.values(*g.levels(alphas)) * alphas
    ys = np.where(live, 0.0, alphas)
    ys[live] = mu.values(*g.levels(alphas[live])) * alphas[live]
    return ys


# The G7-K15 pair of QUADPACK's qk15 (Piessens, de Doncker-Kapenga,
# Ueberhuber & Kahaner, 1983) on [-1, 1]: the Kronrod nodes in [0, 1],
# descending, their weights, and the Gauss weights of the odd-numbered ones
_K15_NODES = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
              0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
              0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
              0.207784955007898467600689403773245, 0.0)
_K15_WEIGHTS = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_G7_WEIGHTS = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
               0.381830050505118944950369775488975, 0.417959183673469387755102040816327)


def _mirror(half, sign: float = 1.0) -> np.ndarray:
    """The 15 values of a rule on [-1, 1], ascending in the node, from those
    of its 8 nodes in [0, 1]; ``sign`` -1 negates the left half (the
    nodes).  Read-only."""
    half = np.asarray(half, dtype=float)
    out = np.concatenate((sign * half[:-1], half[::-1]))
    out.flags.writeable = False
    return out


_GK_NODES = _mirror(_K15_NODES, -1.0)
_GK_KRONROD = _mirror(_K15_WEIGHTS)
_GK_GAUSS = _mirror(np.insert(_G7_WEIGHTS, range(4), 0.0))


def _qk15(f: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The K15 value and QUADPACK's qk15 error estimate of each row of ``f``,
    the integrand at the 15 nodes of a subinterval of half-width ``half``."""
    kronrod = f @ _GK_KRONROD
    err = np.abs(kronrod - f @ _GK_GAUSS) * half
    mean = 0.5 * kronrod
    resabs = np.abs(f) @ _GK_KRONROD * half
    resasc = np.abs(f - mean[:, None]) @ _GK_KRONROD * half
    scaled = resasc > 0.0
    ratio = np.divide(200.0 * err, resasc, out=np.zeros(err.shape), where=scaled)
    err = np.where(scaled, resasc * np.minimum(1.0, ratio ** 1.5), err)
    return kronrod * half, np.maximum(err, 50.0 * np.finfo(float).eps * resabs)


def _divide(lo: np.ndarray, hi: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each ``[lo[i], hi[i]]`` cut into ``k`` equal parts, in order, as the
    flat arrays of their ends; the last part of each keeps ``hi[i]``."""
    cuts = lo[:, None] + (hi - lo)[:, None] * (np.arange(k + 1) / k)
    cuts[:, -1] = hi
    return cuts[:, :-1].ravel(), cuts[:, 1:].ravel()


def _gk_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The half-widths of the subintervals ``[lo, hi]`` and their 15 nodes,
    one row each."""
    half = 0.5 * (hi - lo)
    return half, (lo + half)[:, None] + half[:, None] * _GK_NODES


@functools.lru_cache(maxsize=8)
def _gk_opening(pieces: int) -> tuple[np.ndarray, ...]:
    """The first pass of :func:`_gauss_kronrod` on ``pieces`` pieces, as
    read-only arrays: the piece of each subinterval, its ends ``lo``,
    ``hi`` in ``u`` and its :func:`_gk_nodes`."""
    piece = np.repeat(np.arange(pieces), GK_START)
    lo, hi = _divide(np.zeros(pieces), np.ones(pieces), GK_START)
    out = (piece, lo, hi) + _gk_nodes(lo, hi)
    for arr in out:
        arr.flags.writeable = False
    return out


def _gauss_kronrod(integrand: Callable[[np.ndarray], np.ndarray],
                   pieces: list[tuple[float, float]],
                   graded: bool) -> tuple[float, float]:
    """The sum of the integrals of ``integrand`` over ``pieces`` with its
    error estimate, by a batched, globally adaptive G7-K15 rule.

    ``integrand`` maps a 1-d array of points to its values there.  Each
    piece ``(a, b)`` is mapped onto ``u`` in ``[0, 1]``: a finite piece by
    ``s = a + (b - a) u``, a tail ``b = inf`` as QUADPACK's qagi maps it,
    ``s = a + r`` with ``r = (1 - u)/u``.  If ``graded``, every piece is
    graded toward its start by the cube: ``s = a + (b - a) u**3`` (Jacobian
    ``3 u**2``) or ``s = a + r**3`` (Jacobian ``3 r**2 dr``).  Each piece
    opens as ``GK_START`` equal subintervals of ``u``.  Each pass evaluates
    the 15 nodes of every open subinterval of every piece with one
    ``integrand`` call and takes qk15's estimate on each.  With ``tol =
    max(QUAD_ABS_TOL, QUAD_REL_TOL |total|)``, the pass ends when the open
    estimates fit in what the retired ones left of ``tol``; otherwise a
    subinterval within its equal share of that remainder is retired and
    the rest are each cut into ``GK_SPLIT`` equal parts.  A pass costs
    mostly its integrand call, not its nodes, so both factors spend nodes
    to save passes.  A piece that would pass ``QUAD_LIMIT`` subintervals,
    or a subinterval that is not finite, raises :class:`QuadratureError`
    carrying the partial value and the summed estimate.
    """
    start = np.array([a for a, _ in pieces])
    tail = np.array([math.isinf(b) for _, b in pieces])
    any_tail = tail.any()
    width = np.array([1.0 if math.isinf(b) else b - a for a, b in pieces])
    count = np.full(len(pieces), GK_START)
    # the open subintervals [lo, hi] of u, the piece each one lies in, and
    # their nodes u
    piece, lo, hi, half, u = _gk_opening(len(pieces))
    value = error = 0.0  # over the retired subintervals
    while True:
        # r and its Jacobian w dr/du; with no tail r is u and dr/du 1
        r = u
        w = wdr = width[piece][:, None]
        if any_tail:
            on_tail = tail[piece][:, None]
            # nodes are interior, so u > 0 on the tail
            r = np.where(on_tail, (1.0 - u) / u, u)
            wdr = w * np.where(on_tail, 1.0 / (u * u), 1.0)
        if graded:
            # the cube turns a layer (s - a)**beta at a piece's start, beta =
            # 1/4 or 1/2, into u**(3/4) or u**(3/2); a fourth power stretches
            # the far end of the piece so much that qk15 splits it there
            s = start[piece][:, None] + w * r ** 3
            jac = wdr * 3 * r ** 2
        else:
            s = start[piece][:, None] + w * r
            jac = wdr
        f = integrand(s.ravel()).reshape(s.shape)
        with np.errstate(invalid="ignore", over="ignore"):  # an infinite value
            parts, errs = _qk15(f * jac, half)
            open_value = float(parts.sum())
            open_error = float(errs.sum())
        total = value + open_value
        # the sums are finite where every part is, unless they overflow
        if not (math.isfinite(open_value) and math.isfinite(open_error)):
            bad = ~(np.isfinite(parts) & np.isfinite(errs))
            if bad.any():
                a, b = pieces[piece[np.argmax(bad)]]
                raise QuadratureError(f"piece [{a}, {b}] is not finite",
                                      value=total, error_estimate=error + open_error)
        budget = max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(total)) - error
        if open_error <= budget:
            return total, error + open_error
        retire = errs <= budget / errs.size
        value += float(parts[retire].sum())
        error += float(errs[retire].sum())
        split = ~retire
        count += (GK_SPLIT - 1) * np.bincount(piece[split], minlength=len(pieces))
        if (count > QUAD_LIMIT).any():
            a, b = pieces[np.argmax(count > QUAD_LIMIT)]
            raise QuadratureError(
                f"Gauss-Kronrod rule did not converge on piece [{a}, {b}] "
                f"in {QUAD_LIMIT} subintervals", value=total,
                error_estimate=error + float(errs[split].sum()))
        piece = np.repeat(piece[split], GK_SPLIT)
        lo, hi = _divide(lo[split], hi[split], GK_SPLIT)
        half, u = _gk_nodes(lo, hi)


def choquet_integral_real_with_error(g: LevelSetFunction,
                                     mu: RealCapacity) -> tuple[float, float]:
    """Layer-cake Choquet integral with its error estimate, by the batched
    G7-K15 rule :func:`_gauss_kronrod` on the batched oracle: one
    :func:`_layer_heights` call per pass over the pieces of
    :func:`_layer_edges`, plus their exact rectangle ``full``, whose
    error is 0 and which does not widen the tolerance.  Every piece is
    graded toward its start, the top of the cake or a level where a
    component is born or a breakpoint is crossed, since there the layer
    behaves like ``(s - a)**beta`` with ``beta`` as small as 1/4.  With no
    piece above the rectangle the value is ``full``, without an oracle
    call.
    """
    pieces, full = _layer_edges(g, mu)
    if not pieces:
        return full, 0.0
    try:
        total, err = _gauss_kronrod(lambda s: _layer_heights(g, mu, s, full), pieces,
                                    graded=True)
    except QuadratureError as exc:
        exc.value += full  # the partial value, like the total, holds the rectangle
        raise
    return full + total, err


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


def choquet_integral_real_grid(g: LevelSetFunction, mu: RealCapacity) -> float:
    """The same layer-cake integral by double-exponential rules on the
    batched oracle: tanh-sinh on each finite piece of :func:`_layer_edges`,
    exp-sinh on the tail, summed with their exact rectangle ``full`` by
    ``math.fsum``.  With no piece above the rectangle the value is
    ``full``, without an oracle call.

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
    pieces, full = _layer_edges(g, mu)
    if not pieces:
        return full
    values = [0.0] * len(pieces)
    errors = [math.inf] * len(pieces)
    todo = list(range(len(pieces)))
    for level in range(TS_HALVINGS + 1):
        nodes = [_de_nodes(*pieces[i], level) for i in todo]
        ys = _layer_heights(g, mu, np.concatenate([s for s, _, _ in nodes]), full)
        start = 0
        failing = []
        with np.errstate(invalid="ignore", over="ignore"):  # an infinite layer
            for i, (s, w, coarse) in zip(todo, nodes):
                y = ys[start:start + s.size]
                start += s.size
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
            return math.fsum([full] + values)
    raise QuadratureError(
        f"tanh-sinh rule did not converge on {len(todo)} layer-cake piece(s) "
        f"in {TS_HALVINGS} halvings", value=math.fsum([full] + values),
        error_estimate=math.fsum(errors))


# distortion function -> (p, T_1 Laplace, T_1 Gauss) for gamma(t) = t**p:
# the exponent and the kernel moment T_n(|. - x|)(x) at n = 1 against
# gamma(length), whatever the distortion's name; the sqrt moments are 30-digit
# mpmath values from the Lambert W parametrisation of the level sets
_POWER_MOMENTS = {
    DistortionFunction.identity().fn: (1.0, 1.0, 1.0 / math.sqrt(math.pi)),
    DistortionFunction.sqrt().fn: (
        0.5, 0.654402534226178633510813469012, 0.494485667875080293795473756008),
}


def _power_moments(mu: RealCapacity):
    """The :data:`_POWER_MOMENTS` row of a distorted Lebesgue capacity, or None."""
    if mu.kind != "distorted_lebesgue":
        return None
    return _POWER_MOMENTS.get(mu.gamma.fn)


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


# _erfc_tail takes math.erfc below this argument and the continued fraction
# from it on, where 80 terms reach rounding
_ERFC_CF_X = 2.0
_ERFC_CF_TERMS = 80


def _erfc_tail(z: float) -> float:
    """``k`` in ``sqrt(pi) exp(z**2) erfc(z) = 1/(z + k)`` at ``z >= 0``.

    Below ``_ERFC_CF_X`` from ``math.erfc``.  From there on ``1/(z + k)``
    is close to ``1/z`` and ``k`` would cancel, so it is the continued
    fraction ``k = (1/2)/(z + 1/(z + (3/2)/(z + 2/(z + ...))))``
    (Abramowitz & Stegun 7.1.14), summed from its ``_ERFC_CF_TERMS``-th
    term back; ``k`` falls like ``1/(2 z)`` and stays finite for every
    finite ``z``."""
    if z < _ERFC_CF_X:
        return 1.0 / (math.sqrt(math.pi) * math.exp(z * z) * math.erfc(z)) - z
    k = 0.0
    for j in range(_ERFC_CF_TERMS, 0, -1):
        k = 0.5 * j / (z + k)
    return k


def _gauss_laplace_possibility_moment(n: float) -> float:
    """``T_n(|. - x|)(x)`` for the Gauss kernel against the possibility
    capacity of the Laplace kernel with the same ``n`` and ``x``.

    The capacity of the annulus ``{y e**(-n y**2) >= alpha}`` is
    ``e**(-n y)`` at its inner radius ``y``, which runs up to ``r =
    1/sqrt(2n)``, so by parts

        T = int_0^r (1 - 2 n y**2) e**(-n (y**2 + y)) dy
          = r E + n int_0^r y e**(-n (y**2 + y)) dy,   E = e**(-1/2 - n r).

    Completing the square, with ``a = sqrt(n)/2``, ``b = a + 1/sqrt(2)``
    and ``erfcx(z) = e**(z**2) erfc(z)``,

        T = r E + (1 - E)/2 - (sqrt(pi) a / 2) (erfcx(a) - E erfcx(b)).

    ``sqrt(pi) a erfcx(a)`` tends to 1, so that form cancels as ``n``
    grows (and ``exp(n/4)`` overflows from n = 2839).  In the tails ``k``
    of :func:`_erfc_tail` it is a positive term without cancellation plus
    one damped by ``E``

        T = k_a / (2 (a + k_a)) + E (r - (1/sqrt(2) + k_b) / (2 (b + k_b))).
    """
    a = 0.5 * math.sqrt(n)
    b = a + math.sqrt(0.5)
    r = 1.0 / math.sqrt(2.0 * n)
    e = math.exp(-0.5 - math.sqrt(0.5 * n))
    k_a, k_b = _erfc_tail(a), _erfc_tail(b)
    return 0.5 * k_a / (a + k_a) + e * (r - (math.sqrt(0.5) + k_b) / (2.0 * (b + k_b)))


def kernel_moment(kernel: Kernel, mu: RealCapacity) -> float:
    """The kernel operator at the deviation ``|t - x|`` from the kernel's
    own centre: ``T_n(|. - x|)(x)``, the moment the quantitative bounds
    are stated through.

    Closed forms, none of which depends on x:

    * a possibility capacity whose profile has the kernel's ``n`` and
      ``x``: the capacity of the annulus ``{|t - x| K(t) >= alpha}`` is the
      profile at its inner radius ``y``, so ``T_n`` is ``(1 + e**-2) /
      (4 n)`` for the Laplace kernel against its own capacity, ``(sqrt(pi)
      erf(1)/4 + 1/(2e)) / sqrt(2n)`` for the Gauss kernel against its own
      and :func:`_gauss_laplace_possibility_moment` for the Gauss kernel
      against the Laplace profile;
    * distorted Lebesgue with a distortion of :data:`_POWER_MOMENTS`:
      ``T_1 / n`` (Laplace) or ``T_1 / sqrt(n)`` (Gauss), by rescaling t.

    Any other pair (another possibility profile, a ``power_*`` distortion,
    ...) runs the tanh-sinh engine on the deviation and divides by
    :func:`kernel_normalizer`.
    """
    if (mu.kind == "possibility" and mu.kernel.n == kernel.n
            and mu.kernel.x == kernel.x):
        n = kernel.n
        if mu.kernel.family == kernel.family == LAPLACE:
            return (1.0 + math.exp(-2.0)) / (4.0 * n)
        if mu.kernel.family == kernel.family:
            return (math.sqrt(math.pi) * math.erf(1.0) / 4.0 + 0.5 / math.e) / math.sqrt(2.0 * n)
        if mu.kernel.family == LAPLACE:
            return _gauss_laplace_possibility_moment(n)
    power = _power_moments(mu)
    if power is not None:
        if kernel.family == LAPLACE:
            return power[1] / kernel.n
        return power[2] / math.sqrt(kernel.n)
    g = product_level_function(abs_dev(kernel.x), kernel)
    return choquet_integral_real_grid(g, mu) / kernel_normalizer(kernel, mu)
