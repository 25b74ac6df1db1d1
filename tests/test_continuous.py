import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.optimize import brentq

from choquetkit import (CapabilityError, DistortionFunction, DivergenceError,
                        FunctionSpec, IntervalUnion, Kernel, LevelSetFunction,
                        QuadratureError, RealCapacity, choquet_integral_real,
                        choquet_integral_real_grid,
                        choquet_integral_real_with_error, function_spec,
                        kernel_level_function, kernel_normalizer,
                        picard_choquet, product_level_function,
                        weierstrass_choquet)
from choquetkit import continuous
from choquetkit.continuous import (QUAD_ABS_TOL, QUAD_REL_TOL, _lambert_branch,
                                   _lambert_lanes, _lambert_w0, _newton)


def empty_pieces(pieces, n):
    """Endpoint arrays ``[pieces, n]`` with every piece empty."""
    return np.full((pieces, n), math.inf), np.full((pieces, n), -math.inf)


SQRT_M = RealCapacity.sqrt_lebesgue()
XTOL, RTOL, EPS = 1e-13, 4.0 * np.finfo(float).eps, np.finfo(float).eps
PW_KNOTS = [(-1.0, 0.0), (0.0, 2.0), (1.0, 0.5), (2.0, 1.5)]


def plateau(height, a, b):
    """height * indicator of [a, b]: a single layer of the given height, as
    a closed form."""
    return continuous._closed_form(lambda t: height if a <= t <= b else 0.0,
                                   lambda alpha: ((a,), (b,)), height)


CLOSED_FORM_SPECS = [("const", function_spec("const", c=2.0)),
                     ("exp_neg", function_spec("exp_neg")),
                     ("exp_neg_lam2", function_spec("exp_neg", lam=2.0, scale=0.5)),
                     ("abs_dev_centred", function_spec("abs_dev", center=0.3))]


def brentq_level(spec, kernel, alpha):
    """The level set of ``spec.fn * kernel`` at ``alpha`` by brentq: the
    reference of the root-finding lanes, which never sees the pieces'
    formulas or a Lambert W.

    The brackets are the oracle's: the gaps between the ``breakpoints`` of
    ``spec``, the kernel peak and the stationary points of
    :func:`_stationaries`, and the tails out to where :func:`_expand` finds
    the profile below ``alpha``.  A bracket the level set ends inside gets
    one brentq call on the whole bracket, whose ends must straddle the
    level, and a piece that continues the one before joins it."""
    if not alpha > 0:
        raise ValueError("level must be positive")

    def g(t):
        return spec.fn(t) * kernel(t)

    pts = sorted(set(spec.breakpoints) | {kernel.x}
                 | set(continuous._stationaries(spec.pieces, kernel)))
    vals = [g(t) for t in pts]
    if alpha > max(vals):
        return IntervalUnion()
    step0 = max(1.0, 1.0 / kernel.n)
    left = continuous._expand(g, pts[0], alpha, -step0) if vals[0] >= alpha else pts[0]
    right = continuous._expand(g, pts[-1], alpha, step0) if vals[-1] >= alpha else pts[-1]
    out = []
    for a, b, ga, gb in zip([left] + pts, pts + [right], [0.0] + vals, vals + [0.0]):
        if ga < alpha and gb < alpha:
            continue
        if ga < alpha or gb < alpha:
            fa, fb = g(a) - alpha, g(b) - alpha
            assert min(fa, fb) <= 0.0 <= max(fa, fb), ("bracket misses the level", a, b, alpha)
            c = brentq(lambda t: g(t) - alpha, a, b, xtol=XTOL)
            a, b = (a, c) if ga >= alpha else (c, b)
        if out and out[-1][1] == a:
            a = out.pop()[0]
        out.append((a, b))
    return IntervalUnion.from_pairs(out)


ROOT_FINDING_SPECS = [("abs_dev_off_centre", function_spec("abs_dev", center=-0.4)),
                      ("sqrt", function_spec("sqrt", shift=1.0)),
                      ("pw_linear", function_spec("pw_linear", knots=PW_KNOTS))]


def level_functions():
    """Every level-set constructor, against both kernel families, with the
    reference its level sets are held to: :func:`brentq_level` for a
    root-finding product, the scalar oracle for a closed form."""
    g = plateau(2.5, -1.0, 3.0)
    out = [("plateau", g, g.level)]
    for k in (Kernel.laplace(3.0, 0.3), Kernel.gauss(3.0, 0.3)):
        for name, g in [("kernel", kernel_level_function(k))] + [
                (name, product_level_function(spec, k)) for name, spec in CLOSED_FORM_SPECS]:
            out.append((f"{name}*{k.family}", g, g.level))
        out += [(f"{name}*{k.family}", product_level_function(spec, k),
                 functools.partial(brentq_level, spec, k))
                for name, spec in ROOT_FINDING_SPECS]
    return out


LEVEL_FUNCTION_IDS = [label for label, *_ in level_functions()]


def closed_forms():
    """Every closed-form level set: the plateau, the zero constant, and the
    bare kernel and each closed-form product against both kernel
    families."""
    out = [("plateau", plateau(2.5, -1.0, 3.0)),
           ("zero", product_level_function(function_spec("const", c=0.0),
                                           Kernel.laplace(3.0, 0.3)))]
    for k in (Kernel.laplace(3.0, 0.3), Kernel.gauss(3.0, 0.3)):
        out.append((f"kernel*{k.family}", kernel_level_function(k)))
        out += [(f"{name}*{k.family}", product_level_function(spec, k))
                for name, spec in CLOSED_FORM_SPECS]
    return out


def batched_union(lo, hi, i):
    return IntervalUnion.from_pairs(
        [(a, b) for a, b in zip(lo[:, i], hi[:, i]) if a <= b])


def contains(union, t):
    return any(a <= t <= b for a, b in union.intervals)


def issubset(inner, outer):
    return all(any(oa <= a and b <= ob for oa, ob in outer.intervals)
               for a, b in inner.intervals)


def scalar_capacity(mu, A):
    """The capacity of an :class:`IntervalUnion` one component at a time,
    with ``math.fsum`` and the scalar kernel: the reference that
    :meth:`RealCapacity.values` is held to."""
    if not A.intervals:
        return 0.0
    if mu.kind == "distorted_lebesgue":
        length = math.fsum(b - a for a, b in A.intervals)
        return mu.gamma(length) if length > 0 else 0.0
    x = mu.kernel.x
    return max(mu.kernel(min(max(x, a), b)) for a, b in A.intervals)


def lambert_branches(L):
    """``(W_0, W_{-1})`` at ``z = -exp(L)`` from the per-lane solver."""
    return (_lambert_branch(L, np.ones(L.shape, bool)),
            _lambert_branch(L, np.zeros(L.shape, bool)))


def close_gaps(union, tol=1e-12):
    """Merge components closer than the root solvers resolve."""
    return IntervalUnion.from_pairs((a - tol / 2, b + tol / 2) for a, b in union.intervals)


class TestProductLevelSets:
    def test_exp_neg_matches_displayed_interval(self):
        # f = exp(-t), Laplace kernel: [(nx + ln a)/(n-1), (nx - ln a)/(n+1)]
        spec = function_spec("exp_neg")
        n, x = 3.0, 0.4
        g = product_level_function(spec, Kernel.laplace(n, x))
        for alpha in (0.1, 0.3, math.exp(-x)):
            level = g.level(alpha)
            la = math.log(alpha)
            lo, hi = level.intervals[0]
            assert lo == pytest.approx((n * x + la) / (n - 1.0), abs=1e-12)
            assert hi == pytest.approx((n * x - la) / (n + 1.0), abs=1e-12)
        assert not g.level(math.exp(-x) * 1.0001).intervals

    def test_exp_neg_requires_decay(self):
        with pytest.raises(DivergenceError):
            product_level_function(function_spec("exp_neg", lam=2.0),
                                   Kernel.laplace(1.5, 0.0))

    @pytest.mark.parametrize("kernel,t,exponent", [
        (Kernel.laplace(1.5, 0.0), -1000.0, -500.0),
        (Kernel.laplace(2.0, 0.0), -600.0, -600.0),
        (Kernel.gauss(0.0005, 0.0), -1000.0, 500.0),
        (Kernel.gauss(2.0, 0.0), -1000.0, -1999000.0)],
        ids=["laplace_1.5", "laplace_2", "gauss_0.0005", "gauss_2"])
    def test_exp_neg_value_far_left_of_the_kernel(self, kernel, t, exponent):
        # exp(-t) overflows and the kernel underflows at t, but the product
        # exp(-t - n|t|) or exp(-t - n t**2) is a float (or 0)
        g = product_level_function(function_spec("exp_neg"), kernel)
        assert g.value(t) == pytest.approx(math.exp(exponent), rel=1e-12, abs=0.0)

    def test_exp_neg_value_at_the_kernel_peak_is_unchanged(self, rng):
        # at t = x the kernel factor is exp(0) = 1, so the one exponent gives
        # the two-factor product bit for bit: a possibility capacity centred
        # on the kernel reads the same peak level
        for _ in range(2000):
            lam, scale = rng.uniform(0.0, 5.0), rng.uniform(0.01, 10.0)
            n, x = rng.uniform(lam + 0.01, 20.0), rng.uniform(-100.0, 100.0)
            spec = function_spec("exp_neg", lam=lam, scale=scale)
            for kernel in (Kernel.laplace(n, x), Kernel.gauss(n, x)):
                g = product_level_function(spec, kernel)
                assert g.value(x) == scale * math.exp(-lam * x) * kernel(x)

    def test_exp_neg_far_from_a_possibility_peak(self):
        # the capacity's peak lies 600 left of the kernel: its rectangle is
        # g(-600) = exp(-600), and both engines agree on the integral
        g = product_level_function(function_spec("exp_neg"), Kernel.laplace(2.0, 0.0))
        mu = RealCapacity.possibility(Kernel.laplace(1.0, -600.0))
        assert mu.peak_level(g.value) == pytest.approx(math.exp(-600.0), rel=1e-12, abs=0.0)
        value = choquet_integral_real(g, mu)
        assert value > math.exp(-600.0)
        assert choquet_integral_real_grid(g, mu) == pytest.approx(value, rel=QUAD_REL_TOL, abs=0.0)

    def test_exp_neg_gauss_any_rate(self):
        spec = function_spec("exp_neg", lam=3.0)
        g = product_level_function(spec, Kernel.gauss(1.0, 0.0))
        assert g.sup_value == pytest.approx(math.exp(9.0 / 4.0), abs=1e-12)
        lv = g.level(1.0)
        assert lv.intervals

    def test_const_matches_bare_kernel(self):
        k = Kernel.laplace(2.0, -1.0)
        bare = kernel_level_function(k)
        prod = product_level_function(function_spec("e0"), k)
        for alpha in (0.2, 0.7, 1.0):
            assert prod.level(alpha) == bare.level(alpha)
        assert product_level_function(function_spec("e0"), k).level(0.5) == bare.level(0.5)

    def test_abs_dev_annulus(self):
        n, x = 3.0, 0.5
        g = product_level_function(function_spec("abs_dev", center=x),
                                   Kernel.laplace(n, x))
        assert g.sup_value == pytest.approx(1.0 / (n * math.e), abs=1e-15)
        level = g.level(0.5 / (n * math.e))
        assert len(level.intervals) == 2
        (a1, b1), (a2, b2) = level.intervals
        # symmetric annulus, and the profile really crosses alpha at the rims
        assert a1 == pytest.approx(2 * x - b2, abs=1e-10)
        assert b1 == pytest.approx(2 * x - a2, abs=1e-10)
        for r in (a2 - x, b2 - x):
            assert r * math.exp(-n * r) == pytest.approx(0.5 / (n * math.e), abs=1e-12)
        assert not g.level(1.01 / (n * math.e)).intervals

    def test_abs_dev_gauss_annulus(self):
        n, x = 2.0, 0.0
        g = product_level_function(function_spec("abs_dev", center=x),
                                   Kernel.gauss(n, x))
        assert g.sup_value == pytest.approx(1.0 / math.sqrt(2 * n * math.e), abs=1e-15)
        level = g.level(g.sup_value / 2)
        assert len(level.intervals) == 2
        for a, b in level.intervals:
            for r in (abs(a), abs(b)):
                assert r * math.exp(-n * r * r) == pytest.approx(
                    g.sup_value / 2, abs=1e-12)

    @pytest.mark.parametrize("label,g,reference", level_functions(), ids=LEVEL_FUNCTION_IDS)
    def test_level_sets_are_superlevel_sets(self, label, g, reference):
        # away from the boundary, the oracle and its reference hold exactly
        # {t : g(t) >= alpha}
        ts = [float(t) for t in np.linspace(-3.0, 4.0, 300)]
        gts = [g.value(t) for t in ts]
        alphas = [g.sup_value * f for f in (1e-3, 0.05, 0.3, 0.7, 1.0)]
        alphas += list(g.alpha_breakpoints)
        lo, hi = g.levels(alphas)
        for i, alpha in enumerate(alphas):
            for level in (reference(alpha), batched_union(lo, hi, i)):
                for t, gt in zip(ts, gts):
                    if abs(gt - alpha) > 1e-6:
                        assert contains(level, t) == (gt >= alpha), (t, gt, alpha)

    def test_nested_levels(self):
        specs = [
            product_level_function(function_spec("exp_neg"), Kernel.laplace(2.0, 0.3)),
            product_level_function(function_spec("abs_dev", center=0.3),
                                   Kernel.laplace(2.0, 0.3)),
            product_level_function(
                function_spec("pw_linear", knots=[(0.0, 1.0), (1.0, 3.0)]),
                Kernel.gauss(2.0, 0.3)),
        ]
        for g in specs:
            alphas = np.linspace(g.sup_value * 1e-3, g.sup_value * 0.999, 12)
            for a1, a2 in zip(alphas, alphas[1:]):
                assert issubset(g.level(float(a2)), g.level(float(a1)))

    def test_level_requires_positive_alpha(self):
        for spec in (function_spec("exp_neg"), function_spec("sqrt", shift=1.0)):
            g = product_level_function(spec, Kernel.laplace(2.0, 0.0))
            for bad in (0.0, math.nan):
                with pytest.raises(ValueError):
                    g.level(bad)

    def test_rejects_signed_function(self):
        with pytest.raises(ValueError):
            product_level_function(function_spec("e1"), Kernel.laplace(2.0, 0.0))


STATIONARY_SPECS = {
    "sqrt_shift_-0.4": function_spec("sqrt", shift=-0.4),
    "sqrt_shift_0": function_spec("sqrt", shift=0.0),
    "sqrt_shift_3": function_spec("sqrt", shift=3.0),
    "pw_linear_3": function_spec("pw_linear", knots=[(-1.0, 1.0), (0.0, 2.0), (1.0, 0.5)]),
    "pw_linear_5_flat": function_spec("pw_linear", knots=[
        (-2.0, 0.5), (-1.0, 1.5), (0.0, 1.5), (0.5, 0.2), (2.0, 1.0)]),
    "abs_dev_off_centre": function_spec("abs_dev", center=-0.4),
}


@pytest.mark.parametrize("spec", STATIONARY_SPECS.values(), ids=STATIONARY_SPECS.keys())
def test_log_pieces_end_at_the_breakpoints(spec):
    # the modulus and the classical Picard operator split at a spec's
    # breakpoints, the oracle's brackets at the ends of its pieces: both
    # list the same kinks, and the pieces cover the line without a gap
    pieces = spec.pieces
    ends = {e for lo, hi, *_ in pieces for e in (lo, hi) if math.isfinite(e)}
    assert tuple(sorted(ends)) == spec.breakpoints
    assert pieces[0][0] == -math.inf and pieces[-1][1] == math.inf
    assert all(left[1] == right[0] for left, right in zip(pieces, pieces[1:]))


@pytest.mark.parametrize("name", ["cubic", "sqrt", "pw_linear", "const", "exp_neg",
                                  "abs_dev"])
def test_a_spec_without_pieces_has_no_root_finding_level_sets(name):
    # a registered name without the family's record, as much as an unknown
    # name, is a capability the oracle lacks: no closed form is chosen by
    # the name, and no parameter is looked up
    spec = FunctionSpec(name, lambda t: t * t, nonneg_real_line=True)
    for kernel in (Kernel.laplace(2.0, 0.3), Kernel.gauss(2.0, 0.3)):
        with pytest.raises(CapabilityError, match=name):
            product_level_function(spec, kernel)
    for op in (picard_choquet, weierstrass_choquet):
        with pytest.raises(CapabilityError, match=name):
            op(spec, 2.0, 0.3, SQRT_M)


def test_the_exponential_record_holds_on_the_whole_line():
    # exp(+t) declared as (1, -1) is exp_neg mirrored about 0, and the two
    # kernels and Lebesgue-type capacities are symmetric; against a Laplace
    # kernel it needs n > |lam|, as exp_neg does
    spec = FunctionSpec("grow", math.exp, nonneg_real_line=True, exponential=(1.0, -1.0))
    for op in (picard_choquet, weierstrass_choquet):
        for n, x in ((2.0, -0.5), (8.0, 0.3)):
            assert op(spec, n, x, SQRT_M) == op(function_spec("exp_neg"), n, -x, SQRT_M)
    with pytest.raises(DivergenceError, match="needs n > "):
        product_level_function(spec, Kernel.laplace(1.0, 0.0))


@pytest.mark.parametrize("kernel", [Kernel.laplace(2.0, 0.3), Kernel.gauss(2.0, 0.3)],
                         ids=["laplace", "gauss"])
def test_a_distortion_takes_the_closed_form_of_what_it_computes(kernel):
    # the identity under the name "sqrt" is Lebesgue length: its normalizer
    # is 2/n = 1 (Laplace) or sqrt(pi/n) (Gauss), not the sqrt formula's
    mu = RealCapacity.distorted_lebesgue(DistortionFunction("sqrt", lambda t: t))
    want = kernel_normalizer(kernel, RealCapacity.lebesgue())
    assert want == pytest.approx(1.0 if kernel.family == "laplace" else math.sqrt(math.pi / 2))
    assert kernel_normalizer(kernel, mu) == pytest.approx(want, rel=QUAD_REL_TOL)


@pytest.mark.parametrize("family", ["laplace", "gauss"])
@pytest.mark.parametrize("spec", STATIONARY_SPECS.values(), ids=STATIONARY_SPECS.keys())
def test_stationaries_split_the_profile_into_monotone_brackets(spec, family):
    # the root-finding oracles assume the profile is monotone between the
    # knots, the kernel peak and the stationary points; a stationary point
    # that _stationaries misses turns a bracket and lowers sup_value.  The x
    # values include knots of the pw_linear specs and the support start of
    # every sqrt spec.  Below the smallest normal float the profile has no
    # relative precision left to compare.
    knots, pieces = spec.breakpoints, spec.pieces
    for n in (1.5, 2.0, 8.0, 64.0):
        for x in (-3.0, -1.0, 0.0, 0.4, 1.3):
            kernel = Kernel(family, n, x)
            pts = sorted(set(knots) | {x} | set(continuous._stationaries(pieces, kernel)))
            ends = [pts[0] - 5.0] + pts + [pts[-1] + 5.0]
            top = 0.0
            for a, b in zip(ends, ends[1:]):
                ts = np.linspace(a, b, 1001)
                y = np.array([spec.fn(float(t)) for t in ts]) * kernel.values(ts)
                top = max(top, y.max())
                step = np.diff(y)
                tol = max(1e-12 * y.max(), np.finfo(float).tiny)
                assert np.all(step >= -tol) or np.all(step <= tol), (n, x, a, b)
            assert product_level_function(spec, kernel).sup_value >= top * (1.0 - 1e-12)


def pw_linear_or_none(knots):
    """The pw_linear spec through ``knots``, or None where the factory
    rejects them (two knots too close for a finite slope)."""
    try:
        return function_spec("pw_linear", knots=knots)
    except ValueError:
        return None


def root_finding_specs():
    """sqrt with a shift, abs_dev with a centre and pw_linear with 2 to 5
    knots, all in [-5, 5] (values of pw_linear in [0, 3])."""
    coord = st.floats(-5.0, 5.0)
    knots = st.lists(st.tuples(coord, st.floats(0.0, 3.0)), min_size=2, max_size=5,
                     unique_by=lambda k: k[0])
    return st.one_of(st.builds(lambda s: function_spec("sqrt", shift=s), coord),
                     st.builds(lambda c: function_spec("abs_dev", center=c), coord),
                     st.builds(pw_linear_or_none, knots).filter(lambda s: s is not None))


def rounding_band(spec, kernel, t, log_alpha):
    """How far the rounding of the log profile ``h = log f + log K`` moves
    a root at ``t``: ``8 eps (1 + |log alpha| + kappa)`` over ``|h'(t)|``,
    the larger where ``t`` is a knot.  The ``|log alpha|`` term is the
    rounding of the logs, as in ``_ROOT_HTOL``; ``kappa`` is the relative
    condition of ``f`` on a piece ``c |t + d|**p``, ``(|t| + |d| + |e + d|
    summed over its finite ends e) / |t + d|``, which covers ``t + d`` in
    the Lambert lanes and pw_linear's interpolation between the ends in
    brentq's ``spec.fn``.  The slope of ``log K`` is ``-n sign(t - x)``
    for a Laplace kernel and ``-2n (t - x)`` for a Gauss kernel.  Next to
    a stationary point ``t_m``, ``h' = kappa_h delta`` and ``rel = kappa_h
    delta**2 / 2`` make this the band ``4 eps delta / rel`` of
    ``test_newton_next_to_a_gauss_local_maximum`` with a wider rounding."""
    if kernel.family == "laplace":
        kernel_slope = -kernel.n * math.copysign(1.0, t - kernel.x)
    else:
        kernel_slope = -2.0 * kernel.n * (t - kernel.x)
    bands = [0.0]  # at a zero of f the slope is infinite
    for lo, hi, c, p, d in spec.pieces:
        if lo <= t <= hi and t + d != 0.0 and c > 0.0:
            ends = sum(abs(e + d) for e in (lo, hi) if math.isfinite(e))
            kappa = (abs(t) + abs(d) + ends) / abs(t + d)
            slope = (p / (t + d) if p > 0.0 else 0.0) + kernel_slope
            bands.append(8.0 * EPS * (1.0 + abs(log_alpha) + kappa) / max(abs(slope), EPS))
    return max(bands)


def assert_ends_match_brentq(spec, kernel, alpha, level):
    """``level``, a level set of ``spec.fn * kernel`` at ``alpha``, against
    :func:`brentq_level` within brentq's tolerance plus the rounding band."""
    got, want = close_gaps(level), close_gaps(brentq_level(spec, kernel, alpha))
    assert len(got.intervals) == len(want.intervals), (alpha, got, want)
    for a, b in zip([t for piece in got.intervals for t in piece],
                    [t for piece in want.intervals for t in piece]):
        band = rounding_band(spec, kernel, b, math.log(alpha))
        assert abs(a - b) <= XTOL + RTOL * abs(b) + band, (alpha, a, b)


def assert_batched_ends_match_brentq(spec, kernel, frac):
    """The batched oracle against :func:`brentq_level` at levels from 1e-12
    of sup up to sup and just below each level breakpoint; levels below the
    smallest normal float have no relative precision left.  The deviation
    centred at the kernel peak is the Lambert closed form, not a
    root-finding product."""
    assume(not continuous._centred_deviation(spec, kernel))
    g = product_level_function(spec, kernel)
    sup = g.sup_value
    alphas = [sup * f for f in (1e-12, 1e-6, frac, 0.5, 1.0 - 1e-9, 1.0)]
    alphas += [v * (1.0 - 1e-9) for v in g.alpha_breakpoints]
    alphas = [alpha for alpha in alphas if alpha >= 1e-290]
    if not alphas:
        return
    lo, hi = g.levels(alphas)
    for i, alpha in enumerate(alphas):
        assert_ends_match_brentq(spec, kernel, alpha, batched_union(lo, hi, i))


@given(root_finding_specs(), st.floats(1e-3, 1e4), st.floats(-100.0, 100.0),
       st.floats(1e-12, 1.0))
def test_laplace_lambert_ends_match_brentq(spec, n, x, frac):
    # the Lambert lanes against brentq
    assert_batched_ends_match_brentq(spec, Kernel.laplace(n, x), frac)


@given(root_finding_specs(), st.floats(1e-3, 1e4), st.floats(-100.0, 100.0),
       st.floats(1e-12, 1.0))
def test_gauss_newton_ends_match_brentq(spec, n, x, frac):
    # the Newton lanes against brentq, an independent root finder that
    # only the tests run
    assert_batched_ends_match_brentq(spec, Kernel.gauss(n, x), frac)


@pytest.mark.parametrize("n,x", [(math.inf, 0.0), (math.nan, 0.0), (2.0, math.nan),
                                 (2.0, -math.inf)])
def test_kernel_rejects_non_finite_parameters(n, x):
    for family in ("laplace", "gauss"):
        with pytest.raises(ValueError, match="finite"):
            Kernel(family, n, x)


def test_real_capacity_rejects_an_unknown_or_incomplete_kind():
    kernel = Kernel.laplace(2.0, 0.3)
    with pytest.raises(ValueError, match="unknown capacity kind 'posibility'"):
        RealCapacity("posibility", kernel=kernel)
    with pytest.raises(ValueError, match="needs a kernel"):
        RealCapacity("possibility")
    with pytest.raises(ValueError, match="needs a gamma"):
        RealCapacity("distorted_lebesgue", kernel=kernel)
    assert RealCapacity("possibility", kernel=kernel) == RealCapacity.possibility(kernel)


class TestBatchedOracle:
    @pytest.mark.parametrize("label,g,reference", level_functions(), ids=LEVEL_FUNCTION_IDS)
    def test_levels_match_level(self, label, g, reference):
        sup = g.sup_value
        alphas = np.concatenate([
            np.linspace(sup * 1e-3, sup, 15), list(g.alpha_breakpoints),
            [sup * math.exp(-60.0), sup * math.exp(-20.0), sup * (1 + 1e-9),
             2.0 * sup]])
        lo, hi = g.levels(alphas)
        assert lo.shape == hi.shape and lo.shape[1] == alphas.size
        assert not np.isnan(lo).any() and not np.isnan(hi).any()
        for i, alpha in enumerate(alphas):
            want = close_gaps(reference(float(alpha)))
            got = close_gaps(batched_union(lo, hi, i))
            assert len(got.intervals) == len(want.intervals), (alpha, got, want)
            for (a1, b1), (a2, b2) in zip(got.intervals, want.intervals):
                assert a1 == pytest.approx(a2, abs=1e-12), alpha
                assert b1 == pytest.approx(b2, abs=1e-12), alpha
        assert (lo[:, -2:] > hi[:, -2:]).all()  # above sup: every piece empty

    @pytest.mark.parametrize("label,g", closed_forms(),
                             ids=[label for label, _ in closed_forms()])
    def test_closed_form_level_is_its_levels_column(self, label, g):
        # a closed form's scalar oracle is the column of the batched one at
        # [alpha], bit for bit: at the smallest level, inside, at sup (its
        # only level breakpoint), one ulp above it and far above it
        sup = g.sup_value
        assert g.alpha_breakpoints == ()
        for alpha in (5e-324, 1e-300, 0.3 * sup, sup, math.nextafter(sup, math.inf), 2.0 * sup):
            if alpha > 0.0:
                lo, hi = g.levels([alpha])
                assert g.level(alpha) == batched_union(lo, hi, 0), alpha
        assert not g.level(math.nextafter(sup, math.inf)).intervals
        if sup > 0.0:
            assert g.level(sup).intervals
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                g.level(bad)

    @pytest.mark.parametrize("kernel", [Kernel.laplace(3.0, 0.3), Kernel.gauss(3.0, 0.3)],
                             ids=["laplace", "gauss"])
    @pytest.mark.parametrize("spec", [spec for _, spec in ROOT_FINDING_SPECS],
                             ids=[name for name, _ in ROOT_FINDING_SPECS])
    def test_root_finding_level_is_its_levels_column(self, spec, kernel):
        # a root-finding product's scalar oracle is the column of its batched
        # one too, bit for bit, at every level breakpoint, inside, at sup
        # and above it
        g = product_level_function(spec, kernel)
        sup = g.sup_value
        alphas = [1e-300, 1e-6 * sup, 0.3 * sup, sup, math.nextafter(sup, math.inf), 2.0 * sup]
        for alpha in alphas + list(g.alpha_breakpoints):
            lo, hi = g.levels([alpha])
            assert g.level(alpha) == batched_union(lo, hi, 0), alpha
        assert not g.level(math.nextafter(sup, math.inf)).intervals
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                g.level(bad)

    def test_zero_constant_has_only_empty_levels(self):
        g = product_level_function(function_spec("const", c=0.0), Kernel.laplace(2.0, 0.0))
        lo, hi = g.levels([1e-9, 0.5, 2.0])
        assert lo.shape == (1, 3) and (lo > hi).all()
        assert not g.level(0.5).intervals
        # like every other oracle, a nonpositive level is an error
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                g.level(bad)

    def test_levels_require_positive_alpha(self):
        g = product_level_function(function_spec("sqrt"), Kernel.laplace(2.0, 0.0))
        for bad in ([0.5, 0.0], [-1.0], [math.nan]):
            with pytest.raises(ValueError):
                g.levels(bad)

    @pytest.mark.parametrize("kernel", [Kernel.laplace(2.0, 0.4), Kernel.gauss(3.0, -0.2)])
    def test_capacity_values_match_value(self, kernel):
        rng = np.random.default_rng(5)
        caps = [SQRT_M, RealCapacity.lebesgue(), RealCapacity.possibility(kernel)]
        sets = []
        for _ in range(60):
            ends = np.sort(rng.uniform(-3.0, 3.0, size=6))
            pairs = [(ends[0], ends[1]), (ends[2], ends[3]), (ends[4], ends[5])]
            if rng.random() < 0.3:  # touching pieces
                pairs[1] = (ends[1], ends[3])
            if rng.random() < 0.2:  # a single point
                pairs[2] = (ends[4], ends[4])
            sets.append([p if rng.random() < 0.7 else (math.inf, -math.inf)
                         for p in pairs])
        sets.append([(math.inf, -math.inf)] * 3)
        sets.append([(kernel.x - 1.0, kernel.x + 1.0)] + [(math.inf, -math.inf)] * 2)
        lo = np.array([[p[j][0] for p in sets] for j in range(3)])
        hi = np.array([[p[j][1] for p in sets] for j in range(3)])
        for mu in caps:
            got = mu.values(lo, hi)
            for i, pairs in enumerate(sets):
                union = IntervalUnion.from_pairs(p for p in pairs if p[0] <= p[1])
                assert got[i] == pytest.approx(scalar_capacity(mu, union), rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("kernel", [Kernel.laplace(2.0, 0.4), Kernel.gauss(3.0, -0.2)])
    def test_capacity_value_is_the_column_of_values(self, kernel):
        # random unions, the empty set, single points and touching pieces
        # (merged by from_pairs), each padded with empty pieces to the
        # widest: value reads the column of values bit for bit
        rng = np.random.default_rng(11)
        unions = [IntervalUnion(), IntervalUnion.from_pairs([(0.5, 0.5)]),
                  IntervalUnion.from_pairs([(-1.0, 0.0), (0.0, 2.0)])]
        for _ in range(200):
            ends = np.sort(rng.uniform(-3.0, 3.0, size=2 * int(rng.integers(1, 5))))
            pairs = list(zip(ends[::2], ends[1::2]))
            if rng.random() < 0.3:
                pairs.append((ends[1], ends[1] + 0.5))
            if rng.random() < 0.3:
                pairs.append((ends[0] - 1.0, ends[0] - 1.0))
            unions.append(IntervalUnion.from_pairs(p for p in pairs if rng.random() < 0.8))
        width = max(len(u.intervals) for u in unions)
        padded = [u.intervals + ((math.inf, -math.inf),) * (width - len(u.intervals))
                  for u in unions]
        lo, hi = np.array(padded).transpose(2, 1, 0)
        for mu in (SQRT_M, RealCapacity.lebesgue(), RealCapacity.possibility(kernel)):
            got = mu.values(lo, hi)
            for i, union in enumerate(unions):
                assert mu.value(union) == got[i], (mu.kind, union)
                assert type(mu.value(union)) is float

    def test_lambert_branch_point(self):
        # scipy's lambertw is NaN at -1/e itself; both branches meet at -1 there
        from scipy.special import lambertw
        w0, wm1 = lambert_branches(np.log([1.0 / math.e, 1.0 / math.e + 1e-17, 0.5, 0.1]))
        assert w0[:3].tolist() == [-1.0] * 3 and wm1[:3].tolist() == [-1.0] * 3
        assert (w0[3], wm1[3]) == pytest.approx(
            (lambertw(-0.1, 0).real, lambertw(-0.1, -1).real), rel=1e-15)

    def test_lambert_matches_scipy(self):
        # z log-spaced over [-1/e, -1e-300]; both solvers see the same z
        from scipy.special import lambertw
        L = np.linspace(math.log(1e-300), -1.0, 2001)
        z = -np.exp(L)
        far = z + 1.0 / math.e > 1e-8
        w0, wm1 = lambert_branches(L)
        for k, ours in ((0, w0), (-1, wm1)):
            want = lambertw(z[far], k).real
            assert np.all(np.isfinite(want))
            assert ours[far] == pytest.approx(want, rel=1e-15)
        # a lane's value does not depend on the branches its neighbours ask for
        upper = np.arange(L.size) % 3 == 0
        assert np.array_equal(_lambert_branch(L, upper), np.where(upper, w0, wm1))

    def test_lambert_residual_at_branch_point(self):
        # within 1e-8 of -1/e the values are held to w + log(-w) = L instead;
        # scipy's W_{-1} keeps a residual near 5e-9 there
        from scipy.special import lambertw
        L = -1.0 - np.geomspace(1e-16, 2.7e-8, 200)
        z = -np.exp(L)
        assert np.all(z + 1.0 / math.e <= 1e-8)
        w0, wm1 = lambert_branches(L)
        for ours in (w0, wm1):
            assert np.all(np.abs(ours + np.log(-ours) - L) <= 4e-16)
        assert np.all(w0 >= -1.0) and np.all(wm1 <= -1.0)
        for k in (0, -1):
            theirs = lambertw(z, k).real
            ok = np.isfinite(theirs)  # NaN where z rounds to -1/e itself
            assert np.all(np.abs(theirs[ok] + np.log(-theirs[ok]) - L[ok]) <= 1e-8)

    def test_lambert_w0_matches_scipy(self):
        # z = exp(L) from the smallest subnormal to 1e304; both solvers see
        # the same z
        from scipy.special import lambertw
        L = np.linspace(-745.0, 700.0, 20001)
        want = lambertw(np.exp(L)).real
        assert np.all(want > 0.0)
        assert _lambert_w0(L) == pytest.approx(want, rel=1e-15)

    def test_lambert_w0_residual_to_the_float_limits(self):
        # where exp(L) overflows, w + log(w) = L holds within rounding; the
        # largest L takes no square of w, the smallest gives W_0 = z = 0
        big = np.finfo(float).max
        L = np.concatenate([np.geomspace(1.0, 1e6, 2001), [1e100, 1e300, big]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = _lambert_w0(L)
            tiny = _lambert_w0(np.array([-746.0, -1e6, -big]))
        assert np.all(np.abs(w + np.log(w) - L) <= 2.0 * EPS * L)
        assert tiny.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("kernel", [Kernel.laplace(2.0, 0.3), Kernel.gauss(2.0, 0.3)])
    def test_deviation_radii_down_to_tiny_levels(self, kernel):
        # alpha = 1e-300 is s = 690, far past where alpha**2 underflows
        g = product_level_function(function_spec("abs_dev", center=0.3), kernel)
        alphas = np.geomspace(g.sup_value, 1e-300, 400)
        lo, hi = g.levels(alphas)
        for i, alpha in enumerate(alphas):
            level = g.level(float(alpha))
            assert level.intervals[0][0] == pytest.approx(lo[0, i], rel=1e-15)
            assert level.intervals[-1][1] == pytest.approx(hi[1, i], rel=1e-15)
        inner, outer = lo[1] - 0.3, hi[1] - 0.3
        assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
        assert np.all(np.diff(inner) <= 0.0) and np.all(np.diff(outer) >= 0.0)
        assert inner[-1] >= 0.0 and outer[-1] > outer[0]

    @pytest.mark.parametrize("kernel", [Kernel.laplace(2.0, 0.3), Kernel.gauss(2.0, 0.3)])
    @pytest.mark.parametrize("spec", [function_spec("const", c=2.0),
                                      function_spec("const", c=3.0),
                                      function_spec("exp_neg", scale=2.0)],
                             ids=["const2", "const3", "exp_neg_scale2"])
    def test_closed_forms_at_the_smallest_level(self, kernel, spec):
        # alpha / c underflows to 0 at the smallest subnormal level, but the
        # level set there is a finite interval
        g = product_level_function(spec, kernel)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            level = g.level(5e-324)
            lo, hi = g.levels([5e-324])
        ((a, b),) = level.intervals
        assert math.isfinite(a) and math.isfinite(b) and a < b
        assert lo[:, 0] == pytest.approx([a], rel=1e-15)
        assert hi[:, 0] == pytest.approx([b], rel=1e-15)

    @staticmethod
    def lanes(*brackets):
        """Per-lane arrays ``(a, b, log alpha, rising, log c, p, d)`` of
        ``(a, b, alpha, rising, c, p, d)``, the lanes of ``f = c |t + d|**p``."""
        a, b, alphas, rising, c, p, d = map(np.array, zip(*brackets))
        with np.errstate(invalid="ignore"):
            return a, b, np.log(alphas), rising, np.log(c), p, d

    def test_newton_matches_brentq_within_its_pass_cap(self, monkeypatch):
        # exp(-2 t**2) on [0, 16]: the constant piece f = 1 (p = 0, with d
        # keeping t + d >= 1) against Gauss(2, 0), whose log profile is the
        # quadratic model
        monkeypatch.setattr(continuous, "_NEWTON_PASSES", 3)
        alphas = [0.9, 0.3, 1e-6]
        roots = _newton(Kernel.gauss(2.0, 0.0),
                        *self.lanes(*[(0.0, 16.0, alpha, False, 1.0, 0.0, 1.0)
                                      for alpha in alphas]))
        for alpha, root in zip(alphas, roots):
            want = brentq(lambda t: math.exp(-2.0 * t * t) - alpha, 0.0, 16.0, xtol=1e-13)
            assert root == pytest.approx(want, abs=2e-13)

    def test_newton_solves_rising_and_falling_brackets_together(self, monkeypatch):
        # t * exp(-t**2), the piece f = |t| (p = 1, d = 0) against Gauss(1, 0),
        # rises on [0, r] and falls on [r, inf) with r = sqrt(1/2); brackets
        # of different widths and directions share one call, and two rising
        # ones start at the zero of f, where the log profile is -inf
        monkeypatch.setattr(continuous, "_NEWTON_PASSES", 8)
        r = math.sqrt(0.5)
        brackets = [(0.0, r, 0.2, True), (0.25, r, 0.3, True),
                    (r, 8.0, 0.2, False), (r, 40.0, 1e-9, False),
                    (r, 3.0, 0.3, False), (0.0, r, 1e-12, True)]
        roots = _newton(Kernel.gauss(1.0, 0.0),
                        *self.lanes(*[lane + (1.0, 1.0, 0.0) for lane in brackets]))
        for (a, b, alpha, _), root in zip(brackets, roots):
            want = brentq(lambda t: t * math.exp(-t * t) - alpha, a, b, xtol=1e-13)
            assert root == pytest.approx(want, abs=2e-13)

    def test_newton_never_loops_unbounded(self, monkeypatch):
        gauss = Kernel.gauss(1.0, 0.0)
        const = (1.0, 0.0, 2.0)  # f = 1, with t + d >= 1 on [0, 1]
        with pytest.raises(QuadratureError, match=r"\[nan, 1.0\] is not finite"):
            _newton(gauss, *self.lanes((0.0, 1.0, 0.5, False) + const,
                                       (math.nan, 1.0, 0.5, False) + const))
        with pytest.raises(QuadratureError, match="not finite"):
            _newton(gauss, *self.lanes((-math.inf, 1.0, 0.5, False) + const))
        with pytest.raises(QuadratureError, match=r"NaN inside \[0.0, 1.0\]"):
            _newton(gauss, *self.lanes((0.0, 1.0, 0.5, False, math.nan, 0.0, 2.0)))
        # with stopping rules no lane can meet, the pass cap ends the loop
        monkeypatch.setattr(continuous, "_ROOT_XTOL", 0.0)
        monkeypatch.setattr(continuous, "_ROOT_RTOL", 0.0)
        monkeypatch.setattr(continuous, "_ROOT_HTOL", -1.0)
        passes = continuous._NEWTON_PASSES
        r = math.sqrt(0.5)
        with pytest.raises(QuadratureError,
                           match=rf"on \[0.0, {r}\] did not converge in {passes} passes"):
            _newton(gauss, *self.lanes((0.0, r, 0.2, True, 1.0, 1.0, 0.0),
                                       (r, 8.0, 0.2, False, 1.0, 1.0, 0.0)))

    def test_lambert_lanes_match_brentq(self):
        # c |t + d|**p exp(-n |t - x|) on both sides of the peak: the
        # kernel's closed form on constant pieces, and on power pieces the
        # bump t exp(-|t|) on W_0 (next to the zero of f) and W_{-1}, and
        # |t -+ 2| exp(-|t|), which falls away from the peak with f, on the
        # W_0 of z > 0
        cases = [
            (Kernel.laplace(2.0, 0.0), (1.0, 0.0, 1.0),
             [(0.0, 16.0, alpha, False) for alpha in (0.9, 0.3, 1e-6, 1e-12)]
             + [(-16.0, 0.0, alpha, True) for alpha in (0.9, 1e-6)]),
            (Kernel.laplace(1.0, 0.0), (1.0, 1.0, 0.0),
             [(0.0, 1.0, 0.2, True), (0.25, 1.0, 0.3, True), (1.0, 8.0, 0.2, False),
              (1.0, 40.0, 1e-9, False), (1.0, 3.0, 0.3, False), (0.0, 1.0, 1e-12, True),
              (-40.0, -1.0, 1e-9, True), (-1.0, 0.0, 0.3, False)]),
            (Kernel.laplace(1.0, 0.0), (1.0, 1.0, -2.0),
             [(0.0, 2.0, alpha, False) for alpha in (1.9, 0.5, 1e-3, 1e-12)]),
            (Kernel.laplace(1.0, 0.0), (3.0, 0.5, 2.0),
             [(-2.0, 0.0, alpha, True) for alpha in (4.2, 1.0, 1e-9)]),
        ]
        for kernel, (c, p, d), brackets in cases:
            def g(t):
                return c * abs(t + d) ** p * kernel(t)

            roots = _lambert_lanes(kernel, *self.lanes(*[lane + (c, p, d)
                                                         for lane in brackets]))
            for (a, b, alpha, _), root in zip(brackets, roots):
                want = brentq(lambda t: g(t) - alpha, a, b, xtol=1e-13)
                assert root == pytest.approx(want, abs=XTOL + RTOL * abs(want)), (p, d, a, b)

    def test_lambert_lanes_at_the_top_of_the_float_range(self):
        # exp(-(t - 1e308) / 1e308) = exp(-1/2) at t = 1.5e308, with no
        # overflowing midpoint
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            root = _lambert_lanes(Kernel.laplace(1e-308, 1e308),
                                  *self.lanes((1e308, 1.7e308, math.exp(-0.5), False,
                                               1.0, 0.0, 1.0 - 1e308)))
        assert root[0] == pytest.approx(1.5e308, rel=1e-15)

    def test_lambert_lanes_at_a_bump_peak(self, rng):
        # the bracket table lets a level through that is up to a few ulps
        # above a bump's peak as the piece formula rounds it: the start is
        # then the peak, where h' is nearly 0, and the Newton step must not
        # carry it off to the far end of the bracket.  Each cell has the
        # peak's two brackets, one towards the zero of f where it lies on
        # the same side of the kernel peak
        for _ in range(1500):
            n, x = 10.0 ** rng.uniform(-3.0, 4.0), rng.uniform(-100.0, 100.0)
            d = rng.uniform(-100.0, 100.0) * rng.choice([1.0, 1e-3])
            p, log_c = rng.choice([0.5, 1.0]), rng.uniform(-5.0, 5.0)
            side = rng.choice([1.0, -1.0])
            t_m = side * p / n - d
            if (t_m - x) * side <= 0.0:
                continue
            log_peak = log_c + p * math.log(abs(t_m + d)) - n * abs(t_m - x)
            log_alpha = log_peak + rng.integers(-40, 3) * EPS * max(1.0, abs(log_peak))
            ends = [t_m + side * 50.0 / n] + ([-d] if (-d - x) * side > 0.0 else [])
            a, b = np.minimum(ends, t_m), np.maximum(ends, t_m)
            k = len(ends)
            roots = _lambert_lanes(Kernel.laplace(n, x), a, b, np.full(k, log_alpha),
                                   b == t_m, np.full(k, log_c), np.full(k, p),
                                   np.full(k, d))
            # 64 eps (1 + |log peak|) below the peak the roots are delta from it
            delta = math.sqrt(128.0 * EPS * (1.0 + abs(log_peak)) * p) / n
            assert np.all(np.abs(roots - t_m) <= 4.0 * delta + 1e-12 * (1.0 + abs(t_m)))

    def test_lane_solvers_take_zero_lanes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            empty = self.lanes((0.0, 1.0, 0.5, False, 1.0, 0.0, 1.0))
            empty = tuple(v[:0] for v in empty)
            for solve, kernel in ((_lambert_lanes, Kernel.laplace(2.0, 0.0)),
                                  (_newton, Kernel.gauss(2.0, 0.0))):
                roots = solve(kernel, *empty)
                assert roots.shape == (0,) and roots.dtype == float
            for w in (_lambert_branch(np.empty(0), np.empty(0, bool)),
                      _lambert_branch(np.empty((2, 0)), np.array([[True], [False]])),
                      _lambert_w0(np.empty(0))):
                assert w.size == 0 and w.dtype == float

    # c, p, d of f = c |t + d|**p and brackets (a, b, alpha, rising) against
    # Laplace(1, 0): a constant piece on both sides of the peak; the bump
    # t exp(-|t|) on both branches (every lane a bump); |t - 2| exp(-|t|),
    # falling with f towards its zero (no lane a bump), down to a W_0 that
    # underflows, where t + d rounds to 0 and the root is the zero of f
    LAMBERT_SETS = {
        "flat": ((1.0, 0.0, 1.0), [(0.0, 16.0, 0.3, False), (0.0, 40.0, 1e-12, False),
                                   (-16.0, 0.0, 0.9, True)]),
        "bump": ((1.0, 1.0, 0.0), [(0.0, 1.0, 0.2, True), (1.0, 8.0, 0.2, False),
                                   (1.0, 40.0, 1e-9, False), (-40.0, -1.0, 1e-9, True),
                                   (-1.0, 0.0, 0.3, False)]),
        "no_bump": ((1.0, 1.0, -2.0), [(0.0, 2.0, 1.9, False), (0.0, 2.0, 1e-3, False),
                                       (0.0, 2.0, 1e-300, False)]),
        "underflow": ((1.0, 1.0, -2.0), [(0.0, 2.0, 5e-324, False)]),
    }

    @pytest.mark.parametrize("names", [("flat",), ("bump",), ("no_bump",), ("underflow",),
                                       ("flat", "bump"), ("bump", "no_bump", "underflow"),
                                       ("flat", "bump", "no_bump", "underflow")],
                             ids="+".join)
    def test_lambert_lanes_on_degenerate_lane_sets(self, names):
        # all lanes, none or some of them flat, bumps, or with a W_0 that
        # underflows: each root is brentq's on f * kernel, and a lane's root
        # does not depend on the lanes solved with it
        kernel = Kernel.laplace(1.0, 0.0)
        lanes = [bracket + piece for name in names
                 for piece, brackets in [self.LAMBERT_SETS[name]] for bracket in brackets]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = _lambert_lanes(kernel, *self.lanes(*lanes))
            alone = [_lambert_lanes(kernel, *self.lanes(lane))[0] for lane in lanes]
        assert roots.tolist() == alone
        for (a, b, alpha, _, c, p, d), root in zip(lanes, roots):
            want = brentq(lambda t: c * abs(t + d) ** p * kernel(t) - alpha, a, b, xtol=1e-13)
            assert root == pytest.approx(want, abs=XTOL + RTOL * abs(want)), (a, b, alpha, p)
        if "underflow" in names:
            assert roots[-1] == 2.0

    @pytest.mark.parametrize("kernel", [Kernel.laplace(3.0, 0.3), Kernel.gauss(3.0, 0.3)])
    @pytest.mark.parametrize("spec", [function_spec("pw_linear", knots=PW_KNOTS),
                                      function_spec("sqrt", shift=1.0)],
                             ids=["pw_linear", "sqrt"])
    def test_one_root_solve_per_levels_call(self, monkeypatch, kernel, spec):
        # one call of the kernel's lane solver (Lambert W against Laplace,
        # the Newton iteration against Gauss) answers every crossing of a
        # levels call, and the other solver is not called
        g = product_level_function(spec, kernel)
        calls = {"_lambert_lanes": [], "_newton": []}
        for name, brackets in calls.items():
            def counted(kernel, a, b, *lanes, solve=getattr(continuous, name),
                        brackets=brackets):
                brackets.append(set(zip(a.tolist(), b.tolist())))
                return solve(kernel, a, b, *lanes)

            monkeypatch.setattr(continuous, name, counted)
        # a level at a bracket's inner end takes the end without a solve, so
        # the levels between consecutive breakpoints give every bracket a
        # crossing inside it
        breaks = np.array(list(g.alpha_breakpoints) + [g.sup_value])
        alphas = np.concatenate([np.geomspace(g.sup_value * 1e-6, g.sup_value, 40),
                                 breaks, np.sqrt(breaks[1:] * breaks[:-1])])
        lo, hi = g.levels(alphas)
        laplace = kernel.family == "laplace"
        assert len(calls["_lambert_lanes"]) == int(laplace)
        assert len(calls["_newton"]) == int(not laplace)
        (brackets,) = calls["_lambert_lanes"] + calls["_newton"]
        # every bracket but the left tail, where f vanishes, has a crossing
        assert len(brackets) == lo.shape[0] - 1

    @pytest.mark.parametrize("kernel", [Kernel.laplace(3.0, 0.3), Kernel.gauss(3.0, 0.3)])
    def test_breakpoint_level_takes_the_bracket_end(self, kernel):
        # t = -1 is a local maximum below sup, so at the level g(-1) a rising
        # and a falling bracket both meet the level at their shared end; the
        # batched oracle returns that end bit for bit, as brentq does
        spec = function_spec("pw_linear", knots=[(-2.0, 0.0), (-1.0, 3.0), (-0.9, 0.1),
                                                 (1.0, 0.5)])
        g = product_level_function(spec, kernel)
        peak = g.value(-1.0)
        assert peak in g.alpha_breakpoints and peak < g.sup_value
        lo, hi = g.levels(list(g.alpha_breakpoints))
        i = g.alpha_breakpoints.index(peak)
        assert np.sum((lo[:, i] == -1.0) & (hi[:, i] == -1.0)) == 2
        assert contains(g.level(peak), -1.0)
        assert contains(brentq_level(spec, kernel, peak), -1.0)

    @staticmethod
    def ends(spec, kernel, alpha):
        """The ends of the batched level set of ``spec.fn * kernel`` and of
        :func:`brentq_level` at ``alpha``, as two sorted lists."""
        lo, hi = product_level_function(spec, kernel).levels([alpha])
        batched = batched_union(lo, hi, 0)
        return ([t for piece in batched.intervals for t in piece],
                [t for piece in brentq_level(spec, kernel, alpha).intervals for t in piece])

    @pytest.mark.parametrize("spec", [function_spec("pw_linear", knots=PW_KNOTS),
                                      function_spec("sqrt", shift=1.0)],
                             ids=["pw_linear", "sqrt"])
    @pytest.mark.parametrize("n,x", [(3.0, 0.3), (16.0, -0.5), (1.5, 1.2)])
    def test_newton_next_to_a_gauss_local_maximum(self, spec, n, x):
        # a level 1e-15 below a stationary peak t_m has a near-double root at
        # distance delta from t_m, where log g drops by rel = 1e-15 ~ kappa
        # delta**2 / 2.  A rounding of 8 eps in g moves that root by
        # 8 eps / (kappa delta) = 4 eps delta / rel (about 1e-9), so the two
        # oracles agree within brentq's tolerance plus that band only
        kernel = Kernel.gauss(n, x)
        g = product_level_function(spec, kernel)
        rel = 1e-15
        peaks = continuous._stationaries(spec.pieces, kernel)
        assert peaks
        for t_m in peaks:
            got, want = self.ends(spec, kernel, g.value(t_m) * (1.0 - rel))
            assert len(got) == len(want)
            for a, b in zip(got, want):
                band = 4.0 * EPS * abs(b - t_m) / rel
                assert abs(a - b) <= XTOL + RTOL * abs(b) + band, (t_m, a, b)

    @pytest.mark.parametrize("name,n,x", [
        ("sqrt_shift_-0.4", 3.0, 0.3), ("sqrt_shift_0", 16.0, -0.5),
        ("pw_linear_3", 1.5, 1.2), ("pw_linear_5_flat", 1.5, -3.0),
        ("abs_dev_off_centre", 3.0, 0.3), ("abs_dev_off_centre", 1.5, -3.0)])
    def test_lambert_next_to_a_laplace_local_maximum(self, name, n, x):
        # levels 1e-15 to 1e-9 below a stationary peak, where w is next to
        # the branch point -1 and the Newton step is not trusted: the Lambert
        # ends agree with brentq within its tolerance plus the rounding band
        spec = STATIONARY_SPECS[name]
        kernel = Kernel.laplace(n, x)
        g = product_level_function(spec, kernel)
        peaks = continuous._stationaries(spec.pieces, kernel)
        assert peaks
        for t_m in peaks:
            for rel in (1e-15, 1e-12, 1e-9):
                alpha = g.value(t_m) * (1.0 - rel)
                got, want = self.ends(spec, kernel, alpha)
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    band = rounding_band(spec, kernel, b, math.log(alpha))
                    assert abs(a - b) <= XTOL + RTOL * abs(b) + band, (t_m, rel, a, b)

    @pytest.mark.parametrize("n,x", [(0.025, -0.5), (0.025, 2.5), (0.3, 0.5)])
    def test_lambert_on_a_nearly_flat_linear_piece(self, n, x):
        # slope -1/3000 puts the zero of f, -d, at t = 5999: w and t + d are
        # about 6000 n and 6000, and t = -sigma w/m - d alone rounds to
        # about 6000 eps, which the Newton step removes
        spec = function_spec("pw_linear", knots=[(-1.0, 2.0), (2.0, 1.999)])
        kernel = Kernel.laplace(n, x)
        g = product_level_function(spec, kernel)
        lo_end = min(g.value(-1.0), g.value(2.0))
        for alpha in np.linspace(lo_end, g.sup_value, 12)[1:-1]:
            got, want = self.ends(spec, kernel, alpha)
            assert len(got) == len(want) == 2
            for a, b in zip(got, want):
                assert abs(a - b) <= XTOL + RTOL * abs(b), (alpha, a, b)

    def test_lambert_lanes_keep_extreme_cells_finite(self):
        # n from 1e-4 to 1e6 and |x| up to 1e4 put log|z| near +-1e10 and
        # levels down to 1e-300 put it near -700: no overflow, no NaN
        specs = [function_spec("sqrt", shift=2.0), function_spec("abs_dev", center=-3.0),
                 function_spec("pw_linear", knots=PW_KNOTS)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in specs:
                for n in (1e-4, 1.0, 1e6):
                    for x in (-1e4, 0.0, 1e4):
                        g = product_level_function(spec, Kernel.laplace(n, x))
                        if g.sup_value == 0.0:
                            continue
                        alphas = np.geomspace(max(g.sup_value * 1e-300, 1e-300),
                                              g.sup_value, 60)
                        lo, hi = g.levels(alphas)
                        assert not np.isnan(lo).any() and not np.isnan(hi).any()
                        assert np.all(np.isfinite(lo[lo <= hi]))

    @pytest.mark.parametrize("kernel", [Kernel.laplace(3.0, 0.3), Kernel.gauss(3.0, 0.3)])
    @pytest.mark.parametrize("eps", [0.0, 3e-14, 9e-14, 4e-13])
    def test_newton_next_to_the_sqrt_support_start(self, kernel, eps):
        # the level of sqrt(t + 1) K(t) at t = -1 + eps: the rising bracket
        # starts at the zero of f, where log g is -inf (against Laplace W_0
        # of z > 0 is then about z), and the root lies within brentq's
        # tolerance of it or just past it
        spec = function_spec("sqrt", shift=1.0)
        alpha = product_level_function(spec, kernel).value(-1.0 + eps) if eps else 1e-300
        got, want = self.ends(spec, kernel, alpha)
        assert len(got) == len(want) == 2
        assert got[0] == pytest.approx(want[0], abs=XTOL + RTOL)
        assert got[1] == pytest.approx(want[1], abs=XTOL + RTOL * abs(want[1]))

    @pytest.mark.parametrize("n,x", [(3.0, 0.3), (16.0, 1.5), (0.5, -2.0)])
    def test_newton_on_a_laplace_constant_tail(self, n, x):
        # pw_linear is constant beyond its first and last knot, where a
        # level set against a Laplace kernel ends on the kernel's own closed
        # form
        spec = function_spec("pw_linear", knots=[(-1.0, 1.0), (0.0, 2.0), (1.0, 0.5)])
        kernel = Kernel.laplace(n, x)
        g = product_level_function(spec, kernel)
        edge = min(g.value(-1.0), g.value(1.0))
        for alpha in edge * np.geomspace(1e-30, 0.999, 9):
            got, want = self.ends(spec, kernel, alpha)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert abs(a - b) <= XTOL + RTOL * abs(b), (alpha, a, b)

    @pytest.mark.parametrize("family", ["laplace", "gauss"])
    @pytest.mark.parametrize("spec", STATIONARY_SPECS.values(), ids=STATIONARY_SPECS.keys())
    def test_newton_passes_per_levels_call(self, monkeypatch, spec, family):
        # every root-finding product, on the nodes of the tanh-sinh engine's
        # first three passes, needs at most 7 Newton passes per levels call
        # (the cap counts the final stopping test as a pass); against a
        # Laplace kernel the Lambert lanes answer the same levels with none
        monkeypatch.setattr(continuous, "_NEWTON_PASSES", 8)
        for n in (1.5, 4.0, 64.0):
            for x in (-1.0, 0.3, 1.3):
                g = product_level_function(spec, Kernel(family, n, x))
                pieces, full = continuous._layer_edges(g, SQRT_M)
                assert full == 0.0
                s = np.concatenate([continuous._de_nodes(a, b, level)[0]
                                    for a, b in pieces for level in range(3)])
                g.levels(np.exp(-s[s < 700.0]))


HISTORY_SPECS = {"sqrt_shift_3": STATIONARY_SPECS["sqrt_shift_3"],
                 "abs_dev_off_centre": function_spec("abs_dev", center=0.0),
                 "pw_linear_3": STATIONARY_SPECS["pw_linear_3"]}
HISTORY_KERNELS = [Kernel.laplace(2.0, 0.3), Kernel.gauss(2.0, 0.3)]


@pytest.mark.parametrize("kernel", HISTORY_KERNELS, ids=["laplace", "gauss"])
@pytest.mark.parametrize("spec", HISTORY_SPECS.values(), ids=HISTORY_SPECS.keys())
class TestOracleHistory:
    """A root-finding product keeps no state between calls: its scalar
    oracle is a column of the batched one, which solves every level from
    the whole bracket, so what it returns does not depend on the levels
    solved before, and the adaptive engine reads the batched oracle only."""

    def test_used_product_levels_match_a_fresh_product(self, spec, kernel):
        g = product_level_function(spec, kernel)
        choquet_integral_real(g, SQRT_M)
        for alpha in g.sup_value * np.geomspace(1e-12, 1.0, 200):
            g.level(alpha)
        for alpha in g.sup_value * np.geomspace(1e-12, 1.0, 200):
            fresh = product_level_function(spec, kernel)
            assert g.level(alpha) == fresh.level(alpha), alpha

    def test_used_product_engine_value_matches_a_fresh_product(self, spec, kernel):
        # the first call reads the levels of another capacity's layer edges
        g = product_level_function(spec, kernel)
        choquet_integral_real(g, RealCapacity.possibility(Kernel.laplace(2.0, 0.3)))
        used = choquet_integral_real(g, SQRT_M)
        fresh = choquet_integral_real(product_level_function(spec, kernel), SQRT_M)
        assert used == fresh

    def test_level_at_or_next_to_a_solved_level(self, spec, kernel):
        # one ulp from a solved level the answer is a fresh product's and
        # brentq's, whose brackets straddle every such level
        g = product_level_function(spec, kernel)
        alphas = g.sup_value * np.geomspace(1e-12, 1.0, 50)[:-1]
        for alpha in alphas:
            g.level(alpha)
        for alpha in alphas:
            for near in (alpha, math.nextafter(alpha, 0.0), math.nextafter(alpha, 1.0)):
                fresh = product_level_function(spec, kernel)
                assert g.level(near) == fresh.level(near), near
                assert_ends_match_brentq(spec, kernel, near, g.level(near))

    def test_engine_never_calls_the_scalar_oracle(self, spec, kernel):
        # the adaptive engine reads levels only
        g = product_level_function(spec, kernel)
        calls = []

        def level(alpha, scalar=g.level):
            calls.append(alpha)
            return scalar(alpha)

        counted = dataclasses.replace(g, level=level)
        assert choquet_integral_real(counted, SQRT_M) == choquet_integral_real(g, SQRT_M)
        assert calls == []


class TestQuadrature:
    def test_possibility_normalizer_exact_and_by_quadrature(self):
        k = Kernel.laplace(4.0, 1.0)
        mu = RealCapacity.possibility(k)
        assert kernel_normalizer(k, mu) == 1.0
        byquad = choquet_integral_real(kernel_level_function(k), mu)
        assert byquad == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
    def test_sqrt_m_normalizer(self, n):
        k = Kernel.laplace(float(n), 0.7)
        c = kernel_normalizer(k, SQRT_M)
        assert c == pytest.approx(math.sqrt(math.pi / (2 * n)), rel=1e-6)

    def test_gauss_sqrt_m_normalizer_matches_quadrature_oracle(self):
        # oracle first: direct quadrature of the level-length integrand

        from scipy.integrate import quad
        for n in (1.0, 2.0, 8.0):
            oracle, _ = quad(lambda s: math.sqrt(2.0) * (s / n) ** 0.25 * math.exp(-s),
                             0, np.inf)
            closed = math.sqrt(2.0) * math.gamma(1.25) * n ** -0.25
            assert closed == pytest.approx(oracle, rel=1e-9)
            got = kernel_normalizer(Kernel.gauss(n, -0.4), SQRT_M)
            assert got == pytest.approx(closed, rel=1e-8)

    def test_plateau_single_layer(self):
        g = plateau(2.5, 0.0, 4.0)
        assert choquet_integral_real(g, SQRT_M) == pytest.approx(5.0, abs=1e-9)

    def test_zero_function(self):
        g = plateau(0.0, 0.0, 1.0)
        assert choquet_integral_real(g, SQRT_M) == 0.0

    def test_error_estimate_consistency(self):
        # the estimate covers the distance to the closed form sqrt(pi / (2n))
        g = kernel_level_function(Kernel.laplace(2.0, 0.0))
        v, e = choquet_integral_real_with_error(g, SQRT_M)
        assert abs(v - math.sqrt(math.pi / 4.0)) <= e

    @pytest.mark.parametrize("mu", [RealCapacity.lebesgue(), SQRT_M],
                             ids=["lebesgue", "sqrt_lebesgue"])
    @pytest.mark.parametrize("family", ["laplace", "gauss"])
    def test_error_estimate_covers_closed_form_normalizer(self, mu, family):
        # at large x the level-set ends carry ulp(x) of rounding, which the
        # estimate does not see, so the centres stay near the origin
        for n in (1.5, 2.0, 16.0, 64.0):
            for x in (-1.0, 0.3):
                k = getattr(Kernel, family)(n, x)
                v, e = choquet_integral_real_with_error(kernel_level_function(k), mu)
                assert abs(v - kernel_normalizer(k, mu)) <= e, (n, x)

    @pytest.fixture
    def oracle_passes(self, monkeypatch):
        """The node count of each batched oracle call, one per pass."""
        calls = []
        heights = continuous._layer_heights

        def counting(g, mu, s, full):
            calls.append(s.size)
            return heights(g, mu, s, full)

        monkeypatch.setattr(continuous, "_layer_heights", counting)
        return calls

    def test_gauss_kronrod_passes(self, oracle_passes):
        # one batched oracle call per pass costs far more than its nodes, so
        # the engine is held to few passes over the benchmark's cross-check
        # integrands (measured: a mean of 0.85, at most 2, and 158 layer
        # evaluations per integral; a possibility rectangle takes none)
        calls = oracle_passes
        x = 0.3
        specs = [None, function_spec("exp_neg"), function_spec("abs_dev", center=x),
                 function_spec("abs_dev", center=0.0), function_spec("sqrt", shift=3.0),
                 function_spec("pw_linear", knots=[(-1.0, 1.0), (0.0, 2.0), (1.0, 0.5)])]
        passes = []
        for spec in specs:
            for family in ("laplace", "gauss"):
                for n in (2.0, 8.0):
                    k = getattr(Kernel, family)(n, x)
                    g = kernel_level_function(k) if spec is None else product_level_function(spec, k)
                    for mu in (RealCapacity.possibility(Kernel.laplace(n, x)), SQRT_M):
                        calls.clear()
                        choquet_integral_real_with_error(g, mu)
                        passes.append(len(calls))
        assert len(passes) == 48
        assert max(passes) <= 2
        assert sum(passes) / len(passes) <= 0.9

    @pytest.mark.parametrize("graded", [False, True], ids=["ungraded", "graded"])
    @pytest.mark.parametrize("pieces, want", [
        ([(0.0, 1.0), (1.0, 3.0)], 1.0 - math.exp(-3.0)),
        ([(0.0, 1.0), (1.0, math.inf)], 1.0),
        ([(0.0, 2.0), (2.0, math.inf)], math.sqrt(math.pi) / 2.0),
    ], ids=["finite", "tail", "sqrt_tail"])
    def test_gauss_kronrod_with_and_without_a_tail(self, graded, pieces, want):
        # exp(-s), or sqrt(s) exp(-s) (Gamma(3/2)), over finite pieces alone
        # and with the qagi tail; the ungraded rule is the classical Picard
        # operator's.  The first pass's nodes are the piece maps of the
        # docstring, s = a + (b - a) u**k or a + r**k with r = (1 - u)/u, up
        # to the rounding of the subinterval ends
        first = []

        def integrand(s):
            first.append(s.copy())
            return np.sqrt(s) * np.exp(-s) if pieces[0][1] == 2.0 else np.exp(-s)

        value, err = continuous._gauss_kronrod(integrand, pieces, graded)
        assert abs(value - want) <= err <= max(QUAD_ABS_TOL, QUAD_REL_TOL * want)
        k = 3 if graded else 1
        u = ((np.arange(continuous.GK_START) + 0.5) / continuous.GK_START)[:, None] \
            + continuous._GK_NODES / (2 * continuous.GK_START)
        nodes = [a + (1.0 if math.isinf(b) else b - a)
                 * (np.where(math.isinf(b), (1.0 - u) / u, u) ** k) for a, b in pieces]
        np.testing.assert_allclose(first[0], np.concatenate(nodes).ravel(), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("family", ["laplace", "gauss"])
    def test_gauss_kronrod_grades_a_birth_level(self, oracle_passes, family):
        # |t| K with K peaked at 0.3: a second level-set component is born
        # at the local maximum left of 0, where the last piece starts and
        # its layer rises like (s - a)**(1/2); graded toward its start, it
        # takes the first pass and one split
        g = product_level_function(function_spec("abs_dev", center=0.0),
                                   getattr(Kernel, family)(2.0, 0.3))
        value, _ = choquet_integral_real_with_error(g, SQRT_M)
        assert len(oracle_passes) <= 2
        assert value == pytest.approx(choquet_integral_real_grid(g, SQRT_M), rel=QUAD_REL_TOL)

    def test_grid_engine_agrees(self):
        for mu in (SQRT_M, RealCapacity.possibility(Kernel.laplace(3.0, 0.2))):
            g = product_level_function(function_spec("exp_neg"),
                                       Kernel.laplace(3.0, 0.2))
            a = choquet_integral_real(g, mu)
            b = choquet_integral_real_grid(g, mu)
            assert a == pytest.approx(b, rel=1e-6, abs=1e-9)
        gauss = Kernel.gauss(2.0, 0.3)
        cases = {
            "laplace-kernel": (kernel_level_function(Kernel.laplace(2.0, 0.3)), SQRT_M),
            "gauss-kernel": (kernel_level_function(Kernel.gauss(8.0, -0.4)),
                             RealCapacity.possibility(Kernel.laplace(3.0, 0.1))),
            "sqrt*laplace": (product_level_function(function_spec("sqrt", shift=3.0),
                                                    Kernel.laplace(2.0, 0.3)), SQRT_M),
            "pw_linear*laplace": (product_level_function(
                function_spec("pw_linear", knots=PW_KNOTS[:3]), Kernel.laplace(8.0, 0.3)),
                SQRT_M),
            "abs_dev*gauss-possibility": (
                product_level_function(function_spec("abs_dev", center=0.3), gauss),
                RealCapacity.possibility(Kernel.laplace(2.0, 0.3))),
            "abs_dev*gauss-sqrt": (
                product_level_function(function_spec("abs_dev", center=0.3), gauss), SQRT_M),
            "plateau": (plateau(2.5, 0.0, 4.0), SQRT_M),
        }
        for case, (g, mu) in cases.items():
            a = choquet_integral_real(g, mu)
            b = choquet_integral_real_grid(g, mu)
            assert a == pytest.approx(b, rel=1e-6, abs=1e-9), case

    def test_grid_engine_pinned(self):
        # values of the tanh-sinh engine, each within rel 1e-9 of the adaptive one
        pw = function_spec("pw_linear", knots=[(-1.0, 1.0), (0.0, 2.0), (1.0, 0.5)])

        def poss(n, x):
            return RealCapacity.possibility(Kernel.laplace(n, x))

        cases = [
            (None, Kernel.laplace(2.0, 0.3), SQRT_M, 0.886226925452758),
            (None, Kernel.gauss(8.0, -0.4), poss(3.0, 0.1), 0.5941960653429479),
            (function_spec("exp_neg"), Kernel.laplace(3.0, 0.2), poss(3.0, 0.2),
             0.818730753077981),
            (function_spec("exp_neg", lam=2.0), Kernel.gauss(2.0, 0.5), SQRT_M,
             0.6537795647609583),
            (function_spec("abs_dev", center=0.3), Kernel.laplace(2.0, 0.3), SQRT_M,
             0.28997457295787976),
            (function_spec("abs_dev", center=0.0), Kernel.laplace(8.0, 0.3),
             poss(8.0, 0.3), 0.2999999999999999),
            (function_spec("sqrt", shift=3.0), Kernel.laplace(2.0, 0.3), SQRT_M,
             1.6073414504221117),
            (function_spec("sqrt", shift=1.0), Kernel.gauss(8.0, 0.3), poss(8.0, 0.3),
             1.1450513706294756),
            (pw, Kernel.laplace(8.0, 0.3), SQRT_M, 0.6862728153626142),
            (pw, Kernel.gauss(2.0, -0.5), poss(2.0, -0.5), 1.570087460924421),
        ]
        for spec, k, mu, want in cases:
            g = kernel_level_function(k) if spec is None else product_level_function(spec, k)
            got = choquet_integral_real_grid(g, mu)
            assert got == pytest.approx(want, rel=1e-12)
            assert got == pytest.approx(choquet_integral_real(g, mu), rel=1e-9)

    @pytest.mark.parametrize("g,mu,want", [
        # 30-digit mpmath values.  Every g here is unimodal, with argmax t*,
        # so above alpha = g(x_mu) the level set is one interval and mu is
        # K_mu at its end nearer x_mu: the integral is g(x_mu) plus
        # K_mu g' integrated in t from x_mu to t* (-g' from t* to x_mu)
        (product_level_function(function_spec("exp_neg"), Kernel.gauss(16.0, 0.3)),
         RealCapacity.possibility(Kernel.laplace(16.0, 0.3)),
         0.750755613330227810243743579467),
        (kernel_level_function(Kernel.gauss(8.0, -0.4)),
         RealCapacity.possibility(Kernel.laplace(3.0, 0.1)),
         0.594196065342948193735185190963),
        # t* = 0.31883...
        (product_level_function(function_spec("sqrt", shift=3.0), Kernel.gauss(4.0, 0.3)),
         RealCapacity.possibility(Kernel.laplace(3.0, -0.2)),
         1.30057730325327230073924480530),
        (product_level_function(function_spec("sqrt", shift=3.0), Kernel.gauss(4.0, 0.3)),
         RealCapacity.possibility(Kernel.laplace(3.0, 0.8)),
         1.37694979236877267320224669352),
        # t* = 0.3; at x_mu = 0, g(x_mu) is the level of the knot 0
        (product_level_function(STATIONARY_SPECS["pw_linear_3"], Kernel.laplace(2.0, 0.3)),
         RealCapacity.possibility(Kernel.gauss(2.0, -0.5)),
         1.14371320618536623726675110527),
        (product_level_function(STATIONARY_SPECS["pw_linear_3"], Kernel.laplace(2.0, 0.3)),
         RealCapacity.possibility(Kernel.gauss(2.0, 0.7)),
         1.41161433004029898452919929193),
        (product_level_function(STATIONARY_SPECS["pw_linear_3"], Kernel.laplace(2.0, 0.3)),
         RealCapacity.possibility(Kernel.gauss(2.0, 0.0)),
         1.52331235543350773811648298632),
    ], ids=["exp_neg*gauss", "gauss-kernel", "sqrt*gauss-left", "sqrt*gauss-right",
            "pw_linear*laplace-left", "pw_linear*laplace-right", "pw_linear*laplace-knot"])
    def test_possibility_kink_references(self, g, mu, want):
        # below alpha = g(x_mu) the level set holds the capacity's peak: both
        # engines add that rectangle exactly and integrate only above it
        pieces, full = continuous._layer_edges(g, mu)
        assert full == g.value(mu.kernel.x)
        assert pieces[-1][1] == -math.log(full)
        assert all(-math.log(b) < pieces[-1][1] for b in g.alpha_breakpoints if b > full)
        assert choquet_integral_real(g, mu) == pytest.approx(want, rel=1e-11)
        assert choquet_integral_real_grid(g, mu) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_exp_sinh_tail_reproduces_laplace_normalizer(self, n):
        # one piece [0, inf): the layer is sqrt(2 s / n) exp(-s)
        g = kernel_level_function(Kernel.laplace(float(n), 0.7))
        assert continuous._layer_edges(g, SQRT_M) == ([(0.0, math.inf)], 0.0)
        assert choquet_integral_real_grid(g, SQRT_M) == pytest.approx(
            math.sqrt(math.pi / (2 * n)), rel=1e-12)

    def test_grid_refines_an_undeclared_kink(self):
        # the level-set length s + 2 max(0, s - 1) kinks at s = 1, inside the
        # single piece [0, inf); the rule at h = TS_STEP misses the tolerance
        calls = []

        def levels(alphas):
            calls.append(alphas.size)
            s = -np.log(alphas)
            half = 0.5 * (s + 2.0 * np.maximum(0.0, s - 1.0))
            return -half[None, :], half[None, :]

        g = LevelSetFunction(lambda t: 1.0, lambda a: IntervalUnion(), 1.0, levels)
        # int_0^1 sqrt(s) e^-s ds + int_1^inf sqrt(3 s - 2) e^-s ds
        want = (math.gamma(1.5) * math.erf(1.0) - math.exp(-1.0)
                + 3.0 ** 1.5 * math.exp(-2.0 / 3.0) / 3.0
                * (math.sqrt(1.0 / 3.0) * math.exp(-1.0 / 3.0)
                   + math.gamma(1.5) * math.erfc(math.sqrt(1.0 / 3.0))))
        got = choquet_integral_real_grid(g, SQRT_M)
        assert len(calls) >= 2
        assert abs(got - want) <= max(continuous.QUAD_ABS_TOL,
                                      continuous.QUAD_REL_TOL * want)

    def test_grid_nonconvergence_raises_with_partial_value(self):
        # a layer that oscillates faster than any halving of the step resolves
        def levels(alphas):
            half = 1.0 + 0.5 * np.sin(1e6 * np.log(alphas))
            return -half[None, :], half[None, :]

        g = LevelSetFunction(lambda t: 1.0, lambda a: IntervalUnion(), 1.0, levels)
        with pytest.raises(QuadratureError, match="did not converge") as err:
            choquet_integral_real_grid(g, SQRT_M)
        assert math.isfinite(err.value.value)
        assert math.isfinite(err.value.error_estimate)
        assert err.value.error_estimate > 0.0

    @pytest.mark.parametrize("mu", [SQRT_M, RealCapacity.possibility(Kernel.laplace(2.0, 0.3))])
    def test_grid_engine_at_lambert_branch_point(self, mu):
        # the first nodes of the rule round to alpha = sup, the Lambert W branch point
        g = product_level_function(function_spec("abs_dev", center=0.3),
                                   Kernel.gauss(2.0, 0.3))
        assert math.isfinite(choquet_integral_real_grid(g, mu))

    def test_gauss_kronrod_constants_are_exact(self):
        # K15 integrates t**k exactly on [-1, 1] up to k = 22, G7 up to 13
        for k in range(23):
            want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            nodes = continuous._GK_NODES ** k
            assert continuous._GK_KRONROD @ nodes == pytest.approx(want, abs=4 * EPS), k
            if k <= 13:
                assert continuous._GK_GAUSS @ nodes == pytest.approx(want, abs=4 * EPS), k
        # and no further: the rules are the 15- and 7-point ones
        assert abs(continuous._GK_GAUSS @ continuous._GK_NODES ** 14 - 2.0 / 15.0) > 1e-6
        assert np.count_nonzero(continuous._GK_GAUSS) == 7

    def test_nonconvergence_raises_with_partial_value_and_estimate(self):
        # a layer that oscillates faster than QUAD_LIMIT subintervals resolve
        def levels(alphas):
            half = 1.0 + 0.5 * np.sin(1e6 * np.log(alphas))
            return -half[None, :], half[None, :]

        g = LevelSetFunction(lambda t: 1.0, lambda a: IntervalUnion(), 1.0, levels)
        with pytest.raises(QuadratureError, match="did not converge") as err:
            choquet_integral_real_with_error(g, SQRT_M)
        assert math.isfinite(err.value.value)
        assert math.isfinite(err.value.error_estimate)
        assert err.value.error_estimate > 0.0

    def test_monotone_in_capacity(self):
        # pointwise-dominated possibility kernels order the integrals
        g = product_level_function(function_spec("exp_neg"), Kernel.laplace(4.0, 0.5))
        small = RealCapacity.possibility(Kernel.laplace(4.0, 0.5))
        large = RealCapacity.possibility(Kernel.laplace(2.0, 0.5))
        assert (choquet_integral_real(g, small)
                <= choquet_integral_real(g, large) + 1e-9)

    def test_infinite_level_set_raises(self):
        # a whole-line level set deep in the tail, below alpha = 1e-60: the
        # first pass's nodes on the graded tail reach alpha ~ 3e-78
        def levels(alphas):
            whole = alphas < 1e-60
            return (np.where(whole, -np.inf, -1.0)[None, :],
                    np.where(whole, np.inf, 1.0)[None, :])

        unit = IntervalUnion.from_pairs([(-1.0, 1.0)])
        g = LevelSetFunction(lambda t: 1.0, lambda a: unit, 1.0, levels)
        with pytest.raises(QuadratureError, match="not finite"):
            choquet_integral_real_with_error(g, SQRT_M)

    def test_grid_infinite_level_set_raises(self):
        # a whole-line level set below alpha = 1e-5, inside the grid's span
        def levels(alphas):
            whole = alphas < 1e-5
            return (np.where(whole, -np.inf, -1.0)[None, :],
                    np.where(whole, np.inf, 1.0)[None, :])

        unit = IntervalUnion.from_pairs([(-1.0, 1.0)])
        g = LevelSetFunction(lambda t: 1.0, lambda a: unit, 1.0, levels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="not finite"):
                choquet_integral_real_grid(g, SQRT_M)

    def test_infinite_sup_rejected(self):
        g = LevelSetFunction(lambda t: 1.0, lambda a: IntervalUnion(),
                             math.inf, lambda alphas: empty_pieces(1, alphas.size))
        with pytest.raises(DivergenceError):
            choquet_integral_real(g, SQRT_M)
        with pytest.raises(DivergenceError):
            choquet_integral_real_grid(g, SQRT_M)


RECTANGLE_SPECS = {"kernel": None, "exp_neg": function_spec("exp_neg"),
                   "sqrt_shift_3": STATIONARY_SPECS["sqrt_shift_3"],
                   "sqrt_shift_-0.4": STATIONARY_SPECS["sqrt_shift_-0.4"],
                   "pw_linear_3": STATIONARY_SPECS["pw_linear_3"],
                   "abs_dev_off_centre": STATIONARY_SPECS["abs_dev_off_centre"]}


class TestPeakRectangle:
    """Below ``alpha = g(x_mu)`` every level set holds a possibility
    capacity's peak, where the capacity is 1: both engines add that
    rectangle exactly and integrate only above it."""

    @pytest.mark.parametrize("family", ["laplace", "gauss"])
    @pytest.mark.parametrize("spec", RECTANGLE_SPECS.values(), ids=RECTANGLE_SPECS.keys())
    def test_engines_ask_no_level_inside_the_rectangle(self, monkeypatch, spec, family):
        # the operator's own capacity and two off-centre ones; where the
        # rectangle is the whole cake neither engine asks at all
        asked = []
        levels = LevelSetFunction.levels

        def recording(self, alphas):
            asked.append(float(np.min(alphas)))
            return levels(self, alphas)

        monkeypatch.setattr(LevelSetFunction, "levels", recording)
        x = 0.3
        for n in (2.0, 8.0):
            k = Kernel(family, n, x)
            g = kernel_level_function(k) if spec is None else product_level_function(spec, k)
            own = RealCapacity.possibility(Kernel.laplace(n, x))
            for mu in (own, RealCapacity.possibility(Kernel.laplace(3.0, -0.45)),
                       RealCapacity.possibility(Kernel.gauss(3.0, 1.1))):
                peak = g.value(mu.kernel.x)
                for engine in (choquet_integral_real, choquet_integral_real_grid):
                    asked.clear()
                    got = engine(g, mu)
                    assert min(asked, default=math.inf) > peak, (n, mu)
                    if peak == g.sup_value:
                        assert asked == [] and got == peak, (n, mu)
            if spec is None:
                assert choquet_integral_real(g, own) == 1.0 == kernel_normalizer(k, own)
                assert choquet_integral_real_grid(g, own) == 1.0

    def test_zero_sup_needs_no_value(self):
        # a zero sup is the integral 0 before the capacity reads g
        def value(t):
            raise AssertionError("g evaluated")

        g = dataclasses.replace(product_level_function(function_spec("const", c=0.0),
                                                       Kernel.laplace(2.0, 0.3)),
                                value=value)
        mu = RealCapacity.possibility(Kernel.laplace(2.0, 0.3))
        assert continuous._layer_edges(g, mu) == ([], 0.0)
        assert choquet_integral_real_with_error(g, mu) == (0.0, 0.0)
        assert choquet_integral_real_grid(g, mu) == 0.0

    def test_peak_level(self):
        def g(t):
            return 2.0 - abs(t)

        assert RealCapacity.possibility(Kernel.gauss(2.0, 0.5)).peak_level(g) == 1.5
        assert SQRT_M.peak_level(g) == 0.0
        assert RealCapacity.lebesgue().peak_level(lambda t: math.nan) == 0.0

    @pytest.mark.parametrize("engine", [choquet_integral_real_with_error,
                                        choquet_integral_real_grid])
    def test_partial_value_holds_the_rectangle(self, engine):
        # a layer that oscillates faster than either engine resolves, above
        # a rectangle of 0.5
        def levels(alphas):
            half = 1.0 + 0.5 * np.sin(1e6 * np.log(alphas))
            return -half[None, :], half[None, :]

        g = LevelSetFunction(lambda t: 0.5, lambda a: IntervalUnion(), 1.0, levels)
        with pytest.raises(QuadratureError, match="did not converge") as err:
            engine(g, RealCapacity.possibility(Kernel.laplace(2.0, 3.0)))
        assert 0.5 <= err.value.value <= 1.0 + err.value.error_estimate

    def test_nan_at_the_peak_raises(self):
        # a NaN rectangle must not reach the sum
        g = dataclasses.replace(kernel_level_function(Kernel.laplace(2.0, 0.3)),
                                value=lambda t: math.nan)
        mu = RealCapacity.possibility(Kernel.laplace(2.0, 0.3))
        with pytest.raises(ValueError, match="NaN"):
            mu.peak_level(g.value)
        for engine in (choquet_integral_real, choquet_integral_real_grid):
            with pytest.raises(ValueError, match="NaN"):
                engine(g, mu)


@given(st.sampled_from(["laplace", "gauss"]), st.floats(1.5, 32.0), st.floats(-2.0, 2.5),
       root_finding_specs(), st.sampled_from(["laplace", "gauss"]))
def test_engines_agree_on_random_possibility_capacities(mu_family, n_mu, x_mu, spec, family):
    # the rectangle g(x_mu) is exact, so neither value is below it (nor
    # below sup when sup rounds under g(x_mu)); mu <= 1 above it, so
    # neither exceeds sup by more than the tolerance
    g = product_level_function(spec, Kernel(family, 2.0, 0.3))
    mu = RealCapacity.possibility(Kernel(mu_family, n_mu, x_mu))
    grid = choquet_integral_real_grid(g, mu)
    adaptive = choquet_integral_real(g, mu)
    assert abs(grid - adaptive) <= max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(grid))
    sup = g.sup_value
    for v in (grid, adaptive):
        assert min(g.value(x_mu), sup) <= v <= sup + max(QUAD_ABS_TOL, QUAD_REL_TOL * sup)


MOMENT_N = [0.5, 1.5, 2.0, 7.0, 16.0, 64.0, 257.0]


def moment_capacities(kernel):
    """The capacities whose kernel moment and normalizer are closed forms."""
    out = [("lebesgue", RealCapacity.lebesgue()), ("sqrt_lebesgue", SQRT_M),
           ("possibility", RealCapacity.possibility(kernel))]
    if kernel.family == "gauss":
        out.append(("laplace_possibility",
                    RealCapacity.possibility(Kernel.laplace(kernel.n, kernel.x))))
    return out


def engine_moment(k, mu, engine=choquet_integral_real_grid):
    """``(numerator, normalizer)`` of the centred deviation by ``engine``."""
    g = product_level_function(function_spec("abs_dev", center=k.x), k)
    return engine(g, mu), engine(kernel_level_function(k), mu)


class TestKernelMoments:
    # the formulas check the engines and the engines check the formulas

    @pytest.mark.parametrize("family", ["laplace", "gauss"])
    @pytest.mark.parametrize("n", MOMENT_N)
    def test_tanh_sinh_engine_holds_each_closed_form(self, family, n):
        for x in (-1.0, 0.0, 0.3):
            k = Kernel(family, n, x)
            for name, mu in moment_capacities(k):
                numerator, normalizer = engine_moment(k, mu)
                assert normalizer == pytest.approx(kernel_normalizer(k, mu), rel=1e-13), name
                assert numerator / normalizer == pytest.approx(
                    continuous.kernel_moment(k, mu), rel=1e-13), name

    @pytest.mark.parametrize("family", ["laplace", "gauss"])
    def test_adaptive_engine_holds_each_closed_form(self, family):
        k = Kernel(family, 2.0, 0.3)
        for name, mu in moment_capacities(k):
            numerator, normalizer = engine_moment(k, mu, choquet_integral_real)
            assert normalizer == pytest.approx(kernel_normalizer(k, mu),
                                               rel=continuous.QUAD_REL_TOL), name
            assert numerator / normalizer == pytest.approx(
                continuous.kernel_moment(k, mu), rel=continuous.QUAD_REL_TOL), name

    def test_closed_forms_as_written(self):
        # the Picard possibility moment from the annulus: the capacity is
        # e**(-n y) at the inner radius y, so T_n = int_0^{1/n} (1 - n y)
        # e**(-2 n y) dy; Lebesgue moments are E|Y| of the normalized kernels
        k = Kernel.laplace(4.0, 0.3)
        assert continuous.kernel_moment(k, RealCapacity.possibility(k)) == (
            (1.0 + math.exp(-2.0)) / 16.0)
        assert continuous.kernel_moment(k, RealCapacity.lebesgue()) == 0.25
        assert kernel_normalizer(k, RealCapacity.lebesgue()) == 0.5
        assert kernel_normalizer(k, SQRT_M) == pytest.approx(math.sqrt(math.pi / 8.0),
                                                             rel=4 * EPS)
        g = Kernel.gauss(4.0, 0.3)
        assert continuous.kernel_moment(g, RealCapacity.lebesgue()) == pytest.approx(
            1.0 / math.sqrt(4.0 * math.pi), rel=2 * EPS)
        assert kernel_normalizer(g, RealCapacity.lebesgue()) == pytest.approx(
            math.sqrt(math.pi / 4.0), rel=4 * EPS)

    def test_gauss_laplace_possibility_moment_is_finite_and_stable(self):
        # T_n = 1/n - 6/n**2 + O(n**-3) as n grows, where the erfc terms of
        # the plain form cancel, and e**(-1/2) / sqrt(2n) (1 + O(sqrt(n)))
        # as n -> 0; exp(n/4) overflows from n = 2839
        for n in (1e-300, 1e-20, 2838.0, 3000.0, 1e8, 1e15, 1e300):
            t = continuous.kernel_moment(Kernel.gauss(n, 0.0),
                                         RealCapacity.possibility(Kernel.laplace(n, 0.0)))
            assert math.isfinite(t) and t > 0.0, n
            if n >= 1e8:
                assert t == pytest.approx((1.0 - 6.0 / n) / n, rel=1e-13), n
            if n <= 1e-20:
                assert t == pytest.approx(math.exp(-0.5) / math.sqrt(2.0 * n), rel=1e-9), n

    @pytest.mark.parametrize("family", ["laplace", "gauss"])
    @pytest.mark.parametrize("n", [0.5, 2.0, 16.0, 64.0, 1000.0])
    def test_closed_forms_do_not_depend_on_the_centre(self, family, n):
        # the tanh-sinh engine drifts with x: on the Gauss kernel against
        # the Laplace possibility it moves 1e-8 (n = 16) to 6e-6 (n = 1000)
        # relative from x = 0 to x = 1e9
        def closed(x):
            k = Kernel(family, n, x)
            return [(continuous.kernel_moment(k, mu), kernel_normalizer(k, mu))
                    for _, mu in moment_capacities(k)]

        assert closed(1e6) == closed(0.0) == closed(-1e6) == closed(1e9) == closed(1e12)
