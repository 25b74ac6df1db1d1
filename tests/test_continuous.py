import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from choquetkit import (DivergenceError, IntervalUnion, Kernel,
                        LevelSetFunction, QuadratureError,
                        RealCapacity, choquet_integral_real,
                        choquet_integral_real_grid,
                        choquet_integral_real_with_error, function_spec,
                        indicator_plateau, integrate_adaptive,
                        kernel_level_function, kernel_normalizer,
                        product_level_function)
from choquetkit import continuous
from choquetkit.continuous import (_lambert_branch, _lambert_lanes, _lambert_pair,
                                   _lambert_w0, _newton)


def empty_pieces(pieces, n):
    """Endpoint arrays ``[pieces, n]`` with every piece empty."""
    return np.full((pieces, n), math.inf), np.full((pieces, n), -math.inf)


SQRT_M = RealCapacity.sqrt_lebesgue()
XTOL, RTOL, EPS = 1e-13, 4.0 * np.finfo(float).eps, np.finfo(float).eps
PW_KNOTS = [(-1.0, 0.0), (0.0, 2.0), (1.0, 0.5), (2.0, 1.5)]


def level_functions():
    """Every level-set constructor, against both kernel families."""
    out = [("plateau", indicator_plateau(2.5, -1.0, 3.0))]
    specs = [("const", function_spec("const", c=2.0)),
             ("exp_neg", function_spec("exp_neg")),
             ("exp_neg_lam2", function_spec("exp_neg", lam=2.0, scale=0.5)),
             ("abs_dev_centred", function_spec("abs_dev", center=0.3)),
             ("abs_dev_off_centre", function_spec("abs_dev", center=-0.4)),
             ("sqrt", function_spec("sqrt", shift=1.0)),
             ("pw_linear", function_spec("pw_linear", knots=PW_KNOTS))]
    for k in (Kernel.laplace(3.0, 0.3), Kernel.gauss(3.0, 0.3)):
        out.append((f"kernel*{k.family}", kernel_level_function(k)))
        out += [(f"{name}*{k.family}", product_level_function(spec, k))
                for name, spec in specs]
    return out


def batched_union(lo, hi, i):
    return IntervalUnion.from_pairs(
        [(a, b) for a, b in zip(lo[:, i], hi[:, i]) if a <= b])


def lambert_branches(L):
    """``(W_0, W_{-1})`` at ``z = -exp(L)`` from the per-lane solver."""
    return (_lambert_branch(L, np.ones(L.shape, bool)),
            _lambert_branch(L, np.zeros(L.shape, bool)))


def close_gaps(union, tol=1e-12):
    """Merge components closer than the root solvers resolve."""
    return IntervalUnion.from_pairs((a - tol / 2, b + tol / 2) for a, b in union)


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
        assert g.level(math.exp(-x) * 1.0001).is_empty

    def test_exp_neg_requires_decay(self):
        with pytest.raises(DivergenceError):
            product_level_function(function_spec("exp_neg", lam=2.0),
                                   Kernel.laplace(1.5, 0.0))

    def test_exp_neg_gauss_any_rate(self):
        spec = function_spec("exp_neg", lam=3.0)
        g = product_level_function(spec, Kernel.gauss(1.0, 0.0))
        assert g.sup_value == pytest.approx(math.exp(9.0 / 4.0), abs=1e-12)
        lv = g.level(1.0)
        assert not lv.is_empty

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
        assert level.n_components == 2
        (a1, b1), (a2, b2) = level.intervals
        # symmetric annulus, and the profile really crosses alpha at the rims
        assert a1 == pytest.approx(2 * x - b2, abs=1e-10)
        assert b1 == pytest.approx(2 * x - a2, abs=1e-10)
        for r in (a2 - x, b2 - x):
            assert r * math.exp(-n * r) == pytest.approx(0.5 / (n * math.e), abs=1e-12)
        assert g.level(1.01 / (n * math.e)).is_empty

    def test_abs_dev_gauss_annulus(self):
        n, x = 2.0, 0.0
        g = product_level_function(function_spec("abs_dev", center=x),
                                   Kernel.gauss(n, x))
        assert g.sup_value == pytest.approx(1.0 / math.sqrt(2 * n * math.e), abs=1e-15)
        level = g.level(g.sup_value / 2)
        assert level.n_components == 2
        for a, b in level.intervals:
            for r in (abs(a), abs(b)):
                assert r * math.exp(-n * r * r) == pytest.approx(
                    g.sup_value / 2, abs=1e-12)

    @pytest.mark.parametrize("label,g", level_functions(),
                             ids=[label for label, _ in level_functions()])
    def test_level_sets_are_superlevel_sets(self, label, g):
        # away from the boundary, both oracles hold exactly {t : g(t) >= alpha}
        ts = [float(t) for t in np.linspace(-3.0, 4.0, 300)]
        gts = [g.value(t) for t in ts]
        alphas = [g.sup_value * f for f in (1e-3, 0.05, 0.3, 0.7, 1.0)]
        alphas += list(g.alpha_breakpoints)
        lo, hi = g.levels(alphas)
        for i, alpha in enumerate(alphas):
            for level in (g.level(alpha), batched_union(lo, hi, i)):
                for t, gt in zip(ts, gts):
                    if abs(gt - alpha) > 1e-6:
                        assert level.contains(t) == (gt >= alpha), (t, gt, alpha)

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
                assert g.level(float(a2)).issubset(g.level(float(a1)))

    def test_level_requires_positive_alpha(self):
        g = product_level_function(function_spec("exp_neg"), Kernel.laplace(2.0, 0.0))
        with pytest.raises(ValueError):
            g.level(0.0)

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


@pytest.mark.parametrize("family", ["laplace", "gauss"])
@pytest.mark.parametrize("spec", STATIONARY_SPECS.values(), ids=STATIONARY_SPECS.keys())
def test_stationaries_split_the_profile_into_monotone_brackets(spec, family):
    # the root-finding oracles assume the profile is monotone between the
    # knots, the kernel peak and the stationary points; a stationary point
    # that _stationaries misses turns a bracket and lowers sup_value.  The x
    # values include knots of the pw_linear specs and the support start of
    # every sqrt spec.  Below the smallest normal float the profile has no
    # relative precision left to compare.
    knots, pieces = continuous._log_pieces(spec)
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


def root_finding_specs():
    """sqrt with a shift, abs_dev with a centre and pw_linear with 2 to 5
    knots, all in [-5, 5] (values of pw_linear in [0, 3])."""
    coord = st.floats(-5.0, 5.0)
    knots = st.lists(st.tuples(coord, st.floats(0.0, 3.0)), min_size=2, max_size=5,
                     unique_by=lambda k: k[0])
    return st.one_of(st.builds(lambda s: function_spec("sqrt", shift=s), coord),
                     st.builds(lambda c: function_spec("abs_dev", center=c), coord),
                     st.builds(lambda k: function_spec("pw_linear", knots=k), knots))


def rounding_band(spec, kernel, t, log_alpha):
    """How far the rounding of the log profile ``h = log f + log K`` moves
    a root at ``t``: ``8 eps (1 + |log alpha| + kappa)`` over ``|h'(t)|``,
    the larger where ``t`` is a knot.  The ``|log alpha|`` term is the
    rounding of the logs, as in ``_ROOT_HTOL``; ``kappa`` is the relative
    condition of ``f`` on a piece ``c |t + d|**p``, ``(|t| + |d| + |e + d|
    summed over its finite ends e) / |t + d|``, which covers ``t + d`` in
    the Lambert lanes and pw_linear's interpolation between the ends in
    brentq's ``spec.fn``.  Next to a stationary point ``t_m``,
    ``h' = kappa_h delta`` and ``rel = kappa_h delta**2 / 2`` make this the
    band ``4 eps delta / rel`` of ``test_newton_next_to_a_gauss_local_maximum``
    with a wider rounding."""
    side = math.copysign(1.0, t - kernel.x)
    bands = [0.0]  # at a zero of f the slope is infinite
    for lo, hi, c, p, d in continuous._log_pieces(spec)[1]:
        if lo <= t <= hi and t + d != 0.0 and c > 0.0:
            ends = sum(abs(e + d) for e in (lo, hi) if math.isfinite(e))
            kappa = (abs(t) + abs(d) + ends) / abs(t + d)
            slope = (p / (t + d) if p > 0.0 else 0.0) - kernel.n * side
            bands.append(8.0 * EPS * (1.0 + abs(log_alpha) + kappa) / max(abs(slope), EPS))
    return max(bands)


@given(root_finding_specs(), st.floats(1e-3, 1e4), st.floats(-100.0, 100.0),
       st.floats(1e-12, 1.0))
def test_laplace_lambert_ends_match_brentq(spec, n, x, frac):
    # the batched oracle's Lambert lanes against the scalar oracle's brentq,
    # within brentq's tolerance plus the rounding band, at levels from
    # 1e-12 of sup up to sup and just below each level breakpoint; levels
    # below the smallest normal float have no relative precision left
    kernel = Kernel.laplace(n, x)
    g = product_level_function(spec, kernel)
    sup = g.sup_value
    alphas = [sup * f for f in (1e-12, 1e-6, frac, 0.5, 1.0 - 1e-9, 1.0)]
    alphas += [v * (1.0 - 1e-9) for v in g.alpha_breakpoints]
    alphas = [alpha for alpha in alphas if alpha >= 1e-290]
    if not alphas:
        return
    lo, hi = g.levels(alphas)
    for i, alpha in enumerate(alphas):
        got = close_gaps(batched_union(lo, hi, i))
        want = close_gaps(g.level(alpha))
        assert got.n_components == want.n_components, (alpha, got, want)
        for a, b in zip([t for piece in got for t in piece],
                        [t for piece in want for t in piece]):
            band = rounding_band(spec, kernel, b, math.log(alpha))
            assert abs(a - b) <= XTOL + RTOL * abs(b) + band, (alpha, a, b)


@pytest.mark.parametrize("n,x", [(math.inf, 0.0), (math.nan, 0.0), (2.0, math.nan),
                                 (2.0, -math.inf)])
def test_kernel_rejects_non_finite_parameters(n, x):
    for family in ("laplace", "gauss"):
        with pytest.raises(ValueError, match="finite"):
            Kernel(family, n, x)


class TestBatchedOracle:
    @pytest.mark.parametrize("label,g", level_functions(),
                             ids=[label for label, _ in level_functions()])
    def test_levels_match_level(self, label, g):
        sup = g.sup_value
        alphas = np.concatenate([
            np.linspace(sup * 1e-3, sup, 15), list(g.alpha_breakpoints),
            [sup * math.exp(-60.0), sup * math.exp(-20.0), sup * (1 + 1e-9),
             2.0 * sup]])
        lo, hi = g.levels(alphas)
        assert lo.shape == hi.shape and lo.shape[1] == alphas.size
        assert not np.isnan(lo).any() and not np.isnan(hi).any()
        for i, alpha in enumerate(alphas):
            want = close_gaps(g.level(float(alpha)))
            got = close_gaps(batched_union(lo, hi, i))
            assert got.n_components == want.n_components, (alpha, got, want)
            for (a1, b1), (a2, b2) in zip(got.intervals, want.intervals):
                assert a1 == pytest.approx(a2, abs=1e-12), alpha
                assert b1 == pytest.approx(b2, abs=1e-12), alpha
        assert (lo[:, -2:] > hi[:, -2:]).all()  # above sup: every piece empty

    def test_zero_constant_has_only_empty_levels(self):
        g = product_level_function(function_spec("const", c=0.0), Kernel.laplace(2.0, 0.0))
        lo, hi = g.levels([1e-9, 0.5, 2.0])
        assert lo.shape == (1, 3) and (lo > hi).all()
        assert g.level(0.5).is_empty
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
                want = mu.value(IntervalUnion.from_pairs(p for p in pairs if p[0] <= p[1]))
                assert got[i] == pytest.approx(want, rel=1e-14, abs=1e-15)

    def test_lambert_branch_point(self):
        # scipy's lambertw is NaN at -1/e itself; both branches meet at -1 there
        for arg in (-1.0 / math.e, -1.0 / math.e - 1e-17, -0.5):
            assert _lambert_pair(math.log(-arg)) == (-1.0, -1.0)
        w0, wm1 = lambert_branches(np.log([1.0 / math.e, 0.5, 0.1]))
        assert w0[:2].tolist() == [-1.0, -1.0] and wm1[:2].tolist() == [-1.0, -1.0]
        assert (w0[2], wm1[2]) == pytest.approx(_lambert_pair(math.log(0.1)), rel=1e-15)

    def test_lambert_matches_scipy(self):
        # z log-spaced over [-1/e, -1e-300]; both solvers see the same z
        from scipy.special import lambertw
        L = np.linspace(math.log(1e-300), -1.0, 2001)
        z = -np.exp(L)
        far = z + 1.0 / math.e > 1e-8
        w0, wm1 = lambert_branches(L)
        scalar = np.array([_lambert_pair(float(v)) for v in L])
        for col, (k, ours) in enumerate(((0, w0), (-1, wm1))):
            want = lambertw(z[far], k).real
            assert np.all(np.isfinite(want))
            assert ours[far] == pytest.approx(want, rel=1e-15)
            assert scalar[far, col] == pytest.approx(want, rel=1e-15)
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
        scalar = np.array([_lambert_pair(float(v)) for v in L])
        for ours in (w0, wm1, scalar[:, 0], scalar[:, 1]):
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
        from scipy.optimize import brentq
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
        from scipy.optimize import brentq
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
        from scipy.optimize import brentq
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
        knots = [(-2.0, 0.0), (-1.0, 3.0), (-0.9, 0.1), (1.0, 0.5)]
        g = product_level_function(function_spec("pw_linear", knots=knots), kernel)
        peak = g.value(-1.0)
        assert peak in g.alpha_breakpoints and peak < g.sup_value
        lo, hi = g.levels(list(g.alpha_breakpoints))
        i = g.alpha_breakpoints.index(peak)
        assert np.sum((lo[:, i] == -1.0) & (hi[:, i] == -1.0)) == 2
        assert g.level(peak).contains(-1.0)

    @staticmethod
    def ends(g, alpha):
        """The ends of the batched and of the scalar (brentq) level set at
        ``alpha``, as two sorted lists."""
        lo, hi = g.levels([alpha])
        batched = batched_union(lo, hi, 0)
        return ([t for piece in batched for t in piece],
                [t for piece in g.level(alpha) for t in piece])

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
        _, pieces = continuous._log_pieces(spec)
        peaks = continuous._stationaries(pieces, kernel)
        assert peaks
        for t_m in peaks:
            got, want = self.ends(g, g.value(t_m) * (1.0 - rel))
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
        peaks = continuous._stationaries(continuous._log_pieces(spec)[1], kernel)
        assert peaks
        for t_m in peaks:
            for rel in (1e-15, 1e-12, 1e-9):
                alpha = g.value(t_m) * (1.0 - rel)
                got, want = self.ends(g, alpha)
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
            got, want = self.ends(g, alpha)
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
        g = product_level_function(function_spec("sqrt", shift=1.0), kernel)
        alpha = g.value(-1.0 + eps) if eps else 1e-300
        got, want = self.ends(g, alpha)
        assert len(got) == len(want) == 2
        assert got[0] == pytest.approx(want[0], abs=XTOL + RTOL)
        assert got[1] == pytest.approx(want[1], abs=XTOL + RTOL * abs(want[1]))

    @pytest.mark.parametrize("n,x", [(3.0, 0.3), (16.0, 1.5), (0.5, -2.0)])
    def test_newton_on_a_laplace_constant_tail(self, n, x):
        # pw_linear is constant beyond its first and last knot, where a
        # level set against a Laplace kernel ends on the kernel's own closed
        # form
        spec = function_spec("pw_linear", knots=[(-1.0, 1.0), (0.0, 2.0), (1.0, 0.5)])
        g = product_level_function(spec, Kernel.laplace(n, x))
        edge = min(g.value(-1.0), g.value(1.0))
        for alpha in edge * np.geomspace(1e-30, 0.999, 9):
            got, want = self.ends(g, alpha)
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
                edges = continuous._layer_edges(g, SQRT_M)
                s = np.concatenate([continuous._de_nodes(a, b, level)[0]
                                    for a, b in zip(edges, edges[1:])
                                    for level in range(3)])
                g.levels(np.exp(-s[s < 700.0]))


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
        g = indicator_plateau(2.5, 0.0, 4.0)
        assert choquet_integral_real(g, SQRT_M) == pytest.approx(5.0, abs=1e-9)

    def test_zero_function(self):
        g = indicator_plateau(0.0, 0.0, 1.0)
        assert choquet_integral_real(g, SQRT_M) == 0.0

    def test_error_estimate_consistency(self):
        # the estimate covers the distance to the closed form sqrt(pi / (2n))
        g = kernel_level_function(Kernel.laplace(2.0, 0.0))
        v, e = choquet_integral_real_with_error(g, SQRT_M)
        assert abs(v - math.sqrt(math.pi / 4.0)) <= e

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
            "plateau": (indicator_plateau(2.5, 0.0, 4.0), SQRT_M),
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
        # 30-digit mpmath values, split at the capacity kink alpha = g(x_mu)
        (product_level_function(function_spec("exp_neg"), Kernel.gauss(16.0, 0.3)),
         RealCapacity.possibility(Kernel.laplace(16.0, 0.3)),
         0.750755613330227810243743579467),
        (kernel_level_function(Kernel.gauss(8.0, -0.4)),
         RealCapacity.possibility(Kernel.laplace(3.0, 0.1)),
         0.594196065342948193735185190963),
    ], ids=["exp_neg*gauss", "gauss-kernel"])
    def test_possibility_kink_references(self, g, mu, want):
        # below alpha = g(x_mu) the level set holds the capacity's peak; both
        # engines split there (the adaptive one missed by 5e-9 without it)
        assert continuous._layer_edges(g, mu)[1] == pytest.approx(-math.log(g.value(mu.kernel.x)))
        assert choquet_integral_real(g, mu) == pytest.approx(want, rel=1e-11)
        assert choquet_integral_real_grid(g, mu) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_exp_sinh_tail_reproduces_laplace_normalizer(self, n):
        # one piece [0, inf): the layer is sqrt(2 s / n) exp(-s)
        g = kernel_level_function(Kernel.laplace(float(n), 0.7))
        assert continuous._layer_edges(g, SQRT_M) == [0.0, math.inf]
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

        g = LevelSetFunction(lambda t: 1.0, lambda a: IntervalUnion.empty(), 1.0, levels)
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

        g = LevelSetFunction(lambda t: 1.0, lambda a: IntervalUnion.empty(), 1.0, levels)
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

    def test_monotone_in_capacity(self):
        # pointwise-dominated possibility kernels order the integrals
        g = product_level_function(function_spec("exp_neg"), Kernel.laplace(4.0, 0.5))
        small = RealCapacity.possibility(Kernel.laplace(4.0, 0.5))
        large = RealCapacity.possibility(Kernel.laplace(2.0, 0.5))
        assert (choquet_integral_real(g, small)
                <= choquet_integral_real(g, large) + 1e-9)

    def test_nonconvergence_raises_with_partial_value(self):
        # sin(1/t)/t oscillates ever faster towards 0, which no subdivision
        # within QUAD_LIMIT resolves to the module tolerances
        with pytest.raises(QuadratureError) as err:
            integrate_adaptive(lambda t: math.sin(1.0 / t) / t, 0.0, 1.0)
        assert math.isfinite(err.value.value)
        assert err.value.error_estimate >= 0.0

    def test_infinite_level_set_raises(self):
        # a whole-line level set deep in the tail: quad returns (inf, inf)
        # there without an IntegrationWarning
        whole = IntervalUnion.from_pairs([(-math.inf, math.inf)])

        def level(alpha):
            return whole if alpha < 1e-160 else IntervalUnion.from_pairs([(-1.0, 1.0)])

        g = LevelSetFunction(lambda t: 1.0, level, 1.0,
                             lambda alphas: empty_pieces(1, alphas.size))
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
        g = LevelSetFunction(lambda t: 1.0, lambda a: IntervalUnion.empty(),
                             math.inf, lambda alphas: empty_pieces(1, alphas.size))
        with pytest.raises(DivergenceError):
            choquet_integral_real(g, SQRT_M)
        with pytest.raises(DivergenceError):
            choquet_integral_real_grid(g, SQRT_M)


MOMENT_N = [0.5, 1.5, 2.0, 7.0, 16.0, 64.0, 257.0]


def moment_capacities(kernel):
    """The capacities whose kernel moment and normalizer are closed forms."""
    out = [("lebesgue", RealCapacity.lebesgue()), ("sqrt_lebesgue", SQRT_M)]
    if kernel.family == "laplace":
        out.append(("possibility", RealCapacity.possibility(kernel)))
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

    @pytest.mark.parametrize("family", ["laplace", "gauss"])
    @pytest.mark.parametrize("n", [0.5, 2.0, 64.0])
    def test_closed_forms_do_not_depend_on_the_centre(self, family, n):
        def closed(x):
            k = Kernel(family, n, x)
            return [(continuous.kernel_moment(k, mu), kernel_normalizer(k, mu))
                    for _, mu in moment_capacities(k)]

        assert closed(1e6) == closed(0.0) == closed(-1e6) == closed(1e12)
