import math
import warnings

import numpy as np
import pytest

from choquetkit import (DivergenceError, IntervalUnion, Kernel,
                        LevelSetFunction, QuadratureError,
                        RealCapacity, choquet_integral_real,
                        choquet_integral_real_grid,
                        choquet_integral_real_with_error, function_spec,
                        indicator_plateau, integrate_adaptive,
                        kernel_level_function, kernel_normalizer,
                        product_level_function)
from choquetkit import continuous
from choquetkit.continuous import _bisect, _lambert_pair, _lambert_pairs
from choquetkit.intervals import empty_pieces

SQRT_M = RealCapacity.sqrt_lebesgue()
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

    def test_generic_pw_linear_profile(self):
        spec = function_spec("pw_linear",
                             knots=[(-1.0, 0.0), (0.0, 2.0), (1.0, 0.5), (2.0, 1.5)])
        k = Kernel.laplace(4.0, 0.25)
        g = product_level_function(spec, k)
        ts = np.linspace(-3.0, 4.0, 400)
        for alpha in (0.05, 0.3, 0.9, 1.4):
            level = g.level(alpha)
            for t in ts:
                t = float(t)
                gt = g.value(t)
                if abs(gt - alpha) > 1e-6:
                    assert level.contains(t) == (gt >= alpha), (t, gt, alpha)

    def test_generic_sqrt_profile(self):
        spec = function_spec("sqrt", shift=1.0)
        for k in (Kernel.laplace(3.0, 0.5), Kernel.gauss(3.0, 0.5)):
            g = product_level_function(spec, k)
            ts = np.linspace(-2.5, 3.5, 300)
            for alpha in (0.1, 0.6, 1.0):
                level = g.level(alpha)
                for t in ts:
                    t = float(t)
                    gt = g.value(t)
                    if abs(gt - alpha) > 1e-6:
                        assert level.contains(t) == (gt >= alpha)

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
        w0, wm1 = _lambert_pairs(np.log([1.0 / math.e, 0.5, 0.1]))
        assert w0[:2].tolist() == [-1.0, -1.0] and wm1[:2].tolist() == [-1.0, -1.0]
        assert (w0[2], wm1[2]) == pytest.approx(_lambert_pair(math.log(0.1)), rel=1e-15)

    def test_lambert_matches_scipy(self):
        # z log-spaced over [-1/e, -1e-300]; both solvers see the same z
        from scipy.special import lambertw
        L = np.linspace(math.log(1e-300), -1.0, 2001)
        z = -np.exp(L)
        far = z + 1.0 / math.e > 1e-8
        w0, wm1 = _lambert_pairs(L)
        scalar = np.array([_lambert_pair(float(v)) for v in L])
        for col, (k, ours) in enumerate(((0, w0), (-1, wm1))):
            want = lambertw(z[far], k).real
            assert np.all(np.isfinite(want))
            assert ours[far] == pytest.approx(want, rel=1e-15)
            assert scalar[far, col] == pytest.approx(want, rel=1e-15)

    def test_lambert_residual_at_branch_point(self):
        # within 1e-8 of -1/e the values are held to w + log(-w) = L instead;
        # scipy's W_{-1} keeps a residual near 5e-9 there
        from scipy.special import lambertw
        L = -1.0 - np.geomspace(1e-16, 2.7e-8, 200)
        z = -np.exp(L)
        assert np.all(z + 1.0 / math.e <= 1e-8)
        w0, wm1 = _lambert_pairs(L)
        scalar = np.array([_lambert_pair(float(v)) for v in L])
        for ours in (w0, wm1, scalar[:, 0], scalar[:, 1]):
            assert np.all(np.abs(ours + np.log(-ours) - L) <= 4e-16)
        assert np.all(w0 >= -1.0) and np.all(wm1 <= -1.0)
        for k in (0, -1):
            theirs = lambertw(z, k).real
            ok = np.isfinite(theirs)  # NaN where z rounds to -1/e itself
            assert np.all(np.abs(theirs[ok] + np.log(-theirs[ok]) - L[ok]) <= 1e-8)

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

    def test_bisection_matches_brentq_within_its_step_cap(self):
        from scipy.optimize import brentq
        calls = []

        def g(t):
            calls.append(t.size)
            return np.exp(-2.0 * t)

        alphas = np.array([0.9, 0.3, 1e-6])
        roots = _bisect(g, 0.0, 16.0, alphas, rising=False)
        for alpha, root in zip(alphas, roots):
            want = brentq(lambda t: math.exp(-2.0 * t) - alpha, 0.0, 16.0, xtol=1e-13)
            assert root == pytest.approx(want, abs=2e-13)
        assert len(calls) <= math.ceil(math.log2(16.0 / 1e-13)) + 2

    def test_bisection_never_loops_unbounded(self, monkeypatch):
        falling = lambda t: -t  # noqa: E731
        with pytest.raises(QuadratureError):
            _bisect(falling, math.nan, 1.0, np.array([0.5]), rising=False)
        with pytest.raises(QuadratureError):
            _bisect(falling, -math.inf, 1.0, np.array([0.5]), rising=False)
        with pytest.raises(QuadratureError):
            _bisect(lambda t: t * math.nan, 0.0, 1.0, np.array([0.5]), rising=True)
        # a bracket at the top of the float range has no overflowing midpoint
        root = _bisect(falling, 1e308, 1.7e308, np.array([-1.5e308]), rising=False)
        assert root[0] == pytest.approx(1.5e308, rel=1e-15)
        # with a stopping rule no lane can meet, the step cap ends the loop
        monkeypatch.setattr(continuous, "_ROOT_RTOL", -1.0)
        calls = []
        with pytest.raises(QuadratureError, match="did not converge"):
            _bisect(lambda t: calls.append(1) or -t, 0.0, 1.0, np.array([-0.5]),
                    rising=False)
        assert len(calls) == math.ceil(-math.log2(1e-13)) + 2


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
        cases = [
            (kernel_level_function(Kernel.laplace(2.0, 0.3)), SQRT_M),
            (kernel_level_function(Kernel.gauss(8.0, -0.4)),
             RealCapacity.possibility(Kernel.laplace(3.0, 0.1))),
            (product_level_function(function_spec("sqrt", shift=3.0),
                                    Kernel.laplace(2.0, 0.3)), SQRT_M),
            (product_level_function(function_spec("pw_linear", knots=PW_KNOTS[:3]),
                                    Kernel.laplace(8.0, 0.3)), SQRT_M),
            (product_level_function(function_spec("abs_dev", center=0.3), gauss),
             RealCapacity.possibility(Kernel.laplace(2.0, 0.3))),
            (product_level_function(function_spec("abs_dev", center=0.3), gauss), SQRT_M),
            (indicator_plateau(2.5, 0.0, 4.0), SQRT_M),
        ]
        for g, mu in cases:
            a = choquet_integral_real(g, mu)
            b = choquet_integral_real_grid(g, mu)
            assert a == pytest.approx(b, rel=1e-6, abs=1e-9), g.label

    def test_grid_engine_pinned(self):
        # values of the scalar-oracle Simpson engine this one replaced
        pw = function_spec("pw_linear", knots=[(-1.0, 1.0), (0.0, 2.0), (1.0, 0.5)])

        def poss(n, x):
            return RealCapacity.possibility(Kernel.laplace(n, x))

        cases = [
            (None, Kernel.laplace(2.0, 0.3), SQRT_M, 0.8862269254535947),
            (None, Kernel.gauss(8.0, -0.4), poss(3.0, 0.1), 0.594195921340691),
            (function_spec("exp_neg"), Kernel.laplace(3.0, 0.2), poss(3.0, 0.2),
             0.8187307530848761),
            (function_spec("exp_neg", lam=2.0), Kernel.gauss(2.0, 0.5), SQRT_M,
             0.6537795779795622),
            (function_spec("abs_dev", center=0.3), Kernel.laplace(2.0, 0.3), SQRT_M,
             0.2899745786270968),
            (function_spec("abs_dev", center=0.0), Kernel.laplace(8.0, 0.3),
             poss(8.0, 0.3), 0.3000000004850715),
            (function_spec("sqrt", shift=3.0), Kernel.laplace(2.0, 0.3), SQRT_M,
             1.6073414504278714),
            (function_spec("sqrt", shift=1.0), Kernel.gauss(8.0, 0.3), poss(8.0, 0.3),
             1.1450515193511408),
            (pw, Kernel.laplace(8.0, 0.3), SQRT_M, 0.6862728174951809),
            (pw, Kernel.gauss(2.0, -0.5), poss(2.0, -0.5), 1.5700908227309116),
        ]
        for spec, k, mu, want in cases:
            g = kernel_level_function(k) if spec is None else product_level_function(spec, k)
            assert choquet_integral_real_grid(g, mu) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("mu", [SQRT_M, RealCapacity.possibility(Kernel.laplace(2.0, 0.3))])
    def test_grid_engine_at_lambert_branch_point(self, mu):
        # the first grid node sits at alpha = sup, where lambertw(-1/e) is NaN
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
        whole = IntervalUnion.single(-math.inf, math.inf)

        def level(alpha):
            return whole if alpha < 1e-160 else IntervalUnion.single(-1.0, 1.0)

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

        g = LevelSetFunction(lambda t: 1.0, lambda a: IntervalUnion.single(-1.0, 1.0),
                             1.0, levels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="not finite"):
                choquet_integral_real_grid(g, SQRT_M)

    def test_infinite_sup_rejected(self):
        g = LevelSetFunction(lambda t: 1.0, lambda a: IntervalUnion.empty(),
                             math.inf, lambda alphas: empty_pieces(1, alphas.size))
        with pytest.raises(DivergenceError):
            choquet_integral_real(g, SQRT_M)
