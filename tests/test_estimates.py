import io
import math

import numpy as np
import pytest

from choquetkit import (CapabilityError, ErrorTable, FunctionSpec, Kernel,
                        PerturbationProfile, RealCapacity, additive_capacity,
                        bernstein_choquet, bernstein_choquet_capacity,
                        chebyshev_check, choquet_integral, choquet_variance,
                        convergence_report, delta_rule, function_spec,
                        modulus_of_continuity, modulus_of_continuity_detailed,
                        perturbation_gap, picard_choquet, quantitative_bound,
                        random_monotone_capacity)


PW_KNOTS = [(-1.0, 1.0), (0.0, 2.0), (1.0, 0.5)]


def grid_modulus(fn, delta, window, points):
    """Pair-sup of ``|fn(s) - fn(t)|`` over nodes at most ``delta`` apart, the
    larger of ``points`` and ``2 * points - 1`` equispaced ones: a lower
    bound on omega1, short of it by at most two steps of the coarser grid
    times the Lipschitz constant."""
    a, b = window

    def grid_sup(num):
        vals = np.array([fn(float(t)) for t in np.linspace(a, b, num)])
        max_shift = min(num - 1, int(delta / ((b - a) / (num - 1))))
        return max((float(np.max(np.abs(vals[k:] - vals[:-k])))
                    for k in range(1, max_shift + 1)), default=0.0)

    return max(grid_sup(points), grid_sup(2 * points - 1))


class TestModulus:
    def test_constant_zero(self):
        assert modulus_of_continuity(function_spec("const", c=3.0), 0.1,
                                     (0.0, 1.0)) == 0.0

    def test_identity(self):
        assert modulus_of_continuity(function_spec("e1"), 0.1,
                                     (0.0, 1.0)) == pytest.approx(0.1)

    def test_lipschitz_ramp_grid_converges(self):
        # slope-3 segment of length 0.5 >> delta: modulus = 3 * delta, exactly
        spec = function_spec("pw_linear", knots=[(0.0, 0.0), (0.5, 1.5), (1.0, 1.5)])
        res = modulus_of_continuity_detailed(spec, 0.05, (0.0, 1.0))
        assert res.method == "analytic"
        assert res.value == pytest.approx(0.15, rel=1e-12)

    def test_sqrt_modulus(self):
        assert modulus_of_continuity(function_spec("sqrt"), 0.04,
                                     (0.0, 1.0)) == pytest.approx(0.2, abs=1e-12)

    def test_sqrt_modulus_interior_window(self):
        got = modulus_of_continuity(function_spec("sqrt"), 0.1, (1.0, 2.0))
        assert got == pytest.approx(math.sqrt(1.1) - 1.0, abs=1e-12)

    @pytest.mark.parametrize("spec,window", [
        (function_spec("exp_neg", lam=2.0), (-1.0, 2.0)),
        (function_spec("concave_quad"), (-1.0, 0.5)),
        (function_spec("concave_quad"), (0.0, 1.0)),
        (function_spec("sqrt", shift=1.0), (-3.0, -1.0)),
        (function_spec("abs_dev", center=0.4), (-1.0, 2.0)),
        (function_spec("e1"), (-1.0, 2.0)),
        (function_spec("const", c=3.0), (-1.0, 2.0)),
        (function_spec("pw_linear", knots=PW_KNOTS), (-2.0, 2.0)),
        (function_spec("exp_neg", lam=2.0, scale=0.5), (-1.0, 2.0)),
    ], ids=["exp_neg", "concave_quad", "concave_quad_to_1", "sqrt_left_of_support",
            "abs_dev", "e1", "const", "pw_linear", "exp_neg_lam2_scale"])
    def test_analytic_matches_grid(self, spec, window):
        analytic = modulus_of_continuity_detailed(spec, 0.3, window)
        assert analytic.method == "analytic"
        grid = grid_modulus(spec.fn, 0.3, window, 4001)
        assert grid <= analytic.value + 1e-12
        assert analytic.value == pytest.approx(grid, rel=1e-5)

    @pytest.mark.parametrize("window", [(0.5, 1.7), (1.2, 3.0), (-1.0, 2.0)])
    def test_concave_quad_past_1_against_grid(self, window):
        # |f'| = |2 - 2t| is largest at a window end
        lipschitz = 2.0 * max(abs(1.0 - window[0]), abs(1.0 - window[1]))
        step = (window[1] - window[0]) / 4000
        for delta in (0.05, 0.3, 1.3, 5.0):
            exact = modulus_of_continuity(function_spec("concave_quad"), delta, window)
            grid = grid_modulus(function_spec("concave_quad").fn, delta, window, 4001)
            assert grid <= exact + 1e-12
            assert exact - grid <= 2.0 * lipschitz * step

    def test_pw_linear_exact_against_grid(self):
        rng = np.random.default_rng(7)
        points = 1001
        for _ in range(40):
            ts = np.sort(rng.uniform(-2.0, 2.0, size=int(rng.integers(2, 6))))
            knots = list(zip(ts, rng.uniform(-1.0, 2.0, size=ts.size)))
            spec = function_spec("pw_linear", knots=knots)
            knot_t, knot_v = np.array(spec.param("knots")).T
            lipschitz = np.max(np.abs(np.diff(knot_v) / np.diff(knot_t)))
            a = rng.uniform(-3.0, 1.0)
            window = (a, a + rng.uniform(0.2, 4.0))
            step = (window[1] - window[0]) / (points - 1)
            for delta in rng.uniform(0.01, 3.0, size=3):
                exact = modulus_of_continuity(spec, delta, window)
                grid = grid_modulus(spec.fn, delta, window, points)
                assert grid <= exact + 1e-12
                assert exact - grid <= 2.0 * lipschitz * step + 1e-12

    @pytest.mark.parametrize("knots,delta,window,want", [
        # the benchmark's knots: the slope -1.5 run from 0 to 1 sets the
        # modulus, which the 2001-point grid put at 0.07425
        (PW_KNOTS, 0.05, (-2.0, 2.5), 0.075),
        # the largest rise ends at the peak 1.5 and starts at 0.7, inside a
        # segment: the vertex t + h = knot, h = delta
        ([(0.0, 0.0), (1.0, 1.0), (1.5, 3.0), (3.0, 2.5)], 0.8, (0.0, 3.0), 2.3),
    ], ids=["benchmark_knots", "rise_to_peak"])
    def test_pw_linear_regression(self, knots, delta, window, want):
        spec = function_spec("pw_linear", knots=knots)
        assert modulus_of_continuity(spec, delta, window) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("delta,window,want", [
        (3.0, (-1.0, 2.0), 4.0),     # the rise from t = -1 turns at h = 1 - a = 2
        (3.0, (-2.0, 2.0), 9.0),     # f(1) - f(-2), a rise of the full reach
        (0.05, (1.2, 1.3), 0.0275),  # the drop ending at t + h = b
        (0.5, (0.0, 3.0), 1.75),     # the drop turns at h = b - 1 = 2, past
    ])                               # the reach: f(2.5) - f(3)
    def test_concave_quad_past_1(self, delta, window, want):
        got = modulus_of_continuity(function_spec("concave_quad"), delta, window)
        assert got == pytest.approx(want, rel=1e-12)

    def test_concave_quad_up_to_1_keeps_left_edge_rise(self):
        fn = function_spec("concave_quad").fn
        rng = np.random.default_rng(3)
        for _ in range(2000):
            b = min(1.0, rng.uniform(-3.0, 1.5))
            a = b - rng.uniform(1e-3, 4.0)
            delta = rng.choice([rng.uniform(1e-3, 5.0), b - a])
            reach = min(delta, b - a)
            got = modulus_of_continuity(function_spec("concave_quad"), delta, (a, b))
            assert got == fn(a + reach) - fn(a)

    def test_unregistered_family_rejected(self):
        spec = FunctionSpec("cubic", lambda t: t ** 3)
        with pytest.raises(CapabilityError, match="cubic"):
            modulus_of_continuity(spec, 0.1, (0.0, 1.0))

    def test_abs_dev_window_limited(self):
        spec = function_spec("abs_dev", center=0.0)
        assert modulus_of_continuity(spec, 0.5, (-2.0, 2.0)) == pytest.approx(0.5)
        # window shorter than delta on both sides of the kink
        assert modulus_of_continuity(spec, 3.0, (-1.0, 1.0)) == pytest.approx(1.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            modulus_of_continuity(function_spec("e1"), 0.0, (0.0, 1.0))

    @pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan])
    def test_non_finite_step_rejected(self, delta):
        # checked before any rule: an infinite reach would clip every vertex
        # of the pw_linear rule to the window
        spec = function_spec("pw_linear", knots=[(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError, match="modulus step must be finite"):
            modulus_of_continuity_detailed(spec, delta, (0.0, 1.0))


class TestQuantitativeBound:
    def test_zero_deviation(self):
        assert quantitative_bound(0.0, 0.5, 2.0) == pytest.approx(2.0)

    def test_balanced_bracket(self):
        assert quantitative_bound(0.5, 0.5, 2.0) == pytest.approx(4.0)

    def test_positive_delta_required(self):
        with pytest.raises(ValueError):
            quantitative_bound(0.1, 0.0, 1.0)

    def test_delta_rule(self):
        assert delta_rule(0.25, 4) == 0.25
        assert delta_rule(0.0, 4) == 0.25


class TestChebyshev:
    def test_constant_function(self):
        res = chebyshev_check([2.0, 2.0, 2.0], additive_capacity([1.0 / 3] * 3), 0.5)
        assert res.lhs == 0.0
        assert res.holds

    def test_additive_classical_instance(self):
        cap = additive_capacity([1.0 / 4] * 4)
        x = [0.0, 1.0, 2.0, 3.0]
        res = chebyshev_check(x, cap, 1.4)
        mean = sum(x) / 4
        lhs = sum(1 for v in x if abs(v - mean) >= 1.4) / 4
        var = sum((v - mean) ** 2 for v in x) / 4
        assert res.lhs == pytest.approx(lhs, abs=1e-12)
        assert res.rhs == pytest.approx(var / 1.4 ** 2, abs=1e-12)
        assert res.holds

    def test_random_instances(self, rng):
        for _ in range(300):
            size = int(rng.integers(2, 7))
            cap = random_monotone_capacity(rng, size)
            x = rng.uniform(-3.0, 3.0, size=size)
            r = float(rng.uniform(0.05, 3.0))
            assert chebyshev_check(x, cap, r).holds

    def test_positive_radius_required(self):
        with pytest.raises(ValueError):
            chebyshev_check([1.0, 2.0], additive_capacity([1.0 / 2] * 2), 0.0)


def scheme_moments(n, x, profile=PerturbationProfile()):
    """Choquet mean and variance of the lattice i/n under the basis capacity."""
    cap = bernstein_choquet_capacity(n, x, profile)
    lattice = [i / n for i in range(n + 1)]
    return choquet_integral(lattice, cap), choquet_variance(lattice, cap)


class TestSchemeMoments:
    def test_classical_scheme_binomial_oracle(self):
        for n in (4, 9):
            for x in (0.2, 0.7):
                mean, variance = scheme_moments(n, x, PerturbationProfile(theta=0.0))
                assert mean == pytest.approx(x, abs=1e-12)
                assert variance == pytest.approx(x * (1 - x) / n, abs=1e-12)

    def test_perturbed_mean_display(self):
        for n in (4, 8, 16):
            for x in np.linspace(0.05, 0.95, 7):
                x = float(x)
                mean, _ = scheme_moments(n, x)
                assert mean == pytest.approx(
                    x + perturbation_gap(n, x) / n, abs=1e-12)
                assert abs(mean - x) <= 2.0 ** -n / n + 1e-15

    def test_variance_vanishes_like_1_over_n(self):
        for x in (0.25, 0.5, 0.8):
            variances = [scheme_moments(n, x)[1] for n in (4, 8, 16, 32, 64)]
            assert all(v >= 0 for v in variances)
            for v, n in zip(variances, (4, 8, 16, 32, 64)):
                assert v <= 2.0 * x * (1 - x) / n + 2.0 / n ** 2 + 1e-12
            assert all(b < a for a, b in zip(variances, variances[1:]))


class TestConvergenceReport:
    def test_decreasing_for_concave_quad(self):
        spec = function_spec("concave_quad")
        table = convergence_report(
            lambda n, x: bernstein_choquet(spec.fn, n, x), spec.fn,
            [4, 8, 16, 32], np.linspace(0.0, 1.0, 41))
        assert table.max_error_decreasing()

    def test_constant_zero_errors(self):
        spec = function_spec("const", c=2.0)
        table = convergence_report(
            lambda n, x: bernstein_choquet(spec.fn, n, x), spec.fn,
            [2, 4], np.linspace(0.0, 1.0, 11))
        assert all(row[4] <= 1e-12 for row in table.rows)

    def test_flags_nondecreasing_sequences(self):
        table = convergence_report(lambda n, x: 1.0 / n + (n == 8) * 0.5,
                                   lambda x: 0.0, [4, 8, 16], [0.0, 1.0])
        assert not table.max_error_decreasing()

    def test_csv_golden(self):
        table = ErrorTable()
        table.add(2, 0.5, 1.25, 1.0, bound=0.5)
        buf = io.StringIO()
        table.to_csv(buf)
        assert buf.getvalue() == (
            "n,x,operator_value,f_x,abs_error,bound_value\n"
            "2,0.5,1.25,1,0.25,0.5\n")


class TestBoundAgainstOperators:
    def test_picard_bound_holds(self):
        window = (-2.0, 3.0)
        for name, params in (("exp_neg", {}), ("sqrt", {"shift": 3.0}),
                             ("pw_linear", {"knots": [(-1.0, 1.0), (0.0, 2.0),
                                                      (1.0, 0.5)]})):
            spec = function_spec(name, **params)
            for n in (2, 4, 8):
                for x in (-1.0, 0.5, 1.5):
                    mu = RealCapacity.possibility(Kernel.laplace(n, x))
                    tn = picard_choquet(spec, n, x, mu)
                    tphi = picard_choquet(function_spec("abs_dev", center=x),
                                          n, x, mu)
                    delta = delta_rule(tphi, n)
                    bound = quantitative_bound(
                        tphi, delta, modulus_of_continuity(spec, delta, window))
                    assert abs(tn - spec.fn(x)) <= bound + 1e-6
