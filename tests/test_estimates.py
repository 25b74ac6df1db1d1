import io
import math

import numpy as np
import pytest

from choquetkit import (ErrorTable, Kernel, PerturbationProfile, RealCapacity,
                        bernstein_choquet, bernstein_choquet_scheme,
                        chebyshev_check, convergence_report, delta_rule,
                        function_spec, modulus_of_continuity,
                        modulus_of_continuity_detailed, perturbation_gap,
                        picard_choquet, quantitative_bound,
                        random_monotone_capacity, scheme_moments,
                        uniform_additive)


class TestModulus:
    def test_constant_zero(self):
        assert modulus_of_continuity(function_spec("const", c=3.0), 0.1,
                                     (0.0, 1.0)) == 0.0

    def test_identity(self):
        assert modulus_of_continuity(function_spec("e1"), 0.1,
                                     (0.0, 1.0)) == pytest.approx(0.1)

    def test_lipschitz_ramp_grid_converges(self):
        # slope-3 segment of length 0.5 >> delta: modulus = 3 * delta
        spec = function_spec("pw_linear", knots=[(0.0, 0.0), (0.5, 1.5), (1.0, 1.5)])
        res = modulus_of_continuity_detailed(spec, 0.05, (0.0, 1.0))
        assert res.method == "grid"
        assert res.value <= 0.15 + 1e-12  # certified lower approximation
        assert res.value == pytest.approx(0.15, rel=1e-2)

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
    ], ids=["exp_neg", "concave_quad", "concave_quad_to_1", "sqrt_left_of_support"])
    def test_analytic_matches_grid(self, spec, window):
        analytic = modulus_of_continuity_detailed(spec, 0.3, window)
        assert analytic.method == "analytic"
        from choquetkit.estimates import _modulus_grid
        grid = _modulus_grid(spec.fn, 0.3, window, 4001)
        assert grid.value <= analytic.value + 1e-12
        assert analytic.value == pytest.approx(grid.value, rel=1e-5)

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
        # pw_linear takes the grid path, whose int(delta / h) needs a finite step
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
        res = chebyshev_check([2.0, 2.0, 2.0], uniform_additive(3), 0.5)
        assert res.lhs == 0.0
        assert res.holds

    def test_additive_classical_instance(self):
        cap = uniform_additive(4)
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
            chebyshev_check([1.0, 2.0], uniform_additive(2), 0.0)


class TestSchemeMoments:
    def test_classical_scheme_binomial_oracle(self):
        scheme = bernstein_choquet_scheme(PerturbationProfile(theta=0.0))
        for n in (4, 9):
            for x in (0.2, 0.7):
                diag = scheme_moments(scheme, n, x)
                assert diag.mean == pytest.approx(x, abs=1e-12)
                assert diag.variance == pytest.approx(x * (1 - x) / n, abs=1e-12)

    def test_perturbed_mean_display(self):
        scheme = bernstein_choquet_scheme()
        for n in (4, 8, 16):
            for x in np.linspace(0.05, 0.95, 7):
                x = float(x)
                diag = scheme_moments(scheme, n, x)
                assert diag.mean == pytest.approx(
                    x + perturbation_gap(n, x) / n, abs=1e-12)
                assert abs(diag.mean - x) <= 2.0 ** -n / n + 1e-15

    def test_variance_vanishes_like_1_over_n(self):
        scheme = bernstein_choquet_scheme()
        for x in (0.25, 0.5, 0.8):
            variances = [scheme_moments(scheme, n, x).variance
                         for n in (4, 8, 16, 32, 64)]
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
        assert table.nondecreasing_error_flags() == []

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
        assert (4, 8) in table.nondecreasing_error_flags()

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
