import math

import numpy as np
import pytest

from choquetkit import (REGISTERED, DistortionFunction, Kernel,
                        PerturbationProfile, RealCapacity, bernstein_basis,
                        bernstein_choquet, bernstein_choquet_capacity,
                        bernstein_choquet_closedform, bernstein_classical,
                        check_properties, function_spec, kernel_normalizer,
                        perturbation_gap, picard_choquet, picard_classical,
                        weierstrass_choquet)
from choquetkit import continuous, operators

POSS = lambda n, x: RealCapacity.possibility(Kernel.laplace(n, x))


class TestBernsteinBasis:
    def test_endpoint(self):
        assert bernstein_basis(5, 0, 0.0) == 1.0

    def test_midpoint(self):
        assert bernstein_basis(2, 1, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_partition_of_unity(self):
        total = math.fsum(bernstein_basis(5, i, 0.3) for i in range(6))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bernstein_basis(3, 4, 0.5)
        with pytest.raises(ValueError):
            bernstein_basis(3, 1, 1.5)


class TestBernsteinClassical:
    def test_linear_reproduction(self):
        for x in (0.0, 0.25, 0.8, 1.0):
            assert bernstein_classical(lambda t: t, 7, x) == pytest.approx(
                x, abs=1e-12)

    def test_constant(self):
        assert bernstein_classical(lambda t: 4.5, 6, 0.3) == pytest.approx(
            4.5, abs=1e-12)

    def test_second_moment_identity(self):
        # direct-sum oracle for B_n((x - .)^2)(x) = x(1-x)/n
        for n in (2, 5, 16):
            for x in (0.1, 0.5, 0.9):
                oracle = math.fsum(
                    (x - i / n) ** 2 * bernstein_basis(n, i, x) for i in range(n + 1))
                value = bernstein_classical(lambda t: (x - t) ** 2, n, x)
                assert value == pytest.approx(oracle, abs=1e-15)
                assert value == pytest.approx(x * (1 - x) / n, abs=1e-12)


class TestPerturbedCapacity:
    def test_theta_zero_is_additive(self):
        cap = bernstein_choquet_capacity(4, 0.3, PerturbationProfile(theta=0.0))
        p = [bernstein_basis(4, i, 0.3) for i in range(5)]
        for mask in range(1 << 5):
            subset = frozenset(i for i in range(5) if mask >> i & 1)
            assert cap.evaluator(subset) == pytest.approx(
                math.fsum(p[i] for i in subset), abs=1e-12)

    def test_normalized_everywhere(self):
        for n in (2, 5, 9):
            for x in (0.0, 0.4, 1.0):
                cap = bernstein_choquet_capacity(n, x)
                assert cap.value(range(n + 1)) == 1.0

    def test_singleton_fixture(self):
        cap = bernstein_choquet_capacity(3, 0.5)
        # p_{3,1}(0.5) = 0.375, smallest other weight 0.125
        assert cap.value({1}) == pytest.approx(0.5, abs=1e-12)

    def test_properties(self):
        for x in (0.15, 0.5, 0.85):
            cap = bernstein_choquet_capacity(4, x)
            report = check_properties(cap)
            assert report.monotone and report.subadditive and report.normalized
            singles = math.fsum(cap.value({i}) for i in range(5))
            assert singles > 1.0 + 1e-6  # strictly non-additive for theta=1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bernstein_choquet_capacity(1, 0.5)
        with pytest.raises(ValueError):
            bernstein_choquet_capacity(4, 0.5, PerturbationProfile(i0=9))
        with pytest.raises(ValueError):
            PerturbationProfile(theta=1.2)


class TestBernsteinChoquet:
    def test_constant_for_every_theta(self):
        for theta in (0.0, 0.4, 1.0):
            prof = PerturbationProfile(theta=theta)
            assert bernstein_choquet(lambda t: 2.5, 5, 0.3, prof) == pytest.approx(
                2.5, abs=1e-12)

    def test_linear_display(self):
        # L_n(e1)(x) = x + gap/n
        for n in (2, 6, 17):
            for x in (0.1, 0.5, 0.93):
                got = bernstein_choquet(lambda t: t, n, x)
                assert got == pytest.approx(
                    x + perturbation_gap(n, x) / n, abs=1e-12)

    def test_theta_zero_reduces_to_classical(self, rng):
        prof = PerturbationProfile(theta=0.0)
        for _ in range(100):
            knots = sorted(rng.uniform(0.0, 1.0, size=4))
            vals = rng.uniform(0.0, 2.0, size=4)
            spec = function_spec("pw_linear", knots=list(zip(knots, vals)))
            n = int(rng.integers(2, 9))
            x = float(rng.uniform(0.0, 1.0))
            assert bernstein_choquet(spec.fn, n, x, prof) == pytest.approx(
                bernstein_classical(spec.fn, n, x), abs=1e-12)

    @pytest.mark.parametrize("name", REGISTERED)
    def test_closed_form_matches_sorted_integral(self, name):
        # B_n(f) + [f(i0/n) - min_i f(i/n)] * gap for every f, monotone or not
        params = {"abs_dev": {"center": 0.4},
                  "pw_linear": {"knots": [(0.0, 0.5), (0.3, -1.0), (0.7, 2.0), (1.0, 0.2)]}}
        spec = function_spec(name, **params.get(name, {}))
        for prof in (PerturbationProfile(), PerturbationProfile(i0=0, theta=0.5),
                     PerturbationProfile(i0=2, theta=0.0), PerturbationProfile(i0=4)):
            for n in [n for n in (2, 4, 9, 33) if n >= prof.i0]:
                for x in np.linspace(0.0, 1.0, 21):
                    x = float(x)
                    assert bernstein_choquet(spec.fn, n, x, prof) == pytest.approx(
                        bernstein_choquet_closedform(spec, n, x, prof), abs=1e-12)

    def test_closed_form_matches_sorted_integral_on_signed_pw_linear(self, rng):
        for _ in range(3000):
            size = int(rng.integers(2, 7))
            knots = list(zip(np.sort(rng.uniform(0.0, 1.0, size=size)),
                             rng.uniform(-2.0, 2.0, size=size)))
            f = function_spec("pw_linear", knots=knots).fn
            n = int(rng.integers(2, 41))
            prof = PerturbationProfile(i0=int(rng.integers(0, n + 1)),
                                       theta=float(rng.uniform(0.0, 1.0)))
            x = float(rng.uniform(0.0, 1.0))
            assert bernstein_choquet(f, n, x, prof) == pytest.approx(
                bernstein_choquet_closedform(f, n, x, prof), abs=1e-12)

    def test_closed_form_is_documented_formula(self):
        # built from one basis vector, bit for bit the classical polynomial
        # plus the gap correction
        specs = (function_spec("sqrt"), function_spec("exp_neg"),
                 function_spec("abs_dev", center=0.5))
        for spec in specs:
            for prof in (PerturbationProfile(), PerturbationProfile(i0=3, theta=0.4)):
                for n in (3, 16, 64):
                    lowest = min(spec.fn(i / n) for i in range(n + 1))
                    for x in (0.0, 0.37, 0.9, 1.0):
                        assert bernstein_choquet_closedform(spec, n, x, prof) == (
                            bernstein_classical(spec.fn, n, x)
                            + (spec.fn(prof.i0 / n) - lowest)
                            * perturbation_gap(n, x, prof))

    def test_closed_form_rejects_an_index_outside_the_ground_set(self):
        with pytest.raises(ValueError):
            bernstein_choquet_closedform(function_spec("sqrt"), 4, 0.5,
                                         PerturbationProfile(i0=5))

    def test_non_monotone_integrand_matches_layer_cake(self):
        # the sorting formula must handle non-monotone value profiles
        from choquetkit import choquet_integral, choquet_integral_layer_cake
        f = function_spec("abs_dev", center=0.5).fn
        for n in (3, 7):
            for x in (0.2, 0.6):
                cap = bernstein_choquet_capacity(n, x)
                values = [f(i / n) for i in range(n + 1)]
                assert choquet_integral(values, cap) == pytest.approx(
                    choquet_integral_layer_cake(values, cap), abs=1e-12)

    def test_band_bound(self):
        # 0 <= gap <= min(x, 1-x)**n <= 2**-n
        for n in (2, 5, 12, 40):
            for x in np.linspace(0.0, 1.0, 101):
                gap = perturbation_gap(n, float(x))
                assert 0.0 <= gap <= min(x, 1 - x) ** n + 1e-15
                assert gap <= 2.0 ** -n + 1e-15


class TestPicardChoquet:
    def test_exponential_exactness(self):
        spec = function_spec("exp_neg")
        for n in (2, 4, 16):
            for x in (-1.0, 0.0, 2.0):
                got = picard_choquet(spec, n, x, POSS(n, x))
                assert got == pytest.approx(math.exp(-x), abs=1e-9)

    def test_deviation_bound(self):
        for n in (1, 3, 10):
            x = 0.7
            tphi = picard_choquet(function_spec("abs_dev", center=x), n, x,
                                  POSS(n, x))
            assert tphi <= 1.0 / (n * math.e) + 1e-8

    def test_constant(self):
        assert picard_choquet(function_spec("const", c=3.0), 3, 0.5,
                              POSS(3, 0.5)) == pytest.approx(3.0, abs=1e-9)

    def test_identity_on_unit(self):
        for mu in (POSS(4, 0.3), RealCapacity.sqrt_lebesgue()):
            got = picard_choquet(function_spec("e0"), 4, 0.3, mu)
            assert got == pytest.approx(1.0, abs=1e-9)

    def test_positive_homogeneity(self):
        base = function_spec("exp_neg")
        mu = RealCapacity.sqrt_lebesgue()
        t1 = picard_choquet(base, 3, 0.4, mu)
        for a in (0.5, 2.0, 10.0):
            scaled = function_spec("exp_neg", scale=a)
            assert picard_choquet(scaled, 3, 0.4, mu) == pytest.approx(
                a * t1, rel=1e-9, abs=1e-9)
        assert picard_choquet(function_spec("const", c=0.0), 3, 0.4, mu) == 0.0

    def test_monotone_in_integrand(self):
        lo = function_spec("pw_linear", knots=[(0.0, 0.5), (1.0, 1.0)])
        hi = function_spec("pw_linear", knots=[(0.0, 0.8), (1.0, 1.4)])
        for mu in (POSS(3, 0.5), RealCapacity.sqrt_lebesgue()):
            assert (picard_choquet(lo, 3, 0.5, mu)
                    <= picard_choquet(hi, 3, 0.5, mu) + 1e-9)


class TestPicardClassical:
    def test_normalized_kernel(self):
        assert picard_classical(lambda t: 1.0, 3.0, 0.2) == pytest.approx(
            1.0, abs=1e-8)

    def test_exponential_closed_form(self):
        # antiderivative oracle: P_n(exp(-.))(x) = exp(-x) n^2/(n^2-1)
        for n in (2.0, 4.0):
            for x in (0.0, 1.0):
                want = math.exp(-x) * n * n / (n * n - 1.0)
                got = picard_classical(lambda t: math.exp(-t), n, x)
                assert got == pytest.approx(want, abs=1e-6)

    def test_linear_symmetry(self):
        assert picard_classical(lambda t: t, 5.0, 0.8) == pytest.approx(
            0.8, abs=1e-8)


class TestWeierstrassChoquet:
    def test_constant(self):
        mu = RealCapacity.possibility(Kernel.laplace(3.0, 0.4))
        got = weierstrass_choquet(function_spec("const", c=2.0), 3, 0.4, mu)
        assert got == pytest.approx(2.0, abs=1e-9)

    def test_unit_with_laplace_possibility(self):
        # the possibility weight uses the two-sided exponential kernel even
        # for the Gaussian operator; sharing the peak still gives c = 1
        mu = RealCapacity.possibility(Kernel.laplace(5.0, -0.3))
        got = weierstrass_choquet(function_spec("e0"), 5, -0.3, mu)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_exp_sandwich_possibility(self):
        # the Gaussian product peaks at x - lam/(2n), so the value sits
        # between f(x) and the product supremum exp(-x + lam^2/(4n))
        n, x = 4.0, 0.5
        mu = RealCapacity.possibility(Kernel.laplace(n, x))
        got = weierstrass_choquet(function_spec("exp_neg"), n, x, mu)
        assert math.exp(-x) - 1e-9 <= got <= math.exp(-x + 1 / (4 * n)) + 1e-9


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("x", [-1.0, -0.0625, 0.8, 1.5])
def test_off_centre_deviation_matches_lebesgue_closed_forms(n, x):
    # Under the Lebesgue capacity both operators are expectations: with
    # delta = |x - c|, E|Y + delta| is delta + exp(-n delta)/n for the
    # Laplace kernel and delta erf(delta sqrt(n)) + exp(-n delta**2)/sqrt(pi n)
    # for the Gauss kernel.  Off the kernel peak the deviation is a
    # root-finding product, and a bias e in its level-set ends moves the
    # value by about n e relative, so at n = 64 this pins the roots too.
    c = 0.3
    spec = function_spec("abs_dev", center=c)
    mu = RealCapacity.lebesgue()
    d = abs(x - c)
    laplace = d + math.exp(-n * d) / n
    gauss = d * math.erf(d * math.sqrt(n)) + math.exp(-n * d * d) / math.sqrt(math.pi * n)
    assert picard_choquet(spec, n, x, mu) == pytest.approx(laplace, rel=2e-14, abs=0.0)
    assert weierstrass_choquet(spec, n, x, mu) == pytest.approx(gauss, rel=2e-14, abs=0.0)


class TestKernelMomentDispatch:
    # tanh-sinh engine calls per _kernel_choquet call: none for a centred
    # deviation with a closed-form moment, one numerator for a value row
    # with a closed-form normalizer, and the engine's own count otherwise

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        calls = []
        engine = continuous.choquet_integral_real_grid

        def counted(g, mu):
            calls.append(mu)
            return engine(g, mu)

        monkeypatch.setattr(continuous, "choquet_integral_real_grid", counted)
        monkeypatch.setattr(operators, "choquet_integral_real_grid", counted)
        return calls

    @pytest.mark.parametrize("op, capacity, deviation_calls, value_calls", [
        (picard_choquet, POSS, 0, 1),
        (picard_choquet, lambda n, x: RealCapacity.lebesgue(), 0, 1),
        (picard_choquet, lambda n, x: RealCapacity.sqrt_lebesgue(), 0, 1),
        (weierstrass_choquet, lambda n, x: RealCapacity.lebesgue(), 0, 1),
        (weierstrass_choquet, lambda n, x: RealCapacity.sqrt_lebesgue(), 0, 1),
        # uncovered: the Gauss kernel against the Laplace possibility, and a
        # power distortion that equals sqrt but is not keyed as one
        (weierstrass_choquet, POSS, 1, 1),
        (picard_choquet, lambda n, x: RealCapacity.distorted_lebesgue(
            DistortionFunction.power(0.5)), 2, 2),
        (weierstrass_choquet, lambda n, x: RealCapacity.distorted_lebesgue(
            DistortionFunction.power(0.5)), 2, 2),
    ], ids=["picard-possibility", "picard-lebesgue", "picard-sqrt", "gw-lebesgue",
            "gw-sqrt", "gw-possibility", "picard-power_0.5", "gw-power_0.5"])
    def test_engine_calls_per_row(self, engine_calls, op, capacity, deviation_calls,
                                  value_calls):
        n, x = 4, 0.3
        op(function_spec("abs_dev", center=x), n, x, capacity(n, x))
        assert len(engine_calls) == deviation_calls
        engine_calls.clear()
        op(function_spec("sqrt", shift=3.0), n, x, capacity(n, x))
        assert len(engine_calls) == value_calls
        engine_calls.clear()
        # a deviation off the kernel's centre is a value row
        op(function_spec("abs_dev", center=x + 0.5), n, x, capacity(n, x))
        assert len(engine_calls) == value_calls

    @pytest.mark.parametrize("op", [picard_choquet, weierstrass_choquet])
    @pytest.mark.parametrize("n", [2, 16])
    def test_power_half_engine_agrees_with_the_sqrt_closed_form(self, op, n):
        x = -0.4
        spec = function_spec("abs_dev", center=x)
        power = RealCapacity.distorted_lebesgue(DistortionFunction.power(0.5))
        assert op(spec, n, x, power) == pytest.approx(
            op(spec, n, x, RealCapacity.sqrt_lebesgue()), rel=1e-12)
        assert kernel_normalizer(Kernel.laplace(n, x), power) == pytest.approx(
            kernel_normalizer(Kernel.laplace(n, x), RealCapacity.sqrt_lebesgue()),
            rel=1e-12)
