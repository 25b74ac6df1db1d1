"""Acceptance suite: one test per numbered criterion.

Each test prints an ``ACCEPTANCE criterion NN: PASS/FAIL`` line (visible
with ``pytest -s`` or in captured output), and every tolerance is pinned
in the assertion itself.
"""

import math
from contextlib import contextmanager
from decimal import Decimal, getcontext

import numpy as np
import pytest

from choquetkit import (DistortionFunction, Kernel, PerturbationProfile,
                        RealCapacity, additive_capacity, bernstein_choquet,
                        bernstein_choquet_capacity,
                        bernstein_choquet_closedform, bernstein_classical,
                        chebyshev_check, choquet_integral,
                        choquet_integral_layer_cake, choquet_integral_real,
                        convergence_report, counting_distortion, function_spec,
                        kernel_level_function, kernel_normalizer,
                        modulus_of_continuity, perturbation_gap,
                        picard_choquet, picard_classical, property_suite,
                        quantitative_bound, random_monotone_capacity)

SQRT_CAP3 = counting_distortion(DistortionFunction.sqrt(), 3)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {number:>2}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE criterion {number:>2}: PASS - {description}")


def possibility(n, x):
    return RealCapacity.possibility(Kernel.laplace(n, x))


def test_criterion_01_additive_reduction():
    with criterion(1, "additive capacities reduce to the weighted sum (1e-12)"):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            size = int(rng.integers(2, 7))
            weights = rng.uniform(0.0, 1.0, size=size)
            if rng.integers(2):
                weights = weights / weights.sum()
            cap = additive_capacity(weights.tolist())
            x = rng.uniform(-4.0, 4.0, size=size)  # signed integrand
            assert choquet_integral(x, cap) == pytest.approx(
                float(weights @ x), abs=1e-12)


def test_criterion_02_layer_cake_equivalence():
    with criterion(2, "sorting formula matches numeric layer cake (1e-9)"):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            size = int(rng.integers(2, 7))
            cap = random_monotone_capacity(rng, size)
            x = rng.uniform(0.0, 4.0, size=size)
            a = choquet_integral(x, cap)
            b = choquet_integral_layer_cake(x, cap)
            assert abs(a - b) <= 1e-9


def test_criterion_03_normalizers():
    with criterion(3, "kernel normalizers: possibility 1 exactly, sqrt-m closed form"):
        for n in (1.0, 2.0, 4.0, 16.0, 64.0):
            for x in (-0.5, 1.2):
                k = Kernel.laplace(n, x)
                mu = possibility(n, x)
                assert kernel_normalizer(k, mu) == 1.0
                assert abs(choquet_integral_real(kernel_level_function(k), mu)
                           - 1.0) <= 1e-6
                c = kernel_normalizer(k, RealCapacity.sqrt_lebesgue())
                want = math.sqrt(math.pi / (2.0 * n))
                assert abs(c - want) / want <= 1e-6


def test_criterion_04_deviation_integral_bound():
    with criterion(4, "T_n(|.-x|)(x) <= 1/(n e) for the possibility capacity"):
        for n in range(1, 65):
            for x in (-2.0, 0.0, 1.5):
                spec = function_spec("abs_dev", center=x)
                value = picard_choquet(spec, n, x, possibility(n, x))
                assert value <= 1.0 / (n * math.e) + 1e-8


def test_criterion_05_exactness_vs_classical_gap():
    with criterion(5, "Choquet operator exact on exp(-t); classical misses by "
                      "exp(-x)/(n^2-1)"):
        spec = function_spec("exp_neg")
        for n in (2, 4, 8, 32):
            for x in (-1.0, 0.0, 1.0, 2.0):
                tn = picard_choquet(spec, n, x, possibility(n, x))
                assert abs(tn - math.exp(-x)) <= 1e-6
                pn = picard_classical(spec.fn, n, x)
                closed = math.exp(-x) * n * n / (n * n - 1.0)
                assert abs(pn - closed) <= 1e-6
                gap = math.exp(-x) / (n * n - 1.0)
                assert abs(abs(pn - math.exp(-x)) - gap) <= 2e-6


def test_criterion_06_closed_form_equality():
    with criterion(6, "sorted path equals the monotone closed forms (1e-12)"):
        nondecreasing = function_spec("sqrt")
        nonincreasing = function_spec("exp_neg")
        grid = np.linspace(0.0, 1.0, 101)
        for n in range(2, 65):
            for x in grid:
                x = float(x)
                for theta in (0.0, 0.5, 1.0):
                    prof = PerturbationProfile(theta=theta)
                    for spec in (nondecreasing, nonincreasing):
                        general = bernstein_choquet(spec.fn, n, x, prof)
                        closed = bernstein_choquet_closedform(spec, n, x, prof)
                        assert abs(general - closed) <= 1e-12


def test_criterion_07_band_and_linear_proximity():
    with criterion(7, "perturbation band <= 2^-n and |L_n(e1) - x| <= 2^-n/n"):
        # For n around 50 the bound 2^-n/n drops below the rounding noise of
        # an (n+1)-term float64 sum, so the sorted path gets a flat 2e-14
        # machine allowance; the exact statement is carried by the identity
        # L_n(e1)(x) - x = gap/n with gap <= 2^-n asserted tight.
        grid = np.linspace(0.0, 1.0, 101)
        for n in range(2, 65):
            for x in grid:
                x = float(x)
                gap = perturbation_gap(n, x)
                assert 0.0 <= gap <= 2.0 ** -n + 1e-15
                ln_e1 = bernstein_choquet(lambda t: t, n, x)
                assert abs(ln_e1 - (x + gap / n)) <= 2e-14
                assert abs(ln_e1 - x) <= 2.0 ** -n / n + 2e-14


def test_criterion_08_variance_fixture():
    with criterion(8, "second-moment closed form on [0, 1/(2n)] (1e-12)"):
        for n in (4, 8, 16):
            for x in np.linspace(0.0, 1.0 / (2 * n), 20):
                x = float(x)
                cap = bernstein_choquet_capacity(n, x)
                sorted_path = choquet_integral(
                    [(x - k / n) ** 2 for k in range(n + 1)], cap)
                gap = perturbation_gap(n, x)
                closed = x * (1 - x) / n + gap * (1.0 / n ** 2 - 2.0 * x / n)
                assert abs(sorted_path - closed) <= 1e-12


def test_criterion_09_chebyshev_inequality():
    with criterion(9, "deviation inequality never violated (1e-12)"):
        rng = np.random.default_rng(909)
        for _ in range(1000):
            size = int(rng.integers(2, 7))
            cap = random_monotone_capacity(rng, size)
            x = rng.uniform(-3.0, 3.0, size=size)
            r = float(rng.uniform(0.05, 3.0))
            assert chebyshev_check(x, cap, r).holds


def test_criterion_10_quantitative_bound():
    with criterion(10, "operator error within the modulus bound; balanced "
                       "delta gives exactly 2*omega1"):
        specs = [function_spec("exp_neg"),
                 function_spec("sqrt", shift=3.0),
                 function_spec("pw_linear", knots=[(-1.0, 1.0), (0.0, 2.0),
                                                   (1.0, 0.5)])]
        xs = (-1.0, 0.4, 1.5)
        window = (min(xs) - 1.0, max(xs) + 1.0)
        for spec in specs:
            for n in (2, 4, 8, 16):
                for x in xs:
                    mu = possibility(n, x)
                    tn = picard_choquet(spec, n, x, mu)
                    tphi = picard_choquet(function_spec("abs_dev", center=x),
                                          n, x, mu)
                    # module delta rule: the deviation integral itself
                    delta = tphi if tphi > 0 else 1.0 / n
                    bound = quantitative_bound(
                        tphi, delta, modulus_of_continuity(spec, delta, window))
                    assert abs(tn - spec.fn(x)) <= bound + 1e-6
                    # balanced form: delta = 1/(ne) together with the
                    # certified upper bound for the deviation integral
                    delta_e = 1.0 / (n * math.e)
                    omega = modulus_of_continuity(spec, delta_e, window)
                    balanced = quantitative_bound(delta_e, delta_e, omega)
                    assert abs(balanced - 2.0 * omega) <= 1e-9
                    assert abs(tn - spec.fn(x)) <= balanced + 1e-6
        # sqrt-m capacity instance of the same bound
        spec = function_spec("exp_neg")
        mu = RealCapacity.sqrt_lebesgue()
        for n in (2, 4):
            for x in (0.0, 1.0):
                tn = picard_choquet(spec, n, x, mu)
                tphi = picard_choquet(function_spec("abs_dev", center=x),
                                      n, x, mu)
                delta = tphi if tphi > 0 else 1.0 / n
                bound = quantitative_bound(
                    tphi, delta, modulus_of_continuity(spec, delta, window))
                assert abs(tn - spec.fn(x)) <= bound + 1e-6


def _decimal_improvement_point(n, i, f, sqrt_mode):
    """Improvement inequalities at x = i/100 in 100-digit arithmetic.

    The correction can sit ~60 orders of magnitude below the classical
    error (e.g. x = 0.99, n = 32), where float64 rounds L_n - f onto
    B_n - f and the strict inequality degenerates into a tie; criterion 6
    pins the closed form to the sorted path, so evaluating the closed form
    in high precision is faithful.
    """
    x = Decimal(i) / Decimal(100)
    one = Decimal(1)
    p = [Decimal(math.comb(n, k)) * x ** k * (one - x) ** (n - k)
         for k in range(n + 1)]
    if sqrt_mode:
        fdec = lambda t: t.sqrt()
    else:
        fdec = lambda t: 2 * t - t * t
    base = sum(fdec(Decimal(k) / Decimal(n)) * p[k] for k in range(n + 1))
    gap = min(p[k] for k in range(n + 1) if k != 1)  # theta = 1
    corr = (fdec(one / Decimal(n)) - fdec(Decimal(0))) * gap
    fx = fdec(x)
    return base - fx, corr, abs(base + corr - fx)


def test_criterion_11_improvement_property():
    with criterion(11, "concave increasing f: strictly smaller error than the "
                       "classical polynomial"):
        getcontext().prec = 100
        for sqrt_mode in (False, True):
            for n in (4, 8, 16, 32):
                for i in range(1, 100):
                    below, corr, lerr = _decimal_improvement_point(
                        n, i, None, sqrt_mode)
                    assert below < 0
                    assert corr > 0
                    assert lerr < max(abs(below), corr)
        # float-path sanity at interior points where float64 resolves it
        spec = function_spec("concave_quad")
        for n in (4, 8, 16):
            for x in (0.2, 0.5, 0.8):
                b = bernstein_classical(spec.fn, n, x)
                l = bernstein_choquet(spec.fn, n, x)
                assert abs(l - spec.fn(x)) < abs(b - spec.fn(x))


def test_criterion_12_integral_property_suite():
    with criterion(12, "homogeneity/monotonicity/translation/dual (1e-12); "
                       "subadditive for submodular; strict non-additivity"):
        rep = property_suite(SQRT_CAP3, trials=1000, seed=12)
        assert rep.ok, rep.violations
        assert rep.submodular
        assert rep.checked["subadditivity"] == 1000
        rng = np.random.default_rng(1212)
        submodular_seen = 0
        for _ in range(8):
            cap = random_monotone_capacity(rng, int(rng.integers(2, 6)))
            r = property_suite(cap, trials=200, seed=int(rng.integers(1 << 31)))
            assert r.ok, r.violations
            submodular_seen += r.submodular
        # strict non-additivity witness on a submodular capacity
        x = [1.0, 0.0, 0.0]
        y = [0.0, 1.0, 0.0]
        lhs = choquet_integral([a + b for a, b in zip(x, y)], SQRT_CAP3)
        rhs = choquet_integral(x, SQRT_CAP3) + choquet_integral(y, SQRT_CAP3)
        assert lhs < rhs - 1e-3
        print(f"  non-additivity witness: (C)I(X+Y)={lhs:.6f} < "
              f"(C)I(X)+(C)I(Y)={rhs:.6f} on the sqrt counting capacity")


def test_criterion_13_grid_uniform_error_decay():
    with criterion(13, "max error strictly decreasing along n=4,8,16,32,64"):
        grid = np.linspace(0.0, 1.0, 51)
        for name in ("concave_quad", "sqrt"):
            spec = function_spec(name)
            table = convergence_report(
                lambda n, x: bernstein_choquet(spec.fn, n, x), spec.fn,
                [4, 8, 16, 32, 64], grid)
            assert table.max_error_decreasing(), table.max_errors()
