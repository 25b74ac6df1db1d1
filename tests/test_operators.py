import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest

from choquetkit import (REGISTERED, DistortionFunction, FunctionSpec, Kernel,
                        PerturbationProfile, QuadratureError, RealCapacity,
                        bernstein_choquet, bernstein_choquet_capacity,
                        bernstein_choquet_closedform, bernstein_classical,
                        check_properties, function_spec, kernel_normalizer,
                        perturbation_gap, picard_choquet, picard_classical,
                        weierstrass_choquet)
from choquetkit import continuous, operators

POSS = lambda n, x: RealCapacity.possibility(Kernel.laplace(n, x))


class TestBernsteinBasis:
    def test_endpoint(self):
        assert operators.bernstein_basis_vector(5, 0.0)[0] == 1.0

    def test_midpoint(self):
        assert operators.bernstein_basis_vector(2, 0.5)[1] == pytest.approx(0.5, abs=1e-15)

    def test_partition_of_unity(self):
        total = math.fsum(operators.bernstein_basis_vector(5, 0.3))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("x", [-0.1, 1.5, math.nan])
    def test_vector_domain_error(self, x):
        with pytest.raises(ValueError):
            operators.bernstein_basis_vector(4, x)


@functools.cache
def _binomials(n):
    return [math.comb(n, i) for i in range(n + 1)]


def _ref_basis(n, x):
    # the uncached basis formula; the binomials are the same ints, kept so
    # that n = 1029 stays quick
    c = _binomials(n)
    return [c[i] * x ** i * (1.0 - x) ** (n - i) for i in range(n + 1)]


def _ref_gap(p, prof):
    return prof.theta * min(v for i, v in enumerate(p) if i != prof.i0)


def _ref_choquet(values, p, gap, i0):
    # the sorted integral over the perturbed capacity's chain of tails
    size = len(p)
    order = sorted(range(size), key=values.__getitem__)
    tails = [0.0] * (size + 1)
    pos = order.index(i0)
    acc = 0.0
    for k in range(size - 1, -1, -1):
        acc += p[order[k]]
        tails[k] = acc + (gap if k <= pos else 0.0)
    tails[0] = 1.0
    return math.fsum(values[order[k]] * (tails[k] - tails[k + 1]) for k in range(size))


def _bits(row):
    # float.hex tells -0.0 from 0.0 and raises on a value that is not a float
    return [float.hex(v) for v in row]


# the three-knot pw_linear of the CLI's configs, and an off-centre deviation
SPEC_PARAMS = {"pw_linear": {"knots": [(-1, 1), (0, 2), (1, 0.5)]},
               "abs_dev": {"center": 0.3}}


class TestBasisCache:
    # 0.0, -0.0 and 0.0 again in a row, and the ints next to their floats:
    # a key that merged any of them would hand back the previous row
    XS = ([0.0, -0.0, 0.0, 0, -0.0, 1, 1.0, 1e-300, 1 - 1e-16, 0.37]
          + [float(x) for x in np.linspace(0.0, 1.0, 101)])

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 1029])
    def test_rows_are_the_formula_bit_for_bit(self, n):
        for x in self.XS:
            assert _bits(operators.bernstein_basis_vector(n, x)) == _bits(
                _ref_basis(n, x)), (n, x)

    @pytest.mark.parametrize("n", [*range(1, 81), 256, 1029])
    def test_binomial_recurrence_is_math_comb_bit_for_bit(self, n):
        # the row's C(n, i) come from a recurrence over half the row, mirrored
        for x in (0.0, -0.0, 0.3, 0.5, 1.0):
            assert _bits(operators.bernstein_basis_vector(n, x)) == _bits(
                _ref_basis(n, x)), (n, x)

    def test_returned_list_is_fresh(self):
        row = operators.bernstein_basis_vector(4, 0.3)
        row[0] = 99.0
        row.append(1.0)
        assert _bits(operators.bernstein_basis_vector(4, 0.3)) == _bits(_ref_basis(4, 0.3))

    def test_cache_holds_at_most_one_row(self):
        for n in (2, 5, 9):
            for x in (0.1, 0.5):
                operators.bernstein_basis_vector(n, x)
                perturbation_gap(n, x)
                info = operators._basis_row.cache_info()
                assert info.maxsize == 1
                assert info.currsize <= 1

    def test_degree_tables_are_bounded(self):
        info = operators._degree.cache_info()
        assert info.maxsize is not None and info.maxsize >= 16

    @pytest.mark.parametrize("order", [(1029, 64, 4), (4, 64, 1029)])
    def test_rows_do_not_depend_on_the_order_of_the_degrees(self, order):
        # from an empty table each degree is built by the row that first
        # asks for it; a row and a node vector read it the same either way
        operators._degree.cache_clear()
        sqrt = function_spec("sqrt")
        for n in order:
            for x in (0.0, -0.0, 0.3, 1.0):
                assert _bits(operators.bernstein_basis_vector(n, x)) == _bits(
                    _ref_basis(n, x)), (n, x)
            assert _bits(operators._nodes(sqrt, n)) == _bits(
                sqrt.fn(i / n) for i in range(n + 1)), n

    def test_an_evicted_degree_is_rebuilt_bit_for_bit(self):
        want = _bits(_ref_basis(7, 0.3))
        assert _bits(operators.bernstein_basis_vector(7, 0.3)) == want
        info = operators._degree.cache_info()
        for n in range(100, 100 + info.maxsize):
            operators.bernstein_basis_vector(n, 0.5)
        misses = operators._degree.cache_info().misses
        assert _bits(operators.bernstein_basis_vector(7, 0.3)) == want
        assert operators._degree.cache_info().misses == misses + 1

    @pytest.mark.parametrize("name", ["sqrt", "exp_neg", "concave_quad", "abs_dev",
                                      "pw_linear", "const", "e1"])
    def test_public_functions_are_the_formulas_bit_for_bit(self, name):
        # the benchmark's Bernstein grid, each row in the order a certified
        # number asks for it: value, closed-form check, classical baseline, band
        f = function_spec(name, **SPEC_PARAMS.get(name, {})).fn
        prof = PerturbationProfile()
        for n in (4, 8, 16, 32, 64):
            for x in np.linspace(0.0, 1.0, 101):
                x = float(x)
                p = _ref_basis(n, x)
                values = [f(i / n) for i in range(n + 1)]
                gap = _ref_gap(p, prof)
                assert bernstein_choquet(f, n, x) == _ref_choquet(values, p, gap, prof.i0)
                assert bernstein_choquet_closedform(f, n, x) == (
                    math.fsum(v * w for v, w in zip(values, p))
                    + (values[prof.i0] - min(values)) * gap)
                assert bernstein_classical(f, n, x) == math.fsum(
                    f(i / n) * w for i, w in enumerate(p))
                assert float.hex(perturbation_gap(n, x)) == float.hex(gap)


class TestNodeVector:
    OPS = (bernstein_classical, bernstein_choquet, bernstein_choquet_closedform)

    @pytest.mark.parametrize("name", REGISTERED)
    def test_nodes_are_the_scalar_form_bit_for_bit(self, name):
        spec = function_spec(name, **SPEC_PARAMS.get(name, {}))
        for n in (1, 2, 3, 7, 64, 1029):
            want = _bits(float(spec.fn(i / n)) for i in range(n + 1))
            assert _bits(operators._nodes(spec, n)) == want
            assert _bits(operators._nodes(spec.fn, n)) == want

    def test_a_bare_callable_is_called_once_per_node_on_every_call(self):
        calls = []

        def f(t):
            calls.append(t)
            return t * t

        for op in self.OPS:
            for _ in range(2):   # a repeated call is not served from a cache
                calls.clear()
                op(f, 6, 0.3)
                assert calls == [i / 6 for i in range(7)], op.__name__

    def test_an_unregistered_spec_runs_on_its_scalar_form(self):
        spec = FunctionSpec("cube", lambda t: t ** 3)
        prof = PerturbationProfile()
        for n in (2, 5, 16):
            values = [(i / n) ** 3 for i in range(n + 1)]
            for x in (0.0, 0.4, 1.0):
                p = _ref_basis(n, x)
                gap = _ref_gap(p, prof)
                assert bernstein_classical(spec, n, x) == math.fsum(
                    v * w for v, w in zip(values, p))
                assert bernstein_choquet(spec, n, x) == _ref_choquet(values, p, gap, prof.i0)
                assert bernstein_choquet_closedform(spec, n, x) == (
                    math.fsum(v * w for v, w in zip(values, p))
                    + (values[prof.i0] - min(values)) * gap)

    def test_cache_holds_at_most_one_entry(self):
        specs = [function_spec("sqrt"), function_spec("exp_neg")]
        for n in (2, 5, 9):
            for spec in specs:
                for op in self.OPS:
                    op(spec, n, 0.3)
                    info = operators._node_row.cache_info()
                    assert info.maxsize == 1
                    assert info.currsize <= 1

    def test_one_build_serves_the_three_operators_and_their_repeats(self):
        calls = []

        def f(t):
            calls.append(t)
            return 2.0 * t

        f.array = lambda t: 2.0 * t   # marks f as a registered family
        for n in (2, 4, 64, 1029):
            calls.clear()
            for _ in range(2):
                for op in self.OPS:
                    op(f, n, 0.3)
            assert calls == [i / n for i in range(n + 1)], n

    def test_a_row_is_shared_and_read_only(self):
        spec = function_spec("sqrt")
        nodes = operators._nodes(spec, 4)
        assert isinstance(nodes, tuple)
        assert operators._nodes(spec.fn, 4) is nodes


class TestBernsteinInputs:
    def test_degree_limit_is_the_float_range_of_the_binomial(self):
        assert math.isfinite(float(math.comb(1029, 514)))
        with pytest.raises(OverflowError):
            float(math.comb(1030, 515))
        assert operators.MAX_BERNSTEIN_DEGREE == 1029

    @pytest.mark.parametrize("call", [
        lambda: operators.bernstein_basis_vector(1030, 0.5),
        lambda: bernstein_classical(math.sqrt, 1100, 0.5),
        lambda: bernstein_choquet(math.sqrt, 1100, 0.0),
        lambda: bernstein_choquet_closedform(math.sqrt, 1030, 1.0),
        lambda: perturbation_gap(1030, 0.25),
    ], ids=["basis", "classical", "choquet", "closedform", "gap"])
    def test_degree_past_the_limit_is_a_value_error(self, call):
        with pytest.raises(ValueError, match="at most 1029"):
            call()

    def test_gap_rejects_an_index_outside_the_ground_set(self):
        with pytest.raises(ValueError, match="perturbed index outside the ground set"):
            perturbation_gap(2, 0.5, PerturbationProfile(i0=5))

    def test_basis_rejects_a_negative_degree(self):
        with pytest.raises(ValueError, match="at least 1"):
            operators.bernstein_basis_vector(-1, 0.5)

    def test_classical_rejects_a_negative_degree(self):
        with pytest.raises(ValueError, match="at least 1"):
            bernstein_classical(math.sqrt, -1, 0.5)

    def test_classical_rejects_degree_zero(self):
        with pytest.raises(ValueError, match="at least 1"):
            bernstein_classical(math.sqrt, 0, 0.5)


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
                    (x - i / n) ** 2 * w
                    for i, w in enumerate(operators.bernstein_basis_vector(n, x)))
                value = bernstein_classical(lambda t: (x - t) ** 2, n, x)
                assert value == pytest.approx(oracle, abs=1e-15)
                assert value == pytest.approx(x * (1 - x) / n, abs=1e-12)


class TestPerturbedCapacity:
    def test_theta_zero_is_additive(self):
        cap = bernstein_choquet_capacity(4, 0.3, PerturbationProfile(theta=0.0))
        p = operators.bernstein_basis_vector(4, 0.3)
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
        with pytest.raises(ValueError, match=r"needs n >= 2, got n=1$"):
            bernstein_choquet_capacity(1, 0.5)
        with pytest.raises(ValueError, match=r"needs n >= 2, got n=1$"):
            bernstein_choquet_closedform(math.sqrt, 1, 0.5)
        with pytest.raises(ValueError, match=r"needs i0 <= n, got n=4, i0=9$"):
            bernstein_choquet_capacity(4, 0.5, PerturbationProfile(i0=9))
        with pytest.raises(ValueError):
            PerturbationProfile(theta=1.2)


class TestPerturbationBand:
    SPECS = [function_spec("sqrt"), function_spec("exp_neg"), function_spec("concave_quad"),
             function_spec("abs_dev", center=0.3)]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
    def test_band_holds_the_departure_from_the_classical_polynomial(self, spec):
        # an inner i0, so the end weights (1 - x)**n and x**n, one of them at
        # most 2**-n, are among those the gap takes its minimum over
        for n in (2, 3, 8, 64):
            for prof in (PerturbationProfile(1, 1.0), PerturbationProfile(n // 2, 0.5),
                         PerturbationProfile(n - 1, 1.0)):
                band = operators.perturbation_band(spec, n, prof)
                for x in np.linspace(0.0, 1.0, 21):
                    classical = bernstein_classical(spec, n, x)
                    departure = abs(bernstein_choquet_closedform(spec, n, x, prof) - classical)
                    # the closed form adds its correction to the classical sum
                    assert departure <= band + math.ulp(classical)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
    def test_band_is_the_departure_at_the_midpoint(self, spec):
        # at x = 1/2 the smallest basis weight is 2**-n, so with theta = 1
        # the gap is at its ceiling and the band is attained
        for n in (2, 3, 8, 64):
            for i0 in (0, 1, n):
                prof = PerturbationProfile(i0, 1.0)
                assert perturbation_gap(n, 0.5, prof) == 2.0 ** -n
                classical = bernstein_classical(spec, n, 0.5)
                departure = abs(bernstein_choquet_closedform(spec, n, 0.5, prof) - classical)
                assert departure == pytest.approx(operators.perturbation_band(spec, n, prof),
                                                  rel=0, abs=math.ulp(classical))

    def test_the_band_needs_an_inner_index(self):
        # with i0 = 0 the gap is min(2x(1 - x), x**2), 4/9 at x = 2/3
        assert perturbation_gap(2, 2.0 / 3.0, PerturbationProfile(i0=0)) > 0.25

    def test_band_takes_degree_1(self):
        assert operators.perturbation_band(math.sqrt, 1) == 0.5
        assert operators.perturbation_band(math.sqrt, 1, PerturbationProfile(i0=0)) == 0.0

    def test_band_rejects_an_index_outside_the_ground_set(self):
        with pytest.raises(ValueError, match=r"needs i0 <= n, got n=1, i0=2$"):
            operators.perturbation_band(math.sqrt, 1, PerturbationProfile(i0=2))


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

    @pytest.mark.parametrize("name", REGISTERED)
    def test_closed_form_of_a_spec_is_its_fn_bit_for_bit(self, name):
        # a spec is evaluated through spec.fn rather than spec.__call__;
        # the value is the same float either way
        params = {"pw_linear": {"knots": [(0.0, 0.5), (0.3, -1.0), (1.0, 0.2)]}}
        spec = function_spec(name, **params.get(name, {}))
        for prof in (PerturbationProfile(), PerturbationProfile(i0=3, theta=0.4)):
            for n in (3, 16, 64):
                for x in (0.0, 0.37, 0.9, 1.0):
                    value = bernstein_choquet_closedform(spec, n, x, prof)
                    assert value == bernstein_choquet_closedform(spec.fn, n, x, prof)
                    assert value == bernstein_choquet_closedform(
                        lambda t: spec(t), n, x, prof)

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

    @pytest.mark.parametrize("spec", [function_spec("exp_neg"), function_spec("sqrt", shift=3.0)],
                             ids=["exp_neg", "sqrt_shift_3"])
    def test_possibility_rows_are_f_to_the_last_bit(self, spec):
        # f K peaks at x, the peak of the operator's own possibility
        # capacity: the layer cake is the rectangle g(x) = f(x), added
        # without quadrature, over the normalizer 1
        for n in (2, 4, 8, 16):
            for x in np.linspace(-1.0, 1.5, 11):
                x = float(x)
                assert picard_choquet(spec, n, x, POSS(n, x)) == spec.fn(x), (n, x)

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

    def test_nonconvergence_raises_with_partial_value(self):
        # sin(1/u)/u at u = t - x oscillates ever faster towards the kernel
        # peak, which no subdivision within QUAD_LIMIT resolves to the
        # module tolerances
        x = 0.2

        def f(t):
            u = t - x
            return math.sin(1.0 / u) / u if u else 0.0

        with pytest.raises(QuadratureError, match="did not converge") as err:
            picard_classical(f, 2.0, x)
        assert math.isfinite(err.value.value)
        assert err.value.error_estimate > 0.0

    @pytest.mark.parametrize("n,x", [(-2.0, 0.5), (0.0, 0.5), (math.inf, 0.5),
                                     (math.nan, 0.5), (2.0, math.inf), (2.0, math.nan)])
    def test_rejects_bad_kernel_parameters(self, n, x):
        # as the Choquet operators do: the Laplace kernel checks n > 0 and
        # both parameters finite
        with pytest.raises(ValueError):
            picard_classical(lambda t: 1.0, n, x)


# every nonnegative registered spec (e0 is const(1)); e1 and concave_quad
# take negative values
ADDITIVE_SPECS = {
    "exp_neg": function_spec("exp_neg"),
    "const": function_spec("const", c=2.5),
    "e0": function_spec("e0"),
    "abs_dev": function_spec("abs_dev"),
    "abs_dev_off_centre": function_spec("abs_dev", center=-0.4),
    "sqrt_shift_0": function_spec("sqrt", shift=0.0),
    "sqrt_shift_3": function_spec("sqrt", shift=3.0),
    "pw_linear_3": function_spec("pw_linear", knots=[(-1.0, 1.0), (0.0, 2.0), (1.0, 0.5)]),
}


def test_additive_specs_cover_the_nonnegative_registry():
    assert ({spec.name for spec in ADDITIVE_SPECS.values()}
            == set(REGISTERED) - {"e0", "e1", "concave_quad"})
    assert all(spec.nonneg_real_line for spec in ADDITIVE_SPECS.values())


@pytest.mark.parametrize("spec", ADDITIVE_SPECS.values(), ids=ADDITIVE_SPECS.keys())
@pytest.mark.parametrize("n", [2, 8, 32])
@pytest.mark.parametrize("x", [-1.0, -0.3, 0.0, 0.45, 1.5])
def test_lebesgue_picard_choquet_is_the_classical_operator(spec, n, x):
    # An additive capacity gives back the Lebesgue integral, so against
    # Lebesgue length the Picard-Choquet operator is the classical one.  This
    # holds the Gauss-Kronrod rule in t, with and without the split at the
    # spec's breakpoints, against the tanh-sinh layer cake.
    want = picard_choquet(spec, n, x, RealCapacity.lebesgue())
    tol = n * continuous.QUAD_ABS_TOL + 2 * continuous.QUAD_REL_TOL * abs(want)
    for f in (spec, spec.fn):
        assert abs(picard_classical(f, n, x) - want) <= tol


# 20-digit mpmath values of (n/2) * integral over |t - x| <= 40/n of
# f(t) exp(-n|t - x|), split at the kink of f.  Left inside a subinterval,
# a kink can fool the Gauss-Kronrod estimate: called with the bare ``fn``,
# the rule misses both sqrt cells by 2.8 tolerances (2.0e-8 and 1.5e-8).
@pytest.mark.parametrize("spec, n, x, want", [
    (function_spec("abs_dev", center=-0.4), 8, 0.75, 1.1500126299252296149),
    (function_spec("sqrt", shift=-0.4), 4, 1.0, 0.74053757189132250953),
    (function_spec("sqrt", shift=0.0), 8, 0.3, 0.52363913880777458144),
])
def test_classical_picard_splits_at_the_spec_breakpoints(spec, n, x, want):
    tol = max(n / 2 * continuous.QUAD_ABS_TOL, continuous.QUAD_REL_TOL * abs(want))
    assert abs(picard_classical(spec, n, x) - want) <= tol


def test_classical_picard_of_a_bare_callable_runs_unsplit():
    # the limit the docstring states: the registered sqrt's bare fn, which
    # misses the cell above by 2.8e-8 relative, runs as a spec of an
    # unregistered family would
    spec = function_spec("sqrt", shift=-0.4)
    assert picard_classical(spec.fn, 4.0, 1.0) == picard_classical(
        FunctionSpec("unregistered", spec.fn), 4.0, 1.0)


def test_classical_picard_of_an_unregistered_family_runs_unsplit():
    spec = FunctionSpec("cubic", lambda t: t ** 3)
    assert picard_classical(spec, 4.0, 0.3) == picard_classical(spec.fn, 4.0, 0.3)


def test_classical_picard_overflows_silently_through_the_array_form():
    # -lam * t overflows to -inf at every node: exp gives 0.0 in both forms,
    # and neither warns (a RuntimeWarning fails the test)
    spec = function_spec("exp_neg", lam=1e308)
    scalar = dataclasses.replace(spec, fn=lambda t: spec.fn(t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (5.0, 5.5, 6.0):
            got = picard_classical(spec, 64.0, x)
            assert float.hex(got) == float.hex(picard_classical(scalar, 64.0, x)) == "0x0.0p+0"


@pytest.mark.parametrize("name", REGISTERED)
def test_classical_picard_reads_the_array_form_bit_for_bit(name):
    # the same family without its array form: one scalar call per node
    spec = function_spec(name, **SPEC_PARAMS.get(name, {}))
    scalar = dataclasses.replace(spec, fn=lambda t: spec.fn(t))
    for n, x in ((2.0, -0.7), (4.0, 0.3), (64.0, 1.0)):
        assert float.hex(picard_classical(spec, n, x)) == float.hex(
            picard_classical(scalar, n, x))


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
        (weierstrass_choquet, POSS, 0, 1),
        # uncovered: a power distortion that equals sqrt but is not keyed as one
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
    def test_a_distortion_computing_sqrt_takes_the_closed_form_by_any_name(
            self, engine_calls, op):
        # the closed forms are keyed on the distortion's function, not its name
        n, x = 4, 0.3
        named = RealCapacity.distorted_lebesgue(DistortionFunction("any", np.sqrt))
        got = op(function_spec("abs_dev", center=x), n, x, named)
        kernel = Kernel.laplace(n, x) if op is picard_choquet else Kernel.gauss(n, x)
        normalizer = kernel_normalizer(kernel, named)
        assert engine_calls == []
        assert got == op(function_spec("abs_dev", center=x), n, x,
                         RealCapacity.sqrt_lebesgue())
        assert normalizer == kernel_normalizer(kernel, RealCapacity.sqrt_lebesgue())

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
