import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from choquetkit import (DistortionFunction, additive_capacity,
                        change_of_variables_check, choquet_integral,
                        choquet_integral_layer_cake, choquet_variance,
                        counting_distortion, property_suite, pushforward,
                        random_monotone_capacity, uniform_additive)
from choquetkit.capacity import DiscreteCapacity

SQRT_CAP3 = counting_distortion(DistortionFunction.sqrt(), 3)
# frozen from the layer-cake oracle: 1 + sqrt(2/3) + sqrt(1/3)
FIXTURE_132 = 2.393846850117352


class TestSortingFormula:
    def test_additive_mean(self):
        assert choquet_integral([2.0, 4.0], uniform_additive(2)) == pytest.approx(
            3.0, abs=1e-15)

    def test_sqrt_counting_fixture(self):
        value = choquet_integral([1.0, 3.0, 2.0], SQRT_CAP3)
        assert value == pytest.approx(FIXTURE_132, abs=1e-12)
        oracle = choquet_integral_layer_cake([1.0, 3.0, 2.0], SQRT_CAP3)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_constant_single_layer(self, rng):
        for _ in range(20):
            cap = random_monotone_capacity(rng, 4, normalized=False)
            c = float(rng.uniform(-3, 3))
            assert choquet_integral([c] * 4, cap) == pytest.approx(
                c * cap.total(), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            choquet_integral([1.0, 2.0], SQRT_CAP3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_value_rejected(self, bad, position):
        values = [1.0, 2.0, 3.0]
        values[position] = bad
        for cap in (SQRT_CAP3, additive_capacity([0.0, 0.5, 0.5])):
            with pytest.raises(ValueError, match="finite"):
                choquet_integral(values, cap)
            with pytest.raises(ValueError, match="finite"):
                choquet_integral_layer_cake(values, cap)

    @pytest.mark.parametrize("values", [[1e308, 1e308], [1e308, -1e308]])
    def test_term_overflow_raises(self, values):
        # each weighted term is already outside the float range
        with pytest.raises(OverflowError):
            choquet_integral(values, additive_capacity([2.0, 2.0]))

    def test_layer_cake_agreement_signed(self, rng):
        for _ in range(300):
            size = int(rng.integers(2, 7))
            cap = random_monotone_capacity(rng, size)
            x = rng.uniform(-4.0, 4.0, size=size)
            a = choquet_integral(x, cap)
            b = choquet_integral_layer_cake(x, cap)
            assert a == pytest.approx(b, abs=1e-9)

    def test_pointwise_monotone(self, rng):
        for _ in range(200):
            size = int(rng.integers(2, 6))
            cap = random_monotone_capacity(rng, size)
            x = rng.uniform(-2.0, 2.0, size=size)
            y = x + rng.uniform(0.0, 1.0, size=size)
            assert choquet_integral(x, cap) <= choquet_integral(y, cap) + 1e-12


@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=2, max_size=6),
       st.integers(0, 2 ** 31 - 1))
def test_tie_invariance(values, seed):
    """Reordering equal values cannot change the integral: the default
    (value, index) tie-break must agree with the reversed one."""
    cap = random_monotone_capacity(np.random.default_rng(seed), len(values))
    default = choquet_integral(values, cap)
    order = sorted(range(len(values)), key=lambda i: (values[i], -i))
    tails = cap.tails(order)
    reversed_ties = math.fsum(values[order[k]] * (tails[k] - tails[k + 1])
                              for k in range(len(values)))
    assert default == pytest.approx(reversed_ties, abs=1e-12)


class TestMoments:
    def test_constant(self):
        cap = uniform_additive(3)
        assert choquet_integral([2.0] * 3, cap) == pytest.approx(2.0, abs=1e-15)
        assert choquet_variance([2.0] * 3, cap) == pytest.approx(0.0, abs=1e-15)

    def test_additive_matches_classical(self, rng):
        for _ in range(50):
            w = rng.uniform(0.1, 1.0, size=4)
            w = w / w.sum()
            cap = additive_capacity(w.tolist())
            x = rng.uniform(-2.0, 2.0, size=4)
            mean = float(w @ x)
            var = float(w @ (x - mean) ** 2)
            assert choquet_integral(x, cap) == pytest.approx(mean, abs=1e-12)
            assert choquet_variance(x, cap) == pytest.approx(var, abs=1e-12)

    def test_variance_nonnegative(self, rng):
        for _ in range(100):
            cap = random_monotone_capacity(rng, 5)
            x = rng.uniform(-3.0, 3.0, size=5)
            assert choquet_variance(x, cap) >= 0.0


class TestPushforward:
    def test_identity_indexing(self, rng):
        cap = random_monotone_capacity(rng, 4)
        values = [0.0, 1.0, 2.0, 3.0]
        pf = pushforward(values, cap)
        assert pf.support == (0.0, 1.0, 2.0, 3.0)
        for mask in range(16):
            subset = frozenset(i for i in range(4) if mask >> i & 1)
            as_values = [values[i] for i in subset]
            assert pf.value(as_values) == pytest.approx(
                cap.evaluator(subset), abs=1e-15)

    def test_constant_map(self, rng):
        cap = random_monotone_capacity(rng, 4, normalized=False)
        pf = pushforward([7.0] * 4, cap)
        assert pf.support == (7.0,)
        assert pf.value({7.0}) == pytest.approx(cap.total(), abs=1e-15)
        assert pf.value({3.0}) == 0.0

    def test_change_of_variables(self, rng):
        for f in (lambda t: t, lambda t: t * t, lambda t: 5.0):
            for _ in range(60):
                size = int(rng.integers(2, 6))
                cap = random_monotone_capacity(rng, size)
                x = rng.uniform(-2.0, 2.0, size=size)
                lhs, rhs, diff = change_of_variables_check(f, x.tolist(), cap)
                assert diff <= 1e-12

    def test_change_of_variables_fixture(self):
        lhs, rhs, diff = change_of_variables_check(
            lambda t: t * t, [1.0, 3.0, 2.0], SQRT_CAP3)
        assert diff <= 1e-12


class TestPropertySuite:
    def test_additive_clean(self):
        rep = property_suite(uniform_additive(3), trials=300)
        assert rep.ok
        assert rep.submodular

    def test_submodular_subadditivity(self):
        rep = property_suite(SQRT_CAP3, trials=1000)
        assert rep.ok
        assert rep.checked["subadditivity"] == 1000

    def test_random_capacities_clean(self, rng):
        for _ in range(10):
            cap = random_monotone_capacity(rng, int(rng.integers(2, 6)))
            rep = property_suite(cap, trials=100, seed=int(rng.integers(1 << 31)))
            assert rep.ok, rep.violations

    def test_strict_nonadditivity_witness(self):
        # submodular non-additive capacity: integral strictly subadditive
        x = [1.0, 0.0, 0.0]
        y = [0.0, 1.0, 0.0]
        lhs = choquet_integral([a + b for a, b in zip(x, y)], SQRT_CAP3)
        rhs = choquet_integral(x, SQRT_CAP3) + choquet_integral(y, SQRT_CAP3)
        assert lhs == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
        assert rhs == pytest.approx(2.0 * math.sqrt(1.0 / 3.0), abs=1e-12)
        assert lhs < rhs - 1e-3

    def test_violation_reported_for_broken_capacity(self):
        # deliberately non-monotone set function: the dual identity breaks
        broken = DiscreteCapacity(
            2, lambda s: {frozenset(): 0.0, frozenset({0}): 0.9,
                          frozenset({1}): 0.2, frozenset({0, 1}): 0.3}[s])
        rep = property_suite(broken, trials=50)
        assert not rep.ok
