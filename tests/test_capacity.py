import math

import numpy as np
import pytest

from choquetkit import (CapabilityError, DiscreteCapacity, DistortionFunction,
                        IntervalUnion, Kernel, RealCapacity, additive_capacity,
                        capacity_from_table, check_properties,
                        counting_distortion, distorted_probability, dual,
                        possibility_capacity, random_monotone_capacity,
                        uniform_additive, validate_distortion)

SQRT_THIRD = math.sqrt(1.0 / 3.0)


class TestEvaluateDiscrete:
    def test_additive_uniform(self):
        cap = uniform_additive(3)
        assert cap.value({0, 2}) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_sqrt_counting(self):
        cap = counting_distortion(DistortionFunction.sqrt(), 3)
        assert cap.value({1}) == pytest.approx(SQRT_THIRD, abs=1e-12)

    def test_empty_set_is_zero(self):
        for cap in (uniform_additive(4),
                    counting_distortion(DistortionFunction.sqrt(), 3),
                    possibility_capacity([0.2, 1.0])):
            assert cap.value(()) == 0.0

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            uniform_additive(3).value({5})


class TestDual:
    def test_additive_self_dual(self):
        cap = additive_capacity([0.2, 0.3, 0.5])
        d = dual(cap)
        for mask in range(8):
            subset = {i for i in range(3) if mask >> i & 1}
            assert d.value(subset) == pytest.approx(cap.value(subset), abs=1e-15)

    def test_two_point_fixture(self):
        cap = capacity_from_table(2, [0.0, 0.3, 0.9, 1.0])
        d = dual(cap)
        assert d.value({0}) == pytest.approx(0.1, abs=1e-15)
        assert d.value({1}) == pytest.approx(0.7, abs=1e-15)

    def test_involution_random(self, rng):
        for _ in range(100):
            size = int(rng.integers(2, 6))
            cap = random_monotone_capacity(rng, size)
            dd = dual(dual(cap))
            for mask in range(1 << size):
                subset = frozenset(i for i in range(size) if mask >> i & 1)
                assert dd.evaluator(subset) == pytest.approx(
                    cap.evaluator(subset), abs=1e-12)

    def test_dual_below_subadditive(self, rng):
        # for subadditive capacities the dual never exceeds the original
        gamma = DistortionFunction.sqrt()
        for size in (2, 3, 4):
            cap = counting_distortion(gamma, size)
            d = dual(cap)
            for mask in range(1 << size):
                subset = frozenset(i for i in range(size) if mask >> i & 1)
                assert d.evaluator(subset) <= cap.evaluator(subset) + 1e-12


class TestCheckProperties:
    def test_additive_all_flags(self):
        report = check_properties(uniform_additive(4))
        assert report.monotone and report.subadditive and report.submodular
        assert report.normalized and not report.sampled

    def test_possibility_submodular(self):
        report = check_properties(possibility_capacity([0.3, 0.7, 1.0]))
        assert report.submodular
        assert report.subadditive

    def test_convex_distortion_not_submodular(self):
        cap = capacity_from_table(
            3, [ (bin(m).count("1") / 3.0) ** 2 for m in range(8) ])
        report = check_properties(cap)
        assert not report.submodular
        assert "submodular" in report.witnesses
        a, b = report.witnesses["submodular"]
        mu = cap.value
        assert mu(set(a) | set(b)) + mu(set(a) & set(b)) > mu(a) + mu(b) + 1e-12

    def test_nonmonotone_witness(self):
        broken = capacity_from_table(2, [0.0, 0.8, 0.2, 0.3])
        report = check_properties(broken)
        assert not report.monotone
        assert "monotone" in report.witnesses

    def test_sampled_flag_and_capability_error(self, rng):
        cap = random_monotone_capacity(rng, 8)
        assert check_properties(cap).sampled is False
        for size in (15, 21):
            with pytest.raises(CapabilityError):
                check_properties(DiscreteCapacity(size, lambda s: 0.0))

    def test_matches_brute_force_reference(self, rng):
        # non-monotone tables (mu(empty) != 0 too), monotone and submodular
        # ones; small integer tables add ties at the tolerance boundary
        for t in range(400):
            size = int(rng.integers(1, 7))
            kind = t % 4
            if kind == 0:
                table = rng.uniform(-0.2, 1.0, size=1 << size)
            elif kind == 1:
                table = rng.integers(-1, 3, size=1 << size).astype(float)
            elif kind == 2:
                cap = random_monotone_capacity(rng, size, normalized=t % 8 == 2)
                table = [cap.evaluator(_subset(mask)) for mask in range(1 << size)]
            else:
                w = rng.dirichlet(np.ones(size))
                table = [math.sqrt(sum(w[i] for i in _subset(mask)))
                         for mask in range(1 << size)]
            cap = capacity_from_table(size, list(table))
            report = check_properties(cap)
            expected = brute_force_properties(cap)
            got = (report.monotone, report.subadditive, report.submodular,
                   report.normalized, report.witnesses.get("monotone"))
            assert got == expected
            assert_witnesses_violate(cap, report)

    @pytest.mark.parametrize("size", [8, 10, 12])
    def test_two_singleton_violation_found(self, size):
        # every singleton 0.3, every larger set 1: mu({0, 1}) = 1 > 0.6
        table = [0.0] + [0.3 if bin(mask).count("1") == 1 else 1.0
                         for mask in range(1, 1 << size)]
        cap = capacity_from_table(size, table)
        report = check_properties(cap)
        assert report.monotone and report.normalized
        assert not report.subadditive and not report.submodular
        assert_witnesses_violate(cap, report)

    def test_flags_are_bools(self, rng):
        for cap in (uniform_additive(3), random_monotone_capacity(rng, 9),
                    capacity_from_table(2, [0.5, 0.8, 0.2, 0.3])):
            report = check_properties(cap)
            for flag in (report.monotone, report.subadditive,
                         report.submodular, report.normalized, report.sampled):
                assert type(flag) is bool
            assert report.sampled is False


def _subset(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def brute_force_properties(cap):
    """Reference check over every cover and every pair of subsets: the
    flags and the first monotonicity witness in mask-then-element order."""
    size = cap.size
    mu = [cap.evaluator(_subset(mask)) for mask in range(1 << size)]
    tol = 1e-12
    witness = None
    if mu[0] > tol:
        witness = ("mu(empty) != 0", mu[0])
    else:
        for a in range(1 << size):
            ups = [a | 1 << i for i in range(size) if not a >> i & 1]
            drops = [b for b in ups if mu[a] > mu[b] + tol]
            if drops:
                witness = (tuple(sorted(_subset(a))), tuple(sorted(_subset(drops[0]))))
                break
    pairs = [(a, b) for a in range(1 << size) for b in range(1 << size)]
    subadditive = all(mu[a | b] <= mu[a] + mu[b] + tol for a, b in pairs)
    submodular = all(mu[a | b] + mu[a & b] <= mu[a] + mu[b] + tol for a, b in pairs)
    return (witness is None, subadditive, submodular,
            abs(mu[-1] - 1.0) <= tol, witness)


def assert_witnesses_violate(cap, report):
    mu = cap.value
    if "subadditive" in report.witnesses:
        a, b = report.witnesses["subadditive"]
        assert mu(set(a) | set(b)) > mu(a) + mu(b) + 1e-12
    if "submodular" in report.witnesses:
        a, b = report.witnesses["submodular"]
        assert mu(set(a) | set(b)) + mu(set(a) & set(b)) > mu(a) + mu(b) + 1e-12


class TestDistortedProbability:
    def test_identity_gives_additive(self):
        w = [0.5, 0.2, 0.3]
        cap = distorted_probability(DistortionFunction.identity(), w)
        add = additive_capacity(w)
        for mask in range(8):
            subset = {i for i in range(3) if mask >> i & 1}
            assert cap.value(subset) == pytest.approx(add.value(subset), abs=1e-12)

    def test_sqrt_uniform(self):
        cap = distorted_probability(DistortionFunction.sqrt(), [1 / 3] * 3)
        assert cap.value({2}) == pytest.approx(SQRT_THIRD, abs=1e-12)
        assert cap.value(()) == 0.0
        assert check_properties(cap).submodular

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            distorted_probability(DistortionFunction.sqrt(), [0.5, 0.6])
        with pytest.raises(ValueError):
            distorted_probability(DistortionFunction.sqrt(), [-0.2, 1.2])

    def test_rejects_convex_distortion(self):
        square = DistortionFunction("square", lambda t: t * t)
        with pytest.raises(ValueError):
            validate_distortion(square)


class TestRandomCapacityGenerator:
    def test_monotone_and_grounded(self, rng):
        # spec-level invariant: 1000 random instances stay monotone with
        # mu(empty) = 0, checked exhaustively over cover pairs
        for _ in range(1000):
            size = int(rng.integers(2, 7))
            cap = random_monotone_capacity(rng, size)
            table = [cap.evaluator(frozenset(i for i in range(size) if m >> i & 1))
                     for m in range(1 << size)]
            assert table[0] == 0.0
            assert abs(table[-1] - 1.0) < 1e-12
            for m in range(1 << size):
                for i in range(size):
                    if not m >> i & 1:
                        assert table[m] <= table[m | (1 << i)] + 1e-15

    @pytest.mark.parametrize("size", [3, 8, 12, 16])
    def test_matches_per_mask_reference(self, size):
        seed = 1000 + size
        got = random_monotone_capacity(np.random.default_rng(seed), size)
        # the per-mask running max, one bit at a time, as first written
        rng = np.random.default_rng(seed)
        table = rng.uniform(0.0, 1.0, size=1 << size)
        table[0] = 0.0
        for i in range(size):
            for mask in range(1 << size):
                if mask >> i & 1 and table[mask ^ 1 << i] > table[mask]:
                    table[mask] = table[mask ^ 1 << i]
        expected = (table / table[-1]).tolist()
        assert [got.evaluator(_subset(mask)) for mask in range(1 << size)] == expected

    def test_submodular_implies_subadditive_consistency(self, rng):
        # check_properties must never report submodular without subadditive
        for _ in range(200):
            cap = random_monotone_capacity(rng, int(rng.integers(2, 6)))
            report = check_properties(cap)
            assert not (report.submodular and not report.subadditive)


class TestRealCapacity:
    def test_sqrt_length(self):
        mu = RealCapacity.sqrt_lebesgue()
        A = IntervalUnion.from_pairs([(0.0, 1.0), (2.0, 3.0)])
        assert mu.value(A) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_empty_is_zero(self):
        empty = IntervalUnion.empty()
        assert RealCapacity.sqrt_lebesgue().value(empty) == 0.0
        mu = RealCapacity.possibility(Kernel.laplace(2.0, 0.0))
        assert mu.value(empty) == 0.0

    def test_possibility_peak_inside(self):
        mu = RealCapacity.possibility(Kernel.laplace(3.0, 0.5))
        assert mu.value(IntervalUnion.single(0.0, 1.0)) == 1.0

    def test_possibility_nearest_endpoint(self):
        k = Kernel.laplace(2.0, 0.0)
        mu = RealCapacity.possibility(k)
        assert mu.value(IntervalUnion.single(1.0, 3.0)) == pytest.approx(
            math.exp(-2.0), abs=1e-15)
        assert mu.value(IntervalUnion.single(-3.0, -0.5)) == pytest.approx(
            math.exp(-1.0), abs=1e-15)

    def test_possibility_max_rule_random(self, rng):
        for _ in range(300):
            k = Kernel.laplace(float(rng.uniform(0.5, 4.0)),
                               float(rng.uniform(-1.0, 1.0)))
            mu = RealCapacity.possibility(k)
            pts = np.sort(rng.uniform(-3.0, 3.0, size=6))
            a = IntervalUnion.from_pairs([(pts[0], pts[1]), (pts[2], pts[3])])
            b = IntervalUnion.single(pts[4], pts[5])
            assert mu.value(a.union(b)) == pytest.approx(
                max(mu.value(a), mu.value(b)), abs=1e-15)

    def test_monotone_on_nested_unions(self, rng):
        sqrt_mu = RealCapacity.sqrt_lebesgue()
        poss = RealCapacity.possibility(Kernel.gauss(1.5, 0.3))
        for _ in range(200):
            pts = np.sort(rng.uniform(-3.0, 3.0, size=4))
            small = IntervalUnion.from_pairs([(pts[0], pts[1]), (pts[2], pts[3])])
            big = small.union(IntervalUnion.single(
                float(rng.uniform(-4, 4)), float(rng.uniform(4, 5))))
            for mu in (sqrt_mu, poss):
                assert mu.value(small) <= mu.value(big) + 1e-12


class TestKernels:
    def test_values_in_unit_interval_with_peak(self):
        for k in (Kernel.laplace(2.0, 0.7), Kernel.gauss(3.0, -0.2)):
            assert k(k.x) == 1.0
            for t in np.linspace(-5, 5, 41):
                assert 0.0 < k(float(t)) <= 1.0

    def test_level_set_laplace(self):
        assert Kernel.laplace(2.0, 0.5).level_set(1.0).intervals == ((0.5, 0.5),)
        lv = Kernel.laplace(2.0, 0.5).level_set(math.exp(-2.0))
        assert lv.intervals[0] == pytest.approx((-0.5, 1.5), abs=1e-12)
        assert Kernel.laplace(2.0, 0.5).level_set(1.5).is_empty
        r = -math.log(0.3) / 2.0
        assert Kernel.laplace(2.0, 0.5).level_set(0.3).intervals == ((0.5 - r, 0.5 + r),)
        with pytest.raises(ValueError):
            Kernel.laplace(2.0, 0.5).level_set(0.0)

    def test_level_set_gauss(self):
        assert Kernel.gauss(4.0, 0.0).level_set(1.0).intervals == ((0.0, 0.0),)
        lv = Kernel.gauss(4.0, 0.0).level_set(math.exp(-4.0))
        assert lv.intervals[0] == pytest.approx((-1.0, 1.0), abs=1e-12)
        assert Kernel.gauss(4.0, 0.0).level_set(2.0).is_empty
        r = math.sqrt(-math.log(0.3) / 4.0)
        assert Kernel.gauss(4.0, 0.0).level_set(0.3).intervals == ((-r, r),)
        with pytest.raises(ValueError):
            Kernel.gauss(4.0, 0.0).level_set(-1.0)

    def test_bad_kernel_parameters(self):
        with pytest.raises(ValueError):
            Kernel.laplace(0.0, 0.0)
        with pytest.raises(ValueError):
            Kernel("triangle", 1.0, 0.0)
