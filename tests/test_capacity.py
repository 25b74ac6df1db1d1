import dataclasses
import math

import numpy as np
import pytest

from choquetkit import capacity
from choquetkit import (CapabilityError, DiscreteCapacity, DistortionFunction,
                        IntervalUnion, Kernel, RealCapacity, additive_capacity,
                        bernstein_choquet_capacity, capacity_from_table,
                        check_properties, choquet_integral, counting_distortion,
                        distorted_probability, dual, kernel_level_function,
                        possibility_capacity, random_monotone_capacity,
                        validate_distortion)

SQRT_THIRD = math.sqrt(1.0 / 3.0)


class TestEvaluateDiscrete:
    def test_additive_uniform(self):
        cap = additive_capacity([1.0 / 3] * 3)
        assert cap.value({0, 2}) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_sqrt_counting(self):
        cap = counting_distortion(DistortionFunction.sqrt(), 3)
        assert cap.value({1}) == pytest.approx(SQRT_THIRD, abs=1e-12)

    def test_empty_set_is_zero(self):
        for cap in (additive_capacity([1.0 / 4] * 4),
                    counting_distortion(DistortionFunction.sqrt(), 3),
                    possibility_capacity([0.2, 1.0])):
            assert cap.value(()) == 0.0

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            additive_capacity([1.0 / 3] * 3).value({5})


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


class TestTable:
    def test_only_tabulated_capacities_carry_one(self, rng):
        cap = random_monotone_capacity(rng, 5)
        assert cap.table.shape == (32,)
        assert cap.table.tolist() == [cap.evaluator(_subset(k)) for k in range(32)]
        for other in (additive_capacity([0.5, 0.5]), possibility_capacity([0.2, 1.0]),
                      counting_distortion(DistortionFunction.sqrt(), 3),
                      dual(additive_capacity([0.5, 0.5]))):
            assert other.table is None

    def test_read_only_copy(self):
        values = np.array([0.0, 0.3, 0.9, 1.0])
        cap = capacity_from_table(2, values)
        with pytest.raises(ValueError):
            cap.table[1] = 0.5
        values[1] = 0.5  # the caller's array stays writable and apart
        assert cap.table[1] == 0.3 and cap.evaluator(frozenset({0})) == 0.3

    def test_equality_ignores_the_table(self, rng):
        cap = random_monotone_capacity(rng, 3)
        assert dataclasses.replace(cap, table=cap.table.copy()) == cap
        assert "table=" not in repr(cap)

    def test_tails_read_the_table(self, rng):
        for size in (1, 3, 8, 12):
            cap = random_monotone_capacity(rng, size)
            plain = DiscreteCapacity(size, cap.evaluator)
            for _ in range(20):
                order = rng.permutation(size).tolist()
                assert cap.tails(order) == plain.tails(order)
                values = rng.uniform(-3.0, 3.0, size=size).tolist()
                assert choquet_integral(values, cap) == choquet_integral(values, plain)

    def test_tabulated_dual_matches_the_closure(self, rng):
        for size in range(2, 13):
            cap = random_monotone_capacity(rng, size)
            plain = DiscreteCapacity(size, cap.evaluator)
            for got, closure in ((dual(cap), dual(plain)),
                                 (dual(dual(cap)), dual(dual(plain)))):
                assert got.table is not None and closure.table is None
                assert got.table.tolist() == [closure.evaluator(_subset(k))
                                              for k in range(1 << size)]


def _member_rows(rng, size):
    """The empty set, Omega, the singletons and 200 random sets of
    {0..size-1} as the rows of a boolean membership matrix."""
    return np.concatenate([np.zeros((1, size), bool), np.ones((1, size), bool),
                           np.eye(size, dtype=bool),
                           rng.random((200, size)) < rng.random((200, 1))])


def _evaluated(cap, members):
    return np.array([cap.evaluator(frozenset(np.flatnonzero(row).tolist()))
                     for row in members])


def _probability(rng, size):
    w = rng.uniform(0.1, 1.0, size=size)
    return (w / w.sum()).tolist()


def _weight_capacities(rng, size):
    """One capacity of every weight-based kind on ``size`` elements."""
    w = _probability(rng, size)
    caps = {"additive": additive_capacity(w),
            "counting": counting_distortion(DistortionFunction.sqrt(), size),
            "possibility": possibility_capacity((np.array(w) / max(w)).tolist()),
            "dual_sqrt": dual(distorted_probability(DistortionFunction.sqrt(), w))}
    for gamma in (DistortionFunction.identity(), DistortionFunction.sqrt(),
                  DistortionFunction.power(0.3)):
        caps[gamma.name] = distorted_probability(gamma, w)
    if size >= 3:
        caps["bernstein"] = bernstein_choquet_capacity(size - 1, 0.3)
    return caps


class TestBatchedValues:
    @pytest.mark.parametrize("size", [1, 5, 12])
    def test_tables_are_the_evaluator_bit_for_bit(self, rng, size):
        cap = random_monotone_capacity(rng, size)
        listed = capacity_from_table(size, cap.table.tolist())
        members = _member_rows(rng, size)
        for c in (cap, listed, dual(cap), dual(dual(cap))):
            assert c.values(members).tolist() == _evaluated(c, members).tolist()

    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_weight_kinds_match_the_evaluator(self, rng, size):
        members = _member_rows(rng, size)
        for name, cap in _weight_capacities(rng, size).items():
            got, want = cap.values(members), _evaluated(cap, members)
            assert np.abs(got - want).max() <= 1e-15, name
            if name != "dual_sqrt":
                assert got[0] == 0.0, name   # the empty row, exactly as the rule
            if name == "bernstein":
                assert got[1] == 1.0         # Omega, pinned as in the rule
            if name == "possibility":
                assert got.tolist() == want.tolist()

    def test_bare_evaluator_falls_back_to_one_call_per_row(self, rng):
        calls = []

        def evaluator(subset):
            calls.append(subset)
            return math.sqrt(len(subset) / 6) + 0.01 * sum(subset)

        cap = DiscreteCapacity(6, evaluator)
        members = _member_rows(rng, 6)
        got = cap.values(members)
        assert len(calls) == len(members)
        assert got.tolist() == _evaluated(cap, members).tolist()
        flipped = dual(cap)
        assert flipped.values(members).tolist() == _evaluated(flipped, members).tolist()

    def test_tabulate_is_the_per_mask_evaluator_table(self, rng):
        size = 9
        bare = DiscreteCapacity(size, lambda s: math.sqrt(len(s) / size))
        for name, cap in {**_weight_capacities(rng, size), "bare": bare}.items():
            got = capacity._tabulate(cap)
            want = np.array([cap.evaluator(_subset(k)) for k in range(1 << size)])
            if name in ("bare", "possibility"):
                assert got.tolist() == want.tolist(), name
            assert np.abs(got - want).max() <= 1e-15, name

    def test_rejects_a_matrix_of_the_wrong_width(self):
        cap = additive_capacity([0.5, 0.5])
        for bad in (np.ones((2, 3), bool), np.ones(2, bool)):
            with pytest.raises(ValueError, match="shape"):
                cap.values(bad)


class TestCheckProperties:
    def test_additive_all_flags(self):
        report = check_properties(additive_capacity([1.0 / 4] * 4))
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
                # normalized in every other draw, else mu(Omega) = 0.8
                scale = 1.0 if t % 8 == 2 else 0.8
                cap = random_monotone_capacity(rng, size)
                table = [scale * cap.evaluator(_subset(mask)) for mask in range(1 << size)]
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

    def test_square_witness_is_first_in_order(self, rng):
        # the blocked search returns the witness of a whole-slice scan in
        # (i, A, j) order; raising mu(everything but 0) breaks only squares
        # with i >= 1, so that table scans every block of the slice i = 0
        def whole_slices(mu):
            m = mu.size.bit_length() - 1
            up = capacity._up(m)
            for i in range(m - 1):
                ai, aj = up[:, i], up[:, i + 1:]
                bad = mu[ai[:, None] | aj] + mu[:, None] > mu[ai][:, None] + mu[aj] + capacity.EXACT_TOL
                if bad.any():
                    a, j = divmod(int(bad.argmax()), m - 1 - i)
                    return capacity._members(ai[a]), capacity._members(aj[a, j])
            return None

        for m in range(2, 13):
            full = (1 << m) - 1
            sqrt = capacity._tabulate(counting_distortion(DistortionFunction.sqrt(), m))
            lowered, raised = sqrt.copy(), sqrt.copy()
            lowered[full ^ 1] -= 0.5
            raised[full ^ 1] += 0.5
            tables = [sqrt, lowered, raised, rng.uniform(0.0, 1.0, 1 << m)]
            tables += [capacity._tabulate(random_monotone_capacity(rng, m)) for _ in range(3)]
            for mu in tables:
                assert capacity._square_witness(mu) == whole_slices(mu), m
            assert capacity._square_witness(sqrt) is None
            if m > 2:
                assert min(capacity._square_witness(raised)[0]) >= 1

    def test_flags_are_bools(self, rng):
        for cap in (additive_capacity([1.0 / 3] * 3), random_monotone_capacity(rng, 9),
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
    @pytest.mark.parametrize("p", ["abc", None, True])
    def test_power_rejects_non_numbers(self, p):
        with pytest.raises(ValueError, match="needs a number"):
            DistortionFunction.power(p)

    def test_counting_needs_an_element(self):
        with pytest.raises(ValueError, match="at least one element"):
            counting_distortion(DistortionFunction.sqrt(), 0)

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

    def test_zero_weight_sets_are_zero_in_every_form(self):
        # gamma(0) = 1e-13 passes validate_distortion, yet a nonempty set
        # whose weights are all 0 is 0 in the evaluator, the tails and the
        # batched values alike
        gamma = DistortionFunction("offset", lambda t: 1e-13 + (1 - 1e-13) * t)
        cap = distorted_probability(gamma, [0.0, 1.0])
        sets = [frozenset(i for i in range(2) if mask >> i & 1) for mask in range(4)]
        members = np.array([[i in s for i in range(2)] for s in sets])
        by_rule = [cap.evaluator(s) for s in sets]
        assert by_rule == cap.values(members).tolist()
        assert by_rule[1] == 0.0   # the set {0}
        for order in ([0, 1], [1, 0]):
            tails = cap.tails(order)
            assert tails[:2] == [cap.evaluator(frozenset(order[k:])) for k in range(2)]


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
        empty = IntervalUnion()
        assert RealCapacity.sqrt_lebesgue().value(empty) == 0.0
        mu = RealCapacity.possibility(Kernel.laplace(2.0, 0.0))
        assert mu.value(empty) == 0.0

    def test_possibility_peak_inside(self):
        mu = RealCapacity.possibility(Kernel.laplace(3.0, 0.5))
        assert mu.value(IntervalUnion.from_pairs([(0.0, 1.0)])) == 1.0

    def test_possibility_nearest_endpoint(self):
        k = Kernel.laplace(2.0, 0.0)
        mu = RealCapacity.possibility(k)
        assert mu.value(IntervalUnion.from_pairs([(1.0, 3.0)])) == pytest.approx(
            math.exp(-2.0), abs=1e-15)
        assert mu.value(IntervalUnion.from_pairs([(-3.0, -0.5)])) == pytest.approx(
            math.exp(-1.0), abs=1e-15)

    def test_possibility_max_rule_random(self, rng):
        for _ in range(300):
            k = Kernel.laplace(float(rng.uniform(0.5, 4.0)),
                               float(rng.uniform(-1.0, 1.0)))
            mu = RealCapacity.possibility(k)
            pts = np.sort(rng.uniform(-3.0, 3.0, size=6))
            a = IntervalUnion.from_pairs([(pts[0], pts[1]), (pts[2], pts[3])])
            b = IntervalUnion.from_pairs([(pts[4], pts[5])])
            assert mu.value(a.union(b)) == pytest.approx(
                max(mu.value(a), mu.value(b)), abs=1e-15)

    def test_monotone_on_nested_unions(self, rng):
        sqrt_mu = RealCapacity.sqrt_lebesgue()
        poss = RealCapacity.possibility(Kernel.gauss(1.5, 0.3))
        for _ in range(200):
            pts = np.sort(rng.uniform(-3.0, 3.0, size=4))
            small = IntervalUnion.from_pairs([(pts[0], pts[1]), (pts[2], pts[3])])
            big = small.union(IntervalUnion.from_pairs(
                [(float(rng.uniform(-4, 4)), float(rng.uniform(4, 5)))]))
            for mu in (sqrt_mu, poss):
                assert mu.value(small) <= mu.value(big) + 1e-12


class TestKernels:
    def test_values_in_unit_interval_with_peak(self):
        for k in (Kernel.laplace(2.0, 0.7), Kernel.gauss(3.0, -0.2)):
            assert k(k.x) == 1.0
            for t in np.linspace(-5, 5, 41):
                assert 0.0 < k(float(t)) <= 1.0

    def test_level_set_laplace(self):
        level = kernel_level_function(Kernel.laplace(2.0, 0.5)).level
        assert level(1.0).intervals == ((0.5, 0.5),)
        assert level(math.exp(-2.0)).intervals[0] == pytest.approx((-0.5, 1.5), abs=1e-12)
        assert not level(1.5).intervals
        r = -math.log(0.3) / 2.0
        assert level(0.3).intervals == ((0.5 - r, 0.5 + r),)
        with pytest.raises(ValueError):
            level(0.0)

    def test_level_set_gauss(self):
        level = kernel_level_function(Kernel.gauss(4.0, 0.0)).level
        assert level(1.0).intervals == ((0.0, 0.0),)
        assert level(math.exp(-4.0)).intervals[0] == pytest.approx((-1.0, 1.0), abs=1e-12)
        assert not level(2.0).intervals
        r = math.sqrt(-math.log(0.3) / 4.0)
        assert level(0.3).intervals == ((-r, r),)
        with pytest.raises(ValueError):
            level(-1.0)

    def test_bad_kernel_parameters(self):
        with pytest.raises(ValueError):
            Kernel.laplace(0.0, 0.0)
        with pytest.raises(ValueError):
            Kernel("triangle", 1.0, 0.0)
