import dataclasses
import math
import re

import numpy as np
import pytest

from choquetkit import capacity
from choquetkit import (DEFAULT_PROFILE, CapabilityError, DiscreteCapacity,
                        DistortionFunction, IntervalUnion, Kernel, RealCapacity,
                        additive_capacity, bernstein_choquet_capacity, capacity_from_table,
                        check_properties, choquet_integral, counting_distortion,
                        distorted_probability, distortion_by_name, dual,
                        kernel_level_function, perturbation_gap, possibility_capacity,
                        random_monotone_capacity, validate_distortion)
from choquetkit.operators import bernstein_basis_vector

SQRT_THIRD = math.sqrt(1.0 / 3.0)


# ---------------------------------------------------------------------------
# scalar reference rules: mu of one frozenset at a time, with ``math.fsum``,
# for each kind of capacity.  The capacities keep only their batched forms
# (``tails`` and ``values``) and derive their evaluator from them; these
# rules share no arithmetic with those forms, and the tests hold the forms
# to them.


def additive_rule(weights):
    w = [float(v) for v in weights]

    def rule(subset: frozenset) -> float:
        return math.fsum(w[i] for i in subset)

    return rule


def distorted_rule(gamma, weights):
    w = [float(v) for v in weights]

    def transform(t: float) -> float:
        return gamma(t) if t > 0 else 0.0

    def rule(subset: frozenset) -> float:
        # 0 wherever no weight is positive, the empty set included
        return transform(math.fsum(w[i] for i in subset))

    return rule


def possibility_rule(weights):
    w = [float(v) for v in weights]

    def rule(subset: frozenset) -> float:
        if not subset:
            return 0.0
        return max(w[i] for i in subset)

    return rule


def table_rule(table):
    vals = [float(v) for v in table]

    def rule(subset: frozenset) -> float:
        return vals[sum(1 << i for i in subset)]

    return rule


def bernstein_rule(n, x, profile=DEFAULT_PROFILE):
    p = bernstein_basis_vector(n, x)
    gap = perturbation_gap(n, x, profile)
    i0 = profile.i0
    size = n + 1

    def rule(subset: frozenset) -> float:
        if not subset:
            return 0.0
        if len(subset) == size:
            return 1.0
        total = math.fsum(p[i] for i in subset)
        if i0 in subset:
            total += gap
        return total

    return rule


def dual_rule(mu, size):
    omega = frozenset(range(size))
    total = mu(omega)

    def rule(subset: frozenset) -> float:
        return total - mu(omega - subset)

    return rule


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
        w = [0.2, 0.3, 0.5]
        d = dual(additive_capacity(w))
        mu = additive_rule(w)
        for mask in range(8):
            subset = _subset(mask)
            assert d.value(subset) == pytest.approx(mu(subset), abs=1e-15)

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
            mu = table_rule(cap.table)
            for mask in range(1 << size):
                subset = _subset(mask)
                assert dd.evaluator(subset) == pytest.approx(mu(subset), abs=1e-12)

    def test_dual_below_subadditive(self, rng):
        # for subadditive capacities the dual never exceeds the original
        gamma = DistortionFunction.sqrt()
        for size in (2, 3, 4):
            d = dual(counting_distortion(gamma, size))
            mu = distorted_rule(gamma, [1.0 / size] * size)
            flipped = dual_rule(mu, size)
            for mask in range(1 << size):
                subset = _subset(mask)
                assert d.evaluator(subset) == pytest.approx(flipped(subset), abs=1e-15)
                assert d.evaluator(subset) <= mu(subset) + 1e-12


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


def _evaluated(mu, members):
    """The scalar form ``mu`` (an evaluator or a reference rule) on every
    row of ``members``."""
    return np.array([mu(frozenset(np.flatnonzero(row).tolist())) for row in members])


def _probability(rng, size):
    w = rng.uniform(0.1, 1.0, size=size)
    return (w / w.sum()).tolist()


def _weight_capacities(rng, size):
    """One capacity of every weight-based kind on ``size`` elements, each
    with its scalar reference rule."""
    w = _probability(rng, size)
    sqrt = DistortionFunction.sqrt()
    peaks = (np.array(w) / max(w)).tolist()
    caps = {"additive": (additive_capacity(w), additive_rule(w)),
            "counting": (counting_distortion(sqrt, size),
                         distorted_rule(sqrt, [1.0 / size] * size)),
            "possibility": (possibility_capacity(peaks), possibility_rule(peaks)),
            "dual_sqrt": (dual(distorted_probability(sqrt, w)),
                          dual_rule(distorted_rule(sqrt, w), size))}
    for gamma in (DistortionFunction.identity(), sqrt, DistortionFunction.power(0.3)):
        caps[gamma.name] = (distorted_probability(gamma, w), distorted_rule(gamma, w))
    if size >= 3:
        caps["bernstein"] = (bernstein_choquet_capacity(size - 1, 0.3),
                             bernstein_rule(size - 1, 0.3))
    return caps


class TestBatchedValues:
    @pytest.mark.parametrize("size", [1, 5, 12])
    def test_tables_are_the_evaluator_bit_for_bit(self, rng, size):
        cap = random_monotone_capacity(rng, size)
        listed = capacity_from_table(size, cap.table.tolist())
        members = _member_rows(rng, size)
        mu = table_rule(cap.table)
        flipped = dual_rule(mu, size)
        for c, rule in ((cap, mu), (listed, mu), (dual(cap), flipped),
                        (dual(dual(cap)), dual_rule(flipped, size))):
            want = _evaluated(rule, members).tolist()
            assert c.values(members).tolist() == want
            assert _evaluated(c.evaluator, members).tolist() == want

    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_weight_kinds_match_the_evaluator(self, rng, size):
        members = _member_rows(rng, size)
        for name, (cap, rule) in _weight_capacities(rng, size).items():
            got, want = cap.values(members), _evaluated(rule, members)
            assert np.abs(got - want).max() <= 1e-15, name
            # the derived evaluator, one row of ``values`` per call
            assert np.abs(_evaluated(cap.evaluator, members) - want).max() <= 1e-15, name
            if name != "dual_sqrt":
                assert got[0] == 0.0, name   # the empty row, exactly as the rule
            if name == "bernstein":
                assert got[1] == 1.0         # Omega, pinned as in the rule
            if name == "possibility":
                assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_weight_kinds_tails_match_the_rule(self, rng, size):
        # a running sum of ``size`` weights rounds size - 1 times, each by at
        # most half an ulp of a partial sum <= 1, and a dual subtracts two of
        # them; a running max does not round
        for name, (cap, rule) in _weight_capacities(rng, size).items():
            for _ in range(5):
                order = rng.permutation(size).tolist()
                got = cap.tails(order)
                want = [rule(frozenset(order[k:])) for k in range(size)] + [0.0]
                if name == "possibility":
                    assert got == want
                assert np.abs(np.subtract(got, want)).max() <= size * 2.0 ** -52, name
                assert got[-1] == 0.0, name

    def test_bare_evaluator_falls_back_to_one_call_per_row(self, rng):
        calls = []

        def evaluator(subset):
            calls.append(subset)
            return math.sqrt(len(subset) / 6) + 0.01 * sum(subset)

        cap = DiscreteCapacity(6, evaluator)
        members = _member_rows(rng, 6)
        got = cap.values(members)
        assert len(calls) == len(members)
        assert got.tolist() == _evaluated(evaluator, members).tolist()
        flipped = dual(cap)
        assert flipped.values(members).tolist() == _evaluated(
            dual_rule(evaluator, 6), members).tolist()

    def test_tabulate_is_the_per_mask_evaluator_table(self, rng):
        size = 9
        bare = DiscreteCapacity(size, lambda s: math.sqrt(len(s) / size))
        for name, (cap, rule) in {**_weight_capacities(rng, size),
                                  "bare": (bare, bare.evaluator)}.items():
            got = capacity._tabulate(cap)
            want = np.array([rule(_subset(k)) for k in range(1 << size)])
            if name in ("bare", "possibility"):
                assert got.tolist() == want.tolist(), name
            assert np.abs(got - want).max() <= 1e-15, name

    def test_a_capacity_needs_a_form(self):
        with pytest.raises(ValueError, match="evaluator, a table or a values_fn"):
            DiscreteCapacity(3)
        with pytest.raises(ValueError, match="evaluator, a table or a values_fn"):
            DiscreteCapacity(3, tails_fn=lambda order: [0.0] * 4)

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

    @pytest.mark.parametrize("empty", [-0.5, 0.5])
    def test_nonzero_empty_set_is_not_monotone(self, empty):
        # a negative mu(empty) used to pass as monotone: only mu(empty) > 0 was caught
        report = check_properties(capacity_from_table(2, [empty, 0.2, 0.3, 1.0]))
        assert not report.monotone
        assert report.witnesses["monotone"] == ("mu(empty) != 0", empty)

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

    def test_size_tables_are_built_once_and_read_only(self):
        for table in (capacity._up(9), *capacity._pair_chunk(3, 7),
                      *capacity._pair_chunk(4, 6)):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1
        assert capacity._up(9) is capacity._up(9)
        assert capacity._pair_chunk(3, 7) is capacity._pair_chunk(3, 7)

    @pytest.mark.parametrize("size", [8, 9, 10])
    def test_cached_tables_give_the_per_call_reports(self, monkeypatch, rng, size):
        # mu(A) = sqrt(|A| / size) is subadditive; a bump on the sets that
        # hold both last elements, which are past the low digits of a chunk
        # (7 when monotone, 6 otherwise), breaks it on later chunks only.
        # mu(empty) = 0.1 or a lowered mu(Omega) make it non-monotone.
        masks = np.arange(1 << size)
        both = 3 << size - 2
        bump = (np.sqrt(np.array([bin(k).count("1") for k in masks]) / size)
                + 0.5 * ((masks & both) == both))
        empty, top = bump.copy(), bump.copy()
        empty[0] = 0.1
        top[-1] -= 0.6
        tables = [bump, empty, top, rng.uniform(0.0, 1.0, 1 << size),
                  random_monotone_capacity(rng, size).table]

        def reports():
            return [check_properties(capacity_from_table(size, t)) for t in tables]

        cached = reports()
        monkeypatch.setattr(capacity, "_up",
                            lambda m: np.arange(1 << m)[:, None] | capacity._BITS[:m])
        monkeypatch.setattr(capacity, "_pair_chunk", lambda base, low: capacity._digit_masks(
            np.arange(base ** low), base, low))
        assert reports() == cached
        assert [r.monotone for r in cached[:3]] == [True, False, False]
        for report, low in zip(cached[:3], (7, 6, 6)):
            assert not report.subadditive
            a, b = report.witnesses["subadditive"]
            assert max(a + b) >= low
        if size == 8:
            # the first chunk with 7 in A, at the first B that holds 6
            assert cached[0].witnesses["subadditive"] == ((7,), (6,))
        for t, report in zip(tables, cached):
            assert_witnesses_violate(capacity_from_table(size, t), report)

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
    if abs(mu[0]) > tol:
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


# each registered distortion with its scalar ``math`` form
MATH_FORMS = [(DistortionFunction.identity(), lambda t: t),
              (DistortionFunction.sqrt(), math.sqrt)] + [
    (DistortionFunction.power(p), lambda t, p=p: t ** p)
    for p in (0.5, 0.25, 1 / 3, 0.7, 1.0)]
MATH_IDS = [gamma.name for gamma, _ in MATH_FORMS]


def _hex(values):
    return [float.hex(float(v)) for v in values]


class TestDistortedProbability:
    @pytest.mark.parametrize("gamma, scalar", MATH_FORMS, ids=MATH_IDS)
    def test_array_form_is_the_math_form_bit_for_bit(self, rng, gamma, scalar):
        grid = np.linspace(0.0, 1.0, capacity.DISTORTION_GRID)
        w = rng.uniform(0.0, 1.0, size=200)
        # suffix sums of a probability vector, as the sorted engine forms them
        sums = np.cumsum((w / w.sum())[::-1])[::-1]
        for ts in (grid, sums):
            assert _hex(gamma(ts)) == _hex(scalar(float(t)) for t in ts)

    @pytest.mark.parametrize("gamma, scalar", MATH_FORMS, ids=MATH_IDS)
    def test_forms_are_gamma_of_the_additive_forms(self, gamma, scalar):
        w = [0.0, 0.25, 0.0, 0.1, 0.65, 0.0]
        cap, add = distorted_probability(gamma, w), additive_capacity(w)

        def distort(ts):
            return _hex(scalar(t) if t > 0 else 0.0 for t in ts)

        for order in ([0, 1, 2, 3, 4, 5], [4, 2, 0, 5, 1, 3], [1, 3, 4, 0, 2, 5]):
            assert _hex(cap.tails(order)) == distort(add.tails(order))
        members = np.arange(1 << len(w))[:, None] >> np.arange(len(w)) & 1 == 1
        assert _hex(cap.values(members)) == distort(add.values(members).tolist())

    def test_registry_reads_power_default(self):
        assert distortion_by_name("power").name == "power_0.5"
        assert distortion_by_name("power", p=0.25).name == "power_0.25"

    @pytest.mark.parametrize("name, param", [("sqrt", "p"), ("identity", "p"),
                                             ("power", "q")])
    def test_rejects_a_parameter_it_does_not_take(self, name, param):
        with pytest.raises(TypeError):
            distortion_by_name(name, **{param: 3})

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weights(self, bad):
        # NaN slips past ``v < 0`` and the sum-to-1 check: it would give
        # mu(Omega) = 0
        with pytest.raises(ValueError, match="finite"):
            additive_capacity([bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            distorted_probability(DistortionFunction.sqrt(), [bad, 1.0])
        with pytest.raises(ValueError):
            possibility_capacity([bad, 1.0])

    # each breaks one condition, the ones before it hold: t (4 - 3t) is
    # concave with gamma(1) = 1 but falls from t = 2/3 on
    @pytest.mark.parametrize("fn, message", [
        (lambda t: 0.5 + 0.5 * t, "gamma(0) != 0"),
        (lambda t: 0.5 * t, "gamma(1) != 1"),
        (lambda t: t * (4.0 - 3.0 * t), "not nondecreasing"),
        (lambda t: t * t, "not concave"),
    ], ids=["offset", "short", "dip", "convex"])
    def test_rejects_a_bad_distortion_with_its_reason(self, fn, message):
        with pytest.raises(ValueError, match=re.escape(f"distortion bad: {message}")):
            validate_distortion(DistortionFunction("bad", fn))

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
            union = IntervalUnion.from_pairs(a.intervals + b.intervals)
            assert mu.value(union) == pytest.approx(max(mu.value(a), mu.value(b)), abs=1e-15)

    def test_monotone_on_nested_unions(self, rng):
        sqrt_mu = RealCapacity.sqrt_lebesgue()
        poss = RealCapacity.possibility(Kernel.gauss(1.5, 0.3))
        for _ in range(200):
            pts = np.sort(rng.uniform(-3.0, 3.0, size=4))
            small = IntervalUnion.from_pairs([(pts[0], pts[1]), (pts[2], pts[3])])
            big = IntervalUnion.from_pairs(
                small.intervals + ((float(rng.uniform(-4, 4)), float(rng.uniform(4, 5))),))
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
