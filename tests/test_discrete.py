import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from choquetkit import (CapabilityError, DistortionFunction, additive_capacity,
                        bernstein_choquet_capacity, capacity_from_table,
                        check_properties, choquet_integral,
                        choquet_integral_layer_cake, choquet_variance,
                        counting_distortion, distorted_probability,
                        possibility_capacity, property_suite,
                        random_monotone_capacity)
from choquetkit.capacity import EXACT_TOL, EXHAUSTIVE_BOUND, DiscreteCapacity, dual
from choquetkit.discrete import _LEVEL_ENTRIES, _choquet_rows, _suite_draws

SQRT_CAP3 = counting_distortion(DistortionFunction.sqrt(), 3)
# frozen from the layer-cake oracle: 1 + sqrt(2/3) + sqrt(1/3)
FIXTURE_132 = 2.393846850117352


def unnormalized_capacity(rng, size):
    """A random monotone capacity with mu(Omega) drawn from (0.5, 3)."""
    table = random_monotone_capacity(rng, size).table * rng.uniform(0.5, 3.0)
    return capacity_from_table(size, table)


class TestSortingFormula:
    def test_additive_mean(self):
        assert choquet_integral([2.0, 4.0], additive_capacity([0.5, 0.5])) == pytest.approx(
            3.0, abs=1e-15)

    def test_sqrt_counting_fixture(self):
        value = choquet_integral([1.0, 3.0, 2.0], SQRT_CAP3)
        assert value == pytest.approx(FIXTURE_132, abs=1e-12)
        oracle = choquet_integral_layer_cake([1.0, 3.0, 2.0], SQRT_CAP3)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_constant_single_layer(self, rng):
        for _ in range(20):
            cap = unnormalized_capacity(rng, 4)
            c = float(rng.uniform(-3, 3))
            assert choquet_integral([c] * 4, cap) == pytest.approx(
                c * cap.value(range(cap.size)), abs=1e-12)

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

    @pytest.mark.parametrize("values", [[math.inf, -math.inf], [-math.inf, math.inf]])
    def test_infinities_of_both_signs_rejected(self, values):
        for cap in (additive_capacity([0.5, 0.5]), counting_distortion(
                DistortionFunction.sqrt(), 2)):
            for engine in (choquet_integral, choquet_integral_layer_cake):
                with pytest.raises(ValueError, match="integrand values must be finite"):
                    engine(values, cap)

    @pytest.mark.parametrize("values", [[1e308, 1e308], [1e308, -1e308]])
    def test_term_overflow_raises(self, values):
        # each weighted term is already outside the float range
        for engine in (choquet_integral, choquet_integral_layer_cake):
            with pytest.raises(OverflowError):
                engine(values, additive_capacity([2.0, 2.0]))

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


def _signed_with_ties(rng, m):
    """m values in [-3, 3]: about half on the half-integers, so they tie
    and hit 0.0 and -0.0, the rest continuous."""
    grid = rng.integers(-6, 7, size=m) / 2.0
    grid[::9] = -0.0
    return np.where(rng.random(m) < 0.5, grid, rng.uniform(-3.0, 3.0, size=m)).tolist()


def _only_values(cap):
    """``cap`` with its batched ``values`` alone: the evaluator and the
    tails raise, and every membership matrix is recorded."""
    shapes = []

    def values(members):
        shapes.append(members.shape)
        return cap.values(members)

    def refuse(*args):
        raise AssertionError("the layer cake reads mu only through values")

    return DiscreteCapacity(cap.size, refuse, tails_fn=refuse, values_fn=values), shapes


def _only_tails(*caps):
    """Arm ``caps`` to give mu only through ``tails``: from here on their
    evaluators and batched values raise.  In place, since a dual reads its
    inner capacity through that very object."""
    def refuse(*args):
        raise AssertionError("the sorted engine reads mu only through tails")

    for cap in caps:
        cap.evaluator = cap.values_fn = refuse


class TestSortedEngine:
    def test_reads_mu_only_through_tails(self, rng):
        # every constructor's capacity, and a dual of each shape: the sorted
        # engine must not reach the layer cake's ``values``, nor the
        # evaluator derived from it
        m = 12
        w = rng.uniform(0.1, 1.0, size=m)
        w = (w / w.sum()).tolist()
        sqrt = DistortionFunction.sqrt()
        inner = distorted_probability(sqrt, w)
        table = random_monotone_capacity(rng, m)
        caps = {"additive": additive_capacity(w),
                "distorted": distorted_probability(sqrt, w),
                "counting": counting_distortion(sqrt, m),
                "possibility": possibility_capacity((np.array(w) / max(w)).tolist()),
                "table": table,
                "bernstein": bernstein_choquet_capacity(m - 1, 0.3),
                "dual": dual(inner),
                "tabulated_dual": dual(table)}
        values = [_signed_with_ties(rng, m) for _ in range(5)]
        want = {name: [choquet_integral_layer_cake(v, cap) for v in values]
                for name, cap in caps.items()}
        _only_tails(inner, *caps.values())
        for name, cap in caps.items():
            got = [choquet_integral(v, cap) for v in values]
            assert np.abs(np.subtract(got, want[name])).max() <= 1e-12, name


class TestLayerCake:
    @pytest.mark.parametrize("m", [64, 200])
    def test_agrees_with_the_sorted_engine(self, rng, m):
        w = rng.uniform(0.1, 1.0, size=m)
        w = (w / w.sum()).tolist()
        caps = [distorted_probability(DistortionFunction.sqrt(), w), additive_capacity(w),
                possibility_capacity((np.array(w) / max(w)).tolist()),
                bernstein_choquet_capacity(64, 0.3), bernstein_choquet_capacity(m - 1, 0.7)]
        for cap in caps:
            for _ in range(20):
                values = _signed_with_ties(rng, cap.size)
                assert abs(choquet_integral_layer_cake(values, cap)
                           - choquet_integral(values, cap)) <= 1e-12

    def test_one_values_call_and_no_tails(self, rng):
        cap = distorted_probability(DistortionFunction.sqrt(), [1 / 64] * 64)
        for values in ([1.0] * 64, _signed_with_ties(rng, 64),
                       rng.uniform(-1.0, 1.0, 64).tolist()):
            counted, shapes = _only_values(cap)
            got = choquet_integral_layer_cake(values, counted)
            assert shapes == [(65, 64)]
            assert got == choquet_integral_layer_cake(values, cap)

    def test_membership_blocks_stay_bounded(self, rng):
        m = 700
        cap = counting_distortion(DistortionFunction.sqrt(), m)
        counted, shapes = _only_values(cap)
        values = _signed_with_ties(rng, m)
        got = choquet_integral_layer_cake(values, counted)
        assert len(shapes) > 1 and sum(k for k, _ in shapes) == m + 1
        assert all(k * width <= _LEVEL_ENTRIES for k, width in shapes)
        assert abs(got - choquet_integral(values, cap)) <= 1e-12

    def test_cells_end_at_attained_values(self):
        # a cell read at its midpoint rounds onto its lower end between
        # adjacent floats and overflows between large values
        cap = additive_capacity([0.5, 0.5])
        for values in ([1.0, math.nextafter(1.0, 2.0)], [1e308, 1.5e308]):
            assert choquet_integral_layer_cake(values, cap) == choquet_integral(values, cap)

    def test_all_negative_values_read_the_empty_set(self):
        # mu(empty) of a table is what the table says, as in the evaluator:
        # the cell (-3, -1) reads mu({0}), the cell (-1, 0) mu(empty)
        cap = capacity_from_table(2, [0.25, 0.5, 0.75, 1.0])
        assert choquet_integral_layer_cake([-1.0, -3.0], cap) == (
            (-1.0 - -3.0) * (0.5 - 1.0) + (0.0 - -1.0) * (0.25 - 1.0))


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
        cap = additive_capacity([1.0 / 3] * 3)
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


def pushforward(values, cap):
    """The distribution ``mu o X^{-1}`` of ``X = values`` on its support, the
    distinct values ascending: the support and the capacity over its
    indices as a table, which weighs a set of values by ``mu`` of its
    preimage."""
    support = sorted(set(values))
    where = [support.index(v) for v in values]
    table = [cap.evaluator(frozenset(i for i, j in enumerate(where) if mask >> j & 1))
             for mask in range(1 << len(support))]
    return support, capacity_from_table(len(support), table)


def change_of_variables(f, values, cap):
    """``|int f d(mu o X^{-1}) - int f(X) d mu|``, which vanishes for a
    normalized monotone capacity."""
    support, pf = pushforward(values, cap)
    return abs(choquet_integral([f(v) for v in support], pf)
               - choquet_integral([f(v) for v in values], cap))


class TestPushforward:
    def test_identity_indexing(self, rng):
        cap = random_monotone_capacity(rng, 4)
        values = [0.0, 1.0, 2.0, 3.0]
        support, pf = pushforward(values, cap)
        assert support == [0.0, 1.0, 2.0, 3.0]
        for mask in range(16):
            subset = frozenset(i for i in range(4) if mask >> i & 1)
            assert pf.evaluator(subset) == pytest.approx(cap.evaluator(subset), abs=1e-15)

    def test_constant_map(self, rng):
        cap = unnormalized_capacity(rng, 4)
        support, pf = pushforward([7.0] * 4, cap)
        assert support == [7.0]
        assert pf.evaluator(frozenset({0})) == pytest.approx(cap.value(range(4)), abs=1e-15)
        assert pf.evaluator(frozenset()) == 0.0

    def test_change_of_variables(self, rng):
        for f in (lambda t: t, lambda t: t * t, lambda t: 5.0):
            for _ in range(60):
                size = int(rng.integers(2, 6))
                cap = random_monotone_capacity(rng, size)
                x = rng.uniform(-2.0, 2.0, size=size)
                assert change_of_variables(f, x.tolist(), cap) <= 1e-12

    def test_change_of_variables_fixture(self):
        assert change_of_variables(lambda t: t * t, [1.0, 3.0, 2.0], SQRT_CAP3) <= 1e-12


class TestPropertySuite:
    def test_additive_clean(self):
        rep = property_suite(additive_capacity([1.0 / 3] * 3), trials=300)
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
        # deliberately non-monotone set function: the integral's monotonicity
        # breaks (the other identities hold for any set function with mu(empty) = 0)
        broken = DiscreteCapacity(
            2, lambda s: {frozenset(): 0.0, frozenset({0}): 0.9,
                          frozenset({1}): 0.2, frozenset({0, 1}): 0.3}[s])
        rep = property_suite(broken, trials=50)
        assert not rep.ok
        # two-term sums round alike in fsum and numpy: the very same list
        assert rep.violations == _reference_suite(broken, 50, 0)[0]

    def test_checked_counts(self, rng):
        cap = random_monotone_capacity(rng, 6)
        assert not check_properties(cap).submodular
        rep = property_suite(cap, trials=70, seed=3)
        assert rep.checked == {"homogeneity": 70, "monotonicity": 70, "translation": 70,
                               "dual": 70, "subadditivity": 0}
        assert property_suite(SQRT_CAP3, trials=0).checked == dict.fromkeys(
            rep.checked, 0)

    def test_submodular_flag_is_check_properties(self, rng):
        # the suite runs only the local-square scan of check_properties
        caps = [SQRT_CAP3, additive_capacity([0.1, 0.5, 0.4]),
                capacity_from_table(2, [0.0, 0.8, 0.2, 0.3]),
                capacity_from_table(2, [0.0, 0.4, 0.4, 1.0])]
        caps += [random_monotone_capacity(rng, m) for m in (1, 3, 6, 12)]
        flags = [check_properties(cap).submodular for cap in caps]
        assert True in flags and False in flags
        assert [property_suite(cap, trials=5).submodular for cap in caps] == flags

    def test_enumeration_bound(self):
        big = DiscreteCapacity(EXHAUSTIVE_BOUND + 1, lambda s: float(len(s)))
        for check in (check_properties, property_suite):
            with pytest.raises(CapabilityError):
                check(big)

    def test_draws_match_per_trial_draws(self):
        for m in (1, 2, 5, 12):
            rng = np.random.default_rng(m)
            x, y, a, c = _suite_draws(40, m, m)
            for t in range(40):
                assert x[t].tolist() == rng.uniform(-3.0, 3.0, size=m).tolist()
                assert y[t].tolist() == rng.uniform(-3.0, 3.0, size=m).tolist()
                assert float(a[t]) == float(rng.uniform(0.0, 4.0))
                assert float(c[t]) == float(rng.uniform(-2.0, 2.0))

    def test_matches_reference_loop(self, rng):
        caps = [SQRT_CAP3, additive_capacity([0.1, 0.5, 0.4])]
        caps += [random_monotone_capacity(rng, m) for m in (2, 4, 7)]
        for cap in caps:
            rep = property_suite(cap, trials=150, seed=9)
            violations, checked = _reference_suite(cap, 150, 9)
            assert rep.ok and not violations
            assert rep.checked == checked

    def test_lowered_table_entry_reported(self):
        # negative control at m = 12: one set (all but element 11) lowered
        # to 0 makes the capacity non-monotone, and the suite must say so
        m = 12
        table = random_monotone_capacity(np.random.default_rng(12), m).table.copy()
        table[(1 << m) - 1 ^ 1 << 11] = 0.0
        broken = capacity_from_table(m, table)
        assert not check_properties(broken).monotone
        rep = property_suite(broken, trials=200, seed=0)
        assert not rep.ok
        violations, _ = _reference_suite(broken, 200, 0)
        assert [v[:2] for v in rep.violations] == [v[:2] for v in violations]
        for (name, x, bigger) in rep.violations:
            assert name == "monotonicity"
            assert choquet_integral(x, broken) > choquet_integral(bigger, broken) + EXACT_TOL


def _reference_suite(cap, trials, seed):
    """The property suite as a per-trial loop of scalar integrals, with the
    per-trial draws: (violations, checked)."""
    submodular = check_properties(cap).submodular
    mu_omega = cap.value(range(cap.size))
    dual_cap = dual(cap)
    rng = np.random.default_rng(seed)
    violations = []
    checked = dict.fromkeys(("homogeneity", "monotonicity", "translation", "dual",
                             "subadditivity"), 0)
    for _ in range(trials):
        x = rng.uniform(-3.0, 3.0, size=cap.size)
        y = rng.uniform(-3.0, 3.0, size=cap.size)
        a = float(rng.uniform(0.0, 4.0))
        c = float(rng.uniform(-2.0, 2.0))
        ix = choquet_integral(x, cap)
        lhs = choquet_integral(a * x, cap)
        if abs(lhs - a * ix) > EXACT_TOL:
            violations.append(("homogeneity", a, x.tolist(), lhs, a * ix))
        bigger = x + np.abs(y)
        if ix > choquet_integral(bigger, cap) + EXACT_TOL:
            violations.append(("monotonicity", x.tolist(), bigger.tolist()))
        lhs = choquet_integral(x + c, cap)
        if abs(lhs - (ix + c * mu_omega)) > EXACT_TOL:
            violations.append(("translation", c, x.tolist(), lhs, ix + c * mu_omega))
        lhs = choquet_integral(-x, cap)
        rhs = -choquet_integral(x, dual_cap)
        if abs(lhs - rhs) > EXACT_TOL:
            violations.append(("dual", x.tolist(), lhs, rhs))
        for k in ("homogeneity", "monotonicity", "translation", "dual"):
            checked[k] += 1
        if submodular:
            checked["subadditivity"] += 1
            lhs = choquet_integral(x + y, cap)
            rhs = ix + choquet_integral(y, cap)
            if lhs > rhs + EXACT_TOL:
                violations.append(("subadditivity", x.tolist(), y.tolist(), lhs, rhs))
    return violations, checked


def _row_major_rows(rows, table):
    """The row engine's formula row by row: a stable argsort, the suffix
    masks by a running OR along each row, the sorted values by
    ``take_along_axis`` and a row-major ``sum(axis=1)``."""
    n, m = rows.shape
    order = np.argsort(rows, axis=1, kind="stable")
    tails = np.zeros((n, m + 1))
    tails[:, :m] = table[np.bitwise_or.accumulate(1 << order[:, ::-1], axis=1)[:, ::-1]]
    return (np.take_along_axis(rows, order, axis=1) * (tails[:, :-1] - tails[:, 1:])).sum(axis=1)


class TestRowEngine:
    @pytest.mark.parametrize("m", range(1, EXHAUSTIVE_BOUND + 1))
    def test_matches_scalar_engines(self, m):
        rng = np.random.default_rng(100 + m)
        cap = random_monotone_capacity(rng, m)
        # integer-valued rows tie, which the stable sort breaks by index
        rows = np.concatenate([rng.uniform(-3.0, 3.0, size=(20, m)),
                               rng.integers(-2, 3, size=(20, m)).astype(float)])
        got = _choquet_rows(rows, cap.table)
        for row, value in zip(rows.tolist(), got.tolist()):
            assert abs(value - choquet_integral(row, cap)) <= 1e-14
            assert abs(value - choquet_integral_layer_cake(row, cap)) <= 1e-14

    @pytest.mark.parametrize("m", range(1, EXHAUSTIVE_BOUND + 1))
    def test_bit_for_bit_the_row_major_formula(self, m):
        rng = np.random.default_rng(200 + m)
        # a table that is neither monotone nor 0 on the empty set, whose
        # mu(empty) the empty suffix must not read
        table = rng.uniform(-1.0, 2.0, size=1 << m)
        table[0] = 0.7
        ties = rng.integers(-2, 3, size=(25, m)).astype(float)
        ties[ties == 0] = rng.choice([0.0, -0.0], size=int((ties == 0).sum()))
        wide = rng.uniform(-3.0, 3.0, size=(25, 2 * m + 1))
        for rows in (wide[:, :m].copy(), ties, np.zeros((0, m)), wide[:, 1::2],
                     np.asfortranarray(ties)):
            got = _choquet_rows(rows, table)
            assert got.tobytes() == _row_major_rows(rows, table).tobytes()
            assert got.shape == (len(rows),)
            assert _choquet_rows(rows, np.r_[0.0, table[1:]]).tobytes() == got.tobytes()

    def test_overflow_raises(self):
        # as in choquet_integral: finite values, a sum outside the float range
        with pytest.raises(OverflowError):
            _choquet_rows(np.array([[1.7e308, 1.7e308]]), np.array([0.0, 2.0, 2.0, 4.0]))
        with pytest.raises(OverflowError):
            choquet_integral([1.7e308, 1.7e308], capacity_from_table(2, [0.0, 2.0, 2.0, 4.0]))
