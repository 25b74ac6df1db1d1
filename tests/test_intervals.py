import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from choquetkit import IntervalUnion, RealCapacity

finite = st.floats(-50, 50, allow_nan=False)
LEBESGUE = RealCapacity.lebesgue()


def pairs_strategy():
    return st.lists(st.tuples(finite, finite).map(lambda ab: (min(ab), max(ab))),
                    max_size=8)


def contains(union, t):
    return any(a <= t <= b for a, b in union.intervals)


def test_overlap_merge():
    u = IntervalUnion.from_pairs([(1.0, 2.0), (0.0, 1.5)])
    assert u.intervals == ((0.0, 2.0),)


def test_touching_closed_intervals_merge():
    u = IntervalUnion.from_pairs([(0.0, 1.0), (1.0, 2.0)])
    assert u.intervals == ((0.0, 2.0),)


def test_degenerate_point_retained():
    u = IntervalUnion.from_pairs([(3.0, 3.0), (0.0, 1.0)])
    assert u.intervals == ((0.0, 1.0), (3.0, 3.0))
    assert LEBESGUE.value(u) == 1.0


def test_empty_union():
    u = IntervalUnion.from_pairs([])
    assert u == IntervalUnion() and u.intervals == ()
    assert LEBESGUE.value(u) == 0.0


def test_invalid_endpoints():
    with pytest.raises(ValueError):
        IntervalUnion.from_pairs([(2.0, 1.0)])
    with pytest.raises(ValueError):
        IntervalUnion.from_pairs([(math.nan, 1.0)])


@given(pairs_strategy())
def test_canonicalization_idempotent(pairs):
    once = IntervalUnion.from_pairs(pairs)
    twice = IntervalUnion.from_pairs(once.intervals)
    assert once == twice


@given(pairs_strategy())
def test_components_disjoint_and_sorted(pairs):
    u = IntervalUnion.from_pairs(pairs)
    for (a1, b1), (a2, b2) in zip(u.intervals, u.intervals[1:]):
        assert b1 < a2  # strictly separated (touching would have merged)
    assert LEBESGUE.value(u) >= 0.0


@given(pairs_strategy(), pairs_strategy(), st.lists(finite, min_size=1, max_size=20))
def test_union_membership(pairs_a, pairs_b, probes):
    a = IntervalUnion.from_pairs(pairs_a)
    b = IntervalUnion.from_pairs(pairs_b)
    u = IntervalUnion.from_pairs(a.intervals + b.intervals)
    for t in probes:
        assert contains(u, t) == (contains(a, t) or contains(b, t))


@given(pairs_strategy(), pairs_strategy())
def test_total_length_subadditive(pairs_a, pairs_b):
    a = IntervalUnion.from_pairs(pairs_a)
    b = IntervalUnion.from_pairs(pairs_b)
    u = IntervalUnion.from_pairs(a.intervals + b.intervals)
    assert LEBESGUE.value(u) <= LEBESGUE.value(a) + LEBESGUE.value(b) + 1e-9
