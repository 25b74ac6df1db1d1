"""Finite unions of closed real intervals in canonical form.

An :class:`IntervalUnion` is the class of measurable sets the real-line
capacities are evaluated on.  Canonical form means the component intervals
are sorted, pairwise disjoint and non-adjacent, so every union of intervals
has exactly one representation.  Degenerate components ``[a, a]`` are kept:
level sets collapse to single points at the peak level and the capacity of
a point set is still meaningful (length 0, kernel supremum 1).

The batched level-set oracle describes N sets at once by two endpoint
arrays ``(lo, hi)`` of shape ``[pieces, N]``: column ``i`` lists the pieces
of set ``i``, pairwise disjoint except at shared endpoints, and a piece
with ``lo > hi`` is empty (stored as ``[inf, -inf]``, never NaN).  These
sets are not canonicalised; the helper at the end of this module builds
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

Pair = Tuple[float, float]


def _canonicalize(pairs: Iterable[Pair]) -> Tuple[Pair, ...]:
    cleaned = []
    for a, b in pairs:
        a = float(a)
        b = float(b)
        if math.isnan(a) or math.isnan(b):
            raise ValueError("interval endpoints must not be NaN")
        if a > b:
            raise ValueError(f"interval [{a}, {b}] has a > b")
        cleaned.append((a, b))
    cleaned.sort()
    merged: list[Pair] = []
    for a, b in cleaned:
        if merged and a <= merged[-1][1]:
            # closed intervals: overlapping or touching components merge
            prev_a, prev_b = merged[-1]
            merged[-1] = (prev_a, max(prev_b, b))
        else:
            merged.append((a, b))
    return tuple(merged)


@dataclass(frozen=True)
class IntervalUnion:
    """Canonical finite union of disjoint closed intervals."""

    intervals: Tuple[Pair, ...] = ()

    @staticmethod
    def from_pairs(pairs: Iterable[Pair]) -> "IntervalUnion":
        return IntervalUnion(_canonicalize(pairs))

    @staticmethod
    def empty() -> "IntervalUnion":
        return IntervalUnion()

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def n_components(self) -> int:
        return len(self.intervals)

    @property
    def total_length(self) -> float:
        return math.fsum(b - a for a, b in self.intervals)

    def contains(self, t: float) -> bool:
        return any(a <= t <= b for a, b in self.intervals)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion.from_pairs(self.intervals + other.intervals)

    def issubset(self, other: "IntervalUnion") -> bool:
        return all(
            any(oa <= a and b <= ob for oa, ob in other.intervals)
            for a, b in self.intervals
        )

    def __iter__(self):
        return iter(self.intervals)


def pieces_where(inside: np.ndarray, lo_rows, hi_rows) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays of the pieces ``[lo_rows[j], hi_rows[j]]``, one row
    each (a number or an array shaped like ``inside``), emptied in the
    columns where ``inside`` is false."""
    return (np.array([np.where(inside, lo, math.inf) for lo in lo_rows]),
            np.array([np.where(inside, hi, -math.inf) for hi in hi_rows]))
