"""Finite unions of closed real intervals in canonical form.

An :class:`IntervalUnion` is the class of measurable sets the real-line
capacities are evaluated on.  Canonical form means the component intervals
are sorted, pairwise disjoint and non-adjacent, so every union of intervals
has exactly one representation.  Degenerate components ``[a, a]`` are kept:
level sets collapse to single points at the peak level and the capacity of
a point set is still meaningful (length 0, kernel supremum 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple

Pair = Tuple[float, float]


@dataclass(frozen=True)
class IntervalUnion:
    """Canonical finite union of disjoint closed intervals."""

    intervals: Tuple[Pair, ...] = ()

    @staticmethod
    def from_pairs(pairs: Iterable[Pair]) -> "IntervalUnion":
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
        return IntervalUnion(tuple(merged))
