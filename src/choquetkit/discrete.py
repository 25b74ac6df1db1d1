"""Choquet integration on finite ground sets.

The workhorse is the sorted tail-sum formula: order the integrand values
ascending (ties broken by index, which cannot change the result because
the capacity differences telescope across equal values) and weight each
value by the capacity drop between consecutive suffix sets.  For signed
integrands this equals the two-part layer-cake definition whenever the
capacity of the full ground set is finite.

``choquet_integral_layer_cake`` evaluates that definition directly --
integrating ``alpha -> mu({X >= alpha})`` as a step function between the
attained values -- and is kept deliberately independent of the sorting
path so the two can verify each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .capacity import EXACT_TOL, DiscreteCapacity, check_properties, dual


def _require_finite(values: Sequence[float]) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError("integrand values must be finite")


def choquet_integral(values: Sequence[float], cap: DiscreteCapacity) -> float:
    """Choquet integral of ``values`` (indexed by the ground set) against ``cap``.

    Raises ``ValueError`` on a NaN or infinite value and ``OverflowError``
    when finite values give a sum outside the float range.
    """
    m = cap.size
    if len(values) != m:
        raise ValueError("integrand length must match the ground set size")
    order = sorted(range(m), key=values.__getitem__)  # stable: ties keep index order
    tails = cap.tails(order)
    try:
        total = math.fsum(values[order[k]] * (tails[k] - tails[k + 1]) for k in range(m))
    except ValueError:  # infinite terms of both signs
        _require_finite(values)
        total = math.inf
    # a non-finite value makes the sum non-finite, so finite sums need no scan
    if not math.isfinite(total):
        _require_finite(values)
        raise OverflowError("a weighted term exceeds the float range")
    return total


def choquet_integral_layer_cake(values: Sequence[float],
                                cap: DiscreteCapacity) -> float:
    """Definition-based evaluation via the layer-cake representation.

    ``alpha -> mu({X >= alpha})`` is a step function whose jumps can only
    sit at attained values, so integrating it exactly amounts to summing
    cell width times the capacity at the cell midpoint.  The negative part
    uses the signed correction ``mu({X >= alpha}) - mu(Omega)``.  Raises
    ``ValueError`` on a NaN or infinite value.
    """
    m = cap.size
    if len(values) != m:
        raise ValueError("integrand length must match the ground set size")
    _require_finite(values)

    def mu_at(level: float) -> float:
        return cap.evaluator(frozenset(i for i in range(m) if values[i] >= level))

    points = sorted(set(float(v) for v in values))
    total = 0.0
    pos = [p for p in points if p > 0]
    prev = 0.0
    for p in pos:
        total += (p - prev) * mu_at((prev + p) / 2)
        prev = p
    neg = [p for p in points if p < 0]
    if neg:
        mu_omega = cap.total()
        prev = neg[0]
        for p in neg[1:] + [0.0]:
            total += (p - prev) * (mu_at((prev + p) / 2) - mu_omega)
            prev = p
    return total


def choquet_variance(values: Sequence[float], cap: DiscreteCapacity) -> float:
    """Choquet integral of the squared deviation from the Choquet expectance."""
    mean = choquet_integral(values, cap)
    dev2 = [(v - mean) ** 2 for v in values]
    return choquet_integral(dev2, cap)


# ---------------------------------------------------------------------------
# pushforward distribution and change of variables


@dataclass(frozen=True)
class Pushforward:
    """Distribution of a ground-set function: B -> mu(X^{-1}(B))."""

    source: DiscreteCapacity
    values: tuple
    support: tuple  # distinct attained values, ascending

    def value(self, value_set) -> float:
        wanted = set(float(v) for v in value_set)
        preimage = frozenset(i for i, v in enumerate(self.values) if v in wanted)
        return self.source.evaluator(preimage)

    def as_capacity(self) -> DiscreteCapacity:
        """Capacity over the indices of ``support`` (for integration)."""
        support = self.support

        def rule(subset: frozenset) -> float:
            wanted = set(support[j] for j in subset)
            preimage = frozenset(i for i, v in enumerate(self.values) if v in wanted)
            return self.source.evaluator(preimage)

        return DiscreteCapacity(len(support), rule)


def pushforward(values: Sequence[float], cap: DiscreteCapacity) -> Pushforward:
    vals = tuple(float(v) for v in values)
    if len(vals) != cap.size:
        raise ValueError("map length must match the ground set size")
    return Pushforward(cap, vals, tuple(sorted(set(vals))))


def change_of_variables_check(f: Callable[[float], float],
                              values: Sequence[float],
                              cap: DiscreteCapacity) -> tuple[float, float, float]:
    """Integrate ``f`` against the pushforward vs ``f o X`` against ``cap``.

    Returns (lhs, rhs, |lhs - rhs|); the two must agree for normalized
    monotone capacities.
    """
    pf = pushforward(values, cap)
    lhs = choquet_integral([f(v) for v in pf.support], pf.as_capacity())
    rhs = choquet_integral([f(v) for v in values], cap)
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# randomized property suite


@dataclass
class PropertySuiteReport:
    submodular: bool
    violations: list = field(default_factory=list)
    checked: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def property_suite(cap: DiscreteCapacity, trials: int = 1000,
                   seed: int = 0) -> PropertySuiteReport:
    """Randomized verification of the structural integral identities, each
    to ``EXACT_TOL``.

    Positive homogeneity, monotonicity, translation by constants and the
    dual identity must hold for every monotone capacity; subadditivity of
    the integral is checked whenever the capacity is submodular.
    Violations carry the offending inputs as witnesses.
    """
    report_props = check_properties(cap)
    mu_omega = cap.total()
    dual_cap = dual(cap)
    rng = np.random.default_rng(seed)
    rep = PropertySuiteReport(submodular=report_props.submodular)
    counts = {k: 0 for k in ("homogeneity", "monotonicity", "translation",
                             "dual", "subadditivity")}

    for _ in range(trials):
        x = rng.uniform(-3.0, 3.0, size=cap.size)
        y = rng.uniform(-3.0, 3.0, size=cap.size)
        a = float(rng.uniform(0.0, 4.0))
        c = float(rng.uniform(-2.0, 2.0))
        ix = choquet_integral(x, cap)

        lhs = choquet_integral(a * x, cap)
        counts["homogeneity"] += 1
        if abs(lhs - a * ix) > EXACT_TOL:
            rep.violations.append(("homogeneity", a, x.tolist(), lhs, a * ix))

        bigger = x + np.abs(y)
        counts["monotonicity"] += 1
        if ix > choquet_integral(bigger, cap) + EXACT_TOL:
            rep.violations.append(("monotonicity", x.tolist(), bigger.tolist()))

        counts["translation"] += 1
        lhs = choquet_integral(x + c, cap)
        if abs(lhs - (ix + c * mu_omega)) > EXACT_TOL:
            rep.violations.append(("translation", c, x.tolist(), lhs, ix + c * mu_omega))

        counts["dual"] += 1
        lhs = choquet_integral(-x, cap)
        rhs = -choquet_integral(x, dual_cap)
        if abs(lhs - rhs) > EXACT_TOL:
            rep.violations.append(("dual", x.tolist(), lhs, rhs))

        if report_props.submodular:
            counts["subadditivity"] += 1
            lhs = choquet_integral(x + y, cap)
            rhs = ix + choquet_integral(y, cap)
            if lhs > rhs + EXACT_TOL:
                rep.violations.append(("subadditivity", x.tolist(), y.tolist(), lhs, rhs))

    rep.checked = counts
    return rep
