"""Monotone set functions (capacities) on finite ground sets.

The ground set of size ``m`` is identified with the indices ``0..m-1``;
subsets are passed around as iterables of indices.  Capacities up to
``TABLE_BOUND`` elements can be tabulated; exhaustive property checks
(every pair of subsets) are only attempted up to ``EXHAUSTIVE_BOUND``
elements, above that ``SAMPLED_PAIRS`` random pairs (seed ``SAMPLE_SEED``)
are checked and flagged as sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import CapabilityError

TABLE_BOUND = 20
EXHAUSTIVE_BOUND = 6
SAMPLED_PAIRS = 2000
SAMPLE_SEED = 0
EXACT_TOL = 1e-12
DISTORTION_GRID = 101

def _mask_to_set(mask: int) -> frozenset:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _set_to_mask(subset: Iterable[int]) -> int:
    mask = 0
    for i in subset:
        mask |= 1 << i
    return mask


@dataclass
class DiscreteCapacity:
    """A set function on the power set of {0..size-1}.

    ``evaluator`` maps a frozenset of indices to a nonnegative value.
    ``tails_fn``, when provided, evaluates the capacity on the chain of
    suffix sets of a permutation in one pass (used by the Choquet
    integral, where it saves rebuilding the nested subsets).
    """

    size: int
    evaluator: Callable[[frozenset], float]
    normalized: bool = False
    name: str = ""
    tails_fn: Optional[Callable[[Sequence[int]], list[float]]] = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("ground set must have at least one element")

    def value(self, subset: Iterable[int]) -> float:
        s = frozenset(subset)
        for i in s:
            if not 0 <= i < self.size:
                raise ValueError(f"index {i} outside ground set of size {self.size}")
        return self.evaluator(s)

    def tails(self, order: Sequence[int]) -> list[float]:
        """Capacity of each suffix set {order[k], ..., order[-1]}.

        Returns ``size + 1`` values, the last one being mu(empty) = 0 by
        convention (the evaluator is not consulted for the empty suffix).
        """
        if self.tails_fn is not None:
            return self.tails_fn(order)
        out = [0.0] * (len(order) + 1)
        acc: set[int] = set()
        for k in range(len(order) - 1, -1, -1):
            acc.add(order[k])
            out[k] = self.evaluator(frozenset(acc))
        return out

    def total(self) -> float:
        return self.evaluator(frozenset(range(self.size)))


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of capacity verification, with a witness per failed flag."""

    monotone: bool
    subadditive: bool
    submodular: bool
    normalized: bool
    sampled: bool
    witnesses: dict = field(default_factory=dict)


def dual(cap: DiscreteCapacity) -> DiscreteCapacity:
    """Dual set function: A -> mu(Omega) - mu(Omega \\ A)."""
    omega = frozenset(range(cap.size))
    total = cap.evaluator(omega)

    def rule(subset: frozenset) -> float:
        return total - cap.evaluator(omega - subset)

    return DiscreteCapacity(cap.size, rule, normalized=cap.normalized,
                            name=f"dual({cap.name})" if cap.name else "dual")


def check_properties(cap: DiscreteCapacity) -> PropertyReport:
    """Decide monotone / subadditive / submodular / normalized.

    Exhaustive over all subset pairs for ground sets of up to
    ``EXHAUSTIVE_BOUND`` elements; sampled (and flagged) up to
    ``TABLE_BOUND``; larger ground sets are rejected.
    """
    if cap.size > TABLE_BOUND:
        raise CapabilityError(
            f"ground set of size {cap.size} exceeds the enumeration bound {TABLE_BOUND}")
    sampled = cap.size > EXHAUSTIVE_BOUND
    if sampled:
        rng = np.random.default_rng(SAMPLE_SEED)
        masks = rng.integers(0, 1 << cap.size, size=SAMPLED_PAIRS)
        pairs = zip(masks, rng.integers(0, 1 << cap.size, size=SAMPLED_PAIRS))
        pair_list = [(int(a), int(b)) for a, b in pairs]
    else:
        all_masks = range(1 << cap.size)
        pair_list = [(a, b) for a in all_masks for b in all_masks]

    values = {}

    def mu(mask: int) -> float:
        if mask not in values:
            values[mask] = cap.evaluator(_mask_to_set(mask))
        return values[mask]

    witnesses: dict = {}
    monotone = mu(0) <= EXACT_TOL
    if not monotone:
        witnesses["monotone"] = ("mu(empty) != 0", mu(0))
    # covers A -> A + {i} suffice for monotonicity and give minimal witnesses
    if monotone:
        mono_masks = (range(1 << cap.size) if not sampled
                      else [a for a, _ in pair_list])
        for a in mono_masks:
            for i in range(cap.size):
                if a >> i & 1:
                    continue
                b = a | (1 << i)
                if mu(a) > mu(b) + EXACT_TOL:
                    monotone = False
                    witnesses["monotone"] = (tuple(sorted(_mask_to_set(a))),
                                             tuple(sorted(_mask_to_set(b))))
                    break
            if not monotone:
                break

    subadditive = True
    submodular = True
    for a, b in pair_list:
        union, inter = a | b, a & b
        lhs_mod = mu(union) + mu(inter)
        rhs = mu(a) + mu(b)
        if submodular and lhs_mod > rhs + EXACT_TOL:
            submodular = False
            witnesses["submodular"] = (tuple(sorted(_mask_to_set(a))),
                                       tuple(sorted(_mask_to_set(b))))
        if subadditive and mu(union) > rhs + EXACT_TOL:
            subadditive = False
            witnesses["subadditive"] = (tuple(sorted(_mask_to_set(a))),
                                        tuple(sorted(_mask_to_set(b))))
        if not subadditive and not submodular:
            break

    normalized = abs(mu((1 << cap.size) - 1) - 1.0) <= EXACT_TOL
    return PropertyReport(monotone, subadditive, submodular, normalized,
                          sampled, witnesses)


# ---------------------------------------------------------------------------
# distortion functions


@dataclass(frozen=True)
class DistortionFunction:
    """Named nondecreasing concave distortion with gamma(0) = 0.

    ``fn`` is defined on [0, inf); the normalization gamma(1) = 1 matters
    only when distorting a probability vector, the real-line variants
    (e.g. sqrt of Lebesgue length) apply it to arbitrary lengths.
    """

    name: str
    fn: Callable[[float], float]

    def __call__(self, t: float) -> float:
        return self.fn(t)

    @staticmethod
    def identity() -> "DistortionFunction":
        return DistortionFunction("identity", lambda t: t)

    @staticmethod
    def sqrt() -> "DistortionFunction":
        return DistortionFunction("sqrt", math.sqrt)

    @staticmethod
    def power(p: float) -> "DistortionFunction":
        if not 0 < p <= 1:
            raise ValueError("power distortion requires 0 < p <= 1")
        return DistortionFunction(f"power_{p:g}", lambda t: t ** p)


_DISTORTIONS = {
    "identity": DistortionFunction.identity,
    "sqrt": DistortionFunction.sqrt,
}


def distortion_by_name(name: str, **params) -> DistortionFunction:
    if name == "power":
        return DistortionFunction.power(params.get("p", 0.5))
    try:
        return _DISTORTIONS[name]()
    except KeyError:
        raise ValueError(f"unknown distortion {name!r}") from None


def validate_distortion(gamma: DistortionFunction) -> None:
    """Check gamma(0)=0, gamma(1)=1, monotone and concave on
    ``DISTORTION_GRID`` equispaced points of [0, 1]."""
    if abs(gamma(0.0)) > EXACT_TOL:
        raise ValueError(f"distortion {gamma.name}: gamma(0) != 0")
    if abs(gamma(1.0) - 1.0) > EXACT_TOL:
        raise ValueError(f"distortion {gamma.name}: gamma(1) != 1")
    ts = np.linspace(0.0, 1.0, DISTORTION_GRID)
    vals = [gamma(float(t)) for t in ts]
    for i in range(1, DISTORTION_GRID):
        if vals[i] < vals[i - 1] - EXACT_TOL:
            raise ValueError(f"distortion {gamma.name}: not nondecreasing")
    for i in range(1, DISTORTION_GRID - 1):
        if vals[i] + EXACT_TOL < (vals[i - 1] + vals[i + 1]) / 2:
            raise ValueError(f"distortion {gamma.name}: not concave")


# ---------------------------------------------------------------------------
# constructors


def _weights_tails(weights: Sequence[float],
                   transform: Callable[[float], float] | None = None):
    """Suffix-sum tails for weight-based capacities (O(m) per call)."""

    def tails(order: Sequence[int]) -> list[float]:
        m = len(order)
        out = [0.0] * (m + 1)
        acc = 0.0
        for k in range(m - 1, -1, -1):
            acc += weights[order[k]]
            out[k] = acc
        if transform is not None:
            for k in range(m):
                out[k] = transform(out[k])
        return out

    return tails


def additive_capacity(weights: Sequence[float], name: str = "additive") -> DiscreteCapacity:
    """mu(A) = sum of weights over A (weights nonnegative, not necessarily normalized)."""
    w = [float(v) for v in weights]
    if any(v < 0 for v in w):
        raise ValueError("weights must be nonnegative")

    def rule(subset: frozenset) -> float:
        return math.fsum(w[i] for i in subset)

    total = math.fsum(w)
    return DiscreteCapacity(len(w), rule, normalized=abs(total - 1.0) < 1e-12,
                            name=name, tails_fn=_weights_tails(w))


def uniform_additive(size: int) -> DiscreteCapacity:
    return additive_capacity([1.0 / size] * size, name="uniform")


def distorted_probability(gamma: DistortionFunction,
                          weights: Sequence[float]) -> DiscreteCapacity:
    """mu(A) = gamma(sum of weights over A) for a probability vector."""
    w = [float(v) for v in weights]
    if any(v < 0 for v in w):
        raise ValueError("weights must be nonnegative")
    if abs(math.fsum(w) - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1")
    validate_distortion(gamma)

    def rule(subset: frozenset) -> float:
        if not subset:
            return 0.0
        return gamma(math.fsum(w[i] for i in subset))

    def transform(t: float) -> float:
        return gamma(t) if t > 0 else 0.0

    return DiscreteCapacity(len(w), rule, normalized=True,
                            name=f"distorted({gamma.name})",
                            tails_fn=_weights_tails(w, transform))


def counting_distortion(gamma: DistortionFunction, size: int) -> DiscreteCapacity:
    """mu(A) = gamma(|A| / size), e.g. sqrt(|A|/3) on three points."""
    return distorted_probability(gamma, [1.0 / size] * size)


def possibility_capacity(weights: Sequence[float]) -> DiscreteCapacity:
    """Max rule: mu(A) = max of weights over A; normalized when max weight is 1."""
    w = [float(v) for v in weights]
    if any(not 0 <= v <= 1 for v in w):
        raise ValueError("possibility weights must lie in [0, 1]")

    def rule(subset: frozenset) -> float:
        if not subset:
            return 0.0
        return max(w[i] for i in subset)

    return DiscreteCapacity(len(w), rule, normalized=abs(max(w) - 1.0) < 1e-12,
                            name="possibility")


def capacity_from_table(size: int, table: Sequence[float],
                        name: str = "table") -> DiscreteCapacity:
    """Capacity given explicitly as 2**size values indexed by subset bitmask."""
    if len(table) != 1 << size:
        raise ValueError("table must have 2**size entries")
    vals = [float(v) for v in table]

    def rule(subset: frozenset) -> float:
        return vals[_set_to_mask(subset)]

    total = vals[(1 << size) - 1]
    return DiscreteCapacity(size, rule, normalized=abs(total - 1.0) < 1e-12,
                            name=name)


def random_monotone_capacity(rng: np.random.Generator, size: int,
                             normalized: bool = True) -> DiscreteCapacity:
    """Random monotone capacity: uniform draws per subset, lifted to be
    monotone by taking the running max over sub-subsets, then scaled so
    mu(Omega) = 1 (when ``normalized``).  Reproducible under a fixed rng.
    """
    if size > TABLE_BOUND:
        raise CapabilityError("random capacity limited to the table bound")
    n_masks = 1 << size
    table = rng.uniform(0.0, 1.0, size=n_masks)
    table[0] = 0.0
    for i in range(size):
        bit = 1 << i
        for mask in range(n_masks):
            if mask & bit:
                prev = table[mask ^ bit]
                if prev > table[mask]:
                    table[mask] = prev
    if normalized:
        top = table[-1]
        if top <= 0:
            table[-1] = top = 1.0
        table = table / top
    return capacity_from_table(size, table.tolist(), name="random")
