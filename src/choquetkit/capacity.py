"""Monotone set functions (capacities) on finite ground sets.

The ground set of size ``m`` is identified with the indices ``0..m-1``;
subsets are passed around as iterables of indices, and as bitmasks (bit
``i`` for element ``i``) in tables.  Random capacities are tabulated up to
``TABLE_BOUND`` elements; ``check_properties`` decides every property
exactly on a table, up to ``EXHAUSTIVE_BOUND`` elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import CapabilityError

TABLE_BOUND = 20
EXHAUSTIVE_BOUND = 14
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
    """Outcome of capacity verification, with a witness per failed flag.

    ``sampled`` is always ``False``: every check is exact.  The field stays
    because benchmark records read it.
    """

    monotone: bool
    subadditive: bool
    submodular: bool
    normalized: bool
    sampled: bool = False
    witnesses: dict = field(default_factory=dict)


def dual(cap: DiscreteCapacity) -> DiscreteCapacity:
    """Dual set function: A -> mu(Omega) - mu(Omega \\ A)."""
    omega = frozenset(range(cap.size))
    total = cap.evaluator(omega)

    def rule(subset: frozenset) -> float:
        return total - cap.evaluator(omega - subset)

    return DiscreteCapacity(cap.size, rule,
                            name=f"dual({cap.name})" if cap.name else "dual")


def _members(mask) -> tuple:
    return tuple(sorted(_mask_to_set(int(mask))))


def _digit_masks(index, base: int, digits: int):
    """Subsets A, B of ``index`` read as one base-``base`` digit per element
    (digit bit 0: in A, bit 1: in B), for ints and integer arrays alike."""
    a = b = 0
    for e in range(digits):
        d = index % base
        index = index // base
        a, b = a | (d & 1) << e, b | (d >> 1) << e
    return a, b


def check_properties(cap: DiscreteCapacity) -> PropertyReport:
    """Decide monotone / subadditive / submodular / normalized exactly.

    Checks one table of mu over all ``2**size`` subsets, so at most
    ``EXHAUSTIVE_BOUND`` elements: every cover A -> A+i; every local square
    mu(A+i) + mu(A+j) >= mu(A+i+j) + mu(A), equivalent to submodularity; and,
    4096 at a time, every pair (A, B) for subadditivity, or only disjoint ones
    when monotone, as then mu(A|B) <= mu(A) + mu(B-A) <= mu(A) + mu(B).
    """
    m = cap.size
    if m > EXHAUSTIVE_BOUND:
        raise CapabilityError(
            f"ground set of size {m} exceeds the enumeration bound {EXHAUSTIVE_BOUND}")
    mu = np.fromiter((cap.evaluator(_mask_to_set(k)) for k in range(1 << m)),
                     dtype=float, count=1 << m)
    # up[A, j] = A+j, which is A itself when j is in A: a check on such an
    # entry compares a value with itself and cannot fire
    up = np.arange(1 << m)[:, None] | 1 << np.arange(m)
    witnesses: dict = {}  # one per failed flag

    if not mu[0] <= EXACT_TOL:
        witnesses["monotone"] = ("mu(empty) != 0", float(mu[0]))
    elif (drop := mu[:, None] > mu[up] + EXACT_TOL).any():
        a, j = divmod(int(drop.argmax()), m)  # first in mask-then-element order
        witnesses["monotone"] = (_members(a), _members(up[a, j]))
    monotone = "monotone" not in witnesses

    for i in range(m - 1):
        ai, aj = up[:, i], up[:, i + 1:]
        bad = mu[ai[:, None] | aj] + mu[:, None] > mu[ai][:, None] + mu[aj] + EXACT_TOL
        if bad.any():
            a, j = divmod(int(bad.argmax()), m - 1 - i)
            witnesses["submodular"] = (_members(ai[a]), _members(aj[a, j]))
            break

    base = 3 if monotone else 4
    low = min(m, 7 if monotone else 6)  # base ** low <= 4096 pairs per chunk
    a_low, b_low = _digit_masks(np.arange(base ** low), base, low)
    for high in range(base ** (m - low)):
        a_high, b_high = _digit_masks(high, base, m - low)
        a, b = a_low | a_high << low, b_low | b_high << low
        bad = mu[a | b] > mu[a] + mu[b] + EXACT_TOL
        if bad.any():
            k = bad.argmax()
            witnesses["subadditive"] = (_members(a[k]), _members(b[k]))
            break

    return PropertyReport(monotone, "subadditive" not in witnesses,
                          "submodular" not in witnesses,
                          bool(abs(mu[-1] - 1.0) <= EXACT_TOL), witnesses=witnesses)


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

    return DiscreteCapacity(len(w), rule, name=name, tails_fn=_weights_tails(w))


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

    return DiscreteCapacity(len(w), rule, name=f"distorted({gamma.name})",
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

    return DiscreteCapacity(len(w), rule, name="possibility")


def capacity_from_table(size: int, table: Sequence[float],
                        name: str = "table") -> DiscreteCapacity:
    """Capacity given explicitly as 2**size values indexed by subset bitmask."""
    if len(table) != 1 << size:
        raise ValueError("table must have 2**size entries")
    vals = [float(v) for v in table]

    def rule(subset: frozenset) -> float:
        return vals[_set_to_mask(subset)]

    return DiscreteCapacity(size, rule, name=name)


def random_monotone_capacity(rng: np.random.Generator, size: int,
                             normalized: bool = True) -> DiscreteCapacity:
    """Random monotone capacity: uniform draws per subset, lifted to be
    monotone by taking the running max over sub-subsets, then scaled so
    mu(Omega) = 1 (when ``normalized``).  Reproducible under a fixed rng.
    """
    if size > TABLE_BOUND:
        raise CapabilityError("random capacity limited to the table bound")
    table = rng.uniform(0.0, 1.0, size=1 << size)
    table[0] = 0.0
    for i in range(size):
        # rows [without bit i, with bit i]; the sources never change in a pass
        pairs = table.reshape(-1, 2, 1 << i)
        np.maximum(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
    if normalized:
        top = table[-1]
        if top <= 0:
            table[-1] = top = 1.0
        table = table / top
    return capacity_from_table(size, table.tolist(), name="random")
