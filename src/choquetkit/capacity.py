"""Monotone set functions (capacities) on finite ground sets.

The ground set of size ``m`` is identified with the indices ``0..m-1``;
subsets are passed around as iterables of indices, as bitmasks (bit ``i``
for element ``i``) in tables, and as the rows of a boolean membership
matrix in ``DiscreteCapacity.values``.  Random capacities are tabulated
up to ``TABLE_BOUND`` elements, and a tabulated capacity keeps its table;
``check_properties`` decides every property exactly on a table, up to
``EXHAUSTIVE_BOUND`` elements.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import CapabilityError

TABLE_BOUND = 20
EXHAUSTIVE_BOUND = 14
EXACT_TOL = 1e-12
# sets A per block of the first slice of the submodularity check
_SQUARE_ROWS = 256
DISTORTION_GRID = 101
# bit i of a subset bitmask, for more elements than a table can have; a
# tabulated capacity's batched values read the first ``size`` of them
_BITS = 1 << np.arange(62, dtype=np.int64)


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
    suffix sets of a permutation in one pass (used by the sorted Choquet
    integral, where it saves rebuilding the nested subsets).
    ``values_fn``, when provided, evaluates it on every row of a boolean
    membership matrix in a few numpy calls (used by the layer cake and by
    the tabulation of the property checks); every constructor of this
    module supplies one, and :meth:`values` falls back to one
    ``evaluator`` call per row without it.  ``table``, set by
    ``capacity_from_table`` (and so by ``random_monotone_capacity`` and
    the ``dual`` of a tabulated capacity), is the read-only array of the
    ``2**size`` values indexed by subset bitmask; it is ``None`` for every
    other capacity and is left out of ``==``.
    """

    size: int
    evaluator: Callable[[frozenset], float]
    tails_fn: Optional[Callable[[Sequence[int]], list[float]]] = None
    values_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    table: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

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

    def values(self, members) -> np.ndarray:
        """mu of every row of the boolean membership matrix ``members`` of
        shape ``[k, size]``: row r holds the set {i : members[r, i]}."""
        members = np.asarray(members, dtype=bool)
        if members.ndim != 2 or members.shape[1] != self.size:
            raise ValueError(f"membership matrix must have shape [k, {self.size}], "
                             f"got {members.shape}")
        if self.values_fn is not None:
            return self.values_fn(members)
        return np.array([self.evaluator(frozenset(np.flatnonzero(row).tolist()))
                         for row in members], dtype=float)

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
    """Dual set function: A -> mu(Omega) - mu(Omega \\ A), tabulated when
    ``cap`` is."""
    if cap.table is not None:
        # the complement of mask k is full ^ k = full - k: the table reversed
        return capacity_from_table(cap.size, cap.table[-1] - cap.table[::-1])
    omega = frozenset(range(cap.size))
    total = cap.evaluator(omega)

    def rule(subset: frozenset) -> float:
        return total - cap.evaluator(omega - subset)

    def values(members: np.ndarray) -> np.ndarray:
        return total - cap.values(~members)

    return DiscreteCapacity(cap.size, rule, values_fn=values)


def _members(mask) -> tuple:
    mask = int(mask)
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _digit_masks(index, base: int, digits: int):
    """Subsets A, B of ``index`` read as one base-``base`` digit per element
    (digit bit 0: in A, bit 1: in B), for ints and integer arrays alike."""
    a = b = 0
    for e in range(digits):
        d = index % base
        index = index // base
        a, b = a | (d & 1) << e, b | (d >> 1) << e
    return a, b


def _tabulate(cap: DiscreteCapacity) -> np.ndarray:
    """mu on all ``2**size`` subsets, indexed by bitmask: the capacity's own
    table when it has one, else one ``values`` call on every mask's row."""
    if cap.table is not None:
        return cap.table
    return cap.values(np.arange(1 << cap.size)[:, None] & _BITS[:cap.size] != 0)


def _up(m: int) -> np.ndarray:
    """``up[A, j] = A+j``, which is A itself when j is in A: a check on such
    an entry compares a value with itself and cannot fire."""
    return np.arange(1 << m)[:, None] | _BITS[:m]


def _exact_table(cap: DiscreteCapacity) -> np.ndarray:
    """:func:`_tabulate`, for a ground set of at most ``EXHAUSTIVE_BOUND``
    elements."""
    if cap.size > EXHAUSTIVE_BOUND:
        raise CapabilityError(f"ground set of size {cap.size} exceeds the "
                              f"enumeration bound {EXHAUSTIVE_BOUND}")
    return _tabulate(cap)


def _square_witness(mu: np.ndarray) -> tuple | None:
    """The first local square ``(A+i, A+j)``, in (i, A, j) order, of the
    bitmask table ``mu`` with mu(A+i) + mu(A+j) < mu(A+i+j) + mu(A) -
    ``EXACT_TOL``, or None when mu is submodular.

    The slice i = 0 is tested ``_SQUARE_ROWS`` sets A at a time: a table
    that is not submodular mostly shows it there, so the first block
    usually ends the search, while a submodular table pays only the
    blocks' loop."""
    m = mu.size.bit_length() - 1
    up = _up(m)
    for i in range(m - 1):
        rows = _SQUARE_ROWS if i == 0 else mu.size
        for r in range(0, mu.size, rows):
            ai, aj = up[r:r + rows, i], up[r:r + rows, i + 1:]
            bad = (mu[ai[:, None] | aj] + mu[r:r + rows, None]
                   > mu[ai][:, None] + mu[aj] + EXACT_TOL)
            if bad.any():
                a, j = divmod(int(bad.argmax()), m - 1 - i)
                return _members(ai[a]), _members(aj[a, j])
    return None


def check_properties(cap: DiscreteCapacity) -> PropertyReport:
    """Decide monotone / subadditive / submodular / normalized exactly.

    Checks one table of mu over all ``2**size`` subsets, so at most
    ``EXHAUSTIVE_BOUND`` elements: every cover A -> A+i; every local square
    mu(A+i) + mu(A+j) >= mu(A+i+j) + mu(A), equivalent to submodularity; and,
    4096 at a time, every pair (A, B) for subadditivity, or only disjoint ones
    when monotone, as then mu(A|B) <= mu(A) + mu(B-A) <= mu(A) + mu(B).
    """
    m = cap.size
    mu = _exact_table(cap)
    up = _up(m)
    witnesses: dict = {}  # one per failed flag

    if not mu[0] <= EXACT_TOL:
        witnesses["monotone"] = ("mu(empty) != 0", float(mu[0]))
    elif (drop := mu[:, None] > mu[up] + EXACT_TOL).any():
        a, j = divmod(int(drop.argmax()), m)  # first in mask-then-element order
        witnesses["monotone"] = (_members(a), _members(up[a, j]))
    monotone = "monotone" not in witnesses

    if (square := _square_witness(mu)) is not None:
        witnesses["submodular"] = square

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


def _float_or_array(scalar: Callable, array: Callable) -> Callable:
    """One function that is ``scalar`` on a float and ``array`` on anything
    else, such as a numpy array: a float keeps the speed of ``math``."""
    return lambda t: scalar(t) if type(t) is float else array(t)


@dataclass(frozen=True)
class DistortionFunction:
    """Named nondecreasing concave distortion with gamma(0) = 0.

    ``fn`` is defined on [0, inf) and takes a float or a numpy array of
    them; the normalization gamma(1) = 1 matters only when distorting a
    probability vector, the real-line variants (e.g. sqrt of Lebesgue
    length) apply it to arbitrary lengths.
    """

    name: str
    fn: Callable

    def __call__(self, t):
        return self.fn(t)

    @staticmethod
    def identity() -> "DistortionFunction":
        return DistortionFunction("identity", lambda t: t)

    @staticmethod
    def sqrt() -> "DistortionFunction":
        return DistortionFunction("sqrt", _float_or_array(math.sqrt, np.sqrt))

    @staticmethod
    def power(p: float) -> "DistortionFunction":
        if isinstance(p, bool) or not isinstance(p, numbers.Real):
            raise ValueError(f"power distortion needs a number p, got {p!r}")
        if not 0 < p <= 1:
            raise ValueError("power distortion requires 0 < p <= 1")
        # float_power, unlike numpy's power, rounds as float ** does
        return DistortionFunction(f"power_{p:g}", _float_or_array(
            lambda t: t ** p, lambda t: np.float_power(t, p)))


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


def additive_capacity(weights: Sequence[float]) -> DiscreteCapacity:
    """mu(A) = sum of weights over A (weights nonnegative, not necessarily normalized)."""
    w = [float(v) for v in weights]
    if any(v < 0 for v in w):
        raise ValueError("weights must be nonnegative")

    arr = np.array(w)

    def rule(subset: frozenset) -> float:
        return math.fsum(w[i] for i in subset)

    def values(members: np.ndarray) -> np.ndarray:
        return members @ arr

    return DiscreteCapacity(len(w), rule, tails_fn=_weights_tails(w), values_fn=values)


def distorted_probability(gamma: DistortionFunction,
                          weights: Sequence[float]) -> DiscreteCapacity:
    """mu(A) = gamma(sum of weights over A) for a probability vector, and 0
    where that sum is 0 (the empty set, or a set of zero weights)."""
    w = [float(v) for v in weights]
    if any(v < 0 for v in w):
        raise ValueError("weights must be nonnegative")
    if abs(math.fsum(w) - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1")
    validate_distortion(gamma)

    def transform(t: float) -> float:
        return gamma(t) if t > 0 else 0.0

    def rule(subset: frozenset) -> float:
        # 0 wherever no weight is positive, the empty set included, as in
        # ``tails`` and ``values``: gamma(0) may be up to 1e-12 off 0
        return transform(math.fsum(w[i] for i in subset))

    arr = np.array(w)

    def values(members: np.ndarray) -> np.ndarray:
        # 0 where no weight is positive, as in ``transform``: exactly 0 for
        # the empty row, as in ``rule``
        t = members @ arr
        return np.where(t > 0, gamma(t), 0.0)

    return DiscreteCapacity(len(w), rule, tails_fn=_weights_tails(w, transform),
                            values_fn=values)


def counting_distortion(gamma: DistortionFunction, size: int) -> DiscreteCapacity:
    """mu(A) = gamma(|A| / size), e.g. sqrt(|A|/3) on three points."""
    if size < 1:
        raise ValueError("ground set must have at least one element")
    return distorted_probability(gamma, [1.0 / size] * size)


def possibility_capacity(weights: Sequence[float]) -> DiscreteCapacity:
    """Max rule: mu(A) = max of weights over A; normalized when max weight is 1."""
    w = [float(v) for v in weights]
    if any(not 0 <= v <= 1 for v in w):
        raise ValueError("possibility weights must lie in [0, 1]")

    arr = np.array(w)

    def rule(subset: frozenset) -> float:
        if not subset:
            return 0.0
        return max(w[i] for i in subset)

    def values(members: np.ndarray) -> np.ndarray:
        # the weights are nonnegative, so a 0 in place of a non-member
        # leaves a row's max as it is and gives 0 for the empty row
        return np.where(members, arr, 0.0).max(axis=1)

    return DiscreteCapacity(len(w), rule, values_fn=values)


def capacity_from_table(size: int, table: Sequence[float]) -> DiscreteCapacity:
    """Capacity given explicitly as 2**size values indexed by subset bitmask.

    The values are copied into the capacity's read-only ``table``; the
    suffix sets of the Choquet integral, and the rows of ``values``, are
    looked up by their bitmasks.
    """
    if len(table) != 1 << size:
        raise ValueError("table must have 2**size entries")
    arr = np.array(table if isinstance(table, np.ndarray) else [float(v) for v in table],
                   dtype=float)
    arr.flags.writeable = False
    # a view that reads each entry as a float: no copy of the 2**size values
    vals = memoryview(arr)

    def rule(subset: frozenset) -> float:
        return vals[_set_to_mask(subset)]

    def tails(order: Sequence[int]) -> list[float]:
        out = [0.0] * (len(order) + 1)
        mask = 0
        for k in range(len(order) - 1, -1, -1):
            mask |= 1 << order[k]
            out[k] = vals[mask]
        return out

    def values(members: np.ndarray) -> np.ndarray:
        return arr[members @ _BITS[:size]]

    return DiscreteCapacity(size, rule, tails_fn=tails, values_fn=values, table=arr)


def random_monotone_capacity(rng: np.random.Generator, size: int) -> DiscreteCapacity:
    """Random monotone capacity: uniform draws per subset, lifted to be
    monotone by taking the running max over sub-subsets, then scaled so
    mu(Omega) = 1.  Reproducible under a fixed rng.
    """
    if size > TABLE_BOUND:
        raise CapabilityError("random capacity limited to the table bound")
    table = rng.uniform(0.0, 1.0, size=1 << size)
    table[0] = 0.0
    for i in range(size):
        # rows [without bit i, with bit i]; the sources never change in a pass
        pairs = table.reshape(-1, 2, 1 << i)
        np.maximum(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
    top = table[-1]
    if top <= 0:
        table[-1] = top = 1.0
    return capacity_from_table(size, table / top)
