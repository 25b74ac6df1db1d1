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
path so the two can verify each other.  Both ask the capacity in one
batch, through separate entry points: the sorted path reads the suffix
sets of one permutation from ``cap.tails``, the layer cake reads every
level set ``{X >= p}``, found by comparing the values with each level,
from ``cap.values``.  Each constructor writes mu in those two forms
alone, apart (the scalar evaluator is derived from ``values``, or is a
table lookup), so a fault in either shows as a disagreement of the engines.

``property_suite`` evaluates the same sorted tail-sum formula row-wise:
every trial's integrands are stacked into one matrix and integrated in a
few numpy calls against the capacity's bitmask table (its ``table``, or
one ``cap.values`` call on the rows of all ``2**size`` masks).  Only the
summation differs from ``choquet_integral`` (numpy's instead of
``fsum``); the layer-cake engine stays the independent check of both.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .capacity import EXACT_TOL, DiscreteCapacity, _exact_table, _square_witness

# membership-matrix entries per ``values`` call of the layer cake: one call
# up to m = 511, and a bounded matrix beyond
_LEVEL_ENTRIES = 1 << 18


def _require_finite(values: Sequence[float]) -> None:
    if not all(map(math.isfinite, values)):
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
    sit at attained values: on the cell between two consecutive distinct
    values ``q < p`` it is ``mu({X >= p})``.  Every level set ``{X >= p}``
    is a row of one membership matrix, built by one comparison, and their
    capacities come from one ``cap.values`` call (for m up to 511; beyond,
    one per block of rows), never from the sorted path's ``cap.tails``.
    The cells are summed one by one in ascending order, the positive part
    first; the negative part uses the signed correction
    ``mu({X >= alpha}) - mu(Omega)``.  Raises ``ValueError`` on a NaN or
    infinite value and ``OverflowError`` when finite values give a sum
    outside the float range, as :func:`choquet_integral` does.
    """
    m = cap.size
    if len(values) != m:
        raise ValueError("integrand length must match the ground set size")
    _require_finite(values)
    # every value and inf as a level, ascending: row j of the membership
    # matrix is {X >= p_j}, so row 0 is Omega and the last row, at inf, the
    # empty set; a tied level repeats the row before it and is skipped
    xs = np.array([*values, math.inf], dtype=float)
    levels = np.sort(xs)
    rows = max(1, _LEVEL_ENTRIES // m)
    mu: list[float] = []
    for r in range(0, m + 1, rows):
        mu += cap.values(xs[:m] >= levels[r:r + rows, None]).tolist()
    points = levels.tolist()
    total = 0.0
    prev = 0.0
    for j in range(bisect.bisect_right(points, 0.0), m):
        p = points[j]
        if p != prev:
            total += (p - prev) * mu[j]
            prev = p
    neg = bisect.bisect_left(points, 0.0)
    for j in range(neg):
        # the cell (p_j, p_j+1), cut at 0, where {X >= alpha} = {X >= p_j+1}
        p = points[j + 1]
        if p != points[j]:
            top = p if j + 1 < neg else 0.0
            total += (top - points[j]) * (mu[j + 1] - mu[0])
    if not math.isfinite(total):
        raise OverflowError("a weighted term exceeds the float range")
    return total


def choquet_variance(values: Sequence[float], cap: DiscreteCapacity) -> float:
    """Choquet integral of the squared deviation from the Choquet expectance."""
    mean = choquet_integral(values, cap)
    dev2 = [(v - mean) ** 2 for v in values]
    return choquet_integral(dev2, cap)


# ---------------------------------------------------------------------------
# randomized property suite


def _choquet_rows(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The sorted tail-sum formula on each row of ``rows`` against the
    capacity tabulated by bitmask in ``table``.

    A stable sort orders each row as ``choquet_integral`` does, the suffix
    sets are the running OR of the sorted elements' bits, and mu(empty) = 0
    by the same convention.  Raises ``OverflowError`` when a row's sum is
    not finite.
    """
    n, m = rows.shape
    # column-major: order[k] holds the index of every row's k-th smallest value
    order = np.ascontiguousarray(np.argsort(rows, axis=1, kind="stable").T)
    masks = 1 << order
    for k in range(m - 2, -1, -1):
        np.bitwise_or(masks[k], masks[k + 1], out=masks[k])
    tails = np.zeros((m + 1, n))
    tails[:m] = table[masks]
    # row i's terms go to row i of a C-contiguous (n, m) array: from m = 8
    # on numpy groups the sum of a contiguous row otherwise than that of a
    # column, and the row's grouping is the one the results keep
    terms = np.empty((n, m))
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(rows.take(order + np.arange(0, n * m, m)), tails[:-1] - tails[1:],
                    out=terms.T)
        out = terms.sum(axis=1)
    if not np.isfinite(out).all():
        raise OverflowError("a weighted term exceeds the float range")
    return out


@dataclass
class PropertySuiteReport:
    submodular: bool
    violations: list = field(default_factory=list)
    checked: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def _suite_draws(trials: int, m: int, seed: int):
    """Every trial's x, y in U(-3, 3)^m, a in U(0, 4) and c in U(-2, 2) from
    one draw: bit for bit the per-trial ``rng.uniform`` calls in that order,
    since ``uniform(low, high)`` is ``low + (high - low) * random()``."""
    u = np.random.default_rng(seed).random((trials, 2 * m + 2))
    return (-3.0 + 6.0 * u[:, :m], -3.0 + 6.0 * u[:, m:2 * m],
            4.0 * u[:, 2 * m], -2.0 + 4.0 * u[:, 2 * m + 1])


def property_suite(cap: DiscreteCapacity, trials: int = 1000,
                   seed: int = 0) -> PropertySuiteReport:
    """Randomized verification of the structural integral identities, each
    to ``EXACT_TOL``.

    Positive homogeneity, monotonicity, translation by constants and the
    dual identity must hold for every monotone capacity; subadditivity of
    the integral is checked whenever the capacity is submodular.
    Violations carry the offending inputs as witnesses.  The capacity is
    read as a bitmask table ``mu``: its own ``table``, or else one ``values``
    call on all ``2**size`` subsets, so at most ``EXHAUSTIVE_BOUND`` elements.
    Its dual's table is ``mu[-1] - mu[::-1]``, as ``capacity.dual`` builds it.
    """
    mu = _exact_table(cap)
    submodular = _square_witness(mu) is None
    x, y, a, c = _suite_draws(trials, cap.size, seed)
    bigger = x + np.abs(y)

    families = [x, a[:, None] * x, bigger, x + c[:, None], -x]
    if submodular:
        families += [x + y, y]
    ints = _choquet_rows(np.concatenate(families), mu).reshape(len(families), trials)
    ix, iax, ibig, ixc, ineg = ints[:5]
    idual = -_choquet_rows(x, mu[-1] - mu[::-1])
    shifted = ix + c * mu[-1]

    # each identity: its violation flags, then its witness columns
    checks = {
        "homogeneity": (np.abs(iax - a * ix) > EXACT_TOL, (a, x, iax, a * ix)),
        "monotonicity": (ix > ibig + EXACT_TOL, (x, bigger)),
        "translation": (np.abs(ixc - shifted) > EXACT_TOL, (c, x, ixc, shifted)),
        "dual": (np.abs(ineg - idual) > EXACT_TOL, (x, ineg, idual)),
    }
    if submodular:
        ixy, iy = ints[5:]
        checks["subadditivity"] = (ixy > ix + iy + EXACT_TOL, (x, y, ixy, ix + iy))

    rep = PropertySuiteReport(submodular=submodular)
    names = list(checks)
    flags = np.column_stack([checks[k][0] for k in names])
    for t, j in zip(*np.nonzero(flags)):  # trial by trial, in the order above
        rep.violations.append((names[j], *(w[t].tolist() for w in checks[names[j]][1])))
    rep.checked = {k: trials if k in checks else 0 for k in
                   ("homogeneity", "monotonicity", "translation", "dual", "subadditivity")}
    return rep
