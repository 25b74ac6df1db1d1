"""Kernels and capacities on the real line.

Two capacity variants are supported on :class:`IntervalUnion` sets:

* distorted Lebesgue, ``mu(A) = gamma(length(A))`` with a concave
  nondecreasing distortion (the distortion acts on arbitrary lengths,
  not just [0, 1]);
* possibility, ``mu(A) = sup of a unimodal kernel over A``, which turns
  unions into maxima: ``mu(A | B) = max(mu(A), mu(B))``.

The kernels are the two convolution-type bumps the operators use,
``exp(-n |t - x|)`` and ``exp(-n (t - x)**2)``; both peak at ``x`` with
value 1, so their supremum over an interval is attained at the endpoint
nearest ``x`` (or is 1 when ``x`` lies inside).

A capacity is evaluated on N sets at once (:meth:`RealCapacity.values`),
each set a column of two endpoint arrays ``(lo, hi)`` of shape ``[pieces,
N]``: column ``i`` lists the pieces of set ``i``, pairwise disjoint except
at shared endpoints, and a piece with ``lo > hi`` is empty (stored as
``[inf, -inf]``, never NaN).  These sets are not canonicalised; the
batched level-set oracles of :mod:`.continuous` answer in this form.  The
capacity of one :class:`IntervalUnion` (:meth:`RealCapacity.value`) is the
column of its components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .capacity import DistortionFunction
from .intervals import IntervalUnion

LAPLACE = "laplace"
GAUSS = "gauss"


@dataclass(frozen=True)
class Kernel:
    family: str
    n: float
    x: float

    def __post_init__(self):
        if self.family not in (LAPLACE, GAUSS):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not (math.isfinite(self.n) and math.isfinite(self.x)):
            raise ValueError(f"kernel parameters must be finite, got n={self.n}, x={self.x}")
        if not self.n > 0:
            raise ValueError("kernel parameter n must be positive")
        # the level sets of a kernel product are resolved at the kernel's
        # scale around x, at least 1
        if self.x + max(1.0, 1.0 / self.n) == self.x:
            raise ValueError(f"kernel centre x={self.x} is too large to resolve "
                             f"at the kernel's scale (n={self.n})")

    @staticmethod
    def laplace(n: float, x: float) -> "Kernel":
        return Kernel(LAPLACE, float(n), float(x))

    @staticmethod
    def gauss(n: float, x: float) -> "Kernel":
        return Kernel(GAUSS, float(n), float(x))

    def __call__(self, t: float) -> float:
        if self.family == LAPLACE:
            return math.exp(-self.n * abs(t - self.x))
        return math.exp(-self.n * (t - self.x) ** 2)

    def values(self, ts: np.ndarray) -> np.ndarray:
        """The kernel at every point of an array."""
        if self.family == LAPLACE:
            return np.exp(-self.n * np.abs(ts - self.x))
        return np.exp(-self.n * (ts - self.x) ** 2)


@dataclass(frozen=True)
class RealCapacity:
    """Capacity on interval unions: distorted Lebesgue or possibility."""

    kind: str  # "distorted_lebesgue" | "possibility"
    gamma: DistortionFunction | None = None
    kernel: Kernel | None = None

    def __post_init__(self):
        needs = {"distorted_lebesgue": ("gamma", self.gamma),
                 "possibility": ("kernel", self.kernel)}
        if self.kind not in needs:
            raise ValueError(f"unknown capacity kind {self.kind!r}")
        part, given = needs[self.kind]
        if given is None:
            raise ValueError(f"a {self.kind} capacity needs a {part}")

    @staticmethod
    def distorted_lebesgue(gamma: DistortionFunction) -> "RealCapacity":
        return RealCapacity("distorted_lebesgue", gamma=gamma)

    @staticmethod
    def sqrt_lebesgue() -> "RealCapacity":
        return RealCapacity.distorted_lebesgue(DistortionFunction.sqrt())

    @staticmethod
    def lebesgue() -> "RealCapacity":
        return RealCapacity.distorted_lebesgue(DistortionFunction.identity())

    @staticmethod
    def possibility(kernel: Kernel) -> "RealCapacity":
        return RealCapacity("possibility", kernel=kernel)

    def value(self, A: IntervalUnion) -> float:
        """The capacity of ``A``: the column of :meth:`values` for its
        components."""
        ends = np.array(A.intervals, dtype=float).reshape(-1, 2)
        return float(self.values(ends[:, :1], ends[:, 1:])[0])

    def peak_level(self, g: Callable[[float], float]) -> float:
        """A level ``alpha`` with ``mu({g >= alpha}) = 1`` on every level
        set of a function ``g`` on the line at or below it.

        A possibility capacity's is ``g(peak)``: every such level set holds
        its kernel's peak, where the kernel is 1, so the layer cake below it
        is a rectangle.  A distorted Lebesgue capacity's is 0.  A NaN
        ``g(peak)`` raises :class:`ValueError`."""
        if self.kind != "possibility":
            return 0.0
        level = g(self.kernel.x)
        if math.isnan(level):
            raise ValueError(f"integrand is NaN at the capacity's peak x={self.kernel.x}")
        return level

    def values(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The capacity of N sets at once, each a column of the endpoint
        arrays ``(lo, hi)`` of shape ``[pieces, N]`` (see the module
        docstring).

        The pieces of one set must not overlap (touching is fine).  Neither
        the total length nor the supremum changes when touching pieces
        merge, so no canonicalisation is needed.  An empty set, with no
        piece or only empty ones, has length 0 and supremum 0, and
        ``gamma(0) = 0``, so it needs no case of its own.
        """
        present = lo <= hi
        if self.kind == "distorted_lebesgue":
            return self.gamma(np.where(present, hi - lo, 0.0).sum(axis=0))
        nearest = np.clip(self.kernel.x, np.where(present, lo, 0.0),
                          np.where(present, hi, 0.0))
        sups = np.where(present, self.kernel.values(nearest), 0.0)
        return sups.max(axis=0, initial=0.0)

