"""Approximation operators: classical Bernstein and Picard baselines and
their Choquet counterparts.

The Bernstein-Choquet operator integrates ``i -> f(i/n)`` against a
perturbed Bernstein-basis capacity: the singleton at one index ``i0``
carries extra mass ``theta * min of the other basis weights`` (the largest
perturbation that keeps the set function monotone), every other set gets
the plain basis sum, and the full ground set is pinned to 1.  With
``theta = 0`` the capacity is additive and the operator collapses to the
classical Bernstein polynomial.  For every f the operator is that
polynomial plus ``[f(i0/n) - min_i f(i/n)] * gap``
(:func:`bernstein_choquet_closedform`): it departs from the classical
one by at most ``2**-n`` times the spread of the node values.

The kernel operators divide a real-line Choquet integral of
``f(t) * kernel(t)`` by the integral of the bare kernel.  At the deviation
``|t - x|`` from the kernel's centre they return
:func:`.continuous.kernel_moment`, which is a closed form for the
capacities the command line builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .capacity import DiscreteCapacity
from .continuous import (choquet_integral_real_grid, integrate_adaptive,
                         kernel_moment, kernel_normalizer, product_level_function)
from .discrete import choquet_integral
from .functions import FunctionSpec
from .realline import Kernel, RealCapacity

PICARD_TAIL = 40.0


def bernstein_basis(n: int, i: int, x: float) -> float:
    """Basis polynomial C(n, i) * x**i * (1 - x)**(n - i)."""
    if not 0 <= i <= n:
        raise ValueError("basis index must satisfy 0 <= i <= n")
    if not 0.0 <= x <= 1.0:
        raise ValueError("basis argument must lie in [0, 1]")
    return math.comb(n, i) * x ** i * (1.0 - x) ** (n - i)


def bernstein_basis_vector(n: int, x: float) -> list[float]:
    return [bernstein_basis(n, i, x) for i in range(n + 1)]


def bernstein_classical(f: Callable[[float], float], n: int, x: float) -> float:
    """B_n(f)(x) = sum of f(i/n) weighted by the basis."""
    return math.fsum(f(i / n) * w for i, w in enumerate(bernstein_basis_vector(n, x)))


@dataclass(frozen=True)
class PerturbationProfile:
    """Position of the perturbed singleton and how far into the admissible
    band it sits (0 = additive lower edge, 1 = largest admissible value)."""

    i0: int = 1
    theta: float = 1.0

    def __post_init__(self):
        if self.i0 < 0:
            raise ValueError("perturbed index must be nonnegative")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")


DEFAULT_PROFILE = PerturbationProfile()


def _gap(p: Sequence[float], profile: PerturbationProfile) -> float:
    return profile.theta * min(v for i, v in enumerate(p) if i != profile.i0)


def perturbation_gap(n: int, x: float, profile: PerturbationProfile = DEFAULT_PROFILE) -> float:
    """The perturbed singleton mass minus its basis weight:
    theta * min over the other basis weights."""
    return _gap(bernstein_basis_vector(n, x), profile)


def bernstein_choquet_capacity(n: int, x: float,
                               profile: PerturbationProfile = DEFAULT_PROFILE
                               ) -> DiscreteCapacity:
    """Perturbed Bernstein-basis capacity on {0, ..., n}.

    Monotone, subadditive, normalized; additive exactly when theta = 0 or
    the perturbation gap vanishes (x in {0, 1}).
    """
    if n < 2:
        raise ValueError("perturbed basis capacity needs n >= 2")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    i0 = profile.i0
    if i0 > n:
        raise ValueError("perturbed index outside the ground set")
    p = bernstein_basis_vector(n, x)
    gap = _gap(p, profile)
    size = n + 1
    full = frozenset(range(size))

    def rule(subset: frozenset) -> float:
        if not subset:
            return 0.0
        if len(subset) == size:
            return 1.0
        total = math.fsum(p[i] for i in subset)
        if i0 in subset:
            total += gap
        return total

    def tails(order: Sequence[int]) -> list[float]:
        out = [0.0] * (size + 1)
        pos = order.index(i0)
        acc = 0.0
        for k in range(size - 1, -1, -1):
            acc += p[order[k]]
            out[k] = acc + (gap if k <= pos else 0.0)
        out[0] = 1.0
        return out

    return DiscreteCapacity(size, rule, tails_fn=tails)


def bernstein_choquet(f: Callable[[float], float], n: int, x: float,
                      profile: PerturbationProfile = DEFAULT_PROFILE) -> float:
    """Choquet integral of i -> f(i/n) against the perturbed basis capacity.

    Valid for arbitrary f; the sorting formula handles non-monotone values.
    """
    cap = bernstein_choquet_capacity(n, x, profile)
    return choquet_integral([f(i / n) for i in range(n + 1)], cap)


def bernstein_choquet_closedform(f: Callable[[float], float], n: int, x: float,
                                 profile: PerturbationProfile = DEFAULT_PROFILE) -> float:
    """The sorted integral in closed form, for any f: the classical
    polynomial plus one correction proportional to the perturbation gap,

        B_n(f)(x) + [f(i0/n) - min_i f(i/n)] * gap.

    Off the empty and the full set the capacity is ``P(A) + gap * [i0 in A]``,
    so in the sorted formula the gap terms telescope from the smallest node
    value up to ``f(i0/n)``.
    """
    if n < 2:
        raise ValueError("perturbed basis capacity needs n >= 2")
    if profile.i0 > n:
        raise ValueError("perturbed index outside the ground set")
    p = bernstein_basis_vector(n, x)
    values = [f(i / n) for i in range(n + 1)]
    return (math.fsum(v * w for v, w in zip(values, p))
            + (values[profile.i0] - min(values)) * _gap(p, profile))


# ---------------------------------------------------------------------------
# kernel operators


def _kernel_choquet(spec: FunctionSpec, kernel: Kernel, mu: RealCapacity) -> float:
    if spec.name == "abs_dev" and spec.param("center") == kernel.x:
        return kernel_moment(kernel, mu)
    g = product_level_function(spec, kernel)
    numerator = choquet_integral_real_grid(g, mu)
    return numerator / kernel_normalizer(kernel, mu)


def picard_choquet(spec: FunctionSpec, n: float, x: float, mu: RealCapacity) -> float:
    """Normalized Choquet integral of f against the two-sided exponential kernel."""
    return _kernel_choquet(spec, Kernel.laplace(n, x), mu)


def weierstrass_choquet(spec: FunctionSpec, n: float, x: float,
                        mu: RealCapacity) -> float:
    """Normalized Choquet integral of f against the Gaussian kernel."""
    return _kernel_choquet(spec, Kernel.gauss(n, x), mu)


def picard_classical(f: Callable[[float], float], n: float, x: float) -> float:
    """(n/2) * integral of f(t) exp(-n|t - x|) dt.

    The domain is truncated to |t - x| <= PICARD_TAIL/n (the discarded mass
    is below exp(-PICARD_TAIL)); the kernel kink at x splits the quadrature.
    """
    r = PICARD_TAIL / n

    def integrand(t: float) -> float:
        return f(t) * math.exp(-n * abs(t - x))

    left, _ = integrate_adaptive(integrand, x - r, x)
    right, _ = integrate_adaptive(integrand, x, x + r)
    return n / 2.0 * (left + right)
