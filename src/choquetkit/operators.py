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
(:func:`bernstein_choquet_closedform`): it departs from the classical one
by at most :func:`perturbation_band`.

The kernel operators divide a real-line Choquet integral of
``f(t) * kernel(t)`` by the integral of the bare kernel.  At the deviation
``|t - x|`` from the kernel's centre they return
:func:`.continuous.kernel_moment`, which is a closed form for the
capacities the command line builds.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .capacity import DiscreteCapacity
from .continuous import (_centred_deviation, _gauss_kronrod, choquet_integral_real_grid,
                         kernel_moment, kernel_normalizer, product_level_function)
from .discrete import choquet_integral
from .functions import FunctionSpec
from .realline import Kernel, RealCapacity

PICARD_TAIL = 40.0

# C(1029, 514) is 1.43e308; C(1030, 515) exceeds the float range, so every
# basis row of a higher degree overflows converting it to float
MAX_BERNSTEIN_DEGREE = 1029

# A certified Bernstein number asks for one (n, x) basis row and one (f, n)
# node vector several times in a row (the value, its closed-form check, the
# classical baseline and the band); one entry each serves all of them and
# keeps no other row, so no later row and no benchmark round is served from
# an earlier one.  What a row needs of its degree alone is kept per degree,
# for the last _DEGREES degrees: the binomial factors with their exponents
# and the node abscissae i / n.  Those tables hold no x, no f and no value,
# only constants of n, so every row still builds each float of its own and
# the one-row policy stands; at n = 1029 a degree's table takes ~150 KB.
_BASIS_ROWS = 1
_DEGREES = 16


@functools.lru_cache(maxsize=_DEGREES)
def _degree(n: int) -> tuple[tuple[tuple[float, int, int], ...], tuple[float, ...]]:
    """The constants of a degree-n row: ``(C(n, i), i, n - i)`` and ``i / n``, i = 0..n.

    C(n, i) comes from the exact recurrence C(n, i + 1) = C(n, i) (n - i) / (i + 1)
    over half the row, mirrored: the ints of math.comb, one multiply and one
    exact division each.  It is kept as a float, rounded as ``int * float``
    rounds it, so a row built on these floats has the bits of one built on
    the ints.

    Every basis row and node vector reads its degree here, so this is the
    one degree check: ``ValueError`` for ``n < 1`` and for ``n`` above
    :data:`MAX_BERNSTEIN_DEGREE`, past which ``C(n, n // 2)`` overflows a float.
    """
    if n < 1:
        raise ValueError(f"Bernstein degree must be at least 1, got n={n}")
    if n > MAX_BERNSTEIN_DEGREE:
        raise ValueError(f"Bernstein degree must be at most {MAX_BERNSTEIN_DEGREE}, "
                         f"where C(n, n // 2) still fits a float, got n={n}")
    c = [1] * (n + 1)
    for i in range(n // 2):
        c[i + 1] = c[n - 1 - i] = c[i] * (n - i) // (i + 1)
    ks = list(range(n + 1))
    return (tuple(zip(map(float, c), ks, reversed(ks))),
            tuple([i / n for i in ks]))


@functools.lru_cache(maxsize=_BASIS_ROWS, typed=True)
def _basis_row(n: int, x: float, sign: float) -> tuple[float, ...]:
    # ``sign`` is copysign(1, x): it keys -0.0 apart from 0.0, whose rows
    # differ in the sign of their zeros.  ``typed`` gives an int or numpy x,
    # and a float n (which operator.index rejects), a key of their own.
    y = 1.0 - x
    return tuple([c * x ** i * y ** j for c, i, j in _degree(operator.index(n))[0]])


def _basis(n: int, x: float) -> tuple[float, ...]:
    """The checked, cached, read-only basis row of :func:`bernstein_basis_vector`."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"basis argument must lie in [0, 1], got x={x}")
    return _basis_row(n, x, math.copysign(1.0, x))


def bernstein_basis_vector(n: int, x: float) -> list[float]:
    """All n + 1 basis polynomials C(n, i) * x**i * (1 - x)**(n - i) at x.

    The row is built once per ``(n, x)`` and kept in a one-row cache; each
    call returns a fresh list, so changing it leaves the next call's row as
    it was.  Raises ``ValueError`` for ``n < 1``, for ``n`` above
    :data:`MAX_BERNSTEIN_DEGREE` (past it ``C(n, n // 2)`` overflows a
    float) and for ``x`` outside ``[0, 1]``.
    """
    return list(_basis(n, x))


@functools.lru_cache(maxsize=_BASIS_ROWS)
def _node_row(fn: Callable[[float], float], n: int) -> tuple[float, ...]:
    return tuple([fn(t) for t in _degree(operator.index(n))[1]])


def _nodes(f: Callable[[float], float], n: int) -> Sequence[float]:
    """The node values ``f(i / n)``, i = 0..n, of a Bernstein row.

    A registered family (a :class:`FunctionSpec` or its ``fn``, which
    carries an array form) is a pure function of ``t``, so its vector is
    kept in a one-entry cache keyed on ``(fn, n)`` under the policy of the
    basis row: the value, its closed-form check, the classical baseline and
    the band of one row share one build.  A bare callable is called once per
    node on every call, so a function with state sees every evaluation.

    The vector comes from the scalar form, not the array form: at the
    degrees of a table row numpy's fixed cost per call is more than the
    loop, which the cache runs once per row.
    """
    if isinstance(f, FunctionSpec):
        f = f.fn
    if hasattr(f, "array"):
        return _node_row(f, n)
    return _node_row.__wrapped__(f, n)


def bernstein_classical(f: Callable[[float], float], n: int, x: float) -> float:
    """B_n(f)(x) = sum of f(i/n) weighted by the basis.

    The node values come from :func:`_nodes`: shared per ``(f, n)`` for a
    registered family, one call per node for a bare callable.
    """
    p = _basis(n, x)   # before f: no node is computed for an x outside [0, 1]
    return math.fsum(map(operator.mul, _nodes(f, n), p))


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


def _outside(n: int, profile: PerturbationProfile) -> ValueError:
    """The error of an i0 outside the ground set {0, ..., n}."""
    return ValueError(f"perturbed index outside the ground set: needs i0 <= n, "
                      f"got n={n}, i0={profile.i0}")


def _gap(p: Sequence[float], profile: PerturbationProfile) -> float:
    i0 = profile.i0
    if i0 >= len(p):
        raise _outside(len(p) - 1, profile)
    return profile.theta * min(p[:i0] + p[i0 + 1:])


def perturbation_gap(n: int, x: float, profile: PerturbationProfile = DEFAULT_PROFILE) -> float:
    """The perturbed singleton mass minus its basis weight:
    theta * min over the other basis weights.

    Raises ``ValueError`` where :func:`bernstein_basis_vector` does and
    when ``profile.i0 > n`` puts the perturbed index outside the ground set.
    """
    return _gap(_basis(n, x), profile)


def _gap_ceiling(n: int, i0: int) -> float:
    """The largest gap over x in [0, 1] at theta = 1.

    For 0 < i0 < n the minimum takes in both end weights ``(1 - x)**n`` and
    ``x**n``, so it is at most 2**-n, reached at x = 1/2.  At i0 = 0 it runs
    over ``p_1 ... p_n``, whose least is ``p_1`` or ``p_n`` (a basis row is
    unimodal in i); it peaks where the two cross, at ``x = r / (1 + r)``
    with ``r = n**(1 / (n - 1))``, at ``(r / (1 + r))**n`` (4/9 at n = 2),
    and i0 = n is its mirror.  At n = 1 the one other weight, ``x`` or
    ``1 - x``, reaches 1.
    """
    if n == 1:
        return 1.0
    if 0 < i0 < n:
        return 2.0 ** -n
    r = n ** (1.0 / (n - 1))
    return (r / (1.0 + r)) ** n


def perturbation_band(f: Callable[[float], float], n: int,
                      profile: PerturbationProfile = DEFAULT_PROFILE) -> float:
    """``|f(i0/n) - min_i f(i/n)| * ceiling``, for every n >= 1 and i0 <= n:
    the gap correction of :func:`bernstein_choquet_closedform` with the gap
    at its largest over x.  The ceiling is 2**-n for 0 < i0 < n; at an end
    index i0 = 0 or n it is ``(r / (1 + r))**n`` with ``r = n**(1 / (n - 1))``
    (4/9 at n = 2, i0 = 0, x = 2/3), and 1 at n = 1."""
    nodes = _nodes(f, n)
    if profile.i0 > n:
        raise _outside(n, profile)
    return abs(nodes[profile.i0] - min(nodes)) * _gap_ceiling(n, profile.i0)


def _perturbed_basis(n: int, x: float, profile: PerturbationProfile) -> tuple:
    """The perturbed capacity's basis row and gap; it needs n >= 2."""
    if n < 2:
        raise ValueError(f"perturbed basis capacity needs n >= 2, got n={n}")
    p = _basis(n, x)
    return p, _gap(p, profile)


def bernstein_choquet_capacity(n: int, x: float,
                               profile: PerturbationProfile = DEFAULT_PROFILE
                               ) -> DiscreteCapacity:
    """Perturbed Bernstein-basis capacity on {0, ..., n}.

    Monotone, subadditive, normalized; additive exactly when theta = 0 or
    the perturbation gap vanishes (x in {0, 1}).
    """
    i0 = profile.i0
    p, gap = _perturbed_basis(n, x, profile)
    size = n + 1

    def tails(order: Sequence[int]) -> list[float]:
        out = [0.0] * (size + 1)
        pos = order.index(i0)
        acc = 0.0
        for k in range(size - 1, -1, -1):
            acc += p[order[k]]
            out[k] = acc + (gap if k <= pos else 0.0)
        out[0] = 1.0
        return out

    def values(members: np.ndarray) -> np.ndarray:
        # the basis becomes an array per call: building the capacity, once
        # per Bernstein-Choquet value, stays free of numpy work
        out = members @ np.array(p) + gap * members[:, i0]
        count = members.sum(axis=1)
        out[count == 0] = 0.0
        out[count == size] = 1.0
        return out

    return DiscreteCapacity(size, tails_fn=tails, values_fn=values)


def bernstein_choquet(f: Callable[[float], float], n: int, x: float,
                      profile: PerturbationProfile = DEFAULT_PROFILE) -> float:
    """Choquet integral of i -> f(i/n) against the perturbed basis capacity.

    Valid for arbitrary f; the sorting formula handles non-monotone values.
    The node values are shared per ``(f, n)`` for a registered family and
    computed afresh for a bare callable (:func:`_nodes`).
    """
    cap = bernstein_choquet_capacity(n, x, profile)
    return choquet_integral(_nodes(f, n), cap)


def bernstein_choquet_closedform(f: Callable[[float], float], n: int, x: float,
                                 profile: PerturbationProfile = DEFAULT_PROFILE) -> float:
    """The sorted integral in closed form, for any f: the classical
    polynomial plus one correction proportional to the perturbation gap,

        B_n(f)(x) + [f(i0/n) - min_i f(i/n)] * gap.

    Off the empty and the full set the capacity is ``P(A) + gap * [i0 in A]``,
    so in the sorted formula the gap terms telescope from the smallest node
    value up to ``f(i0/n)``.  The node values are shared per ``(f, n)`` for a
    registered family and computed afresh for a bare callable
    (:func:`_nodes`).
    """
    p, gap = _perturbed_basis(n, x, profile)
    values = _nodes(f, n)
    return (math.fsum(map(operator.mul, values, p))
            + (values[profile.i0] - min(values)) * gap)


# ---------------------------------------------------------------------------
# kernel operators


def _kernel_choquet(spec: FunctionSpec, kernel: Kernel, mu: RealCapacity) -> float:
    if _centred_deviation(spec, kernel):
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
    is below exp(-PICARD_TAIL)) and split at the kernel kink x and, for a
    :class:`FunctionSpec`, at its ``breakpoints``, since the Gauss-Kronrod
    error estimate can miss a kink inside a subinterval.  The pieces run on
    the batched G7-K15 rule of the real-line check engine, ungraded, with a
    registered family's array form on each batch of nodes and any other
    ``f`` called once per node.  ``n`` and ``x`` are checked as
    :class:`Kernel` parameters.

    A bare callable, like a spec with ``breakpoints = None``, gets no split
    at its kinks, so the result can miss ``QUAD_REL_TOL``: ``sqrt(t -
    0.4)`` at ``n = 4, x = 1`` comes out 2.8e-8 relative off through its
    ``fn`` and 2.1e-12 through its :class:`FunctionSpec`.  Pass the spec
    where there is one.
    """
    kernel = Kernel.laplace(n, x)
    r = PICARD_TAIL / n
    kinks = ()
    if isinstance(f, FunctionSpec):
        kinks = f.breakpoints or ()
        f = f.fn
    edges = sorted({x - r, x, x + r, *(k for k in kinks if abs(k - x) < r)})
    f_array = getattr(f, "array", None) or (
        lambda t: np.fromiter(map(f, t.tolist()), float, t.size))

    def integrand(t: np.ndarray) -> np.ndarray:
        return f_array(t) * kernel.values(t)

    total, _ = _gauss_kronrod(integrand, list(zip(edges, edges[1:])), graded=False)
    return n / 2.0 * total
