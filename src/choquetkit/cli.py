"""Command-line driver.

Subcommands
-----------
integrate   one-shot Choquet integral (discrete or real-line), computed by
            two independent engines, with their difference
operator    error table for one operator over an (n, x) grid
verify      randomized property suites; exit code 1 on any violation
compare     classical vs Choquet operator side by side

Configuration is a single JSON document (``--config``); every field has a
default and individual flags override the file.  Exit codes: 0 success,
1 property violation, 2 configuration error, 3 numeric non-convergence or
float overflow.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import capacity as cap_mod
from .capacity import (DiscreteCapacity, check_properties, distortion_by_name,
                       dual, possibility_capacity, random_monotone_capacity)
from .continuous import (choquet_integral_real, choquet_integral_real_grid,
                         product_level_function)
from .discrete import (choquet_integral, choquet_integral_layer_cake,
                       property_suite)
from .errors import ConfigError, DivergenceError, QuadratureError
from .estimates import (ErrorTable, chebyshev_check, convergence_report, delta_rule,
                        format_float, modulus_of_continuity, quantitative_bound)
from .functions import FunctionSpec, function_spec
from .intervals import IntervalUnion
from .operators import (DEFAULT_PROFILE, MAX_BERNSTEIN_DEGREE, PerturbationProfile,
                        _nodes, bernstein_choquet, bernstein_choquet_capacity,
                        bernstein_classical, perturbation_gap, picard_choquet,
                        picard_classical, weierstrass_choquet)
from .realline import Kernel, RealCapacity

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# ---------------------------------------------------------------------------
# config assembly


# each subcommand's top-level config keys: its flags' dests (``--config``
# aside), then the keys only a config file sets
_CONFIG_KEYS = {
    "integrate": ("out", "mode", "capacity", "function", "kernel", "values"),
    "operator": ("out", "operator", "capacity", "function", "n_list", "x_grid",
                 "theta", "i0", "perturbation"),
    "compare": ("out", "pair", "capacity", "function", "n_list", "x_grid",
                "theta", "i0", "perturbation"),
    "verify": ("out", "seed", "suite", "trials", "inject_nonmonotone"),
}


def _load_config(args: argparse.Namespace) -> dict:
    """The ``--config`` document overridden by the flags given; each flag's
    ``dest`` is its config key and an absent flag leaves no attribute.  A
    key outside the subcommand's ``_CONFIG_KEYS`` is a config error."""
    flags = dict(vars(args))
    del flags["command"]
    path = flags.pop("config", None)
    cfg: dict = {}
    if path:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
    cfg.update(flags)
    return _object(cfg, f"{args.command} config", *_CONFIG_KEYS[args.command])


def _integer(raw) -> int:
    """``int(raw)``, except that a bool, a string or a number with a
    fractional part is a ``ValueError`` instead of a truncation or a parse."""
    if isinstance(raw, (bool, str)) or isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"not an integer: {raw!r}")
    return int(raw)


def _number(raw) -> float:
    """``float(raw)``, except that a bool or a string is a ``ValueError``
    instead of 0.0, 1.0 or a parse: a config number is a JSON number."""
    if isinstance(raw, (bool, str)):
        raise ValueError(f"not a number: {raw!r}")
    return float(raw)


def _parse_n_list(raw) -> list[int]:
    if raw is None:
        raw = [4, 8, 16, 32]
    integer = _integer
    if isinstance(raw, str):   # "2,4", whose parts are text
        raw, integer = [part for part in raw.split(",") if part], int
    try:
        ns = [integer(v) for v in raw]
    except (TypeError, ValueError):
        raise ConfigError(f"invalid n list: {raw!r}") from None
    if not ns or any(n <= 0 for n in ns):
        raise ConfigError("n list must be nonempty and positive")
    return ns


def _parse_x_grid(raw) -> np.ndarray:
    if raw is None:
        raw = {"min": 0.0, "max": 1.0, "count": 11}
    number, integer = _number, _integer
    if isinstance(raw, str):   # "min:max:count", whose parts are text
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError("xgrid must look like min:max:count")
        raw = {"min": parts[0], "max": parts[1], "count": parts[2]}
        number, integer = float, int
    _object(raw, "x grid", "min", "max", "count")
    try:
        lo, hi, count = number(raw["min"]), number(raw["max"]), integer(raw["count"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError(f"invalid x grid: {raw!r}") from None
    if count < 2:
        raise ConfigError("x grid needs at least 2 points")
    if not lo < hi:
        raise ConfigError("x grid needs min < max")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"x grid needs finite min, max and max - min, got {lo}, {hi}")
    if lo + 1.0 == lo or hi + 1.0 == hi:
        raise ConfigError(f"x grid needs points that x + 1 resolves, got {lo}, {hi}")
    return np.linspace(lo, hi, count)


def _object(raw, what: str, *keys: str) -> dict:
    """``raw`` if it is a JSON object with no key outside ``keys`` (when
    given; a misspelt key would leave its default in force), else a config
    error naming ``what`` and the keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object: {raw!r}")
    if keys and (unknown := [key for key in raw if key not in keys]):
        raise ConfigError(f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
                          f"known: {', '.join(keys)}")
    return raw


# the keys of a perturbation, in its own object or on a bernstein_perturbed
# capacity
_PROFILE_KEYS = ("theta", "i0")


def _parse_profile(raw: dict) -> PerturbationProfile:
    """The perturbation given by ``raw``'s ``theta`` and ``i0``; an absent
    key takes the default of :class:`PerturbationProfile`, any other key is
    a config error."""
    _object(raw, "perturbation", *_PROFILE_KEYS)
    try:
        theta = _number(raw.get("theta", DEFAULT_PROFILE.theta))
        i0 = _integer(raw.get("i0", DEFAULT_PROFILE.i0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid perturbation: {exc}") from exc
    try:
        return PerturbationProfile(i0=i0, theta=theta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_function(raw) -> FunctionSpec:
    if raw is None:
        raw = "exp_neg"
    if isinstance(raw, str):
        raw = {"name": raw}
    params = {k: v for k, v in _object(raw, "function").items() if k != "name"}
    try:
        return function_spec(raw["name"], **params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid function spec {raw!r}: {exc}") from exc


def _nonneg(spec: FunctionSpec) -> FunctionSpec:
    """``spec`` if it may meet a Choquet kernel operator (real-line engine)."""
    if not spec.nonneg_real_line:
        raise ConfigError(f"function {spec.name!r} is not nonnegative on the real line")
    return spec


def _parse_gamma(raw):
    if raw is None:
        raw = "sqrt"
    if isinstance(raw, str):
        raw = {"name": raw}
    raw = _object(raw, "distortion")
    try:
        return distortion_by_name(raw["name"], **{k: v for k, v in raw.items()
                                                  if k != "name"})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid distortion {raw!r}: {exc}") from exc


def _parse_kernel(raw, default_n=1.0) -> Kernel:
    raw = _object(raw or {}, "kernel", "family", "n", "x")
    try:
        return Kernel(raw.get("family", "laplace"), _number(raw.get("n", default_n)),
                      _number(raw.get("x", 0.0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# discrete capacity rule -> the keys it takes besides "kind" and "rule"
_DISCRETE_KEYS = {
    "additive": ("weights",),
    "possibility": ("weights",),
    "distorted_uniform": ("gamma", "size"),
    "bernstein_perturbed": ("n", "x") + _PROFILE_KEYS,
    "table": ("size", "values"),
}


def _parse_discrete_capacity(raw: dict) -> DiscreteCapacity:
    rule = raw.get("rule", "additive")
    if not isinstance(rule, str) or rule not in _DISCRETE_KEYS:
        raise ConfigError(f"unknown discrete capacity rule {rule!r}")
    _object(raw, f"{rule} capacity", "kind", "rule", *_DISCRETE_KEYS[rule])
    try:
        if rule == "additive":
            return cap_mod.additive_capacity([_number(w) for w in raw["weights"]])
        if rule == "possibility":
            return possibility_capacity([_number(w) for w in raw["weights"]])
        if rule == "distorted_uniform":
            return cap_mod.counting_distortion(_parse_gamma(raw.get("gamma")),
                                               _integer(raw["size"]))
        if rule == "bernstein_perturbed":
            return bernstein_choquet_capacity(
                _integer(raw["n"]), _number(raw["x"]),
                _parse_profile({k: raw[k] for k in _PROFILE_KEYS if k in raw}))
        if rule == "table":
            return cap_mod.capacity_from_table(_integer(raw["size"]),
                                               [_number(v) for v in raw["values"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid discrete capacity {raw!r}: {exc}") from exc


# the ``--capacity`` shorthands; any other string names a kind
_CAPACITY_SHORTHANDS = {
    "possibility": {"kind": "possibility"},
    "sqrt_lebesgue": {"kind": "distorted_lebesgue", "gamma": "sqrt"},
    "lebesgue": {"kind": "distorted_lebesgue", "gamma": "identity"},
}


def _real_capacity_factory(raw):
    """Returns kernel -> RealCapacity; possibility without an explicit kernel
    follows the operator's kernel (the capacity family mu_{n,x})."""
    if raw is None:
        raw = "possibility"
    if isinstance(raw, str):
        raw = _CAPACITY_SHORTHANDS.get(raw, {"kind": raw})
    kind = _object(raw, "real capacity").get("kind")
    if kind == "distorted_lebesgue":
        _object(raw, "distorted_lebesgue capacity", "kind", "gamma")
        mu = RealCapacity.distorted_lebesgue(_parse_gamma(raw.get("gamma")))
        return lambda kernel: mu
    if kind == "possibility":
        _object(raw, "possibility capacity", "kind", "kernel")
        if "kernel" in raw:
            mu = RealCapacity.possibility(_parse_kernel(raw["kernel"]))
            return lambda kernel: mu
        return lambda kernel: RealCapacity.possibility(
            Kernel.laplace(kernel.n, kernel.x))
    raise ConfigError(f"unknown real capacity spec {raw!r}")


@contextmanager
def _output(cfg: dict):
    """The output stream: the ``out`` file, or stdout for none or ``-``."""
    path = cfg.get("out")
    if path in (None, "-"):
        yield sys.stdout
        return
    try:
        stream = open(path, "w", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    with stream:
        yield stream


# ---------------------------------------------------------------------------
# integrate


def cmd_integrate(cfg: dict) -> int:
    mode = cfg.get("mode", "discrete")
    if mode == "discrete":
        raw_cap = cfg.get("capacity")
        if not isinstance(raw_cap, dict) or raw_cap.get("kind") != "discrete":
            raise ConfigError('discrete integrate needs capacity {"kind": "discrete", ...}')
        cap = _parse_discrete_capacity(raw_cap)
        values = cfg.get("values")
        if not isinstance(values, list) or len(values) != cap.size:
            raise ConfigError("values must list one number per ground element")
        try:
            values = [_number(v) for v in values]
        except (TypeError, ValueError):
            raise ConfigError(f"values must be numbers: {values!r}") from None
        try:
            primary = choquet_integral(values, cap)
            check = choquet_integral_layer_cake(values, cap)
        except ValueError as exc:  # a NaN or infinite value
            raise ConfigError(str(exc)) from exc
        except OverflowError as exc:  # finite values whose sum does not fit a float
            raise DivergenceError(f"discrete integral overflows: {exc}") from exc
        engines = ("sorted_tail_sum", "layer_cake_exact")
    elif mode == "real":
        factory = _real_capacity_factory(cfg.get("capacity"))
        kernel = _parse_kernel(cfg.get("kernel"), default_n=2.0)
        mu = factory(kernel)
        spec = _nonneg(_parse_function(cfg.get("function", "e0")))
        g = product_level_function(spec, kernel)
        primary = choquet_integral_real(g, mu)
        check = choquet_integral_real_grid(g, mu)
        engines = ("adaptive_levels", "tanh_sinh")
    else:
        raise ConfigError(f"unknown integrate mode {mode!r}")

    with _output(cfg) as stream:
        stream.write("mode,primary_engine,primary_value,check_engine,check_value,abs_difference\n")
        stream.write(",".join([mode, engines[0], format_float(primary),
                               engines[1], format_float(check),
                               format_float(abs(primary - check))]) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# operator / compare


@dataclass(frozen=True)
class _Setup:
    """The config fields an operator table reads."""

    spec: FunctionSpec
    n_list: list
    x_grid: np.ndarray
    profile: PerturbationProfile
    capacity: Callable[[Kernel], RealCapacity]
    window: tuple

    @staticmethod
    def parse(cfg: dict, names) -> _Setup:
        spec = _parse_function(cfg.get("function"))
        n_list = _parse_n_list(cfg.get("n_list"))
        x_grid = _parse_x_grid(cfg.get("x_grid"))
        # a top-level theta or i0 overrides the perturbation object's
        profile = _parse_profile({**_object(cfg.get("perturbation", {}), "perturbation"),
                                  **{k: cfg[k] for k in _PROFILE_KEYS if k in cfg}})
        capacity = _real_capacity_factory(cfg.get("capacity"))
        lo, hi = float(np.min(x_grid)), float(np.max(x_grid))
        bernstein = any(name.startswith("bernstein") for name in names)
        if bernstein and (lo < 0 or hi > 1):
            raise ConfigError("bernstein operators need an x grid inside [0, 1]")
        if bernstein and max(n_list) > MAX_BERNSTEIN_DEGREE:
            raise ConfigError(f"bernstein operators need n <= {MAX_BERNSTEIN_DEGREE}, past which "
                              f"C(n, n // 2) overflows a float, got n={max(n_list)}")
        # both Bernstein bounds read f(i0/n), a node of the ground set
        for n in n_list if bernstein else ():
            if "bernstein_choquet" in names and (n < 2 or profile.i0 > n):
                raise ConfigError(f"bernstein_choquet needs 2 <= n and i0 <= n, "
                                  f"got n={n}, i0={profile.i0}")
            if profile.i0 > n:
                raise ConfigError(f"bernstein needs i0 <= n, got n={n}, i0={profile.i0}")
        return _Setup(spec, n_list, x_grid, profile, capacity, (lo - 1.0, hi + 1.0))


def _bernstein_bound(setup: _Setup, n: int, x: float) -> float:
    """The perturbation band: the gap correction of
    :func:`bernstein_choquet_closedform` with the gap at its ceiling 2**-n."""
    nodes = _nodes(setup.spec, n)
    return abs(nodes[setup.profile.i0] - min(nodes)) * 2.0 ** -n


def _kernel_operator(op, kernel):
    """Table row of a Choquet kernel operator; the capacity follows its kernel.
    The bound takes its delta from the operator's own deviation integral
    ``op(|. - x|)(x)`` and its modulus over the setup's window."""

    def evaluate(setup: _Setup, n: int, x: float) -> float:
        return op(_nonneg(setup.spec), n, x, setup.capacity(kernel(n, x)))

    def bound(setup: _Setup, n: int, x: float) -> float:
        tn_phi = op(function_spec("abs_dev", center=x), n, x, setup.capacity(kernel(n, x)))
        delta = delta_rule(tn_phi, n)
        return quantitative_bound(tn_phi, delta,
                                  modulus_of_continuity(setup.spec, delta, setup.window))

    return evaluate, bound


_PICARD_CHOQUET = _kernel_operator(picard_choquet, Kernel.laplace)

# name -> (evaluate, bound), each called as f(setup, n, x); the classical
# Picard operator takes its bound from the Picard-Choquet deviation integral
OPERATORS = {
    "bernstein": (lambda s, n, x: bernstein_classical(s.spec.fn, n, x),
                  _bernstein_bound),
    "bernstein_choquet": (lambda s, n, x: bernstein_choquet(s.spec.fn, n, x, s.profile),
                          _bernstein_bound),
    "picard": (lambda s, n, x: picard_classical(s.spec, n, x),
               _PICARD_CHOQUET[1]),
    "picard_choquet": _PICARD_CHOQUET,
    "weierstrass_choquet": _kernel_operator(weierstrass_choquet, Kernel.gauss),
}
# compare pair -> (classical, Choquet) operator names
PAIRS = {"bernstein": ("bernstein", "bernstein_choquet"),
         "picard": ("picard", "picard_choquet")}


def _table(setup: _Setup, evaluate, bound=None) -> ErrorTable:
    """One operator's rows over the setup's (n, x) grid."""
    return convergence_report(partial(evaluate, setup), setup.spec.fn, setup.n_list,
                              setup.x_grid, bound and partial(bound, setup))


def cmd_operator(cfg: dict) -> int:
    name = cfg.get("operator", "bernstein_choquet")
    if name not in OPERATORS:
        raise ConfigError(f"unknown operator {name!r}; choose from {tuple(OPERATORS)}")
    table = _table(_Setup.parse(cfg, [name]), *OPERATORS[name])
    with _output(cfg) as stream:
        table.to_csv(stream)
    return EXIT_OK


def cmd_compare(cfg: dict) -> int:
    pair = cfg.get("pair", "bernstein")
    if pair not in PAIRS:
        raise ConfigError(f"compare pairs: {' | '.join(PAIRS)}")
    classical_name, choquet_name = PAIRS[pair]
    setup = _Setup.parse(cfg, PAIRS[pair])
    classical = _table(setup, OPERATORS[classical_name][0])
    choquet = _table(setup, *OPERATORS[choquet_name])
    with _output(cfg) as stream:
        stream.write("n,x,f,classical,choquet,err_classical,err_choquet,bound\n")
        for (n, x, value, fx, err, _), (_, _, c_value, _, c_err, bound) in zip(
                classical.rows, choquet.rows):
            stream.write(",".join([str(n)] + [format_float(v) for v in (
                x, fx, value, c_value, err, c_err, bound)]) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verify_capacity(rng: np.random.Generator, trials: int) -> list[str]:
    bad: list[str] = []
    for t in range(trials):
        size = int(rng.integers(2, 6))
        cap = random_monotone_capacity(rng, size)
        report = check_properties(cap)
        if not report.monotone:
            bad.append(f"trial {t}: generated capacity not monotone: {report.witnesses}")
        if abs(cap.value(())) > cap_mod.EXACT_TOL:
            bad.append(f"trial {t}: mu(empty) != 0")
        if report.submodular and not report.subadditive:
            bad.append(f"trial {t}: submodular without subadditive")
        # both tables are indexed by bitmask (bit i for element i)
        off = np.abs(dual(dual(cap)).table - cap.table) > cap_mod.EXACT_TOL
        if off.any():
            mask = int(np.argmax(off))
            bad.append(f"trial {t}: dual is not an involution on "
                       f"{[i for i in range(size) if mask >> i & 1]}")
        # possibility axiom on random interval unions
        kernel = Kernel.laplace(float(rng.uniform(0.5, 4.0)),
                                float(rng.uniform(-1.0, 1.0)))
        mu = RealCapacity.possibility(kernel)
        pts = np.sort(rng.uniform(-3.0, 3.0, size=6))
        a = IntervalUnion.from_pairs([(pts[0], pts[1]), (pts[2], pts[3])])
        b = IntervalUnion.from_pairs([(pts[4], pts[5])])
        if abs(mu.value(a.union(b)) - max(mu.value(a), mu.value(b))) > cap_mod.EXACT_TOL:
            bad.append(f"trial {t}: possibility max rule violated")
    return bad


def _verify_injected() -> list[str]:
    """Negative control: a non-monotone capacity the checks must catch."""
    report = check_properties(cap_mod.capacity_from_table(2, [0.0, 0.8, 0.2, 0.3]))
    if report.monotone:
        return []
    return [f"injected: capacity not monotone, witness {report.witnesses['monotone']}"]


def _verify_integral(rng: np.random.Generator, trials: int) -> list[str]:
    bad: list[str] = []
    for t in range(trials):
        size = int(rng.integers(2, 7))
        weights = rng.uniform(0.0, 1.0, size=size)
        additive = cap_mod.additive_capacity(weights.tolist())
        x = rng.uniform(-3.0, 3.0, size=size)
        exact = float(weights @ x)
        got = choquet_integral(x, additive)
        if abs(got - exact) > cap_mod.EXACT_TOL:
            bad.append(f"trial {t}: additive reduction off by {abs(got - exact):.2e}")

        cap = random_monotone_capacity(rng, size)
        y = rng.uniform(0.0, 4.0, size=size)
        a = choquet_integral(y, cap)
        b = choquet_integral_layer_cake(y, cap)
        if abs(a - b) > 1e-9:
            bad.append(f"trial {t}: layer cake mismatch {abs(a - b):.2e}")
    if trials:
        cap = random_monotone_capacity(rng, 5)
        rep = property_suite(cap, trials=min(trials, 200), seed=int(rng.integers(1 << 31)))
        for v in rep.violations:
            bad.append(f"property suite: {v[0]}")
    return bad


def _verify_chebyshev(rng: np.random.Generator, trials: int) -> list[str]:
    bad: list[str] = []
    for t in range(trials):
        size = int(rng.integers(2, 7))
        cap = random_monotone_capacity(rng, size)
        x = rng.uniform(-3.0, 3.0, size=size)
        r = float(rng.uniform(0.05, 3.0))
        res = chebyshev_check(x, cap, r)
        if not res.holds:
            bad.append(f"trial {t}: deviation inequality violated "
                       f"lhs={res.lhs:.6g} rhs={res.rhs:.6g}")
    return bad


def _verify_bounds(rng: np.random.Generator, trials: int) -> list[str]:
    bad: list[str] = []
    if trials == 0:
        return bad
    for n in (2, 4, 8, 16, 32):
        for x in np.linspace(0.0, 1.0, 101):
            gap = perturbation_gap(n, float(x))
            if not -1e-15 <= gap <= 2.0 ** -n + 1e-15:
                bad.append(f"band violated at n={n}, x={x:.3f}: gap={gap:.3e}")
    # Picard-Choquet is exact on exp_neg under the possibility capacity; under
    # sqrt-Lebesgue its error is 1.8e-3 to a tenth of the bound, so there a
    # bound column that collapsed toward 0 fails
    evaluate, bound = OPERATORS["picard_choquet"]
    for capacity in ("possibility", "sqrt_lebesgue"):
        setup = _Setup(function_spec("exp_neg"), [2, 4, 8], np.array([-1.0, 0.0, 1.5]),
                       DEFAULT_PROFILE, _real_capacity_factory(capacity), (-2.0, 3.0))
        unit = _table(replace(setup, spec=function_spec("e0")), evaluate)
        for (n, x, value, *_), (_, _, _, _, err, b) in zip(
                unit.rows, _table(setup, evaluate, bound).rows):
            if abs(value - 1.0) > 1e-9:
                bad.append(f"T_n(e0) != 1 at n={n}, x={x} ({capacity})")
            if err > b + 1e-6:
                bad.append(f"quantitative bound violated at n={n}, x={x} ({capacity})")
    return bad


SUITES = {"capacity": _verify_capacity, "integral": _verify_integral,
          "chebyshev": _verify_chebyshev, "bounds": _verify_bounds}


def _parse_count(cfg: dict, key: str, default: int) -> int:
    raw = cfg.get(key, default)
    try:
        value = _integer(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer: {raw!r}") from None
    if value < 0:
        raise ConfigError(f"{key} must be nonnegative")
    return value


def cmd_verify(cfg: dict) -> int:
    suite = cfg.get("suite", "capacity")
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {tuple(SUITES)}")
    trials = _parse_count(cfg, "trials", 200)
    rng = np.random.default_rng(_parse_count(cfg, "seed", 0))
    inject = cfg.get("inject_nonmonotone", False)
    if not isinstance(inject, bool):
        raise ConfigError(f"inject_nonmonotone must be true or false: {inject!r}")
    if inject and suite != "capacity":
        raise ConfigError(f"inject_nonmonotone runs with the capacity suite only, not {suite!r}")
    violations = SUITES[suite](rng, trials)
    if inject:
        violations += _verify_injected()

    with _output(cfg) as stream:
        for v in violations:
            stream.write(f"VIOLATION [{suite}] {v}\n")
        stream.write(f"suite={suite} trials={trials} violations={len(violations)}\n")
    return EXIT_VIOLATION if violations else EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choquetkit",
        description="Choquet integrals and Choquet-integral approximation operators")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output path (default stdout)")

    def add(name, **kw):
        # an absent flag leaves no attribute, so the config file keeps its key
        return sub.add_parser(name, argument_default=argparse.SUPPRESS, **kw)

    p = add("integrate", help="one-shot integral, two engines")
    common(p)
    p.add_argument("--mode", choices=("discrete", "real"))

    for name in ("operator", "compare"):
        p = add(name)
        common(p)
        if name == "operator":
            p.add_argument("--operator", choices=OPERATORS)
        else:
            p.add_argument("--pair", choices=PAIRS)
        p.add_argument("--capacity", help="capacity shorthand (possibility, sqrt_lebesgue, lebesgue)")
        p.add_argument("--function", help="function spec name")
        p.add_argument("--n", dest="n_list", metavar="N", help="comma-separated n values")
        p.add_argument("--xgrid", dest="x_grid", metavar="XGRID", help="min:max:count")
        p.add_argument("--theta", type=float, help="perturbation size in [0, 1]")
        p.add_argument("--i0", type=int, help="perturbed index")

    p = add("verify", help="randomized property suites")
    common(p)
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--suite", choices=SUITES)
    p.add_argument("--trials", type=int)
    p.add_argument("--inject-nonmonotone", action="store_true",
                   help="negative control: add a broken capacity to the capacity suite")

    return parser


COMMANDS = {"integrate": cmd_integrate, "operator": cmd_operator,
            "compare": cmd_compare, "verify": cmd_verify}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](_load_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, DivergenceError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
