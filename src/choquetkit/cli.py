"""Command-line interface: the subcommands ``integrate``, ``operator``,
``compare`` and ``verify``, each a ``cmd_*`` function.

Configuration is a single JSON document (``--config``) read through the
subcommand's schema (``_SCHEMAS``), which gives each key its JSON kinds,
parser, default and flag; a flag given overrides the file.  Exit codes:
0 success, 1 property violation, 2 configuration error, 3 numeric
non-convergence or float overflow.  ``main`` alone maps errors to codes: a
``ValueError``, the schema's ``ConfigError`` or a library rule's, exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import capacity as cap_mod
from .capacity import (DiscreteCapacity, check_properties, distortion_by_name,
                       dual, possibility_capacity, random_monotone_capacity)
from .continuous import (choquet_integral_real, choquet_integral_real_grid, kernel_moment,
                         product_level_function)
from .discrete import (choquet_integral, choquet_integral_layer_cake,
                       property_suite)
from .errors import ConfigError, DivergenceError, QuadratureError
from .estimates import (ErrorTable, chebyshev_check, convergence_report, delta_rule,
                        format_float, modulus_of_continuity, quantitative_bound)
from .functions import FunctionSpec, function_spec
from .operators import (DEFAULT_PROFILE, PerturbationProfile, bernstein_choquet,
                        bernstein_choquet_capacity, bernstein_classical, perturbation_band,
                        perturbation_gap, picard_choquet, picard_classical,
                        weierstrass_choquet)
from .realline import Kernel, RealCapacity

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# ---------------------------------------------------------------------------
# config schema


@dataclass(frozen=True)
class _Key:
    """One config key.  ``kinds``: the JSON values it takes, tried in order:
    ``float`` any number and ``int`` an integral one (a bool is neither),
    ``[float]`` or ``[int]`` a list of them, ``None`` null, which reads as
    the default.  ``parse`` turns the value into what the command reads.
    An absent key reads as ``default``; without one it stays None, and an
    absent ``_REQUIRED`` key is an error.  A top-level ``flag`` sets it."""

    kinds: tuple
    parse: Callable = lambda value: value
    default: object = None
    choices: object = None
    flag: str | None = None
    help: str = ""


_REQUIRED = object()
_KIND_NAMES = {str: "a string", dict: "a JSON object", float: "a number", int: "an integer",
               bool: "true or false", None: "null"}
_LIST_NAMES = {float: "numbers", int: "integers"}


def _as(kind, value):
    """``value`` as a JSON value of ``kind`` (see :class:`_Key`), else a
    ValueError, or an OverflowError for an integer past the float range."""
    if isinstance(kind, list) and isinstance(value, list):
        return [_as(kind[0], v) for v in value]
    if kind in (float, int) and type(value) in (int, float):   # a bool is no number
        if kind is float or type(value) is int or value.is_integer():
            return kind(value)
    elif type(value) is (kind or type(None)):
        return value
    raise ValueError(value)


def _read(raw, schema: dict, what: str) -> dict:
    """``raw`` read through ``schema``: each key at its parsed value.  A
    non-object, an unknown key (a misspelt one would leave its default in
    force), or a value of a kind or outside the choices its key takes is a
    config error naming ``what`` or the key."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object: {raw!r}")
    if unknown := [key for key in raw if key not in schema]:
        raise ConfigError(f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
                          f"known: {', '.join(schema)}")
    return {key: _value(raw, key, field, what) for key, field in schema.items()}


def _value(raw: dict, key: str, field: _Key, what: str):
    value = raw.get(key, field.default)
    if value is _REQUIRED:
        raise ConfigError(f"{what} needs {key!r}")
    if value is None and key not in raw:
        return None
    if value is None and None in field.kinds:
        value = field.default
    for kind in field.kinds:
        try:
            value = _as(kind, value)
            break
        except (ValueError, OverflowError):
            pass
    else:
        kinds = [_LIST_NAMES[k[0]] if isinstance(k, list) else _KIND_NAMES[k]
                 for k in field.kinds]
        raise ConfigError(f"{key} must be {' or '.join(kinds)} in the {what}: {value!r}")
    if field.choices is not None and value not in field.choices:
        raise ConfigError(f"unknown {key} {value!r}; choose from {', '.join(field.choices)}")
    try:
        return field.parse(value)
    except ConfigError:
        raise
    except ValueError as exc:   # a check worded after the key
        raise ConfigError(f"{key} {exc}") from None


def _nonnegative(value: int) -> int:
    if value < 0:
        raise ValueError("must be nonnegative")
    return value


def _n_list(raw) -> list[int]:
    if isinstance(raw, str):   # "2,4", whose parts are text
        try:
            raw = [int(part) for part in raw.split(",") if part]
        except ValueError:
            raise ConfigError(f"invalid n list: {raw!r}") from None
    if not raw or min(raw) <= 0:
        raise ConfigError("n list must be nonempty and positive")
    if max(raw) > sys.float_info.max:   # a kernel reads n as a float
        raise ConfigError(f"n_list entries must not exceed {sys.float_info.max!r}")
    return raw


def _required(kind) -> _Key:
    return _Key((kind,), default=_REQUIRED)


_X_GRID = {"min": _required(float), "max": _required(float), "count": _required(int)}


def _x_grid(raw) -> np.ndarray:
    if isinstance(raw, str):   # "min:max:count", whose parts are text
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError("xgrid must look like min:max:count")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"invalid x grid: {raw!r}") from None
    else:
        lo, hi, count = _read(raw, _X_GRID, "x grid").values()
    if count < 2:
        raise ConfigError("x grid needs at least 2 points")
    if not lo < hi:
        raise ConfigError("x grid needs min < max")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"x grid needs finite min, max and max - min, got {lo}, {hi}")
    if lo + 1.0 == lo or hi + 1.0 == hi:
        raise ConfigError(f"x grid needs points that x + 1 resolves, got {lo}, {hi}")
    try:
        return np.linspace(lo, hi, count)
    except (ValueError, OverflowError, MemoryError) as exc:
        raise ConfigError(f"x grid of {count} points: {exc}") from None


def _named(build: Callable, what: str) -> Callable:
    """The parser of a name or a ``{"name": ..., **params}`` object, built
    by ``build(name, **params)``."""

    def parse(raw):
        spec = {"name": raw} if isinstance(raw, str) else raw
        try:
            return build(spec["name"], **{k: v for k, v in spec.items() if k != "name"})
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid {what} {spec!r}: {exc}") from exc

    return parse


_function = _named(function_spec, "function spec")
_GAMMA = _Key((str, dict, None), _named(distortion_by_name, "distortion"), "sqrt")


def _kernel(n: float, default) -> _Key:
    """A kernel key whose ``n`` defaults to ``n``; null reads as ``{}``."""
    fields = {"family": _Key((str,), default="laplace"), "n": _Key((float,), default=n),
              "x": _Key((float,), default=0.0)}

    def parse(raw):
        cfg = _read(raw or {}, fields, "kernel")
        try:
            return Kernel(**cfg)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    return _Key((dict, None), parse, default)


def _fixed(mu: RealCapacity) -> Callable[[Kernel], RealCapacity]:
    return lambda kernel: mu


def _follow(kernel: Kernel) -> RealCapacity:
    """The possibility capacity that follows the operator's kernel (the
    capacity family mu_{n,x})."""
    return RealCapacity.possibility(Kernel.laplace(kernel.n, kernel.x))


# real capacity kind -> (its keys besides "kind", the constructor of kernel
# -> RealCapacity from their values)
_REAL_KINDS = {
    "distorted_lebesgue": ({"gamma": _GAMMA},
                           lambda gamma: _fixed(RealCapacity.distorted_lebesgue(gamma))),
    "possibility": ({"kernel": _kernel(1.0, None)}, lambda kernel: _follow if kernel is None
                    else _fixed(RealCapacity.possibility(kernel))),
}
# discrete capacity rule -> (its keys besides "kind" and "rule", the constructor
# of the capacity from their values, the size of its ground set from them)
_RULES = {
    "additive": ({"weights": _required([float])}, cap_mod.additive_capacity, len),
    "possibility": ({"weights": _required([float])}, possibility_capacity, len),
    "distorted_uniform": ({"gamma": _GAMMA, "size": _required(int)}, cap_mod.counting_distortion,
                          lambda gamma, size: size),
    "bernstein_perturbed": ({"n": _required(int), "x": _required(float),
                             "theta": _Key((float,), default=DEFAULT_PROFILE.theta),
                             "i0": _Key((int,), default=DEFAULT_PROFILE.i0)},
                            lambda n, x, theta, i0: bernstein_choquet_capacity(
                                n, x, PerturbationProfile(i0, theta)),
                            lambda n, *_: n + 1),
    "table": ({"size": _required(int), "values": _required([float])},
              cap_mod.capacity_from_table, lambda size, values: size),
}
_RULE = _Key((str,), default="additive", choices=_RULES)
# the ``--capacity`` shorthands; any other string names a kind
_CAPACITY_SHORTHANDS = {"possibility": {"kind": "possibility"},
                        "sqrt_lebesgue": {"kind": "distorted_lebesgue", "gamma": "sqrt"},
                        "lebesgue": {"kind": "distorted_lebesgue", "gamma": "identity"}}


def _capacity(raw, kinds: tuple, values: list | None = None):
    """A capacity of one of ``kinds``: a discrete one, which needs
    ``values``, one per element of its ground set (checked before the set
    is built), or a real one as kernel -> RealCapacity, which takes none."""
    if isinstance(raw, str):
        raw = _CAPACITY_SHORTHANDS.get(raw, {"kind": raw})
    kind = _value(raw, "kind", _Key((str,), default=_REQUIRED, choices=kinds), "capacity")
    tags = {"kind": _Key((str,))}
    if kind == "discrete":
        kind, tags["rule"] = _value(raw, "rule", _RULE, "discrete capacity"), _RULE
        fields, build, ground = _RULES[kind]
    else:
        (fields, build), ground = _REAL_KINDS[kind], None
    cfg = _read(raw, {**tags, **fields}, f"{kind} capacity")
    args = [cfg[key] for key in fields]
    if ground is None and values is not None:
        raise ConfigError(f"values go with a discrete capacity only, not a {kind} one")
    if ground is not None and (values is None or len(values) != ground(*args)):
        raise ConfigError(f"values must list one number per element of the {kind} "
                          f"capacity's ground set of {ground(*args)}")
    try:
        return build(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid capacity {raw!r}: {exc}") from exc


@contextmanager
def _output(path: str | None):
    """The output stream: the ``out`` file, or stdout for none or ``-``."""
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
    """One-shot integral by the two engines of the capacity's kind, with their difference."""
    values = cfg["values"]
    cap = _capacity(cfg["capacity"], (*_REAL_KINDS, "discrete"), values)
    if isinstance(cap, DiscreteCapacity):
        try:
            primary = choquet_integral(values, cap)
            check = choquet_integral_layer_cake(values, cap)
        except OverflowError as exc:  # finite values whose sum does not fit a float
            raise DivergenceError(f"discrete integral overflows: {exc}") from exc
        mode, engines = "discrete", ("sorted_tail_sum", "layer_cake_exact")
    else:
        mu = cap(cfg["kernel"])
        g = product_level_function(cfg["function"], cfg["kernel"])
        primary = choquet_integral_real(g, mu)
        check = choquet_integral_real_grid(g, mu)
        mode, engines = "real", ("adaptive_levels", "tanh_sinh")

    with _output(cfg["out"]) as stream:
        stream.write("mode,primary_engine,primary_value,check_engine,check_value,abs_difference\n")
        stream.write(",".join([mode, engines[0], format_float(primary), engines[1],
                               format_float(check), format_float(abs(primary - check))]) + "\n")
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
    def parse(cfg: dict) -> _Setup:
        """The setup of a read config; each operator checks its own domain."""
        x_grid, profile = cfg["x_grid"], PerturbationProfile(cfg["i0"], cfg["theta"])
        window = (float(np.min(x_grid)) - 1.0, float(np.max(x_grid)) + 1.0)
        return _Setup(cfg["function"], cfg["n_list"], x_grid, profile, cfg["capacity"], window)


def _band(setup: _Setup, n: int, x: float) -> float:
    return perturbation_band(setup.spec, n, setup.profile)


def _kernel_operator(op, kernel):
    """Table row of a Choquet kernel operator; the capacity follows its kernel.
    The bound takes its delta from the kernel moment ``T_n(|. - x|)(x)`` and
    its modulus over the setup's window."""

    def evaluate(setup: _Setup, n: int, x: float) -> float:
        return op(setup.spec, n, x, setup.capacity(kernel(n, x)))

    def bound(setup: _Setup, n: int, x: float) -> float:
        k = kernel(n, x)
        tn_phi = kernel_moment(k, setup.capacity(k))
        delta = delta_rule(tn_phi, n)
        return quantitative_bound(tn_phi, delta,
                                  modulus_of_continuity(setup.spec, delta, setup.window))

    return evaluate, bound


_PICARD_CHOQUET = _kernel_operator(picard_choquet, Kernel.laplace)

# name -> (evaluate, bound), each called as f(setup, n, x); the classical
# Picard operator takes its bound from the Picard-Choquet deviation integral
OPERATORS = {
    "bernstein": (lambda s, n, x: bernstein_classical(s.spec.fn, n, x), _band),
    "bernstein_choquet": (lambda s, n, x: bernstein_choquet(s.spec.fn, n, x, s.profile), _band),
    "picard": (lambda s, n, x: picard_classical(s.spec, n, x), _PICARD_CHOQUET[1]),
    "picard_choquet": _PICARD_CHOQUET,
    "weierstrass_choquet": _kernel_operator(weierstrass_choquet, Kernel.gauss),
}
# compare pair -> (classical, Choquet) operator names
PAIRS = {"bernstein": ("bernstein", "bernstein_choquet"),
         "picard": ("picard", "picard_choquet")}


def _table(setup: _Setup, evaluate, bound=None) -> ErrorTable:
    """One operator's rows over the setup's (n, x) grid; an (n, x) or i0
    outside the operator's domain raises its ``ValueError``."""
    return convergence_report(partial(evaluate, setup), setup.spec.fn, setup.n_list,
                              setup.x_grid, bound and partial(bound, setup))


def cmd_operator(cfg: dict) -> int:
    """Error table for one operator over an (n, x) grid."""
    table = _table(_Setup.parse(cfg), *OPERATORS[cfg["operator"]])
    with _output(cfg["out"]) as stream:
        table.to_csv(stream)
    return EXIT_OK


def cmd_compare(cfg: dict) -> int:
    """Classical vs Choquet operator side by side."""
    names = PAIRS[cfg["pair"]]   # (classical, Choquet)
    setup = _Setup.parse(cfg)
    classical = _table(setup, OPERATORS[names[0]][0])
    choquet = _table(setup, *OPERATORS[names[1]])
    with _output(cfg["out"]) as stream:
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
        if not report.monotone:   # mu(empty) != 0 included
            bad.append(f"trial {t}: generated capacity not monotone: {report.witnesses}")
        if report.submodular and not report.subadditive:
            bad.append(f"trial {t}: submodular without subadditive")
        # both tables are indexed by bitmask (bit i for element i)
        off = np.abs(dual(dual(cap)).table - cap.table) > cap_mod.EXACT_TOL
        if off.any():
            mask = int(np.argmax(off))
            bad.append(f"trial {t}: dual is not an involution on "
                       f"{[i for i in range(size) if mask >> i & 1]}")
        # possibility axiom on the columns A = [p0, p1] u [p2, p3], B = [p4, p5], A u B
        mu = RealCapacity.possibility(Kernel.laplace(float(rng.uniform(0.5, 4.0)),
                                                     float(rng.uniform(-1.0, 1.0))))
        pts = np.sort(rng.uniform(-3.0, 3.0, size=6))
        member = np.array([[True, False, True], [True, False, True], [False, True, True]])
        mu_a, mu_b, mu_ab = mu.values(np.where(member, pts[0::2, None], np.inf),
                                      np.where(member, pts[1::2, None], -np.inf))
        if abs(mu_ab - max(mu_a, mu_b)) > cap_mod.EXACT_TOL:
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
    # the band holds the Choquet operator's departure from the classical
    # polynomial at inner and end indices alike, on a function that falls
    # and then rises
    f = function_spec("abs_dev", center=0.5)
    for n in (2, 4, 8, 16, 32):
        profiles = [PerturbationProfile(i0) for i0 in sorted({0, 1, n // 2, n - 1, n})]
        bands = [perturbation_band(f, n, profile) for profile in profiles]
        for x in np.linspace(0.0, 1.0, 101).tolist():
            gap = perturbation_gap(n, x)
            if not -1e-15 <= gap <= 2.0 ** -n + 1e-15:
                bad.append(f"band violated at n={n}, x={x:.3f}: gap={gap:.3e}")
            classical = bernstein_classical(f, n, x)
            for profile, band in zip(profiles, bands):
                departure = abs(bernstein_choquet(f, n, x, profile) - classical)
                if departure > band + 1e-15:
                    bad.append(f"band violated at n={n}, i0={profile.i0}, x={x:.3f}: "
                               f"departure={departure:.3e} > band={band:.3e}")
    # Picard-Choquet is exact on exp_neg under the possibility capacity; under
    # sqrt-Lebesgue its error is 1.8e-3 to a tenth of the bound, so there a
    # bound column that collapsed toward 0 fails
    evaluate, bound = OPERATORS["picard_choquet"]
    for capacity in ("possibility", "sqrt_lebesgue"):
        cfg = _read({"capacity": capacity, "n_list": [2, 4, 8]}, _TABLE, "bounds suite")
        cfg["x_grid"] = np.array([-1.0, 0.0, 1.5])
        setup = _Setup.parse(cfg)
        unit = _table(_Setup.parse({**cfg, "function": function_spec("e0")}), evaluate)
        for (n, x, value, *_), (_, _, _, _, err, b) in zip(
                unit.rows, _table(setup, evaluate, bound).rows):
            if abs(value - 1.0) > 1e-9:
                bad.append(f"T_n(e0) != 1 at n={n}, x={x} ({capacity})")
            if err > b + 1e-6:
                bad.append(f"quantitative bound violated at n={n}, x={x} ({capacity})")
    return bad


SUITES = {"capacity": _verify_capacity, "integral": _verify_integral,
          "chebyshev": _verify_chebyshev, "bounds": _verify_bounds}


def cmd_verify(cfg: dict) -> int:
    """Randomized property suites; exit 1 on any violation."""
    suite, trials, inject = cfg["suite"], cfg["trials"], cfg["inject_nonmonotone"]
    if inject and suite != "capacity":
        raise ConfigError(f"inject_nonmonotone runs with the capacity suite only, not {suite!r}")
    violations = SUITES[suite](np.random.default_rng(cfg["seed"]), trials)
    if inject:
        violations += _verify_injected()

    with _output(cfg["out"]) as stream:
        for v in violations:
            stream.write(f"VIOLATION [{suite}] {v}\n")
        stream.write(f"suite={suite} trials={trials} violations={len(violations)}\n")
    return EXIT_VIOLATION if violations else EXIT_OK


# ---------------------------------------------------------------------------
# entry point


# each subcommand's top-level keys; a key with a flag is also that option
_OUT = _Key((str, None), flag="--out", help="output path; stdout if null or -")
_TABLE = {   # operator and compare
    "capacity": _Key((str, dict, None), partial(_capacity, kinds=tuple(_REAL_KINDS)),
                     "possibility", flag="--capacity",
                     help="capacity shorthand (possibility, sqrt_lebesgue, lebesgue) or kind"),
    "function": _Key((str, dict, None), _function, "exp_neg", flag="--function",
                     help="function spec name"),
    "n_list": _Key(([int], str, None), _n_list, [4, 8, 16, 32], flag="--n",
                   help="comma-separated n values"),
    "x_grid": _Key((dict, str, None), _x_grid, {"min": 0.0, "max": 1.0, "count": 11},
                   flag="--xgrid", help="min:max:count"),
    "theta": _Key((float,), default=DEFAULT_PROFILE.theta, flag="--theta",
                  help="perturbation size in [0, 1]"),
    "i0": _Key((int,), default=DEFAULT_PROFILE.i0, flag="--i0", help="perturbed index"),
}
_SCHEMAS = {
    "integrate": {
        "out": _OUT,
        "capacity": _Key((str, dict, None), default="possibility"),   # cmd_integrate reads it
        "function": _Key((str, dict, None), _function, "e0"),
        "kernel": _kernel(2.0, {}),
        "values": _Key(([float], None))},
    "operator": {"out": _OUT, "operator": _Key((str,), default="bernstein_choquet",
                                               choices=OPERATORS, flag="--operator"), **_TABLE},
    "compare": {"out": _OUT, "pair": _Key((str,), default="bernstein", choices=PAIRS,
                                          flag="--pair"), **_TABLE},
    "verify": {
        "out": _OUT,
        "seed": _Key((int,), _nonnegative, 0, flag="--seed", help="random seed"),
        "suite": _Key((str,), default="capacity", choices=SUITES, flag="--suite"),
        "trials": _Key((int,), _nonnegative, 200, flag="--trials", help="trials per suite"),
        "inject_nonmonotone": _Key((bool,), default=False, flag="--inject-nonmonotone", help=(
            "negative control: add a broken capacity to the capacity suite"))},
}


def _load_config(args: argparse.Namespace) -> dict:
    """The ``--config`` document overridden by the flags given, read
    through the subcommand's schema; an absent flag leaves no attribute."""
    flags = dict(vars(args))
    command, path = flags.pop("command"), flags.pop("config", None)
    cfg: dict = {}
    if path:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:   # bad JSON, or an integer of too many digits
            raise ConfigError(f"cannot read config: {exc}") from exc
    # a document that is no object is the reader's error, flags or none
    return _read({**cfg, **flags} if isinstance(cfg, dict) else cfg, _SCHEMAS[command],
                 f"{command} config")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choquetkit",
        description="Choquet integrals and Choquet-integral approximation operators")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        # an absent flag leaves no attribute, so the config file keeps its key
        p = sub.add_parser(command, help=COMMANDS[command].__doc__,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="JSON config file")
        for key, field in schema.items():
            kind = field.kinds[0]   # a flag's text reads as a number where the key takes one
            if field.flag:
                p.add_argument(field.flag, dest=key,
                               help=f"{field.help} (default: {json.dumps(field.default)})",
                               **({"action": "store_true"} if kind is bool else
                                  {"type": kind if kind in (int, float) else str,
                                   "choices": field.choices}))
    return parser


COMMANDS = {"integrate": cmd_integrate, "operator": cmd_operator,
            "compare": cmd_compare, "verify": cmd_verify}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](_load_config(args))
    except ValueError as exc:   # a ConfigError, or a library rule the config broke
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, DivergenceError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
