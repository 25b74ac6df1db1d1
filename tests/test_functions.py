import math
from fractions import Fraction

import numpy as np
import pytest

from choquetkit import FunctionSpec, REGISTERED, function_spec

GRID = np.linspace(-2.0, 2.0, 401)
UNIT = np.linspace(0.0, 1.0, 401)
EPS = np.finfo(float).eps


def spec_instances():
    return [
        (function_spec("exp_neg", lam=1.5), GRID),
        (function_spec("const", c=2.0), GRID),
        (function_spec("e0"), GRID),
        (function_spec("e1"), UNIT),
        (function_spec("abs_dev", center=0.3), GRID),
        (function_spec("sqrt", shift=1.0), GRID),
        (function_spec("concave_quad"), UNIT),
        (function_spec("pw_linear", knots=[(0.0, 1.0), (0.4, 2.0), (1.0, 0.5)]),
         GRID),
    ]


def test_registry_names():
    assert REGISTERED == ("abs_dev", "concave_quad", "const", "e0", "e1",
                          "exp_neg", "pw_linear", "sqrt")
    with pytest.raises(ValueError):
        function_spec("fourier")


@pytest.mark.parametrize("spec,grid", spec_instances(),
                         ids=lambda s: s.name if isinstance(s, FunctionSpec) else None)
def test_monotone_metadata_consistent(spec, grid):
    vals = [spec(float(t)) for t in grid]
    if spec.monotone == "nondecreasing":
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    elif spec.monotone == "nonincreasing":
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("spec,grid", spec_instances(),
                         ids=lambda s: s.name if isinstance(s, FunctionSpec) else None)
def test_nonnegativity_metadata_consistent(spec, grid):
    if spec.nonneg_real_line:
        assert all(spec(float(t)) >= 0.0 for t in np.linspace(-50, 50, 301))


def test_concave_metadata_on_natural_domain():
    # midpoint test on the domain the metadata refers to
    for spec, grid in ((function_spec("concave_quad"), UNIT),
                       (function_spec("sqrt"), UNIT[1:]),):
        for a, b in zip(grid[:-2:10], grid[2::10]):
            mid = (a + b) / 2
            assert spec(float(mid)) >= (spec(float(a)) + spec(float(b))) / 2 - 1e-12


def test_pw_linear_shape():
    spec = function_spec("pw_linear", knots=[(0.0, 0.0), (1.0, 3.0)])
    assert spec.monotone == "nondecreasing"
    assert spec(-1.0) == 0.0     # constant extension
    assert spec(2.0) == 3.0
    assert spec(0.5) == pytest.approx(1.5)


@pytest.mark.parametrize("knots", [[(-2.5, 1.0), (0.0, 0.0)],
                                   [(-1.0, 2.0), (0.0, 0.0), (1.5, 3.0)],
                                   [(-0.3, 0.0), (0.7, 1e-3), (2.0, 5.0)]])
def test_pw_linear_relative_precision_next_to_a_zero_knot(knots):
    # the exact interpolant at the float t, against points that approach
    # each zero-valued knot from both sides down to a few ulp
    fn = function_spec("pw_linear", knots=knots).fn
    ts, vs = [Fraction(t) for t, _ in knots], [Fraction(v) for _, v in knots]

    def exact(t):
        if t <= ts[0] or t >= ts[-1]:
            return vs[0] if t <= ts[0] else vs[-1]
        j = max(i for i in range(len(ts) - 1) if ts[i] <= t)
        return vs[j] + (t - ts[j]) * (vs[j + 1] - vs[j]) / (ts[j + 1] - ts[j])

    zeros = [t for t, v in knots if v == 0.0]
    checked = 0
    for z in zeros:
        for k in range(1, 60):
            for side in (-1.0, 1.0):
                t = z + side * 2.0 ** -k * (1.0 + 0.3 * k / 60)
                want = exact(Fraction(t))
                if want == 0:
                    continue
                assert abs(Fraction(fn(t)) - want) <= 4 * EPS * abs(want), (t, fn(t))
                checked += 1
    assert checked >= 50


def test_pw_linear_validation():
    with pytest.raises(ValueError):
        function_spec("pw_linear", knots=[(0.0, 1.0)])
    with pytest.raises(ValueError):
        function_spec("pw_linear", knots=[(0.0, 1.0), (0.0, 2.0)])
    # a slope that overflows made fn infinite between the knots
    with pytest.raises(ValueError, match="finite slope"):
        function_spec("pw_linear", knots=[(0.0, 0.0), (2.2250738585e-313, 1.0)])


def test_exp_neg_validation():
    with pytest.raises(ValueError):
        function_spec("exp_neg", lam=-1.0)


def test_sqrt_support_edge():
    spec = function_spec("sqrt", shift=2.0)
    assert spec(-3.0) == 0.0
    assert spec(-2.0) == 0.0
    assert spec(2.0) == pytest.approx(2.0)
    assert math.isfinite(spec(1e9))


@pytest.mark.parametrize("name, params", [
    ("exp_neg", {"lam": math.nan}), ("exp_neg", {"scale": math.inf}),
    ("const", {"c": math.nan}), ("const", {"c": True}),
    ("abs_dev", {"center": None}), ("sqrt", {"shift": "x"}),
    ("sqrt", {"shift": math.nan}),
    ("pw_linear", {"knots": [(0.0, 1.0), (1.0, math.nan)]}),
])
def test_factories_reject_non_finite_parameters(name, params):
    with pytest.raises(ValueError, match="finite number"):
        function_spec(name, **params)


def test_factories_declare_the_exponential_record():
    # the real-line oracle's closed forms read (scale, lam) of
    # f = scale exp(-lam t), a constant at lam = 0, and never the name
    assert function_spec("exp_neg").exponential == (1.0, 1.0)
    assert function_spec("exp_neg", lam=2, scale=3).exponential == (3, 2)
    assert function_spec("const").exponential == (1.0, 0.0)
    assert function_spec("const", c=0.0).exponential == (0.0, 0.0)
    assert function_spec("e0").exponential == (1.0, 0.0)
    for name in ("e1", "abs_dev", "sqrt", "concave_quad"):
        assert function_spec(name).exponential is None
    assert function_spec("pw_linear", knots=[(0, 0), (1, 1)]).exponential is None


ARRAY_CASES = [
    ("exp_neg", {}), ("exp_neg", {"lam": 2, "scale": 3}),
    ("const", {"c": 2.0}), ("const", {"c": -3}), ("e0", {}),
    ("e1", {}),
    ("abs_dev", {}), ("abs_dev", {"center": 0.3}),
    ("sqrt", {}), ("sqrt", {"shift": 3}), ("sqrt", {"shift": -0.4}),
    ("concave_quad", {}),
    ("pw_linear", {"knots": [(-1, 1), (0, 2), (1, 0.5)]}),
    ("pw_linear", {"knots": [(0.0, 1.0), (0.4, 2.0), (1.0, 0.5)]}),
    ("pw_linear", {"knots": [(-1.0, 2.0), (0.0, 0.0), (4.0, 1.0), (1e6, -5.0)]}),
    # parameters at which the arithmetic overflows, which neither form reports
    ("exp_neg", {"lam": 1e308}), ("exp_neg", {"scale": 1e308}),
    ("sqrt", {"shift": 1e308}), ("abs_dev", {"center": -1e308}),
    ("pw_linear", {"knots": [(-1.5e308, 0.0), (1e308, 1.0)]}),
]
ARRAY_SPECS = [function_spec(name, **params) for name, params in ARRAY_CASES]


def _array_grid(spec):
    """±0.0, the family's breakpoints (sqrt's support edge -shift, every
    pw_linear knot) with their neighbouring floats and the midpoints between
    them (the nearer-knot tie), NaN, |t| up to 1e6, and the overflowing
    1e300, the largest float and inf, of both signs."""
    edges = np.array(spec.breakpoints, dtype=float)
    mids = (edges[1:] + edges[:-1]) / 2
    wide = np.concatenate([np.geomspace(1e-12, 1e6, 181),
                           [1e300, np.finfo(float).max, math.inf]])
    t = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, math.nan], np.linspace(-3.0, 3.0, 601), wide, -wide,
        edges, np.nextafter(edges, -math.inf), np.nextafter(edges, math.inf),
        mids, np.nextafter(mids, -math.inf), np.nextafter(mids, math.inf)])
    if spec.exponential is not None:   # math.exp raises OverflowError past exp(709)
        t = t[[not -spec.exponential[1] * u > 700.0 for u in t.tolist()]]
    return t


@pytest.mark.parametrize("spec", ARRAY_SPECS,
                         ids=[f"{name}{params}" for name, params in ARRAY_CASES])
def test_array_form_is_the_scalar_form_bit_for_bit(spec):
    t = _array_grid(spec)
    got = spec.fn.array(t)
    assert got.dtype == float and got.shape == t.shape
    want = [float.hex(float(spec.fn(u))) for u in t.tolist()]
    assert [float.hex(v) for v in got.tolist()] == want
    # a 2-D batch gives the 1-D values in its shape
    even = t.size // 2 * 2
    square = spec.fn.array(t[:even].reshape(2, -1))
    assert square.shape == (2, even // 2)
    assert [float.hex(v) for v in square.ravel().tolist()] == want[:even]


def test_every_registered_family_has_an_array_form():
    # e0 is const(1.0) under the name "const"
    assert {spec.name for spec in ARRAY_SPECS} == set(REGISTERED) - {"e0"}
    for name in REGISTERED:
        params = {"knots": [(0, 0), (1, 1)]} if name == "pw_linear" else {}
        assert callable(function_spec(name, **params).fn.array)


def test_every_registered_family_lists_breakpoints_and_the_root_finders_pieces():
    # the modulus reads every family's breakpoints; the real-line oracle
    # finds level sets from pieces on exactly the families it root-finds
    with_pieces = set()
    for name in REGISTERED:
        params = {"knots": [(0, 0), (0.5, 2), (1, 1)]} if name == "pw_linear" else {}
        spec = function_spec(name, **params)
        assert isinstance(spec.breakpoints, tuple)
        assert list(spec.breakpoints) == sorted(spec.breakpoints)
        if spec.pieces is not None:
            with_pieces.add(name)
    assert with_pieces == {"abs_dev", "sqrt", "pw_linear"}


def test_sqrt_array_form_keeps_the_branch_at_minus_zero_and_nan():
    # max(t, 0) would give sqrt(-0.0) = -0.0 and NaN; the branch gives 0.0
    t = np.array([-0.0, math.nan, -1.0, 4.0])
    assert [float.hex(v) for v in function_spec("sqrt").fn.array(t).tolist()] == [
        float.hex(0.0), float.hex(0.0), float.hex(0.0), float.hex(2.0)]
