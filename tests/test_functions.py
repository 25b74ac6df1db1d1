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


def test_factories_store_every_parameter():
    # the level-set and modulus code read these without defaults of their own
    assert function_spec("exp_neg").params == (("lam", 1.0), ("scale", 1.0))
    assert function_spec("const").params == (("c", 1.0),)
    assert function_spec("e0").params == (("c", 1.0),)
    assert function_spec("abs_dev").param("center") == 0.0
    assert function_spec("sqrt").param("shift") == 0.0
    with pytest.raises(KeyError):
        function_spec("e1").param("c")
