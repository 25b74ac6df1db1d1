import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from choquetkit import (IntervalUnion, Kernel, LevelSetFunction, RealCapacity,
                        capacity_from_table, cli, function_spec, picard_choquet)
from choquetkit.cli import main


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestIntegrate:
    def test_discrete_fixture(self, tmp_path):
        out = tmp_path / "out.csv"
        cfg = write_config(tmp_path, {
            "capacity": {"kind": "discrete", "rule": "distorted_uniform",
                         "gamma": "sqrt", "size": 3},
            "values": [1.0, 3.0, 2.0],
            "out": str(out),
        })
        assert main(["integrate", "--config", cfg]) == 0
        header, rows = read_rows(out)
        assert header[0] == "mode"
        value = float(rows[0][2])
        check = float(rows[0][4])
        diff = float(rows[0][5])
        assert value == pytest.approx(2.393846850117352, abs=1e-12)
        assert check == pytest.approx(value, abs=1e-9)
        assert diff <= 1e-9

    def test_real_sqrt_lebesgue(self, tmp_path):
        out = tmp_path / "out.csv"
        cfg = write_config(tmp_path, {
            "capacity": {"kind": "distorted_lebesgue", "gamma": "sqrt"},
            "kernel": {"family": "laplace", "n": 2, "x": 0.0},
            "out": str(out),
        })
        assert main(["integrate", "--config", cfg]) == 0
        _, rows = read_rows(out)
        assert float(rows[0][2]) == pytest.approx(math.sqrt(math.pi / 4), abs=1e-6)

    def test_real_default_engines_agree(self, tmp_path):
        # the default capacity, possibility, picks the real-line engines: the
        # bare Laplace kernel against its own possibility capacity is 1
        out = tmp_path / "out.csv"
        assert main(["integrate", "--out", str(out)]) == 0
        assert out.read_text() == (
            "mode,primary_engine,primary_value,check_engine,check_value,abs_difference\n"
            "real,adaptive_levels,1,tanh_sinh,1,0\n")

    def test_real_possibility_is_one(self, tmp_path):
        out = tmp_path / "out.csv"
        cfg = write_config(tmp_path, {
            "capacity": {"kind": "possibility",
                         "kernel": {"family": "laplace", "n": 2, "x": 0.0}},
            "kernel": {"family": "laplace", "n": 2, "x": 0.0},
            "out": str(out),
        })
        assert main(["integrate", "--config", cfg]) == 0
        _, rows = read_rows(out)
        assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("family", ["laplace", "gauss"])
    def test_real_exp_neg_far_left_of_the_kernel(self, capsys, tmp_path, family):
        # the integrand at the capacity's peak x = -800 is exp(800 - 1600)
        # against Laplace(2, 0) (less against Gauss), though exp(800) overflows
        cfg = write_config(tmp_path, {
            "function": "exp_neg",
            "kernel": {"family": family, "n": 2, "x": 0},
            "capacity": {"kind": "possibility", "kernel": {"family": family, "n": 1, "x": -800}}})
        assert main(["integrate", "--config", cfg]) == 0
        _, row = capsys.readouterr().out.splitlines()
        primary, check = float(row.split(",")[2]), float(row.split(",")[4])
        assert 0.0 <= primary == pytest.approx(check, rel=1e-8)

    def test_real_gauss_centred_deviation(self, tmp_path):
        # the check engine's first nodes round to the Lambert W branch point -1/e
        out = tmp_path / "out.csv"
        cfg = write_config(tmp_path, {
            "capacity": "possibility",
            "kernel": {"family": "gauss", "n": 2, "x": 0.3},
            "function": {"name": "abs_dev", "center": 0.3},
            "out": str(out),
        })
        assert main(["integrate", "--config", cfg]) == 0
        _, rows = read_rows(out)
        primary, check = float(rows[0][2]), float(rows[0][4])
        assert math.isfinite(check)
        assert check == pytest.approx(primary, rel=1e-6)

    def test_non_finite_kernel_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {
            "capacity": {"kind": "distorted_lebesgue", "gamma": "sqrt"},
            "kernel": {"family": "laplace", "n": float("inf"), "x": 0.0},
        })
        assert main(["integrate", "--config", cfg]) == 2

    @pytest.mark.parametrize("x", [1e200, 1e100])
    def test_unresolvable_kernel_centre_is_config_error(self, tmp_path, capsys, x):
        # x + 1 == x: the level sets of the product cannot be resolved there
        # (1e200 overflowed in a square, 1e100 ended in "does not decay")
        cfg = write_config(tmp_path, {"function": "sqrt",
                                      "kernel": {"family": "gauss", "n": 2, "x": x}})
        assert main(["integrate", "--config", cfg]) == 2
        assert "kernel centre" in capsys.readouterr().err

    def test_large_kernel_centre_still_integrates(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"function": "sqrt",
                                      "kernel": {"family": "gauss", "n": 2, "x": 1e15}})
        assert main(["integrate", "--config", cfg]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(float(row[4]), rel=1e-6)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, bad):
        out = tmp_path / "out.csv"
        cfg = write_config(tmp_path, {
            "capacity": {"kind": "discrete", "rule": "distorted_uniform",
                         "gamma": "sqrt", "size": 3},
            "values": [bad, 1.0, 2.0],
            "out": str(out),
        })
        assert main(["integrate", "--config", cfg]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_infinities_of_both_signs_are_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "capacity": {"kind": "discrete", "rule": "additive", "weights": [0.5, 0.5]},
            "values": [math.inf, -math.inf],
        })
        assert main(["integrate", "--config", cfg]) == 2
        assert capsys.readouterr().err == "config error: integrand values must be finite\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_is_config_error(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path, {
            "capacity": {"kind": "discrete", "rule": "additive", "weights": [bad, 1.0]},
            "values": [1.0, 2.0],
        })
        assert main(["integrate", "--config", cfg]) == 2
        assert "weights must be finite and nonnegative" in capsys.readouterr().err

    def test_infinite_level_set_is_numeric_error(self, tmp_path, capsys, monkeypatch):
        # a level oracle that gives the whole line deep in the tail, below
        # alpha = 1e-60, which the adaptive engine's first pass reaches
        def levels(alphas):
            whole = alphas < 1e-60
            return (np.where(whole, -np.inf, 0.0)[None, :],
                    np.where(whole, np.inf, 1.0)[None, :])

        unit = IntervalUnion.from_pairs([(0.0, 1.0)])
        g = LevelSetFunction(lambda t: 1.0, lambda a: unit, 1.0, levels)
        monkeypatch.setattr(cli, "product_level_function", lambda spec, kernel: g)
        cfg = write_config(tmp_path, {"capacity": "sqrt_lebesgue"})
        assert main(["integrate", "--config", cfg]) == 3
        assert capsys.readouterr().err.startswith("numeric error:")

    def test_grid_infinite_level_set_is_numeric_error(self, tmp_path, capsys,
                                                      monkeypatch):
        # the batched oracle gives the whole line below alpha = 1e-5; the
        # adaptive engine, which reads the same oracle, is stubbed out so
        # that the error comes from the tanh-sinh engine
        def levels(alphas):
            whole = alphas < 1e-5
            return (np.where(whole, -np.inf, 0.0)[None, :],
                    np.where(whole, np.inf, 1.0)[None, :])

        unit = IntervalUnion.from_pairs([(0.0, 1.0)])
        g = LevelSetFunction(lambda t: 1.0, lambda a: unit, 1.0, levels)
        monkeypatch.setattr(cli, "product_level_function", lambda spec, kernel: g)
        monkeypatch.setattr(cli, "choquet_integral_real", lambda g, mu: 1.0)
        cfg = write_config(tmp_path, {"capacity": "sqrt_lebesgue"})
        assert main(["integrate", "--config", cfg]) == 3
        assert capsys.readouterr().err.startswith("numeric error:")

    @pytest.mark.parametrize("function", [
        "e1", {"name": "const", "c": -1.0},
        {"name": "pw_linear", "knots": [[0.0, -1.0], [1.0, 1.0]]}])
    def test_real_negative_integrand_is_config_error(self, tmp_path, capsys,
                                                     function):
        cfg = write_config(tmp_path, {"function": function})
        assert main(["integrate", "--config", cfg]) == 2
        assert "not nonnegative" in capsys.readouterr().err

    def test_missing_values_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {
            "capacity": {"kind": "discrete", "rule": "additive",
                         "weights": [0.5, 0.5]},
        })
        assert main(["integrate", "--config", cfg]) == 2

    @pytest.mark.parametrize("values", [["a", 1.0], [None, 1.0]])
    def test_non_numeric_value_is_config_error(self, tmp_path, capsys, values):
        cfg = write_config(tmp_path, {
            "capacity": {"kind": "discrete", "rule": "additive",
                         "weights": [0.5, 0.5]},
            "values": values,
        })
        assert main(["integrate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: values must be numbers")

    def test_overflowing_sum_is_numeric_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "capacity": {"kind": "discrete", "rule": "additive", "weights": [1, 1]},
            "values": [1e308, 1e308],
        })
        assert main(["integrate", "--config", cfg]) == 3
        assert capsys.readouterr().err.startswith("numeric error:")

    @pytest.mark.parametrize("values", [[1e308, 1e308], [1e308, -1e308]])
    def test_overflowing_terms_are_numeric_error(self, tmp_path, capsys, values):
        # each weighted term is already outside the float range
        cfg = write_config(tmp_path, {
            "capacity": {"kind": "discrete", "rule": "additive", "weights": [2, 2]},
            "values": values,
        })
        assert main(["integrate", "--config", cfg]) == 3
        assert capsys.readouterr().err.startswith(
            "numeric error: discrete integral overflows")

    def test_power_distortion_from_gamma_config(self, tmp_path):
        # power 0.5 is the sqrt distortion of test_discrete_fixture
        out = tmp_path / "out.csv"
        cfg = write_config(tmp_path, {
            "capacity": {"kind": "discrete", "rule": "distorted_uniform",
                         "gamma": {"name": "power", "p": 0.5}, "size": 3},
            "values": [1.0, 3.0, 2.0],
            "out": str(out),
        })
        assert main(["integrate", "--config", cfg]) == 0
        _, rows = read_rows(out)
        assert float(rows[0][2]) == pytest.approx(2.393846850117352, abs=1e-12)

    @pytest.mark.parametrize("payload", [
        {"values": [1.0, 2.0],
         "capacity": {"kind": "discrete", "rule": "distorted_uniform",
                      "gamma": "cube", "size": 2}},
        {"capacity": {"kind": "distorted_lebesgue", "gamma": "cube"}}])
    def test_unknown_distortion_is_config_error(self, tmp_path, capsys, payload):
        assert main(["integrate", "--config", write_config(tmp_path, payload)]) == 2
        assert "unknown distortion 'cube'" in capsys.readouterr().err


class TestOperator:
    def test_table_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["operator", "--operator", "bernstein_choquet",
                "--function", "concave_quad", "--n", "4,8",
                "--xgrid", "0:1:5", "--theta", "1.0"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header, rows = read_rows(out1)
        assert header == ["n", "x", "operator_value", "f_x", "abs_error",
                          "bound_value"]
        assert len(rows) == 10

    @pytest.mark.parametrize("operator,center", [("bernstein", 0.0),
                                                 ("bernstein_choquet", 0.0),
                                                 ("bernstein_choquet", 0.5)])
    def test_bernstein_abs_dev_band_bound(self, tmp_path, capsys, operator, center):
        # abs_dev carries no monotone metadata, and about 0.5 it falls, then
        # rises: the band bound |f(i0/n) - min_i f(i/n)| * 2**-n holds all the same
        cfg = write_config(tmp_path, {"function": {"name": "abs_dev", "center": center}})
        assert main(["operator", "--operator", operator, "--config", cfg,
                     "--n", "2,8", "--xgrid=0:1:5"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 10
        f = function_spec("abs_dev", center=center).fn
        for row in rows:
            cols = dict(zip(header.split(","), map(float, row.split(","))))
            n = int(cols["n"])
            want = abs(f(1 / n) - min(f(i / n) for i in range(n + 1))) * 2.0 ** -n
            assert math.isfinite(cols["bound_value"])
            assert f"{cols['bound_value']:.15g}" == f"{want:.15g}"

    def test_picard_choquet_possibility_default(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["operator", "--operator", "picard_choquet",
                     "--function", "exp_neg", "--n", "4",
                     "--xgrid=-1:1:3", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        for row in rows:
            x, value = float(row[1]), float(row[2])
            assert value == pytest.approx(math.exp(-x), abs=1e-6)

    def test_weierstrass_constant(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["operator", "--operator", "weierstrass_choquet",
                     "--function", "e0", "--n", "3",
                     "--xgrid", "0:1:3", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        for row in rows:
            assert float(row[2]) == pytest.approx(1.0, abs=1e-6)

    def test_bernstein_needs_unit_grid(self, tmp_path):
        assert main(["operator", "--operator", "bernstein",
                     "--function", "e1", "--xgrid=-1:2:5"]) == 2

    def test_unknown_operator_in_config(self, tmp_path):
        cfg = write_config(tmp_path, {"operator": "fourier"})
        assert main(["operator", "--config", cfg]) == 2

    def test_bad_n_list(self, tmp_path):
        cfg = write_config(tmp_path, {"operator": "bernstein", "n_list": []})
        assert main(["operator", "--config", cfg]) == 2

    @pytest.mark.parametrize("operator", ["picard_choquet", "weierstrass_choquet"])
    @pytest.mark.parametrize("function", ["e1", "concave_quad"])
    def test_negative_integrand_is_config_error(self, tmp_path, capsys,
                                                operator, function):
        out = tmp_path / "o.csv"
        assert main(["operator", "--operator", operator, "--function", function,
                     "--n", "2", "--xgrid", "0:1:2", "--out", str(out)]) == 2
        assert "not nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_classical_picard_takes_signed_function(self, tmp_path):
        # only the deviation integral of the bound meets the Choquet engine
        out = tmp_path / "o.csv"
        assert main(["operator", "--operator", "picard", "--function", "e1",
                     "--n", "2,4", "--xgrid=-1:1:3", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        for row in rows:
            assert float(row[2]) == pytest.approx(float(row[1]), abs=1e-9)
            assert math.isfinite(float(row[5]))

    @pytest.mark.parametrize("argv", [["operator", "--n", "2"],
                                      ["compare", "--pair", "bernstein", "--n", "2"]])
    def test_out_in_missing_directory_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "nodir" / "x.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot write output")
        assert not out.parent.exists()

    def test_weierstrass_sqrt_lebesgue_bound_is_finite(self, capsys):
        # the Gauss deviation integral behind this bound column is finite
        assert main(["operator", "--operator", "weierstrass_choquet", "--function",
                     "exp_neg", "--capacity", "sqrt_lebesgue", "--n", "2",
                     "--xgrid=0:0.5:2"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        header = header.split(",")
        assert len(rows) == 2
        for row in rows:
            cols = dict(zip(header, map(float, row.split(","))))
            assert math.isfinite(cols["bound_value"])
            assert cols["bound_value"] >= cols["abs_error"]

    def test_picard_possibility_rows_at_a_large_centre(self, capsys):
        # the bound's deviation integral is the closed form (1 + e**-2)/(4n),
        # which no longer runs quadrature on level sets that carry ulp(1e12)
        assert main(["operator", "--operator", "picard_choquet", "--function", "sqrt",
                     "--n", "2", "--xgrid=1e12:1.0000001e12:2"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 2
        for row in rows:
            cols = dict(zip(header.split(","), map(float, row.split(","))))
            assert all(math.isfinite(v) for v in cols.values())
            assert cols["abs_error"] <= cols["bound_value"]

    def test_pw_linear_bound_uses_exact_modulus(self, tmp_path, capsys):
        # slope -1.5 is the steepest on the window (-2, 2), so with delta the
        # deviation integral T the bound is 2 * omega1(T) = 3 * T
        cfg = write_config(tmp_path, {"function": {
            "name": "pw_linear", "knots": [[-1.0, 1.0], [0.0, 2.0], [1.0, 0.5]]}})
        assert main(["operator", "--operator", "picard_choquet", "--config", cfg,
                     "--n", "4", "--xgrid=-1:1:3"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 3
        for row in rows:
            cols = dict(zip(header.split(","), map(float, row.split(","))))
            x = cols["x"]
            deviation = picard_choquet(function_spec("abs_dev", center=x), 4, x,
                                       RealCapacity.possibility(Kernel.laplace(4, x)))
            assert cols["bound_value"] == pytest.approx(3.0 * deviation, rel=1e-12)

    def test_concave_quad_bound_past_1_not_lowered(self, capsys):
        # on the window (-1, 2) the largest rise over a step T < 1 starts at
        # -1: omega1(T) = T(4 - T), so with delta = T the bound is 2T(4 - T);
        # the grid modulus printed the lower grid_bound values
        assert main(["operator", "--operator", "picard", "--function", "concave_quad",
                     "--n", "2,4", "--xgrid=0:1:3"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        grid_bound = {2: 1.093813875, 4: 0.5540595}
        assert len(rows) == 6
        for row in rows:
            cols = dict(zip(header.split(","), map(float, row.split(","))))
            n, x = int(cols["n"]), cols["x"]
            deviation = picard_choquet(function_spec("abs_dev", center=x), n, x,
                                       RealCapacity.possibility(Kernel.laplace(n, x)))
            assert cols["bound_value"] == pytest.approx(
                2.0 * deviation * (4.0 - deviation), rel=1e-12)
            assert cols["bound_value"] >= grid_bound[n]

    def test_quadrature_block_is_not_read(self, tmp_path, capsys):
        # the tolerances are module constants: a quadrature block, which no
        # longer sets them, is an unknown key rather than silently dropped
        args = ["operator", "--operator", "picard_choquet", "--function", "exp_neg",
                "--n", "2", "--xgrid=0:1:2"]
        cfg = write_config(tmp_path, {"quadrature": {"abs_tol": -1.0}})
        assert main(args + ["--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "unknown operator config key(s) 'quadrature'" in err

    @pytest.mark.parametrize("flags, reason", [
        (["--i0", "9", "--n", "2"], "perturbed index outside the ground set: needs i0 <= n, "
                                    "got n=2, i0=9"),
        (["--n", "1", "--xgrid", "0:1:2"], "perturbed basis capacity needs n >= 2, got n=1"),
    ], ids=["i0_above_n", "n_1"])
    def test_bernstein_choquet_ground_set_is_config_error(self, capsys, flags, reason):
        # the default operator's capacity needs 2 <= n and i0 <= n
        assert main(["operator"] + flags) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: {reason}\n"

    def test_bernstein_i0_above_n_is_config_error(self, capsys):
        # the bound column reads f(i0/n), a node of the ground set {0, ..., n}
        assert main(["operator", "--operator", "bernstein", "--function", "sqrt",
                     "--i0", "9", "--n", "2,16"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("config error: perturbed index outside the ground set: "
                       "needs i0 <= n, got n=2, i0=9\n")
        assert main(["operator", "--operator", "bernstein", "--function", "sqrt",
                     "--i0", "2", "--n", "1,2"]) == 2
        assert capsys.readouterr().err == ("config error: perturbed index outside the ground "
                                           "set: needs i0 <= n, got n=1, i0=2\n")

    def test_bernstein_degree_1_with_the_default_i0(self, capsys):
        # the default i0 = 1 keeps n = 1, which only the Choquet operator refuses
        assert main(["operator", "--operator", "bernstein", "--function", "sqrt",
                     "--n", "1", "--xgrid=0:1:2"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == "n,x,operator_value,f_x,abs_error,bound_value"
        # the band at n = 1: |f(1) - min(f(0), f(1))| / 2
        assert [row.split(",")[5] for row in rows] == ["0.5", "0.5"]

    @pytest.mark.parametrize("command", [
        ["operator", "--operator", "bernstein"],
        ["operator", "--operator", "bernstein_choquet"],
        ["compare", "--pair", "bernstein"],
    ], ids=["bernstein", "bernstein_choquet", "compare"])
    def test_bernstein_degree_past_the_float_range_is_config_error(self, capsys, command):
        # C(1030, 515) overflows a float, so no basis row of n >= 1030 exists
        assert main(command + ["--function", "sqrt", "--n", "4,1100",
                               "--xgrid=0:1:2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("config error: Bernstein degree must be at most 1029, where "
                       "C(n, n // 2) still fits a float, got n=1100\n")

    @pytest.mark.parametrize("command", [
        ["operator", "--operator", "bernstein"],
        ["operator", "--operator", "bernstein_choquet"],
        ["compare", "--pair", "bernstein"],
    ], ids=["bernstein", "bernstein_choquet", "compare"])
    @pytest.mark.parametrize("grid, x", [("-0.5:1:3", "-0.5"), ("0:1.5:3", "1.5")],
                             ids=["below_0", "above_1"])
    def test_bernstein_x_outside_the_unit_interval_is_config_error(self, capsys, command,
                                                                     grid, x):
        assert main(command + ["--function", "sqrt", "--n", "4", f"--xgrid={grid}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: basis argument must lie in [0, 1], got x={x}\n"

    @pytest.mark.parametrize("operator, grid", [
        ("picard", {"min": 0, "max": math.inf, "count": 3}),
        ("picard_choquet", "-1e308:1e308:3"),
    ], ids=["infinite_max", "infinite_span"])
    def test_x_grid_must_be_finite(self, tmp_path, capsys, operator, grid):
        cfg = write_config(tmp_path, {"operator": operator, "n_list": [2], "x_grid": grid})
        assert main(["operator", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: x grid needs finite min, max and max - min")

    def test_x_grid_must_resolve_unit_steps(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"operator": "weierstrass_choquet", "function": "sqrt",
                                      "n_list": [2], "x_grid": "1e200:2e200:2"})
        assert main(["operator", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: x grid needs points that x + 1")

    def test_divergent_product_is_numeric_error(self, tmp_path):
        cfg = write_config(tmp_path, {
            "operator": "picard_choquet",
            "function": {"name": "exp_neg", "lam": 6.0},
            "n_list": [2],
            "x_grid": {"min": 0.0, "max": 1.0, "count": 2},
        })
        assert main(["operator", "--config", cfg]) == 3


class TestCompare:
    def test_picard_pair_shows_exactness_gap(self, tmp_path):
        out = tmp_path / "c.csv"
        cfg = write_config(tmp_path, {
            "pair": "picard",
            "function": "exp_neg",
            "n_list": [2],
            "x_grid": {"min": 0.0, "max": 1.0, "count": 2},
            "out": str(out),
        })
        assert main(["compare", "--config", cfg]) == 0
        header, rows = read_rows(out)
        assert header == ["n", "x", "f", "classical", "choquet",
                          "err_classical", "err_choquet", "bound"]
        row0 = rows[0]
        x = float(row0[1])
        assert float(row0[3]) == pytest.approx(
            math.exp(-x) * 4.0 / 3.0, abs=1e-6)  # n^2/(n^2-1) at n=2
        assert float(row0[4]) == pytest.approx(math.exp(-x), abs=1e-6)
        assert float(row0[6]) <= 1e-6  # Choquet side is exact
        assert float(row0[5]) == pytest.approx(math.exp(-x) / 3.0, abs=1e-6)

    def test_picard_pair_negative_integrand_is_config_error(self, tmp_path, capsys):
        assert main(["compare", "--pair", "picard", "--function", "e1",
                     "--n", "2", "--xgrid", "0:1:2"]) == 2
        assert "not nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("pair, members, flags", [
        ("bernstein", ("bernstein", "bernstein_choquet"),
         ["--function", "sqrt", "--n", "3,6", "--xgrid", "0:1:5", "--theta", "0.5"]),
        ("picard", ("picard", "picard_choquet"),
         ["--function", "sqrt", "--capacity", "sqrt_lebesgue", "--n", "2,3",
          "--xgrid=-1:1:3"]),
    ])
    def test_columns_match_operator_tables(self, tmp_path, pair, members, flags):
        """compare's value and bound columns are the operator tables' cells,
        byte for byte, on the same grid."""
        out = tmp_path / "c.csv"
        assert main(["compare", "--pair", pair, "--out", str(out)] + flags) == 0
        header, rows = read_rows(out)
        col = {name: header.index(name) for name in ("classical", "choquet", "bound")}
        tables = {}
        for name in members:
            path = tmp_path / f"{name}.csv"
            assert main(["operator", "--operator", name, "--out", str(path)]
                        + flags) == 0
            tables[name] = read_rows(path)[1]
        classical, choquet = (tables[name] for name in members)
        assert len(rows) == len(classical) == len(choquet)
        for row, cl, ch in zip(rows, classical, choquet):
            assert row[:2] == cl[:2] == ch[:2]
            assert row[col["classical"]] == cl[2]
            assert row[col["choquet"]] == ch[2]
            assert row[col["bound"]] == ch[5]
        if pair == "picard":
            # classical Picard is bounded by the Picard-Choquet deviation integral
            assert [r[5] for r in classical] == [r[5] for r in choquet]

    def test_bernstein_pair_i0_above_n_is_config_error(self, capsys):
        assert main(["compare", "--pair", "bernstein", "--i0", "9", "--n", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("config error: perturbed index outside the ground set: "
                       "needs i0 <= n, got n=2, i0=9\n")

    def test_bernstein_pair(self, tmp_path):
        out = tmp_path / "cb.csv"
        assert main(["compare", "--pair", "bernstein", "--function", "sqrt",
                     "--n", "4,8", "--xgrid", "0:1:9", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        # the Choquet column improves on the classical one for concave f
        for row in rows:
            x = float(row[1])
            if 0.0 < x < 1.0:
                assert float(row[6]) < float(row[5])


GOLDEN = Path(__file__).parent / "data" / "golden"
GOLDEN_FUNCTIONS = {
    "sqrt": {"name": "sqrt"},
    "exp_neg": {"name": "exp_neg"},
    "pw_linear": {"name": "pw_linear", "knots": [[-1, 1], [0, 2], [1, 0.5]]},
    "sqrt3": {"name": "sqrt", "shift": 3},
}
# (command, stem, functions): the Bernstein tables and the classical Picard
# table on n = 4, 64 and eleven x in [0, 1]; the Choquet kernel tables, whose
# root-finding products run the Lambert (Laplace) and Newton (Gauss) lanes,
# and the Picard comparison on n = 2, 16 and six x in [-1, 1.5]
_UNIT_GRID = ["--n", "4,64", "--xgrid=0:1:11"]
_KERNEL_GRID = ["--n", "2,16", "--xgrid=-1:1.5:6"]
GOLDEN_TABLES = [(["operator", "--operator", op] + _UNIT_GRID, f"operator_{op}",
                  ("sqrt", "exp_neg", "pw_linear"))
                 for op in ("bernstein", "bernstein_choquet", "picard")]
GOLDEN_TABLES.append((["compare", "--pair", "bernstein"] + _UNIT_GRID, "compare_bernstein",
                      ("sqrt", "exp_neg", "pw_linear")))
GOLDEN_TABLES += [(["operator", "--operator", op, "--capacity", capacity] + _KERNEL_GRID,
                   f"operator_{op}_{capacity}", ("sqrt3", "pw_linear"))
                  for op in ("picard_choquet", "weierstrass_choquet")
                  for capacity in ("sqrt_lebesgue", "possibility")]
GOLDEN_TABLES.append((["compare", "--pair", "picard"] + _KERNEL_GRID, "compare_picard",
                      ("sqrt", "sqrt3")))
GOLDEN_CASES = [(command, stem, function) for command, stem, functions in GOLDEN_TABLES
                for function in functions]


@pytest.mark.parametrize("command, stem, function", GOLDEN_CASES,
                         ids=[f"{stem}-{function}" for _, stem, function in GOLDEN_CASES])
def test_tables_match_their_golden_csv_byte_for_byte(tmp_path, command, stem, function):
    # every table of GOLDEN_TABLES pinned to its bytes; regenerate a file
    # only for a change that is meant to move these values
    cfg = write_config(tmp_path, {"function": GOLDEN_FUNCTIONS[function]})
    out = tmp_path / "out.csv"
    assert main(command + ["--config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{stem}_{function}.csv").read_bytes()


class TestVerify:
    @pytest.mark.parametrize("suite", ["capacity", "integral", "chebyshev",
                                       "bounds"])
    def test_suites_pass(self, suite):
        assert main(["verify", "--suite", suite, "--trials", "40",
                     "--seed", "1"]) == 0

    def test_zero_trials(self):
        assert main(["verify", "--suite", "capacity", "--trials", "0"]) == 0

    def test_injected_nonmonotone_fails(self, capsys):
        code = main(["verify", "--suite", "capacity", "--trials", "5",
                     "--inject-nonmonotone"])
        assert code == 1
        assert "witness" in capsys.readouterr().out

    @pytest.mark.parametrize("inject", ["false", "true", 0, 1])
    def test_inject_nonmonotone_must_be_boolean(self, tmp_path, capsys, inject):
        cfg = write_config(tmp_path, {"inject_nonmonotone": inject})
        assert main(["verify", "--config", cfg, "--trials", "1"]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: inject_nonmonotone must be true or false")

    @pytest.mark.parametrize("suite", ["integral", "chebyshev", "bounds"])
    def test_inject_nonmonotone_needs_the_capacity_suite(self, tmp_path, capsys, suite):
        # the control adds a broken capacity to the capacity checks; another
        # suite would report a pass with the control never run
        assert main(["verify", "--suite", suite, "--trials", "2",
                     "--inject-nonmonotone"]) == 2
        cfg = write_config(tmp_path, {"suite": suite, "inject_nonmonotone": True})
        assert main(["verify", "--config", cfg, "--trials", "2"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith(
            "config error: inject_nonmonotone runs with the capacity suite only")
            for line in err)

    @pytest.mark.parametrize("inject, code", [(False, 0), (True, 1)])
    def test_inject_nonmonotone_from_config(self, tmp_path, inject, code):
        cfg = write_config(tmp_path, {"inject_nonmonotone": inject})
        assert main(["verify", "--config", cfg, "--trials", "1"]) == code

    def test_capacity_suite_catches_a_dual_that_is_no_involution(self, monkeypatch, capsys):
        # negative control: a "dual" that raises mu on the masks 3 = {0, 1}
        # and 6 = {1, 2}; the witness is the first mask that differs
        def broken(cap):
            bump = np.isin(np.arange(1 << cap.size), [3, 6]) * 0.25
            return capacity_from_table(cap.size, cap.table + bump)

        monkeypatch.setattr(cli, "dual", broken)
        assert main(["verify", "--suite", "capacity", "--trials", "3"]) == 1
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if "dual" in line] == [
            f"VIOLATION [capacity] trial {t}: dual is not an involution on [0, 1]"
            for t in range(3)]

    def test_negative_trials_rejected(self):
        assert main(["verify", "--suite", "capacity", "--trials", "-3"]) == 2

    def test_bounds_suite_reads_the_operator_table(self, monkeypatch, capsys):
        # negative control: a broken bound column in the table must be caught.
        # Picard-Choquet is exact on exp_neg under the possibility capacity
        # (errors below 3e-15), so only a bound below -1e-6 can fail there
        evaluate, _ = cli.OPERATORS["picard_choquet"]
        monkeypatch.setitem(cli.OPERATORS, "picard_choquet", (evaluate, lambda s, n, x: -1.0))
        assert main(["verify", "--suite", "bounds", "--trials", "1"]) == 1
        assert "quantitative bound violated at n=2, x=-1.0" in capsys.readouterr().out

    def test_bounds_suite_catches_a_zero_bound(self, monkeypatch, capsys):
        # under sqrt-Lebesgue the operator errs by 1.8e-3 or more on every
        # row, so a bound column that collapsed to 0 fails there, and only there
        evaluate, _ = cli.OPERATORS["picard_choquet"]
        monkeypatch.setitem(cli.OPERATORS, "picard_choquet", (evaluate, lambda s, n, x: 0.0))
        assert main(["verify", "--suite", "bounds", "--trials", "1"]) == 1
        out = capsys.readouterr().out
        assert out.count("quantitative bound violated") == 9
        assert out.count("(sqrt_lebesgue)") == 9
        assert "suite=bounds trials=1 violations=9\n" in out

    @pytest.mark.parametrize("flags, code", [(["--suite", "bounds"], 0),
                                             (["--inject-nonmonotone"], 1)])
    def test_out_writes_what_stdout_shows(self, tmp_path, capsys, flags, code):
        args = ["verify", "--trials", "3", "--seed", "2"] + flags
        out = tmp_path / "v.txt"
        assert main(args) == code
        shown = capsys.readouterr().out
        assert main(args + ["--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == shown.encode()

    def test_negative_seed_rejected(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "config error: seed must be nonnegative\n"

    @pytest.mark.parametrize("payload", [{"trials": "abc"}, {"seed": "x"},
                                         {"trials": 2.5}, {"seed": True},
                                         {"trials": "3"}])
    def test_non_integer_config_rejected(self, tmp_path, capsys, payload):
        cfg = write_config(tmp_path, payload)
        assert main(["verify", "--config", cfg]) == 2
        key = next(iter(payload))
        assert capsys.readouterr().err.startswith(f"config error: {key} must be an integer")


@pytest.mark.parametrize("command, payload", [
    ("integrate", {"kernel": "laplace"}),
    ("operator", {"capacity": ["x"]}),
    ("operator", {"function": 3}),
    ("operator", {"capacity": {"kind": "possibility", "kernel": "laplace"}}),
    ("operator", {"capacity": {"kind": "distorted_lebesgue", "gamma": 3}}),
    ("operator", {"i0": "x"}),
    ("operator", {"function": {"name": "pw_linear", "knots": [1, 2]}}),
    ("operator", {"function": {"name": "pw_linear", "knots": [[0, 1, 2], [1, 0, 3]]}}),
    ("operator", {"function": {"name": "pw_linear", "knots": 3}}),
    ("operator", {"theta": "abc"}),
    ("operator", {"function": {"name": "sqrt", "shift": math.nan}}),
    ("operator", {"function": {"name": "const", "c": math.nan}}),
    ("operator", {"function": {"name": "sqrt", "shift": "x"}}),
    ("operator", {"function": {"name": "abs_dev", "center": None}}),
    ("operator", {"function": {"name": "exp_neg", "lam": math.nan}}),
    ("integrate", {"capacity": {
        "kind": "distorted_lebesgue", "gamma": {"name": "power", "p": "abc"}}}),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "distorted_uniform",
                                "size": 0}, "values": []}),
    ("operator", {"n_list": [2.5]}),
    ("operator", {"x_grid": {"min": 0, "max": 1, "count": 2.5}}),
    ("operator", {"i0": 1.5}),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "table", "size": 1.5,
                                "values": [0, 1]}, "values": [1]}),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "bernstein_perturbed",
                                "n": 2.5, "x": 0.3}, "values": [0, 0.5, 1]}),
    ("integrate", {"capacity": {
        "kind": "distorted_lebesgue", "gamma": {"name": "sqrt", "p": 3}}}),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "distorted_uniform",
                                "gamma": {"name": "identity", "p": 0.5}, "size": 2},
                   "values": [1.0, 2.0]}),
    # a JSON boolean is not a number
    ("operator", {"x_grid": {"min": False, "max": True, "count": 2}}),
    ("integrate", {"kernel": {"family": "laplace", "n": True}}),
    ("integrate", {"kernel": {"family": "laplace", "x": False}}),
    ("operator", {"theta": True}),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "bernstein_perturbed",
                                "n": 2, "x": True}, "values": [0, 0.5, 1]}),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "additive",
                                "weights": [0.5, 0.5]}, "values": [True, 1.0]}),
    # a JSON string is not a number, even one that reads as one
    ("operator", {"theta": "0.5"}),
    ("operator", {"n_list": ["4"]}),
    ("operator", {"x_grid": {"min": "0", "max": "1", "count": "3"}}),
    ("integrate", {"kernel": {"family": "laplace", "n": "2", "x": "0.3"}}),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "additive",
                                "weights": ["0.2", "0.8"]}, "values": [1.0, 2.0]}),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "additive",
                                "weights": [0.2, 0.8]}, "values": ["1.0", 2.0]}),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "possibility",
                                "weights": ["1", 0.5]}, "values": [1.0, 2.0]}),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "table", "size": 1,
                                "values": ["0", 1]}, "values": [1.0]}),
    ("verify", {"trials": "3", "seed": "1"}),
], ids=["kernel", "capacity", "function", "capacity_kernel", "gamma",
        "i0_str", "knots", "knots_triple", "knots_number", "theta", "sqrt_shift_nan", "const_c_nan",
        "sqrt_shift_str", "abs_dev_center_null", "exp_neg_lam_nan", "power_p_str",
        "counting_size_0", "n_list_fraction", "count_fraction", "i0_fraction",
        "size_fraction", "n_fraction", "sqrt_p", "identity_p", "x_grid_bool",
        "kernel_n_bool", "kernel_x_bool", "theta_bool", "bernstein_x_bool",
        "value_bool", "theta_str", "n_list_str", "x_grid_str", "kernel_str",
        "weights_str", "value_str", "possibility_weights_str", "table_values_str",
        "verify_str"])
def test_malformed_config_is_config_error(tmp_path, capsys, command, payload):
    assert main([command, "--config", write_config(tmp_path, payload)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("command, payload, key", [
    ("integrate", {"kernel": {"famly": "gauss", "n": 2, "x": 0.3}}, "famly"),
    ("integrate", {"capacity": {
        "kind": "possibility", "kernal": {"family": "gauss", "n": 2, "x": 0.3}}}, "kernal"),
    ("operator", {"capacity": {"kind": "possibility",
                               "kernel": {"family": "laplace", "n": 4, "center": 0.5}}},
     "center"),
    ("operator", {"capacity": {"kind": "possibility", "gamma": "sqrt"}}, "gamma"),
    ("operator", {"capacity": {"kind": "distorted_lebesgue", "gama": "identity"}}, "gama"),
    ("operator", {"capacity": {"kind": "distorted_lebesgue", "gamma": "sqrt",
                               "kernel": {"family": "laplace"}}}, "kernel"),
    ("operator", {"x_grid": {"min": 0, "max": 1, "count": 3, "step": 0.5}}, "step"),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "bernstein_perturbed", "n": 4,
                                "x": 0.3, "thetta": 3}, "values": [0, 1, 2, 3, 4]}, "thetta"),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "bernstein_perturbed", "n": 4,
                                "x": 0.3, "weights": [1]}, "values": [0, 1, 2, 3, 4]}, "weights"),
    ("integrate", {"capacity": {"kind": "discrete", "weights": [0.5, 0.5], "theta": 1},
                   "values": [1, 2]}, "theta"),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "possibility",
                                "weights": [1, 0.5], "size": 2}, "values": [1, 2]}, "size"),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "distorted_uniform",
                                "gama": "identity", "size": 2}, "values": [1, 2]}, "gama"),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "table", "size": 1,
                                "values": [0, 1], "weights": [1]}, "values": [1]}, "weights"),
], ids=["kernel", "possibility", "possibility_kernel", "possibility_gamma",
        "distorted_lebesgue", "distorted_lebesgue_kernel", "x_grid",
        "bernstein_perturbed", "bernstein_perturbed_weights", "additive", "discrete_possibility",
        "distorted_uniform", "table"])
def test_unknown_nested_key_is_config_error(tmp_path, capsys, command, payload, key):
    # a misspelt key would otherwise leave its default in force: a "famly"
    # integrates against the Laplace kernel, a "kernal" follows the operator's
    assert main([command, "--config", write_config(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown ") and repr(key) in err


@pytest.mark.parametrize("command, payload, key", [
    ("operator", {"functon": "sqrt", "n_list": [2], "x_grid": "0:1:2"}, "functon"),
    ("integrate", {"capcity": "lebesgue"}, "capcity"),
    ("compare", {"pair": "picard", "operator": "picard", "n_list": [2]}, "operator"),
    ("verify", {"suite": "capacity", "trails": 3}, "trails"),
    ("integrate", {"config": "other.json"}, "config"),
    ("integrate", {"mode": "real"}, "mode"),
    ("operator", {"perturbation": {"thta": 3.0}, "n_list": [4], "x_grid": "0:1:3"},
     "perturbation"),
    ("compare", {"perturbation": {}}, "perturbation"),
], ids=["functon", "capcity", "key_of_another_subcommand", "trails", "config", "mode",
        "operator_perturbation", "compare_perturbation"])
def test_unknown_top_level_key_is_config_error(tmp_path, capsys, command, payload, key):
    # a misspelt key would otherwise leave its default in force: a "functon"
    # prints the exp_neg table, a "capcity" integrates against possibility;
    # the capacity alone picks integrate's engines, and theta and i0 are
    # set at the top level only
    assert main([command, "--config", write_config(tmp_path, payload)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: unknown {command} config key(s) {key!r}")


def test_every_flag_dest_is_a_config_key():
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    assert set(subparsers) == set(cli._SCHEMAS) == set(cli.COMMANDS)
    for command, sub in subparsers.items():
        dests = {a.dest for a in sub._actions} - {"help", "config"}
        assert dests <= set(cli._SCHEMAS[command]), command


def test_help_shows_every_flag_default_from_the_schema():
    # argument_default=SUPPRESS hides argparse's own defaults, so each help
    # line carries its key's default, the one an absent flag leaves in force
    subparsers = next(a for a in cli._build_parser()._actions if a.dest == "command").choices
    for command, schema in cli._SCHEMAS.items():
        actions = {a.dest: a for a in subparsers[command]._actions}
        for key, field in schema.items():
            if field.flag is None:
                assert key not in actions, (command, key)
                continue
            action = actions[key]
            assert action.option_strings == [field.flag]
            assert action.help.endswith(f"(default: {json.dumps(field.default)})")
    for default in ("(default: 200)", "(default: 0)", '(default: "capacity")'):
        assert default in " ".join(subparsers["verify"].format_help().split())


README = Path(__file__).parents[1] / "README.md"


def test_readme_lists_every_top_level_key_and_default():
    # the README's table of top-level keys is the schema's, row for row
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| (.+?) \| `(.+?)` \|$",
                      README.read_text(), flags=re.M)
    assert rows == [(command, key, f"`{field.flag}`" if field.flag else "-",
                     json.dumps(field.default))
                    for command, schema in cli._SCHEMAS.items()
                    for key, field in schema.items()]


@pytest.mark.parametrize("command, payload, key", [
    ("operator", {"operator": ["x"]}, "operator"),
    ("compare", {"pair": ["picard"]}, "pair"),
    ("verify", {"suite": {"a": 1}}, "suite"),
], ids=["operator", "pair", "suite"])
def test_unhashable_choice_is_config_error(tmp_path, capsys, command, payload, key):
    # a list or an object where a name goes used to end in "TypeError:
    # unhashable type", a traceback with exit 1
    assert main([command, "--config", write_config(tmp_path, payload)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"config error: {key} must be a string")


_REAL_RUN = {"function": "sqrt", "kernel": {"family": "laplace", "n": 2, "x": 0.5}}


@pytest.mark.parametrize("kernel", [[], 0, False, "", [1, 2]], ids=repr)
@pytest.mark.parametrize("where", ["top", "possibility"])
def test_non_object_kernel_is_config_error(tmp_path, capsys, kernel, where):
    # a falsy kernel used to read as {} and integrate against the default
    payload = ({"kernel": kernel} if where == "top" else
               {**_REAL_RUN, "capacity": {"kind": "possibility", "kernel": kernel}})
    assert main(["integrate", "--config", write_config(tmp_path, payload)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: kernel must be a JSON object or null")


def test_null_or_empty_kernel_is_every_default(tmp_path, capsys):
    # at the top level null and {} are the kernel's defaults (Laplace, n = 2,
    # x = 0), in a possibility capacity the kernel of its defaults (n = 1,
    # x = 0), which an absent kernel is not: that one follows the operator's
    runs = {}
    for name, payload in {
            "top_absent": {"function": "sqrt"},
            "top_null": {"function": "sqrt", "kernel": None},
            "top_empty": {"function": "sqrt", "kernel": {}},
            "cap_null": {**_REAL_RUN, "capacity": {"kind": "possibility", "kernel": None}},
            "cap_empty": {**_REAL_RUN, "capacity": {"kind": "possibility", "kernel": {}}},
            "cap_given": {**_REAL_RUN, "capacity": {"kind": "possibility", "kernel": {
                "family": "laplace", "n": 1.0, "x": 0.0}}},
            "cap_absent": {**_REAL_RUN, "capacity": {"kind": "possibility"}}}.items():
        assert main(["integrate", "--config", write_config(tmp_path, payload)]) == 0
        runs[name] = capsys.readouterr().out
    assert runs["top_absent"] == runs["top_null"] == runs["top_empty"]
    assert runs["cap_null"] == runs["cap_empty"] == runs["cap_given"] != runs["cap_absent"]


@pytest.mark.parametrize("out", [True, 2, 7, ["a"], {"path": "a"}], ids=repr)
def test_non_string_out_is_config_error(tmp_path, capsys, out):
    # open(out) used to take a number for a file descriptor: true or 2
    # wrote to stdout or stderr and closed it, 7 was EBADF, ["a"] a traceback
    payload = {"out": out, "n_list": [2], "x_grid": "0:1:2"}
    assert main(["operator", "--config", write_config(tmp_path, payload)]) == 2
    out_text, err = capsys.readouterr()
    assert out_text == "" and err.startswith("config error: out must be a string or null")
    assert not sys.stdout.closed and not sys.stderr.closed


# a config of each subcommand that runs in milliseconds
_QUICK = {"integrate": {}, "operator": {"n_list": [2], "x_grid": "0:1:2"},
          "compare": {"n_list": [2], "x_grid": "0:1:2"}, "verify": {"trials": 1}}


@pytest.mark.parametrize("command, key", [
    (command, key) for command, schema in cli._SCHEMAS.items()
    for key, field in schema.items() if field.default is None or None in field.kinds])
def test_null_reads_as_the_default(tmp_path, capsys, command, key):
    # a key whose default is null must take null, or an explicit null would
    # be an error where the absent key is not
    assert None in cli._SCHEMAS[command][key].kinds
    payload = {k: v for k, v in _QUICK[command].items() if k != key}
    assert main([command, "--config", write_config(tmp_path, payload)]) == 0
    absent = capsys.readouterr().out
    assert main([command, "--config", write_config(tmp_path, {**payload, key: None})]) == 0
    assert capsys.readouterr().out == absent


@pytest.mark.parametrize("payload, message", [
    ({"values": [1.0, 2.0]}, "values go with a discrete capacity only, not a possibility one"),
    ({"capacity": "sqrt_lebesgue", "values": []},
     "values go with a discrete capacity only, not a distorted_lebesgue one"),
    ({"capacity": {"kind": "discrete", "weights": [0.5, 0.5]}},
     "values must list one number per element of the additive capacity's ground set of 2"),
    ({"capacity": {"kind": "discrete", "rule": "bernstein_perturbed", "n": 2, "x": 0.3},
      "values": [1.0, 2.0]},
     "values must list one number per element of the bernstein_perturbed capacity's "
     "ground set of 3"),
], ids=["no_capacity", "real_capacity", "no_values", "short_values"])
def test_values_go_with_a_discrete_capacity_only(tmp_path, capsys, payload, message):
    # without the check, values beside a real capacity would be ignored and
    # e0 integrated on the real line
    assert main(["integrate", "--config", write_config(tmp_path, payload)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"config error: {message}\n"


@pytest.mark.parametrize("command, payload, key", [
    ("integrate", {"capacity": {"kind": "discrete", "rule": "distorted_uniform", "size": 1e300},
                   "values": [1.0]}, "values"),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "table", "size": 1e300,
                                "values": [0, 1]}, "values": [1.0]}, "values"),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "distorted_uniform",
                                "size": 1_000_000_000}, "values": [1.0]}, "values"),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "bernstein_perturbed",
                                "n": 10 ** 400, "x": 0.3}, "values": [1.0]}, "values"),
    ("operator", {"operator": "picard", "n_list": [10 ** 400], "x_grid": "0:1:2"}, "n_list"),
    ("operator", {"function": {"name": "sqrt", "shift": 10 ** 400}}, "function spec"),
], ids=["distorted_uniform_1e300", "table_1e300", "distorted_uniform_1e9",
        "bernstein_perturbed_10e400", "picard_n", "sqrt_shift"])
def test_size_past_what_can_be_built_is_config_error(tmp_path, capsys, monkeypatch, command,
                                                      payload, key):
    # the ground set is checked against the values before it is built, and
    # an integer past the float range is no float: these were OverflowErrors
    # (exit 3) and, at a billion elements, a MemoryError (exit 1)
    for rule, (fields, _, ground) in list(cli._RULES.items()):
        monkeypatch.setitem(cli._RULES, rule, (fields, lambda *args: pytest.fail("built"), ground))
    assert main([command, "--config", write_config(tmp_path, payload)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: ") and key in err


def test_integer_past_the_digit_limit_is_config_error(tmp_path, capsys):
    # Python reads no integer of more than 4300 digits from text
    path = tmp_path / "cfg.json"
    path.write_text('{"n_list": [1' + "0" * 5000 + "]}")
    assert main(["operator", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read config: ")


@pytest.mark.parametrize("flags", [["--n", "", "--xgrid", "0:1:2"],
                                   ["--n", "2", "--xgrid", ""],
                                   ["--n", "2", "--capacity", "identity_lebesgue"]],
                         ids=["empty_n", "empty_xgrid", "identity_lebesgue"])
def test_empty_or_unknown_flag_value_is_config_error(capsys, flags):
    assert main(["operator", "--operator", "picard_choquet"] + flags) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("command", [["operator", "--operator", "picard_choquet"],
                                     ["operator", "--operator", "weierstrass_choquet"],
                                     ["operator", "--operator", "picard"],
                                     ["compare", "--pair", "picard"]],
                         ids=["picard_choquet", "weierstrass_choquet", "picard",
                              "compare_picard"])
def test_float_overflow_is_numeric_error(capsys, command):
    # exp_neg at x = -800 is exp(800), past the largest float: the product's
    # supremum and the classical integrand overflow
    flags = ["--function", "exp_neg", "--n", "2", "--xgrid=-800:-799:2"]
    assert main(command + flags) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["integrate", "operator", "compare"])
def test_seed_is_a_verify_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_integrate_takes_no_mode_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["integrate", "--mode", "real"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode real" in capsys.readouterr().err


def test_flags_override_only_their_config_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, {"operator": "bernstein", "n_list": [3, 5],
                                  "x_grid": {"min": 0, "max": 1, "count": 2}})
    assert main(["operator", "--config", cfg, "--n", "7"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["7", "0"], ["7", "1"]]


def test_console_script_smoke(tmp_path):
    out = tmp_path / "o.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "capacity": {"kind": "distorted_lebesgue", "gamma": "sqrt"},
        "kernel": {"family": "laplace", "n": 2, "x": 0.0},
        "out": str(out)}))
    proc = subprocess.run([sys.executable, "-m", "choquetkit.cli",
                           "integrate", "--config", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()


def test_every_subcommand_runs_without_scipy(tmp_path):
    # choquetkit needs numpy alone: with scipy made unimportable, every
    # subcommand and the scalar oracle of a root-finding product still run
    discrete = write_config(tmp_path, {
        "values": [1.0, 3.0, 2.0],
        "capacity": {"kind": "discrete", "rule": "distorted_uniform", "gamma": "sqrt",
                     "size": 3}}, "discrete.json")
    real_sqrt = write_config(tmp_path, {
        "function": {"name": "sqrt", "shift": 3.0},
        "kernel": {"family": "gauss", "n": 2, "x": 0.3}, "capacity": "sqrt_lebesgue"},
        "real_sqrt.json")
    grid = ["--function", "sqrt", "--n", "4", "--xgrid=0:1:2"]
    runs = ([["integrate", "--config", discrete], ["integrate"],
             ["integrate", "--config", real_sqrt]]
            + [["operator", "--operator", name] + grid for name in cli.OPERATORS]
            + [["compare", "--pair", pair] + grid for pair in cli.PAIRS]
            + [["verify", "--suite", suite, "--trials", "2"] for suite in cli.SUITES])
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from choquetkit import Kernel, function_spec, product_level_function",
        "from choquetkit.cli import main",
        f"for args in {runs!r}:",
        "    assert main(args) == 0, args",
        "g = product_level_function(function_spec('sqrt', shift=3.0), Kernel.gauss(2.0, 0.3))",
        "print(g.level(0.5))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("IntervalUnion(intervals=((-0.46")
    assert len(runs) == 14
    assert "nan" not in proc.stdout and "inf" not in proc.stdout


# ---------------------------------------------------------------------------
# config fuzzer: valid configs drawn from the schema, each with one mutation

# a discrete capacity of every rule, with values of its size
_FUZZ_DISCRETE = [
    ({"kind": "discrete", "rule": "additive", "weights": [0.25, 0.75]}, [1.0, -2.0]),
    ({"kind": "discrete", "rule": "possibility", "weights": [1.0, 0.5]}, [2.0, 0.0]),
    ({"kind": "discrete", "rule": "distorted_uniform", "gamma": {"name": "power", "p": 0.5},
      "size": 2}, [1.0, 2.0]),
    ({"kind": "discrete", "rule": "bernstein_perturbed", "n": 2, "x": 0.3, "theta": 0.5,
      "i0": 1}, [0.0, 1.0, 2.0]),
    ({"kind": "discrete", "rule": "table", "size": 1, "values": [0.0, 1.0]}, [3.0]),
]
# values besides its default for each top-level key that takes more than a
# choice; n_list, x_grid and trials are always set, small enough that a run
# takes milliseconds
_FUZZ_VALUES = {
    "out": [None, "-"],
    "capacity": ["possibility", "sqrt_lebesgue", "lebesgue",
                 {"kind": "possibility", "kernel": {"family": "gauss", "n": 2.0, "x": 0.3}},
                 {"kind": "distorted_lebesgue", "gamma": {"name": "power", "p": 0.5}}],
    "function": ["sqrt", {"name": "sqrt", "shift": 3.0}, {"name": "exp_neg", "lam": 2.0},
                 {"name": "pw_linear", "knots": [[-1, 1], [0, 2], [1, 0.5]]}],
    "kernel": [{}, {"family": "gauss", "n": 2.0, "x": 0.3}, {"n": 4}],
    "n_list": [[2], [2, 3], "2,3"],
    "x_grid": [{"min": 0.0, "max": 1.0, "count": 2}, "0:0.5:2"],
    "theta": [0.0, 0.5],
    "i0": [1, 2],
    "seed": [0, 7],
    "trials": [0, 2],
    "inject_nonmonotone": [False, True],
}
_FUZZ_ALWAYS = ("n_list", "x_grid", "trials")
# a mutated value: a wrong JSON type, a bool or string for a number, NaN,
# +-inf, a huge or negative value, an empty list
_FUZZ_REPLACEMENTS = [False, True, "-", ["-"], {}, None, 1.5, 3, -1, -0.5, [],
                      math.nan, math.inf, -math.inf, 1e300, -1e300, 10 ** 400]


def test_fuzz_examples_cover_the_schema():
    assert set(cli._RULES) == {cap["rule"] for cap, _ in _FUZZ_DISCRETE}
    assert set(cli._REAL_KINDS) == {
        cap["kind"] if isinstance(cap, dict) else cli._CAPACITY_SHORTHANDS[cap]["kind"]
        for cap in _FUZZ_VALUES["capacity"]}
    keys = {key for schema in cli._SCHEMAS.values() for key, field in schema.items()
            if field.choices is None}
    assert keys == set(_FUZZ_VALUES) | {"values"}


@pytest.mark.parametrize("capacity, values", [
    *_FUZZ_DISCRETE, *[(capacity, None) for capacity in _FUZZ_VALUES["capacity"]]],
    ids=[*(cap["rule"] for cap, _ in _FUZZ_DISCRETE), *map(json.dumps, _FUZZ_VALUES["capacity"])])
def test_capacity_picks_the_integrate_engines(tmp_path, capsys, capacity, values):
    # every discrete rule and every real kind (test_fuzz_examples_cover_the_schema)
    payload = {"capacity": capacity, **({} if values is None else {"values": values})}
    assert main(["integrate", "--config", write_config(tmp_path, payload)]) == 0
    mode, primary, _, check, check_value, diff = (
        capsys.readouterr().out.splitlines()[1].split(","))
    if values is None:
        assert (mode, primary, check) == ("real", "adaptive_levels", "tanh_sinh")
        assert float(diff) <= 1e-8 * abs(float(check_value))
    else:
        assert (mode, primary, check) == ("discrete", "sorted_tail_sum", "layer_cake_exact")
        assert float(diff) <= 1e-12


@st.composite
def _fuzz_configs(draw, command):
    cfg = {}
    for key, field in cli._SCHEMAS[command].items():
        if key == "values" or key not in _FUZZ_ALWAYS and draw(st.booleans()):
            continue   # absent: its default
        cfg[key] = draw(st.sampled_from(list(field.choices or _FUZZ_VALUES[key])))
    if command == "integrate" and draw(st.booleans()):
        cfg["capacity"], cfg["values"] = draw(st.sampled_from(_FUZZ_DISCRETE))
    elif command == "integrate":   # a real capacity, which takes no values
        cfg["capacity"] = draw(st.sampled_from(_FUZZ_VALUES["capacity"]))
    return cfg


def _nodes(node, path=()):
    """Every (path, value) in a JSON document, the document first."""
    yield path, node
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _field_at(command, cfg, path):
    """The schema's key at ``path`` where the test can name it, else None."""
    fields = cli._SCHEMAS[command]
    if len(path) == 2 and isinstance(cfg.get(path[0]), dict):
        inner = cfg[path[0]]
        if path[0] == "capacity":
            rule = inner.get("rule", "additive")
            fields = {"kind": cli._Key((str,)), **(
                {"rule": cli._RULE, **cli._RULES[rule][0]} if inner.get("kind") == "discrete"
                else cli._REAL_KINDS[inner["kind"]][0])}
        else:
            fields = cli._X_GRID if path[0] == "x_grid" else {}
    elif len(path) != 1:
        return None
    return fields.get(path[-1])


def _takes(kinds, value) -> bool:
    """Whether a key of ``kinds`` takes ``value`` as JSON (the test's own
    reading of :class:`cli._Key`)."""
    for kind in kinds:
        if isinstance(kind, list):
            ok = isinstance(value, list) and all(_takes((kind[0],), v) for v in value)
        elif kind is float:
            ok = type(value) is float or type(value) is int and abs(value) < 1e308
        elif kind is int:
            ok = type(value) is int or type(value) is float and value.is_integer()
        else:
            ok = type(value) is (kind or type(None))
        if ok:
            return True
    return False


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow,
                                                   HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.parametrize("command", ["integrate", "operator", "compare", "verify"])
def test_mutated_config_exits_cleanly(tmp_path, capsys, command, data):
    cfg = data.draw(_fuzz_configs(command))
    mutated = json.loads(json.dumps(cfg))
    nodes = list(_nodes(mutated))
    # an unknown key, or a value of a kind that its key does not take, is
    # a config error
    config_error = data.draw(st.booleans(), label="unknown key")
    if config_error:
        node = data.draw(st.sampled_from([n for _, n in nodes if isinstance(n, dict)]))
        node["zz_unknown"] = 1
    else:
        path, _ = data.draw(st.sampled_from(nodes[1:]))
        value = data.draw(st.sampled_from(_FUZZ_REPLACEMENTS))
        # trials is the suite's work: a huge count is a long run, not a fault
        assume(not (path == ("trials",) and isinstance(value, (int, float)) and value > 3))
        parent = mutated
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        field = _field_at(command, cfg, path)
        config_error = field is not None and not _takes(field.kinds, value)
    # an uncaught exception fails the test with the mutated config drawn
    code = main([command, "--config", write_config(tmp_path, mutated)])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), mutated
    assert code != 1 or command == "verify" and "VIOLATION" in out, mutated
    if config_error:
        assert code == 2 and err.startswith("config error: "), (mutated, err)
