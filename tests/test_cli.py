import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
            "mode": "discrete",
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
            "mode": "real",
            "capacity": {"kind": "distorted_lebesgue", "gamma": "sqrt"},
            "kernel": {"family": "laplace", "n": 2, "x": 0.0},
            "out": str(out),
        })
        assert main(["integrate", "--config", cfg]) == 0
        _, rows = read_rows(out)
        assert float(rows[0][2]) == pytest.approx(math.sqrt(math.pi / 4), abs=1e-6)

    def test_real_default_engines_agree(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["integrate", "--mode", "real", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header[1::2] == ["primary_engine", "check_engine", "abs_difference"]
        assert (rows[0][1], rows[0][3]) == ("adaptive_levels", "tanh_sinh")
        primary, check = float(rows[0][2]), float(rows[0][4])
        assert abs(primary - check) <= 1e-9 * abs(primary)

    def test_real_possibility_is_one(self, tmp_path):
        out = tmp_path / "out.csv"
        cfg = write_config(tmp_path, {
            "mode": "real",
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
            "mode": "real", "function": "exp_neg",
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
            "mode": "real",
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
            "mode": "real",
            "capacity": {"kind": "distorted_lebesgue", "gamma": "sqrt"},
            "kernel": {"family": "laplace", "n": float("inf"), "x": 0.0},
        })
        assert main(["integrate", "--config", cfg]) == 2

    @pytest.mark.parametrize("x", [1e200, 1e100])
    def test_unresolvable_kernel_centre_is_config_error(self, tmp_path, capsys, x):
        # x + 1 == x: the level sets of the product cannot be resolved there
        # (1e200 overflowed in a square, 1e100 ended in "does not decay")
        cfg = write_config(tmp_path, {"mode": "real", "function": "sqrt",
                                      "kernel": {"family": "gauss", "n": 2, "x": x}})
        assert main(["integrate", "--config", cfg]) == 2
        assert "kernel centre" in capsys.readouterr().err

    def test_large_kernel_centre_still_integrates(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mode": "real", "function": "sqrt",
                                      "kernel": {"family": "gauss", "n": 2, "x": 1e15}})
        assert main(["integrate", "--config", cfg]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(float(row[4]), rel=1e-6)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, bad):
        out = tmp_path / "out.csv"
        cfg = write_config(tmp_path, {
            "mode": "discrete",
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
            "mode": "discrete",
            "capacity": {"kind": "discrete", "rule": "additive", "weights": [0.5, 0.5]},
            "values": [math.inf, -math.inf],
        })
        assert main(["integrate", "--config", cfg]) == 2
        assert capsys.readouterr().err == "config error: integrand values must be finite\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_is_config_error(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path, {
            "mode": "discrete",
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
        cfg = write_config(tmp_path, {"mode": "real", "capacity": "sqrt_lebesgue"})
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
        cfg = write_config(tmp_path, {"mode": "real", "capacity": "sqrt_lebesgue"})
        assert main(["integrate", "--config", cfg]) == 3
        assert capsys.readouterr().err.startswith("numeric error:")

    @pytest.mark.parametrize("function", [
        "e1", {"name": "const", "c": -1.0},
        {"name": "pw_linear", "knots": [[0.0, -1.0], [1.0, 1.0]]}])
    def test_real_negative_integrand_is_config_error(self, tmp_path, capsys,
                                                     function):
        cfg = write_config(tmp_path, {"mode": "real", "function": function})
        assert main(["integrate", "--config", cfg]) == 2
        assert "not nonnegative" in capsys.readouterr().err

    def test_missing_values_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {
            "mode": "discrete",
            "capacity": {"kind": "discrete", "rule": "additive",
                         "weights": [0.5, 0.5]},
        })
        assert main(["integrate", "--config", cfg]) == 2

    @pytest.mark.parametrize("values", [["a", 1.0], [None, 1.0]])
    def test_non_numeric_value_is_config_error(self, tmp_path, capsys, values):
        cfg = write_config(tmp_path, {
            "mode": "discrete",
            "capacity": {"kind": "discrete", "rule": "additive",
                         "weights": [0.5, 0.5]},
            "values": values,
        })
        assert main(["integrate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: values must be numbers")

    def test_overflowing_sum_is_numeric_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "mode": "discrete",
            "capacity": {"kind": "discrete", "rule": "additive", "weights": [1, 1]},
            "values": [1e308, 1e308],
        })
        assert main(["integrate", "--config", cfg]) == 3
        assert capsys.readouterr().err.startswith("numeric error:")

    @pytest.mark.parametrize("values", [[1e308, 1e308], [1e308, -1e308]])
    def test_overflowing_terms_are_numeric_error(self, tmp_path, capsys, values):
        # each weighted term is already outside the float range
        cfg = write_config(tmp_path, {
            "mode": "discrete",
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
            "mode": "discrete",
            "capacity": {"kind": "discrete", "rule": "distorted_uniform",
                         "gamma": {"name": "power", "p": 0.5}, "size": 3},
            "values": [1.0, 3.0, 2.0],
            "out": str(out),
        })
        assert main(["integrate", "--config", cfg]) == 0
        _, rows = read_rows(out)
        assert float(rows[0][2]) == pytest.approx(2.393846850117352, abs=1e-12)

    @pytest.mark.parametrize("payload", [
        {"mode": "discrete", "values": [1.0, 2.0],
         "capacity": {"kind": "discrete", "rule": "distorted_uniform",
                      "gamma": "cube", "size": 2}},
        {"mode": "real", "capacity": {"kind": "distorted_lebesgue", "gamma": "cube"}}])
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
        args = ["operator", "--operator", "picard_choquet", "--function", "exp_neg",
                "--n", "2", "--xgrid=0:1:2"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        cfg = write_config(tmp_path, {"quadrature": {"abs_tol": -1.0}})
        assert main(args + ["--config", cfg]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("flags", [["--i0", "9", "--n", "2"],
                                       ["--n", "1", "--xgrid", "0:1:2"]],
                             ids=["i0_above_n", "n_1"])
    def test_bernstein_choquet_ground_set_is_config_error(self, capsys, flags):
        # the default operator needs 2 <= n and i0 <= n for every n of the list
        assert main(["operator"] + flags) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: bernstein_choquet needs 2 <= n and i0 <= n")

    def test_bernstein_i0_above_n_is_config_error(self, capsys):
        # the bound column reads f(i0/n), a node of the ground set {0, ..., n}
        assert main(["operator", "--operator", "bernstein", "--function", "sqrt",
                     "--i0", "9", "--n", "2,16"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "config error: bernstein needs i0 <= n, got n=2, i0=9\n"
        assert main(["operator", "--operator", "bernstein", "--function", "sqrt",
                     "--i0", "2", "--n", "1,2"]) == 2
        assert capsys.readouterr().err == "config error: bernstein needs i0 <= n, got n=1, i0=2\n"
        # the default i0 = 1 keeps n = 1, which only the Choquet operator refuses
        assert main(["operator", "--operator", "bernstein", "--function", "sqrt",
                     "--n", "1", "--xgrid=0:1:2"]) == 0

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
        assert err == ("config error: bernstein operators need n <= 1029, past which "
                       "C(n, n // 2) overflows a float, got n=1100\n")

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
        assert err == "config error: bernstein_choquet needs 2 <= n and i0 <= n, got n=2, i0=9\n"

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
    ("integrate", {"mode": "real", "kernel": "laplace"}),
    ("operator", {"capacity": ["x"]}),
    ("operator", {"function": 3}),
    ("operator", {"capacity": {"kind": "possibility", "kernel": "laplace"}}),
    ("operator", {"capacity": {"kind": "distorted_lebesgue", "gamma": 3}}),
    ("operator", {"perturbation": "x"}),
    ("operator", {"function": {"name": "pw_linear", "knots": [1, 2]}}),
    ("operator", {"function": {"name": "pw_linear", "knots": [[0, 1, 2], [1, 0, 3]]}}),
    ("operator", {"function": {"name": "pw_linear", "knots": 3}}),
    ("operator", {"theta": "abc"}),
    ("operator", {"function": {"name": "sqrt", "shift": math.nan}}),
    ("operator", {"function": {"name": "const", "c": math.nan}}),
    ("operator", {"function": {"name": "sqrt", "shift": "x"}}),
    ("operator", {"function": {"name": "abs_dev", "center": None}}),
    ("operator", {"function": {"name": "exp_neg", "lam": math.nan}}),
    ("integrate", {"mode": "real", "capacity": {
        "kind": "distorted_lebesgue", "gamma": {"name": "power", "p": "abc"}}}),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "distorted_uniform",
                                "size": 0}, "values": []}),
    ("operator", {"n_list": [2.5]}),
    ("operator", {"x_grid": {"min": 0, "max": 1, "count": 2.5}}),
    ("operator", {"perturbation": {"i0": 1.5}}),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "table", "size": 1.5,
                                "values": [0, 1]}, "values": [1]}),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "bernstein_perturbed",
                                "n": 2.5, "x": 0.3}, "values": [0, 0.5, 1]}),
    ("integrate", {"mode": "real", "capacity": {
        "kind": "distorted_lebesgue", "gamma": {"name": "sqrt", "p": 3}}}),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "distorted_uniform",
                                "gamma": {"name": "identity", "p": 0.5}, "size": 2},
                   "values": [1.0, 2.0]}),
    # a JSON boolean is not a number
    ("operator", {"x_grid": {"min": False, "max": True, "count": 2}}),
    ("integrate", {"mode": "real", "kernel": {"family": "laplace", "n": True}}),
    ("integrate", {"mode": "real", "kernel": {"family": "laplace", "x": False}}),
    ("operator", {"theta": True}),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "bernstein_perturbed",
                                "n": 2, "x": True}, "values": [0, 0.5, 1]}),
    ("integrate", {"capacity": {"kind": "discrete", "rule": "additive",
                                "weights": [0.5, 0.5]}, "values": [True, 1.0]}),
    # a JSON string is not a number, even one that reads as one
    ("operator", {"theta": "0.5"}),
    ("operator", {"n_list": ["4"]}),
    ("operator", {"x_grid": {"min": "0", "max": "1", "count": "3"}}),
    ("integrate", {"mode": "real", "kernel": {"family": "laplace", "n": "2", "x": "0.3"}}),
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
        "perturbation", "knots", "knots_triple", "knots_number", "theta", "sqrt_shift_nan", "const_c_nan",
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
    ("integrate", {"mode": "real", "kernel": {"famly": "gauss", "n": 2, "x": 0.3}}, "famly"),
    ("integrate", {"mode": "real", "capacity": {
        "kind": "possibility", "kernal": {"family": "gauss", "n": 2, "x": 0.3}}}, "kernal"),
    ("operator", {"capacity": {"kind": "possibility",
                               "kernel": {"family": "laplace", "n": 4, "center": 0.5}}},
     "center"),
    ("operator", {"capacity": {"kind": "possibility", "gamma": "sqrt"}}, "gamma"),
    ("operator", {"capacity": {"kind": "distorted_lebesgue", "gama": "identity"}}, "gama"),
    ("operator", {"capacity": {"kind": "distorted_lebesgue", "gamma": "sqrt",
                               "kernel": {"family": "laplace"}}}, "kernel"),
    ("operator", {"x_grid": {"min": 0, "max": 1, "count": 3, "step": 0.5}}, "step"),
    ("operator", {"operator": "bernstein_choquet", "perturbation": {"thta": 3.0},
                  "n_list": [4], "x_grid": "0:1:3"}, "thta"),
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
        "distorted_lebesgue", "distorted_lebesgue_kernel", "x_grid", "perturbation",
        "bernstein_perturbed", "bernstein_perturbed_weights", "additive", "discrete_possibility",
        "distorted_uniform", "table"])
def test_unknown_nested_key_is_config_error(tmp_path, capsys, command, payload, key):
    # a misspelt key would otherwise leave its default in force: a "famly"
    # integrates against the Laplace kernel, a "kernal" follows the operator's
    assert main([command, "--config", write_config(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown ") and repr(key) in err


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
        "mode": "real",
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
        "mode": "discrete", "values": [1.0, 3.0, 2.0],
        "capacity": {"kind": "discrete", "rule": "distorted_uniform", "gamma": "sqrt",
                     "size": 3}}, "discrete.json")
    real_sqrt = write_config(tmp_path, {
        "mode": "real", "function": {"name": "sqrt", "shift": 3.0},
        "kernel": {"family": "gauss", "n": 2, "x": 0.3}, "capacity": "sqrt_lebesgue"},
        "real_sqrt.json")
    grid = ["--function", "sqrt", "--n", "4", "--xgrid=0:1:2"]
    runs = ([["integrate", "--config", discrete], ["integrate", "--mode", "real"],
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
