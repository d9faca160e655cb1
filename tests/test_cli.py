"""CLI and config-file behaviour: exit codes, file formats, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference_builders as ref
from fracosc import cli
from fracosc.bundle import BundleSpec, jet_lift
from fracosc.cli import _gate, main
from fracosc.config import (
    get_float,
    get_floats,
    get_int,
    get_str,
    load_config,
    parse_config_text,
)
from fracosc.errors import ParseError
from fracosc.expr import parse
from fracosc.lagrange import el_residual
from fracosc.numeric import solve_fode
from fracosc.series import FracSeries, frac_derive
from fracosc.specfun import mittag_leffler

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# ------------------------------------------------------------- config file --


def test_config_basic_parse():
    cfg = parse_config_text("# comment\n\na.b = 1.5\nname = hello world\n")
    assert cfg == {"a.b": "1.5", "name": "hello world"}


def test_config_missing_equals_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_config_text("a = 1\nnonsense\n")
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("text", ["9bad = 1\n", "UPPER = 1\n", "a..b = 1\n"])
def test_config_rejects_malformed_keys(text):
    with pytest.raises(ParseError):
        parse_config_text(text)


def test_config_rejects_duplicate_key():
    with pytest.raises(ParseError) as exc:
        parse_config_text("a = 1\na = 2\n")
    assert "duplicate" in str(exc.value)


def test_config_typed_getters():
    cfg = {"f": "2.5", "i": "7", "s": "abc", "v": "1.0, 2.5,3"}
    assert get_float(cfg, "f") == 2.5
    assert get_int(cfg, "i") == 7
    assert get_str(cfg, "s") == "abc"
    assert get_floats(cfg, "v") == (1.0, 2.5, 3.0)
    assert get_float(cfg, "absent", 9.0) == 9.0


def test_config_required_key_missing():
    with pytest.raises(ParseError):
        get_float({}, "needed")
    with pytest.raises(ParseError):
        get_int({"x": "not-an-int"}, "x")


@pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "1e400"])
def test_config_numbers_must_be_finite(text):
    with pytest.raises(ParseError, match="is not finite"):
        get_float({"f": text}, "f")
    with pytest.raises(ParseError, match="non-finite entry"):
        get_floats({"v": f"1.0, {text}"}, "v")


@pytest.mark.parametrize("text", ["", " ", ",", " , ,"])
def test_config_number_lists_must_not_be_empty(text):
    with pytest.raises(ParseError, match="'v' has no numbers"):
        get_floats({"v": text}, "v")


def test_load_config_hashes_bytes(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("a = 1\n")
    cfg, sha = load_config(p)
    assert cfg == {"a": "1"}
    assert len(sha) == 64 and int(sha, 16) >= 0


# -------------------------------------------------------------- exit codes --


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "deriv" in capsys.readouterr().out


def test_missing_argument_is_usage_error(capsys):
    assert main(["deriv", "--alpha", "0.5", "--grid", "0:1:0.1"]) == 1


def test_bad_grid_is_usage_error(capsys):
    assert main(["deriv", "--expr", "t", "--alpha", "0.5", "--grid", "1:0:0.1"]) == 1


@pytest.mark.parametrize("scheme", ["gl", "l1"])
def test_one_point_grid_is_config_error(scheme, capsys):
    rc = main(["deriv", "--expr", "t^2", "--alpha", "0.5", "--grid", "0:1:2",
               "--scheme", scheme])
    assert rc == 1
    assert "gl/l1 grids need at least two points" in capsys.readouterr().err


def test_inadmissible_exponent_is_domain_error(capsys):
    rc = main(["deriv", "--expr", "t^0.2", "--alpha", "0.5", "--grid", "0:1:0.1"])
    assert rc == 2
    assert "domain error" in capsys.readouterr().err


@pytest.mark.parametrize("expr", ["gamma(170)*gamma(170)*t", "1e200*1e200*t"])
def test_overflowing_coefficient_is_one_line_domain_error(expr, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["deriv", "--expr", expr, "--alpha", "0.5", "--grid", "0:1:0.5"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith("domain error: ") and err.count("\n") == 1


@pytest.mark.parametrize("expr,col", [("t^1e400", 3), ("1e400*t^2", 1)])
def test_literal_out_of_range_is_config_error(expr, col, capsys):
    rc = main(["deriv", "--expr", expr, "--alpha", "0.5", "--grid", "0:1:0.5"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert f"number out of range (line 1, col {col})" in captured.err


def test_missing_config_file(capsys):
    assert main(["el", "--config", "/no/such/file.cfg"]) == 1


def test_discretized_grid_must_start_at_base(capsys):
    rc = main(
        ["deriv", "--expr", "t^2", "--alpha", "0.5", "--grid", "0.5:1:0.1",
         "--scheme", "gl"]
    )
    assert rc == 1


def test_l1_right_side_rejected(capsys):
    rc = main(
        ["deriv", "--expr", "t^2", "--alpha", "0.5", "--grid", "0:1:0.1",
         "--scheme", "l1", "--side", "right"]
    )
    assert rc == 1


def test_exact_right_side_rejected(capsys):
    # the exact derivative is left-sided; --side right used to return it unchanged
    rc = main(
        ["deriv", "--expr", "t^2", "--alpha", "0.5", "--grid", "0:1:0.1",
         "--scheme", "exact", "--side", "right"]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: exact supports only the left-sided derivative\n"


# ------------------------------------------------------------------- deriv --


def _read_csv(path):
    rows = []
    meta = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif "," in line and line[0].isalpha():
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, header, np.array(rows)


def test_deriv_exact_power_rule(tmp_path):
    out = tmp_path / "d.csv"
    rc = main(["deriv", "--expr", "t^2", "--alpha", "0.5",
               "--grid", "0:1:0.25", "--out", str(out)])
    assert rc == 0
    meta, header, rows = _read_csv(out)
    assert header == ["t", "f", "d"]
    assert meta[0].startswith("# tool=fracosc version=")
    from fracosc.specfun import gamma

    scale = gamma(3.0) / gamma(2.5)
    assert np.allclose(rows[:, 2], scale * rows[:, 0] ** 1.5, atol=1e-14)


def test_deriv_series_gl_tracks_exact(tmp_path):
    a = tmp_path / "gl.csv"
    b = tmp_path / "ex.csv"
    series = "[[1.0, 2.0], [0.5, 3.1]]"
    base = ["deriv", "--series", series, "--alpha", "0.4", "--grid", "0:1:0.001"]
    assert main(base + ["--scheme", "gl", "--out", str(a)]) == 0
    assert main(base + ["--scheme", "exact", "--out", str(b)]) == 0
    _, _, gl = _read_csv(a)
    _, _, exact = _read_csv(b)
    assert np.max(np.abs(gl[:, 2] - exact[:, 2])) < 5e-3


# ---------------------------------------------------------------------- el --


def test_el_reference_config_meets_target(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["el", "--config", f"{CONFIGS}/el_reference.cfg",
               "--assert", "1e-8", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["max_residual"] <= 1e-8
    assert payload["kind"] == "fractional" and payload["k"] == 3


def test_el_classical_reference_config(tmp_path):
    out = tmp_path / "rc.json"
    rc = main(["el", "--config", f"{CONFIGS}/el_reference_classical.cfg",
               "--assert", "1e-8", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["kind"] == "classical"


def test_el_perturbed_config_fails_assertion(tmp_path, capsys):
    out = tmp_path / "p.json"
    rc = main(["el", "--config", f"{CONFIGS}/el_perturbed.cfg",
               "--assert", "1e-6", "--out", str(out)])
    assert rc == 3
    assert "assertion failed" in capsys.readouterr().err
    assert json.loads(out.read_text())["max_residual"] > 1e-6


def test_el_curve_config_residual_flat(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["el", "--config", f"{CONFIGS}/el_curve.cfg",
               "--assert", "1e-10", "--out", str(out)])
    assert rc == 0
    _, header, rows = _read_csv(out)
    assert header == ["t", "residual_1"]
    assert np.max(np.abs(rows[:, 1])) < 1e-12


def test_el_bad_mode_is_config_error(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("el.mode = sideways\n")
    assert main(["el", "--config", str(p)]) == 1


@pytest.mark.parametrize("key,value", [("el.samples", "-5"), ("el.seed", "-1"),
                                       ("el.samples", "0")])
def test_el_reference_negative_counts_are_config_errors(key, value, tmp_path, capsys):
    # a sample count below one used to pass any assertion without checking anything
    p = tmp_path / "neg.cfg"
    p.write_text(f"{key} = {value}\n")
    assert main(["el", "--config", str(p), "--assert", "1e-300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    least = 1 if key == "el.samples" else 0
    assert captured.err == f"config error: config key {key!r} must be >= {least}, got {value}\n"


def test_el_curve_grid_without_positive_point_is_config_error(tmp_path, capsys):
    # t = 0 is dropped, so this grid left no row to check and passed any assertion
    text = (CONFIGS / "el_curve.cfg").read_text()
    p = tmp_path / "zero.cfg"
    p.write_text(text.replace("el.grid = 0.1:2.0:0.1", "el.grid = 0:0.5:1"))
    assert main(["el", "--config", str(p), "--assert", "1e-300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: config key 'el.grid' has no point with t > 0\n"


def test_el_curve_drops_every_grid_point_with_t_not_positive(tmp_path):
    # only the first point with t <= 0 used to be dropped, so a grid from
    # -1 failed on the series at t < 0
    text = (CONFIGS / "el_curve.cfg").read_text()
    rows = {}
    for grid in ("-1.0:2.0:0.5", "0.5:2.0:0.5"):
        p = tmp_path / "grid.cfg"
        p.write_text(text.replace("el.grid = 0.1:2.0:0.1", f"el.grid = {grid}"))
        out = tmp_path / f"{grid}.csv"
        assert main(["el", "--config", str(p), "--assert", "1e-10", "--out", str(out)]) == 0
        _, header, rows[grid] = _read_csv(out)
    assert rows["-1.0:2.0:0.5"].tobytes() == rows["0.5:2.0:0.5"].tobytes()
    assert list(rows["0.5:2.0:0.5"][:, 0]) == [0.5, 1.0, 1.5, 2.0]


@pytest.mark.parametrize("command,name", [
    ("el", "el_reference.cfg"), ("el", "el_curve.cfg"),
    ("connection", "connection_demo.cfg"), ("solve", "solve_eigen.cfg"),
])
def test_unused_config_key_is_config_error(command, name, tmp_path, capsys):
    # a misspelled key used to be ignored, and the run took the default
    p = tmp_path / name
    p.write_text((CONFIGS / name).read_text() + "el.alhpa = 0.45\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(p), "--out", str(out)]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.err == "config error: config key 'el.alhpa' is not used by this run\n"


def test_el_empty_coeffs_is_config_error(tmp_path, capsys):
    p = tmp_path / "empty.cfg"
    p.write_text("el.coeffs =\n")
    assert main(["el", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "config error: config key 'el.coeffs' has no numbers" in captured.err


# -------------------------------------------------------------- connection --


def test_connection_demo_config(tmp_path):
    out = tmp_path / "conn.json"
    rc = main(["connection", "--config", f"{CONFIGS}/connection_demo.cfg",
               "--assert", "1e-8", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["checks"]["pairing_residual"] <= 1e-10
    assert payload["checks"]["metricity_residual"] <= 1e-10
    assert set(payload["dual"]) == {"1", "2"}
    assert len(payload["metrical"]["C"]) == payload["k"]
    # order-1 duals are the fibre gradients of the spray components
    assert payload["dual"]["1"][0][0] == "2.0*(x1*y1_1)"
    assert payload["dual"]["1"][0][1] == "0.0"


# ------------------------------------------------------------------- solve --


def test_solve_eigenfunction_config(tmp_path):
    out = tmp_path / "s.csv"
    rc = main(["solve", "--config", f"{CONFIGS}/solve_eigen.cfg", "--out", str(out)])
    assert rc == 0
    _, header, rows = _read_csv(out)
    assert header == ["t", "x1"]
    exact = mittag_leffler(0.5, 1.0)
    assert abs(rows[-1, 1] - exact) < 5e-3


def test_solve_empty_x0_is_config_error(tmp_path, capsys):
    p = tmp_path / "s.cfg"
    p.write_text("solve.alpha = 0.5\nsolve.h = 0.1\nsolve.t_end = 1.0\nsolve.x0 =\n")
    assert main(["solve", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "config error: config key 'solve.x0' has no numbers" in captured.err


def test_solve_bad_rhs_is_config_error(tmp_path):
    p = tmp_path / "s.cfg"
    p.write_text(
        "solve.alpha = 0.5\nsolve.h = 0.1\nsolve.t_end = 1.0\n"
        "solve.x0 = 1.0\nsolve.rhs.1 = x1 +\n"
    )
    assert main(["solve", "--config", str(p)]) == 1


# ------------------------------------------------- numbers from outside --


@pytest.mark.parametrize("argv", [
    ["deriv", "--expr", "t^2", "--alpha", "nan", "--grid", "0:1:0.5"],
    ["deriv", "--expr", "t^2", "--alpha=-inf", "--grid", "0:1:0.5"],
    ["el", "--config", f"{CONFIGS}/el_perturbed.cfg", "--assert", "nan"],
    ["connection", "--config", f"{CONFIGS}/connection_demo.cfg", "--assert", "inf"],
])
def test_number_options_must_be_finite(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "not a finite number" in captured.err


@pytest.mark.parametrize("grid", ["0:nan:0.5", "0:1:inf", "-inf:1:0.5"])
def test_grid_values_must_be_finite(grid, capsys):
    assert main(["deriv", "--expr", "t^2", "--alpha", "0.5", f"--grid={grid}"]) == 1
    assert "grid values must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0:1e308:1e-308", "0:1:1e-300", "0:1e9:1", "-1e308:1e308:1"])
def test_grids_with_too_many_points_are_config_errors(grid, tmp_path, capsys):
    # the count is checked before the grid is allocated
    assert main(["deriv", "--expr", "t", "--alpha", "0.5", f"--grid={grid}"]) == 1
    p = tmp_path / "curve.cfg"
    p.write_text("el.mode = curve\nel.alpha = 0.5\nel.k = 1\nel.lagrangian = y1_1^2\n"
                 f"el.grid = {grid}\ncurve.x1 = [[1.0, 1.0]]\n")
    assert main(["el", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("grid has more than 10000000 points") == 2


@pytest.mark.parametrize("t_end,h", [("1.0", "1e-13"), ("1e308", "1e-308")])
def test_solves_with_too_many_steps_are_config_errors(t_end, h, tmp_path, capsys):
    # the step count is checked before the trajectory is allocated
    p = tmp_path / "s.cfg"
    p.write_text(f"solve.alpha = 0.5\nsolve.h = {h}\nsolve.t_end = {t_end}\n"
                 "solve.x0 = 1.0\nsolve.rhs.1 = x1\n")
    assert main(["solve", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(
        "config error: solve has more than 10000000 steps")


def _curve_config(tmp_path, lagrangian, curve):
    p = tmp_path / "curve.cfg"
    p.write_text("el.mode = curve\nel.alpha = 0.5\nel.k = 1\n"
                 f"el.lagrangian = {lagrangian}\nel.grid = 0.5:1.0:0.5\ncurve.x1 = {curve}\n")
    return str(p)


@pytest.mark.parametrize("series", ["[[NaN, 1.0]]", "[[1e400, 1.0]]"])
def test_series_numbers_must_be_finite(series, tmp_path, capsys):
    assert main(["deriv", "--series", series, "--alpha", "0.5", "--grid", "0:1:0.5"]) == 2
    assert main(["el", "--config", _curve_config(tmp_path, "y1_1^2", series)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("numbers must be finite") == 2


@pytest.mark.parametrize("key,value", [("h", "nan"), ("x0", "inf"), ("t_end", "1e400")])
def test_config_numbers_must_be_finite_in_a_run(key, value, tmp_path, capsys):
    cfg = {"alpha": "0.5", "h": "0.1", "t_end": "1.0", "x0": "1.0", "rhs.1": "x1", key: value}
    p = tmp_path / "s.cfg"
    p.write_text("".join(f"solve.{k} = {v}\n" for k, v in cfg.items()))
    assert main(["solve", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


# ------------------------------------------------------ accuracy gates --


def test_gate_fails_on_a_nan_residual(capsys):
    assert _gate(float("nan"), 1e-10, "max residual") == 3
    assert capsys.readouterr().err == "assertion failed: max residual nan > 1.000e-10\n"
    assert _gate(1e-12, 1e-10, "max residual") == 0
    assert _gate(float("nan"), None, "max residual") == 0
    assert capsys.readouterr().err == ""


def test_el_curve_nan_residuals_fail_the_assertion(tmp_path, capsys):
    # the products overflow to inf, and inf - inf leaves every row NaN
    cfg = _curve_config(tmp_path, "1e300 * x1^2 * y1_1^2", "[[1e3, 1.0]]")
    assert main(["el", "--config", cfg, "--assert", "1e-10"]) == 3
    captured = capsys.readouterr()
    assert _rows(captured.out) == ["0.5,nan", "1.0,nan"]
    assert captured.err == "assertion failed: max residual nan > 1.000e-10\n"


def test_el_curve_nan_residuals_print_only_the_assertion_on_stderr(tmp_path):
    # pytest's warning capture would hide a numpy RuntimeWarning from capsys
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cfg = _curve_config(tmp_path, "1e300 * x1^2 * y1_1^2", "[[1e3, 1.0]]")
    run = subprocess.run([sys.executable, "-m", "fracosc.cli", "el", "--config", cfg,
                          "--assert", "1e-10"], env=env, capture_output=True)
    assert run.returncode == 3
    assert run.stderr == b"assertion failed: max residual nan > 1.000e-10\n"


def test_el_reference_nan_sample_fails_the_assertion(tmp_path, monkeypatch, capsys):
    calls = []

    def residual(prob, env):  # one block of samples, NaN at the second only
        calls.append(env)
        values = np.zeros(len(next(iter(env.values()))))
        values[1] = float("nan")
        return values

    monkeypatch.setattr(cli, "reference_residual", residual)
    out = tmp_path / "r.json"
    rc = main(["el", "--config", f"{CONFIGS}/el_reference.cfg", "--assert", "1e-8",
               "--out", str(out)])
    assert rc == 3 and len(calls) == 1 and len(calls[0]["x1"]) > 2
    assert np.isnan(json.loads(out.read_text())["max_residual"])
    assert "max residual nan" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["metric.1.1 = 1e308*1e308", "metric.1.2 = 1e308*1e308"])
def test_connection_metric_not_finite_at_the_point_is_a_domain_error(entry, tmp_path, capsys):
    key = entry.split(" = ")[0]
    lines = [entry if line.startswith(key + " =") else line
             for line in (CONFIGS / "connection_demo.cfg").read_text().splitlines()]
    cfg = tmp_path / "conn.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "conn.json"
    assert main(["connection", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert not out.exists() and captured.out == ""
    assert captured.err == ("domain error: metric or its adapted derivatives not finite"
                            " at the evaluation point\n")


def test_connection_delta_metric_overflow_names_the_metric_entry(tmp_path, capsys):
    lines = ["metric.1.2 = 1e308*1e308*x1" if line.startswith("metric.1.2 =") else line
             for line in (CONFIGS / "connection_demo.cfg").read_text().splitlines()]
    cfg = tmp_path / "conn.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "conn.json"
    assert main(["connection", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert not out.exists() and captured.out == ""
    assert captured.err == ("domain error: metric entry (1, 2): gamma product overflow:"
                            " inf * ((1.6, -1),)\n")


def test_connection_nan_check_fails_the_assertion(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "pairing_residual", lambda *args: float("nan"))
    rc = main(["connection", "--config", f"{CONFIGS}/connection_demo.cfg",
               "--assert", "1e-8", "--out", str(tmp_path / "c.json")])
    assert rc == 3
    assert "self-check residual nan" in capsys.readouterr().err


# ----------------------------------------------------- long expressions --


def _long_rhs_config(tmp_path):
    p = tmp_path / "long.cfg"
    p.write_text("solve.alpha = 0.5\nsolve.h = 0.1\nsolve.t_end = 1.0\nsolve.x0 = 1.0\n"
                 f"solve.rhs.1 = {' + '.join(['x1'] * 1200)}\n")
    return str(p)


@pytest.mark.parametrize("argv", [
    lambda tmp: ["deriv", "--expr", " + ".join(["t"] * 1200), "--alpha", "0.5",
                 "--grid", "0:1:0.5"],
    lambda tmp: ["deriv", "--expr", "(" * 300 + "t" + ")" * 300, "--alpha", "0.5",
                 "--grid", "0:1:0.5"],
    lambda tmp: ["solve", "--config", _long_rhs_config(tmp)],
])
def test_too_long_expressions_are_one_line_errors(argv, tmp_path, capsys):
    assert main(argv(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "expression error: too long or too deeply nested\n"


# ------------------------------------------- rows against per-point values --


def _rows(text):
    return text.splitlines()[3:]  # after the two meta lines and the header


def _line(values):
    return ",".join(repr(float(v)) for v in values)


#: cells whose repr a CSV row must keep: signed zeros, nan, infinities,
#: subnormals, and floats on both sides of repr's switch of notation
_CELLS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 1e16, -1e16,
          9.999e-5, 1e-4, 0.1, 1.0 / 3.0, -123456.789]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.sampled_from([0, 1, 63, 64, 65, 1023, 1024, 1025]), st.integers(0, 2**32 - 1),
       st.lists(st.floats(), max_size=6))
def test_csv_blocks_equal_the_per_row_repr(width, length, seed, drawn):
    # columns as the solver hands them on: strided views of one array
    table = np.random.default_rng(seed).choice(np.array(_CELLS + drawn), size=(length, width))
    data = list(table.T)
    text = "".join(cli._csv({"k": 1}, [f"c{i}" for i in range(width)], data))
    want = [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in data))]
    assert text.split("\n")[3:] == want + [""]  # every row ends in a newline


def test_deriv_rows_are_the_repr_of_each_pointwise_value(capsys):
    assert main(["deriv", "--expr", "0.5*t^4 - t^2.2", "--alpha", "0.7",
                 "--grid", "0:2:0.05"]) == 0
    f = FracSeries(((0.5, 4.0), (-1.0, 2.2)))
    d = frac_derive(f, 0.7)
    ts = 0.05 * np.arange(41)
    assert _rows(capsys.readouterr().out) == [_line((t, f(float(t)), d(float(t)))) for t in ts]


def test_el_curve_rows_equal_the_pointwise_tree_walk(tmp_path, capsys):
    L = "1.3*y1_1^0.8 + 0.7*x1^0.4 + y2_1^2*x2 + 0.5*y1_2^2"
    x1, x2 = "[[0.5, 0.0], [1.1, 0.4], [0.3, 0.8]]", "[[1.5, 0.0], [0.6, 0.4], [0.9, 1.6]]"
    cfg = tmp_path / "curve.cfg"
    cfg.write_text(f"el.mode = curve\nel.alpha = 0.4\nel.k = 2\nel.lagrangian = {L}\n"
                   f"curve.x1 = {x1}\ncurve.x2 = {x2}\nel.grid = 0:2:0.05\n")
    assert main(["el", "--config", str(cfg)]) == 0
    curves = [FracSeries.from_json_text(x1), FracSeries.from_json_text(x2)]
    E = el_residual(BundleSpec(2, 2, 0.4), parse(L))
    want = []
    for t in 0.05 * np.arange(1, 41):
        env = jet_lift(curves, 0.4, 3, float(t)).env()
        want.append(_line([t] + [ref.evaluate(e, env) for e in E]))
    assert _rows(capsys.readouterr().out) == want


def test_solve_rows_equal_a_tree_walk_rhs(tmp_path, capsys):
    rhs = [parse("-x1 + 0.5*x2*t"), parse("x1^2 - x2 + gamma(1.5)")]
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("solve.alpha = 0.7\nsolve.h = 0.01\nsolve.t_end = 1.0\n"
                   "solve.x0 = 1.0, 0.5\nsolve.rhs.1 = -x1 + 0.5*x2*t\n"
                   "solve.rhs.2 = x1^2 - x2 + gamma(1.5)\n")
    assert main(["solve", "--config", str(cfg)]) == 0

    def f(t, s):
        env = {"t": float(t), "x1": float(s[0]), "x2": float(s[1])}
        return np.array([ref.evaluate(e, env) for e in rhs])

    res = solve_fode(f, np.array([1.0, 0.5]), 0.7, 1.0, 0.01)
    want = [_line([t, *x]) for t, x in zip(res.t, res.x)]
    assert _rows(capsys.readouterr().out) == want


# ------------------------------------------------------------- determinism --


@pytest.mark.parametrize(
    "argv",
    [
        ["el", "--config", f"{CONFIGS}/el_reference.cfg"],
        ["connection", "--config", f"{CONFIGS}/connection_demo.cfg"],
        ["solve", "--config", f"{CONFIGS}/solve_eigen.cfg"],
        ["deriv", "--expr", "t^2 + t^3.5", "--alpha", "0.6",
         "--grid", "0:1:0.01", "--scheme", "l1"],
    ],
    ids=["el", "connection", "solve", "deriv"],
)
def test_output_is_byte_identical_across_runs(tmp_path, argv):
    a = tmp_path / "a.out"
    b = tmp_path / "b.out"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--config", f"{CONFIGS}/solve_eigen.cfg"],
        ["deriv", "--expr", "t^2 + t^3.5", "--alpha", "0.6",
         "--grid", "0:1:0.001", "--scheme", "exact"],
        ["deriv", "--series", "[[1.0, 2.0], [0.5, 3.1]]", "--alpha", "0.4",
         "--grid", "0:1:0.001", "--scheme", "gl", "--side", "right"],
    ],
    ids=["solve", "deriv-exact", "deriv-gl"],
)
def test_stdout_bytes_equal_out_file_bytes(tmp_path, capsys, argv):
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_one_parser_serves_every_run_as_a_fresh_process_would(capsysbinary):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = [
        ["deriv", "--expr", "t^2 + 1", "--alpha", "0.5", "--grid", "0:1:0.25"],
        ["deriv", "--alpha", "0.5", "--grid", "0:1:0.25"],  # usage error: no --expr
        ["connection", "--config", str(CONFIGS / "connection_demo.cfg")],
        ["el", "--config", str(CONFIGS / "el_reference.cfg")],
    ]
    parser = cli.build_parser()
    for argv in runs:
        code = main(argv)
        out, err = capsysbinary.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "fracosc.cli", *argv], env=env,
                               capture_output=True)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert cli.build_parser() is parser


def test_cli_import_does_not_load_numpy_fft():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # nor mpmath or scipy: the special functions use math and cmath only
    code = ("import sys, fracosc.cli; "
            "print([m for m in ('numpy.fft', 'mpmath', 'scipy') if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_deriv_l1_at_alpha_one_prints_the_backward_difference(capsys):
    argv = ["deriv", "--expr", "t^2", "--alpha", "1", "--grid", "0:1:0.25", "--scheme", "l1"]
    assert main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
            if line and not line.startswith("#")][1:]
    t, f, d = (np.array([float(r[c]) for r in rows]) for c in range(3))
    np.testing.assert_allclose(t, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(d, np.concatenate([[0.0], np.diff(f) / 0.25]), rtol=1e-14)


@pytest.mark.parametrize("script", sorted(
    (Path(__file__).resolve().parent.parent / "scripts").glob("*.py")), ids=lambda p: p.stem)
def test_script_runs_to_completion(script):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
