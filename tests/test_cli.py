"""CLI surface: subcommands, formats, exit codes, byte determinism."""

from __future__ import annotations

import json
import math
import re

import pytest

from chebcrit import bessel
from chebcrit.cli import dispatch, fmt_float, render_json
from chebcrit.determinants import symbolic_v
from chebcrit.trigpoly import spherical_fn, tp_eval


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- rendering

def test_float_format_17g():
    assert fmt_float(math.pi) == "3.1415926535897931"


def test_render_json_is_valid_json():
    doc = render_json({"a": [1.5, None, True], "b": {"c": "x"}})
    assert json.loads(doc) == {"a": [1.5, None, True], "b": {"c": "x"}}


def test_render_json_nan_becomes_null():
    assert render_json(float("nan")) == "null"


# ---------------------------------------------------------------- subcommands

def test_zeros_first_zero_of_sin(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--nu", "0.5", "--count", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["header"]["version"]
    row = doc["zeros"][0]
    assert row["index"] == 1
    assert abs(row["value"] - math.pi) <= 1e-11
    assert row["residual"] <= 1e-11


def test_zeros_deriv(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--nu", "1.5", "--count", "1", "--deriv")
    assert code == 0
    doc = json.loads(out)
    assert 1.5 < doc["zeros"][0]["value"] < 4.5


def test_fn_show(capsys):
    code, out, _ = run_cli(capsys, "fn", "--n", "2", "--show")
    assert code == 0
    doc = json.loads(out)
    assert doc["harmonics"]["1"]["sin"] == ["3/1", "0/1", "-1/1"]
    assert doc["harmonics"]["1"]["cos"] == ["0/1", "-3/1"]


def test_fn_eval(capsys):
    code, out, _ = run_cli(capsys, "fn", "--n", "2", "--at", str(math.pi))
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["values"][0]["value"] - 3 * math.pi) <= 1e-12 * 3 * math.pi


def test_scan_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "scan", "--what", "v", "--n", "1",
                           "--range", "0.5:3.0", "--points", "6")
    assert code == 0
    lines = out.strip().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "x,value,sign"
    assert len(data) == 7
    first = data[1].split(",")
    want = 0.5 * math.cos(1.0) + 0.25 - 0.5  # v(f_1)(0.5)
    assert abs(float(first[1]) - want) <= 1e-12
    assert first[2] == "1"


def test_scan_minor_json(capsys):
    code, out, _ = run_cli(capsys, "scan", "--what", "minor", "--n", "1",
                           "--j", "3", "--range", "1:5", "--points", "5",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 5
    signs = [r["sign"] for r in doc["rows"]]
    assert 1 in signs and -1 in signs  # f_1 changes sign at ~4.49


def test_scan_minor_requires_j(capsys):
    code, _, err = run_cli(capsys, "scan", "--what", "minor", "--n", "1",
                           "--range", "1:5", "--points", "5")
    assert code == 2
    assert "j" in err


def test_verify_single_identity(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "prop1",
                           "--model", "spherical:2", "--range", "0.1:10",
                           "--points", "25")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert doc["reports"][0]["identity"] == "prop1"
    assert doc["reports"][0]["pass"] is True


def test_verify_all_small_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "all",
                           "--model", "spherical:2", "--range", "0.1:10",
                           "--points", "25")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert len(doc["reports"]) == 19  # one report per identity tag
    skipped = [r["identity"] for r in doc["reports"] if r["skipped"]]
    assert skipped == ["integral-vJnu"]


def test_scan_csv_byte_determinism(capsys):
    args = ("scan", "--what", "w", "--n", "2", "--range", "0.5:8", "--points", "9")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_verify_failure_exit_code(capsys):
    # an absurd tolerance forces a legitimate failure -> exit 1
    code, out, _ = run_cli(capsys, "verify", "--identity", "prop1",
                           "--model", "spherical:2", "--range", "0.1:10",
                           "--points", "25", "--tol", "1e-30")
    assert code == 1
    doc = json.loads(out)
    assert doc["all_pass"] is False


def test_verify_bad_model(capsys):
    code, _, err = run_cli(capsys, "verify", "--identity", "prop1",
                           "--model", "cubic:2")
    assert code == 2
    assert "model" in err or "family" in err


@pytest.mark.parametrize("tag", ["prop1", "integral-v", "integral-vfn", "integral-V",
                                 "eq-Vpositive"])
def test_verify_grid_through_the_origin_is_usage_error(capsys, tag):
    # x = 0 lies outside the model's domain for every grid identity alike
    code, out, err = run_cli(capsys, "verify", "--identity", tag, "--model", "spherical:2",
                             "--range", "0:30", "--spacing", "linear", "--points", "5")
    assert code == 2
    assert out == "" and "outside the domain" in err


def test_critlen_json(capsys):
    code, out, _ = run_cli(capsys, "critlen", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    rep = doc["reports"][0]
    assert abs(rep["estimate"] - 4.4934094579) <= 1e-8
    assert rep["conjecture_consistent"] is True
    assert {row["j"] for row in rep["per_j"]} == {2, 3}


def test_critlen_table(capsys):
    code, out, _ = run_cli(capsys, "critlen", "--n", "0", "--format", "table")
    assert code == 0
    assert "n=0" in out and "first_zero" in out


def test_critlen_refuses_minors_below_the_double_range(capsys):
    # at n = 10 the minors j = 11..16 underflow at the first grid point; they
    # used to scan as exact zeros and give estimate 0.001
    code, out, err = run_cli(capsys, "critlen", "--n", "10")
    assert code == 3
    assert out == "" and "underflows double precision" in err


def test_scan_refuses_a_value_below_the_double_range(capsys):
    # w(f_16) at x = 1e-3 is positive and below the least subnormal; the scan
    # used to print it as value 0, sign 0
    code, out, err = run_cli(capsys, "scan", "--what", "w", "--n", "16",
                             "--range", "0.001:0.002", "--points", "2", "--format", "json")
    assert code == 3
    assert out == "" and "value at x=0.001 underflows double precision" in err


def test_critlen_needs_n(capsys):
    code, _, err = run_cli(capsys, "critlen")
    assert code == 2


def test_nonfinite_flag_rejected(capsys):
    code, _, err = run_cli(capsys, "zeros", "--nu", "inf", "--count", "1")
    assert code == 2
    assert "finite" in err


@pytest.mark.parametrize("argv", [
    ("zeros", "--nu", "2.5", "--count", "1", "--tol", "-1"),
    ("verify", "--model", "spherical:1", "--tol", "-1"),
])
def test_negative_tol_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and "tol" in err


def test_zero_tol_is_valid(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--nu", "2.5", "--count", "1", "--tol", "0")
    assert code == 0
    assert json.loads(out)["header"]["config"]["tol"] == 0.0


@pytest.mark.parametrize("argv", [
    ("fn", "--n", "2", "--at", "-inf"),
    ("fn", "--n", "2", "--at", "0.5", "-nan"),
    ("zeros", "--nu", "-Infinity", "--count", "2"),
    ("fn", "--n", "2", "--at", "-INF"),
    ("fn", "--n", "2", "--at", "-NaN"),
    ("zeros", "--nu", "-infinity", "--count", "2"),
])
def test_negative_nonfinite_literals_reach_the_finite_check(capsys, argv):
    # argparse alone reads these as options ("expected at least one
    # argument", "unrecognized arguments"), so the message named the wrong cause
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and "numeric flags must be finite" in err


@pytest.mark.parametrize("literal", ["-1e-3", "-5.", "-1E2"])
def test_negative_literals_in_every_decimal_form_are_values(capsys, literal):
    # argparse alone reads these as unknown options: only -5 and -0.5 pass it
    code, out, err = run_cli(capsys, "fn", "--n", "2", "--at", "0.5", literal)
    assert code == 0, err
    xs = (0.5, float(literal))
    assert json.loads(out)["values"] == [{"x": x, "value": tp_eval(spherical_fn(2), x)}
                                         for x in xs]


def test_scan_range_may_start_negative(capsys):
    code, out, err = run_cli(capsys, "scan", "--what", "v", "--n", "2", "--range", "-1:1",
                             "--points", "3", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["rows"] == [
        {"x": x, "value": tp_eval(symbolic_v(2), x), "sign": s}
        for x, s in ((-1.0, 1), (0.0, 0), (1.0, 1))]


def test_zeros_count_below_one_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "zeros", "--nu", "2", "--count", "0")
    assert code == 2
    assert out == "" and "count" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "zeros", "--nu", "0.5", "--count", "1",
                         "--bogus")
    assert code == 2


def test_byte_determinism(capsys):
    args = ("verify", "--identity", "vfprime", "--model", "bessel:1.5",
            "--range", "0.1:20", "--points", "40")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("tag, spec, rng, points, row_x", [
    ("thm-main1-criterion", "spherical:2", "1e-200:1e-150", 3, 1e-200),  # x^2 underflows to 0
    ("a23-coeffs", "spherical:2", "1e-40:1e-39", 3, 1e-40),              # p''^3 overflows
    ("thm-main1-criterion", "bessel:2", "1e200:1e201", 3, 1e200),        # x^2 overflows
    # q'(x) = 0/x^3 overflows from the second point on; the third and
    # fourth points' stacks overflow as well, but the rows run in grid order
    ("prop1", "spherical:2", "1e70:1e300", 4, 4.641588833612766e+146),
])
def test_verify_past_the_double_range_is_a_numerical_failure(capsys, tag, spec, rng,
                                                             points, row_x):
    # these raised ZeroDivisionError / OverflowError out of dispatch (exit 1);
    # the failure names the x of its grid row or criterion sample
    code, out, err = run_cli(capsys, "verify", "--identity", tag, "--model", spec,
                             "--range", rng, "--points", str(points))
    assert code == 3
    assert out == "" and err.startswith(f"numerical failure: {tag} on {spec} leaves the "
                                        f"double range at x={row_x!r}: ")
    assert "(34, " not in err


@pytest.mark.parametrize("tag, cap", [("prop1", None), ("integral-v", 40)])
def test_verify_names_the_identity_and_x_of_a_series_failure(capsys, monkeypatch, tag, cap):
    # J_2's series outgrows its 500-term cap on this grid; the failure used
    # to name neither the identity nor the x.  integral-v meets it in its
    # integral column, about 11 s in at the full cap, so it runs under a
    # 40-term cap, which the series outgrows from x = 100
    if cap is not None:
        bessel._row.cache_clear()
        monkeypatch.setattr(bessel, "SERIES_TERM_CAP", cap)
    code, out, err = run_cli(capsys, "verify", "--identity", tag, "--model", "bessel:2",
                             "--range", "200:300", "--points", "3")
    assert code == 3
    assert out == "" and err.startswith(f"numerical failure: {tag} on bessel:2: Bessel series "
                                        f"did not converge within {cap or 500} terms (nu=2.0, ")
    at_x = re.search(r" at x=(\S+)$", err.rstrip())
    assert at_x and 0.0 < float(at_x.group(1)) <= 300.0, err


def test_verify_refuses_a_row_that_is_not_finite(capsys):
    # at x = 5e103 and 1e104 the terms of thm-main6 overflow and the residual
    # is NaN; the reduction used to skip it after a finite first row (exit 0)
    code, out, err = run_cli(capsys, "verify", "--identity", "thm-main6", "--model",
                             "spherical:1", "--range", "10:1e104", "--points", "3",
                             "--spacing", "linear")
    assert code == 3
    assert out == "" and err.startswith("numerical failure: thm-main6 on spherical:1: "
                                        "the residual at x=5e+103 is not finite")


@pytest.mark.parametrize("argv", [("--n", "3", "--n-max", "1"), ("--n-max", "1", "--n", "3")])
def test_critlen_takes_one_of_n_and_n_max(capsys, argv):
    # --n-max used to win silently over --n
    code, out, err = run_cli(capsys, "critlen", *argv)
    assert code == 2
    assert out == "" and "not allowed with" in err


@pytest.mark.parametrize("rng, points", [("0.001:0.01", 10), ("0.5:12", 200),
                                         ("-1:1", 3), ("0.3:0.9", 4)])
def test_scan_ends_at_the_range_end(capsys, rng, points):
    # 0.001:0.01 and 0.3:0.9 used to end at the rounded reconstruction above hi
    code, out, err = run_cli(capsys, "scan", "--what", "v", "--n", "2", "--range", rng,
                             "--points", str(points), "--format", "json")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert (len(rows), rows[-1]["x"]) == (points, float(rng.split(":")[1]))
