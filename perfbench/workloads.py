"""Workload definitions: seeded inputs, runners and correctness gates.

The parent (run.py) imports this module for the gates only; the runners
import chebcrit lazily, inside the child process that measures them.

A workload is a list of units.  A unit is one n for critlen and
dual-route and one model for the verify workloads; the gate judges each
unit on its own, so a failure is counted against the units attempted.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

def now() -> float:
    """The clock parent and children share, so the parent times child start-up."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


#: acceptance tolerances (criterion 7 and criterion 10)
CRITLEN_TOL = 1e-8
DUAL_RTOL = 1e-10

#: non-skipped (tag, model) reports of `verify --identity all`, per model
#: and point count, as the seed code runs them
VERIFY_RAN = {
    ("spherical:1", 50): 17,
    ("spherical:2", 500): 18,
    ("spherical:4", 500): 18,
    ("bessel:1.5", 50): 9,
    ("bessel:1.5", 500): 9,
    ("bessel:3.4", 500): 9,
}

#: full size (what the benchmark measures) and smoke size (its own tests)
SIZES = {
    "full": {
        "critlen": {"n_max": 6},
        "verify-spherical": {"models": ("spherical:2", "spherical:4"), "points": 500},
        "verify-bessel": {"models": ("bessel:1.5", "bessel:3.4"), "points": 500},
        "dual-route": {"n_max": 6, "points": 60},
    },
    "smoke": {
        "critlen": {"n_max": 1},
        "verify-spherical": {"models": ("spherical:1",), "points": 50},
        "verify-bessel": {"models": ("bessel:1.5",), "points": 50},
        "dual-route": {"n_max": 2, "points": 60},
    },
}

WORKLOADS = tuple(SIZES["full"])

DUAL_RANGE = (1e-3, 12.0)


def build_inputs(workload: str, seed: int, scale: str) -> dict:
    """Everything the program is given, as plain data; same seed, same inputs.

    critlen and the verify workloads have no free inputs (the CLI defaults
    fix them).  dual-route draws log-uniform abscissae from the seed, one in
    each of ``points`` equal log-strata, so every seed puts the same share
    of points below MACLAURIN_RADIUS and costs about the same.
    """
    size = SIZES[scale][workload]
    if workload == "critlen":
        return {"argv": ["critlen", "--n-max", str(size["n_max"])],
                "n_max": size["n_max"]}
    if workload.startswith("verify-"):
        return {"units": [
            {"model": m, "points": size["points"],
             "argv": ["verify", "--identity", "all", "--model", m,
                      "--points", str(size["points"])]}
            for m in size["models"]]}
    if workload == "dual-route":
        rng = random.Random(f"dual-route:{seed}")
        lo, hi = (math.log(v) for v in DUAL_RANGE)
        width = (hi - lo) / size["points"]
        return {"units": [
            {"n": n, "xs": [math.exp(lo + (i + rng.random()) * width)
                            for i in range(size["points"])]}
            for n in range(size["n_max"] + 1)]}
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# runners (child process)
# ----------------------------------------------------------------------

def dispatch_captured(argv: list[str]) -> tuple[int, str]:
    """cli.dispatch with its standard output captured: (exit code, text)."""
    from chebcrit import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.dispatch(argv)
    return code, buf.getvalue()


def run_workload(workload: str, inputs: dict, calls: dict) -> dict:
    """Run the workload once; return its outputs and per-unit timings.

    ``calls`` maps span names to the program functions the benchmark calls
    itself (child.entry_points), wrapped when traced.  Unit times use the
    shared clock.
    """
    if workload == "critlen":
        return _run_critlen(inputs, calls["cli.dispatch"])
    if workload.startswith("verify-"):
        return _run_verify(inputs, calls["cli.dispatch"])
    if workload == "dual-route":
        return _run_dual(inputs, calls)
    raise ValueError(f"unknown workload {workload!r}")


def _run_critlen(inputs: dict, dispatch) -> dict:
    # one unit per n: time estimate_critical_length as conjecture_scan finds it
    from chebcrit import critlen
    from chebcrit.errors import ChebcritError

    units = []
    inner = critlen.estimate_critical_length

    def timed(n, *args, **kwargs):
        row = {"unit": f"n={n}"}
        units.append(row)
        t0 = now()
        try:
            return inner(n, *args, **kwargs)
        except ChebcritError as exc:
            row["error"] = repr(exc)
            raise
        finally:
            row["s"] = now() - t0

    critlen.estimate_critical_length = timed
    try:
        code, text = dispatch(inputs["argv"])
    finally:
        critlen.estimate_critical_length = inner
    if code == 0 and len(units) != inputs["n_max"] + 1:
        raise RuntimeError(
            f"timed {len(units)} calls of critlen.estimate_critical_length, "
            f"expected {inputs['n_max'] + 1}: conjecture_scan no longer calls it")
    payload = json.loads(text) if code == 0 else None
    return {"code": code, "units": units,
            "reports": payload["reports"] if payload else None}


def _run_verify(inputs: dict, dispatch) -> dict:
    units = []
    for unit in inputs["units"]:
        t0 = now()
        code, text = dispatch(unit["argv"])
        row = {"unit": unit["model"], "s": now() - t0, "code": code}
        if code in (0, 1):
            payload = json.loads(text)
            row["all_pass"] = payload["all_pass"]
            row["reports"] = [
                {k: r[k] for k in ("identity", "skipped", "pass",
                                   "max_rel_residual", "tolerance")}
                for r in payload["reports"]]
        units.append(row)
    return {"units": units}


def _run_dual(inputs: dict, calls: dict) -> dict:
    from chebcrit.determinants import admissible_j
    from chebcrit.errors import ChebcritError

    symbolic_minor = calls["determinants.symbolic_minor"]
    wronskian_minor = calls["determinants.wronskian_minor"]
    tp_eval = calls["trigpoly.tp_eval"]

    units = []
    for unit in inputs["units"]:
        n = unit["n"]
        t0 = now()
        pairs = []
        row = {"unit": f"n={n}", "pairs": pairs}
        try:
            minors = {j: symbolic_minor(n, j) for j in admissible_j(n)}
            for x in unit["xs"]:
                for j, sym in minors.items():
                    pairs.append([j, x, tp_eval(sym, x), wronskian_minor(n, j, x)])
        except ChebcritError as exc:
            row["error"] = repr(exc)
        row["s"] = now() - t0
        units.append(row)
    return {"units": units}


# ----------------------------------------------------------------------
# gates (parent process)
# ----------------------------------------------------------------------

def load_critlen_reference() -> list[dict]:
    return json.loads((HERE / "critlen_reference.json").read_text())["reports"]


def gate(workload: str, inputs: dict, out: dict) -> list[dict]:
    """Judge every unit: [{"unit", "ok", "err_over_tol", "detail"}].

    err_over_tol is the worst error of the unit's checks divided by the
    check's pinned tolerance (0 for checks that are pass/fail only).
    """
    if workload == "critlen":
        return gate_critlen(inputs, out, load_critlen_reference())
    if workload.startswith("verify-"):
        return gate_verify(inputs, out)
    if workload == "dual-route":
        return gate_dual(inputs, out)
    raise ValueError(f"unknown workload {workload!r}")


def _verdict(unit: str, ratios: list[float], problems: list[str]) -> dict:
    worst = max(ratios, default=0.0)
    if worst > 1.0:
        problems = problems + [f"error {worst:.3g} x tolerance"]
    return {"unit": unit, "ok": not problems, "err_over_tol": worst,
            "detail": "; ".join(problems)}


def gate_critlen(inputs: dict, out: dict, reference: list[dict]) -> list[dict]:
    """|gap| <= 1e-8 for n <= 2, estimate <= reference + 1e-8 for every n,
    and agreement with the recorded seed payload at 1e-8."""
    got = {r["n"]: r for r in out["reports"] or []}
    want = {r["n"]: r for r in reference}
    verdicts = []
    for n in range(inputs["n_max"] + 1):
        rep, ref = got.get(n), want[n]
        if rep is None:
            verdicts.append(_verdict(f"n={n}", [], [f"no report (exit {out['code']})"]))
            continue
        ratios, problems = [], []
        est, bessel_ref = rep["estimate"], rep["reference"]
        if est is None or bessel_ref is None:
            verdicts.append(_verdict(f"n={n}", [], ["estimate is not finite"]))
            continue
        if n <= 2:
            ratios.append(abs(est - bessel_ref) / CRITLEN_TOL)
        ratios.append(max(0.0, est - bessel_ref) / CRITLEN_TOL)
        ratios.append(abs(est - ref["estimate"]) / CRITLEN_TOL)
        ratios.append(abs(bessel_ref - ref["reference"]) / CRITLEN_TOL)
        rows = {r["j"]: r for r in rep["per_j"]}
        for ref_row in ref["per_j"]:
            row = rows.get(ref_row["j"])
            if row is None:
                problems.append(f"j={ref_row['j']} missing")
                continue
            a, b = row["first_zero"], ref_row["first_zero"]
            if (a is None) != (b is None):
                problems.append(f"j={ref_row['j']}: first zero {a} vs recorded {b}")
            elif a is not None:
                ratios.append(abs(a - b) / CRITLEN_TOL)
            if row["indeterminate"] != ref_row["indeterminate"]:
                problems.append(f"j={ref_row['j']}: indeterminate flag changed")
        verdicts.append(_verdict(f"n={n}", ratios, problems))
    return verdicts


def gate_verify(inputs: dict, out: dict) -> list[dict]:
    """all_pass, exit 0, and the expected number of non-skipped reports."""
    verdicts = []
    rows = {row["unit"]: row for row in out["units"]}
    for unit in inputs["units"]:
        row = rows.get(unit["model"])
        if row is None or "reports" not in row:
            code = None if row is None else row["code"]
            verdicts.append(_verdict(unit["model"], [], [f"no payload (exit {code})"]))
            continue
        problems = []
        if row["code"] != 0 or not row["all_pass"]:
            problems.append(f"exit {row['code']}, all_pass {row['all_pass']}")
        ran = [r for r in row["reports"] if not r["skipped"]]
        expected = VERIFY_RAN[(unit["model"], unit["points"])]
        if len(ran) != expected:
            problems.append(f"{len(ran)} checks ran, expected {expected}")
        problems += [f"{r['identity']} failed" for r in ran if not r["pass"]]
        ratios = [r["max_rel_residual"] / r["tolerance"] for r in ran
                  if r["tolerance"] and r["max_rel_residual"] is not None]
        verdicts.append(_verdict(unit["model"], ratios, problems))
    return verdicts


def gate_dual(inputs: dict, out: dict) -> list[dict]:
    """Every (j, x) pair: symbolic and numeric minors agree to 1e-10 relative."""
    from_child = {row["unit"]: row for row in out["units"]}
    verdicts = []
    for unit in inputs["units"]:
        name = f"n={unit['n']}"
        row = from_child.get(name)
        if row is None:
            verdicts.append(_verdict(name, [], ["not run"]))
            continue
        problems = [row["error"]] if "error" in row else []
        expected = len(unit["xs"]) * (unit["n"] + 1)
        if len(row["pairs"]) != expected:
            problems.append(f"{len(row['pairs'])} pairs, expected {expected}")
        ratios = [abs(a - b) / max(abs(a), abs(b), 1e-280) / DUAL_RTOL
                  for _, _, a, b in row["pairs"]]
        verdicts.append(_verdict(name, ratios, problems))
    return verdicts
