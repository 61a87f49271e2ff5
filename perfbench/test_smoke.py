"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

They check that every metric named in BENCHMARK.json is emitted, that the
gates catch a planted wrong value, and that the trace refuses a broken
wiring.  They are not part of the repository's test suite (testpaths).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_what_run_emits():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    record = json.loads(lines[-2])["record"]
    assert {"nproc", "python", "mpmath", "mpmath_backend", "loadavg_start",
            "seed"} <= set(record["machine"])


@pytest.fixture(scope="module")
def smoke_outputs():
    """Real outputs of three workloads at smoke size, run in this process."""
    out = {}
    for name in ("critlen", "verify-spherical", "dual-route"):
        inputs = workloads.build_inputs(name, 5, "smoke")
        out[name] = (inputs, workloads.run_workload(name, inputs, child.entry_points()))
    return out


def _failed(name, inputs, out):
    return [v["unit"] for v in workloads.gate(name, inputs, out) if not v["ok"]]


def test_gates_pass_real_outputs(smoke_outputs):
    for name, (inputs, out) in smoke_outputs.items():
        assert _failed(name, inputs, out) == [], name


def test_critlen_gate_catches_planted_values(smoke_outputs):
    inputs, out = smoke_outputs["critlen"]
    bad = json.loads(json.dumps(out))
    bad["reports"][1]["estimate"] += 1e-6
    assert _failed("critlen", inputs, bad) == ["n=1"]
    bad = json.loads(json.dumps(out))
    bad["reports"][0]["per_j"][0]["first_zero"] = None
    assert _failed("critlen", inputs, bad) == ["n=0"]
    bad = json.loads(json.dumps(out))
    del bad["reports"][1]
    assert _failed("critlen", inputs, bad) == ["n=1"]


def test_verify_gate_catches_planted_values(smoke_outputs):
    inputs, out = smoke_outputs["verify-spherical"]
    bad = json.loads(json.dumps(out))
    bad["units"][0]["reports"][0]["pass"] = False
    assert _failed("verify-spherical", inputs, bad) == ["spherical:1"]
    bad = json.loads(json.dumps(out))
    ran = next(r for r in bad["units"][0]["reports"] if not r["skipped"])
    ran["skipped"] = True
    assert _failed("verify-spherical", inputs, bad) == ["spherical:1"]


def test_dual_gate_catches_planted_values(smoke_outputs):
    inputs, out = smoke_outputs["dual-route"]
    bad = json.loads(json.dumps(out))
    bad["units"][2]["pairs"][7][3] *= 1 + 1e-9
    assert _failed("dual-route", inputs, bad) == ["n=2"]
    bad = json.loads(json.dumps(out))
    bad["units"][1]["pairs"].pop()
    assert _failed("dual-route", inputs, bad) == ["n=1"]


def test_trace_refuses_a_rebound_name(monkeypatch):
    from chebcrit import critlen
    monkeypatch.setattr(critlen, "minor_values", lambda *a: {})
    with pytest.raises(spans.TraceWiringError, match="critlen.minor_values"):
        spans.Tracer().install()


def test_trace_refuses_a_silent_layer():
    metrics = dict.fromkeys(spans.EXPECTED["critlen"], 1.0)
    metrics["determinants.minor_values.calls"] = 0
    with pytest.raises(spans.TraceWiringError, match="minor_values"):
        spans.check_observed("critlen", metrics)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "critlen", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
