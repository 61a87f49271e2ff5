"""chebcrit benchmark: one workload, measured in fresh single-threaded children.

    python3 perfbench/run.py --workload critlen --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is taken from its src/.
Every measured run is a new process, as a CLI user pays for it, and so
that the program's in-process caches (identities._spherical_stack, the
cumulative-integral cache) cannot turn a repeat into lookups.  One child
runs at a time.

--trace 0 reports the end-to-end metrics: set-up time (median of several
set-ups), wall time and peak RSS (medians over the children that fit in
--seconds, at least one).  --trace 1 runs one untraced and one traced
child and reports the per-layer metrics of the traced one, with
trace.overhead_s the difference of their wall times and slowest_unit_s
taken from the untraced one.

Every child's outputs pass through the workload's correctness gate.  The
last line of standard output is the result object; the line before it is
the full record (machine, children, units, gate verdicts).  Exit status:
0 correct, 1 a gate failed, 2 no program to measure, 3 a child crashed,
timed out or the trace wiring broke.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import spans
import workloads
from workloads import now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-up-only children per untraced run, besides each measured child's own
SETUP_SAMPLES = 6

#: end-to-end metrics, with their units, in the order they are reported
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

#: a run never outlives this (runs must end within 180 s)
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CRITLEN_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # chebcrit is compiled from source in every child, and nothing is written
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Children:
    """Starts one child at a time and waits for it; all share one deadline."""

    def __init__(self, workload: str, seed: int, scale: str):
        self.base = {"workload": workload, "seed": seed, "scale": scale}
        self.env = child_env()
        self.deadline = now() + RUN_BUDGET_S

    def run(self, mode: str, trace: bool = False) -> dict:
        cfg = dict(self.base, mode=mode, trace=trace)
        cmd = [sys.executable, str(HERE / "child.py"), json.dumps(cfg)]
        t_spawn = now()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - now()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child passed the {RUN_BUDGET_S:.0f} s budget")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        sys.stderr.write(err)
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited {proc.returncode}")
        record = json.loads(out.splitlines()[-1])
        record["setup_s"] = record.pop("t_setup") - t_spawn
        if mode == "run":
            record["wall_s"] = record.pop("t_done") - t_spawn
        return record


def machine_record(seed: int) -> dict:
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg_start": os.getloadavg(),
            "seed": seed}


def measure(args, children: Children) -> tuple[list[dict], dict]:
    """The measured children and the metrics of this run."""
    children.run("setup")  # warm-up of the file cache, not measured
    if args.trace:
        plain = children.run("run")
        traced = children.run("run", trace=True)
        spans.check_observed(args.workload, traced["layers"])
        metrics = dict(traced["layers"])
        metrics["slowest_unit_s"] = max(u["s"] for u in plain["out"]["units"])
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        return [plain, traced], metrics
    setups = [children.run("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    runs = []
    t_start = now()
    while True:
        runs.append(children.run("run"))
        if now() - t_start + runs[-1]["wall_s"] > args.seconds:
            break
    setups += [r["setup_s"] for r in runs]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in runs),
    }
    return runs, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="smoke: tiny sizes for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chebcrit" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {ROOT / 'src' / 'chebcrit'}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # children are reaped

    record = {"machine": machine_record(args.seed), "workload": args.workload,
              "scale": args.scale, "seconds": args.seconds, "trace": args.trace}
    try:
        runs, metrics = measure(args, Children(args.workload, args.seed, args.scale))
    except (BenchError, spans.TraceWiringError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    inputs = workloads.build_inputs(args.workload, args.seed, args.scale)
    verdicts = [v for r in runs for v in workloads.gate(args.workload, inputs, r["out"])]
    failed = sum(not v["ok"] for v in verdicts)
    worst = max(v["err_over_tol"] for v in verdicts)
    if args.trace:
        metrics["gate.worst_err_over_tol"] = worst
    units = spans.PER_LAYER if args.trace else END_TO_END
    record["machine"]["mpmath"] = runs[0]["mpmath"]
    record["machine"]["mpmath_backend"] = runs[0]["mpmath_backend"]
    record.update(
        children=[{"wall_s": r["wall_s"], "setup_s": r["setup_s"],
                   "rss_mb": r["rss_kb"] / 1024,
                   "units": {u["unit"]: u["s"] for u in r["out"]["units"]}}
                  for r in runs],
        fail_frac=failed / len(verdicts), worst_err_over_tol=worst,
        failures=[v for v in verdicts if not v["ok"]])
    result = {"correct": failed == 0, "attempted": len(verdicts), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units}}
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
