"""One measured process: set up, run one workload once, print one JSON line.

Started by run.py with a JSON configuration as its only argument:
``{"workload", "seed", "scale", "mode": "setup"|"run", "trace": bool}``.
Set-up ends once chebcrit is imported, the workload's inputs are built
and, when traced, the wrappers are installed; a "setup" child stops there.
Times are read on the monotonic clock the parent shares.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from workloads import build_inputs, now, run_workload


def entry_points() -> dict:
    """The program's functions the benchmark calls itself, by span name."""
    from workloads import dispatch_captured
    from chebcrit.determinants import symbolic_minor, wronskian_minor
    from chebcrit.trigpoly import tp_eval
    return {"cli.dispatch": dispatch_captured,
            "determinants.symbolic_minor": symbolic_minor,
            "determinants.wronskian_minor": wronskian_minor,
            "trigpoly.tp_eval": tp_eval}


def main(cfg: dict) -> dict:
    import chebcrit
    import mpmath
    import mpmath.libmp

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(chebcrit.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"imported chebcrit from {chebcrit.__file__}, not {src}")
    inputs = build_inputs(cfg["workload"], cfg["seed"], cfg["scale"])
    calls = entry_points()
    tracer = None
    if cfg["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        calls = {name: tracer.wrap(name, fn, site="bench") for name, fn in calls.items()}
    record = {"t_setup": now(), "mpmath": mpmath.__version__,
              "mpmath_backend": mpmath.libmp.BACKEND}
    if cfg["mode"] == "run":
        record["out"] = run_workload(cfg["workload"], inputs, calls)
        record["t_done"] = now()
        if tracer is not None:
            record["layers"] = tracer.summary()
    record["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return record


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
