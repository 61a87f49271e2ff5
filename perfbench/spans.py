"""Per-layer tracing from outside the program.

chebcrit's modules import each other's functions by name, so a wrapper on
``chebcrit.trigpoly.tp_eval_mp`` alone would see nothing: each wrapper is
installed on the binding of the module that calls the function (for
example ``chebcrit.determinants.tp_eval_mp``).  Every call through a
wrapper records a span (name, start, end, parent span); spans stay in
memory until the run ends, and ``summary`` turns them into the per-layer
metrics.  Self time is a span's duration minus that of its child spans.

Span keys have the form ``base[#variant][@site]``: the variant classifies a
call from its arguments (``tp_eval`` near 0, ``run_identity`` by kind) and
the site names the calling module where a metric needs it.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from array import array
from collections import Counter


class TraceWiringError(RuntimeError):
    """A binding the trace patches is gone, or a span it must see never ran."""


#: (span, defining module, function, modules whose binding is patched)
BINDINGS = (
    ("trigpoly.tp_eval_mp", "trigpoly", "tp_eval_mp", ("determinants",)),
    ("trigpoly.tp_eval", "trigpoly", "tp_eval",
     ("trigpoly", "determinants", "bessel", "identities")),
    ("trigpoly.tp_eval_over_power", "trigpoly", "tp_eval_over_power", ("identities",)),
    ("determinants.minor_values", "determinants", "minor_values", ("critlen",)),
    ("determinants.wronskian_minor", "determinants", "wronskian_minor", ("critlen",)),
    ("determinants.stack_from_spherical", "determinants", "stack_from_spherical",
     ("identities",)),
    ("bessel.bessel_j", "bessel", "bessel_j", ("bessel", "identities")),
    ("bessel.bessel_stack_values", "bessel", "bessel_stack_values", ("identities",)),
    ("bessel.zeros", "bessel", "bessel_zero", ("critlen", "identities")),
    ("bessel.zeros", "bessel", "fn_zero", ("identities",)),
    ("quadrature.cumulative_integrals", "quadrature", "cumulative_integrals",
     ("identities",)),
    ("quadrature.adaptive_simpson", "quadrature", "adaptive_simpson", ("quadrature",)),
    ("rootfind.refine_bracket", "rootfind", "refine_bracket", ("critlen", "rootfind")),
    ("identities.run_identity", "identities", "run_identity", ("identities",)),
)

#: spans whose first argument is a callable: count its evaluations
ARG0_COUNTERS = {
    "quadrature.cumulative_integrals": "quadrature.nodes",
    "rootfind.refine_bracket": "rootfind.refine_bracket.evals",
}

RUN_IDENTITY_KINDS = ("stack", "integral", "zero-point", "coeff", "criterion")

#: every per-layer metric a traced run reports, with its unit
PER_LAYER = (
    ("trigpoly.tp_eval_mp.calls", "count"),
    ("trigpoly.tp_eval_mp.self_s", "s"),
    ("trigpoly.tp_eval.calls", "count"),
    ("trigpoly.tp_eval.self_s", "s"),
    ("trigpoly.tp_eval.p50_us", "us"),
    ("trigpoly.tp_eval.p99_us", "us"),
    ("trigpoly.tp_eval.near0.calls", "count"),
    ("trigpoly.tp_eval.near0.self_s", "s"),
    ("trigpoly.tp_eval_over_power.calls", "count"),
    ("trigpoly.tp_eval_over_power.self_s", "s"),
    ("determinants.minor_values.calls", "count"),
    ("determinants.minor_values.self_s", "s"),
    ("determinants.minor_values.p50_ms", "ms"),
    ("determinants.minor_values.p99_ms", "ms"),
    ("determinants.wronskian_minor.calls", "count"),
    ("determinants.wronskian_minor.self_s", "s"),
    ("determinants.symbolic_minor.self_s", "s"),
    ("determinants.stack_from_spherical.calls", "count"),
    ("determinants.stack_from_spherical.self_s", "s"),
    ("bessel.bessel_j.calls", "count"),
    ("bessel.bessel_j.self_s", "s"),
    ("bessel.bessel_j.p50_us", "us"),
    ("bessel.bessel_j.p99_us", "us"),
    ("bessel.bessel_stack_values.calls", "count"),
    ("bessel.bessel_stack_values.self_s", "s"),
    ("bessel.zeros.calls", "count"),
    ("bessel.zeros.self_s", "s"),
    ("quadrature.cumulative_integrals.calls", "count"),
    ("quadrature.cumulative_integrals.self_s", "s"),
    ("quadrature.adaptive_simpson.calls", "count"),
    ("quadrature.adaptive_simpson.self_s", "s"),
    ("quadrature.nodes", "count"),
    ("rootfind.refine_bracket.calls", "count"),
    ("rootfind.refine_bracket.evals", "count"),
    *((f"identities.run_identity.{kind}.s", "s") for kind in RUN_IDENTITY_KINDS),
    ("critlen.grid_s", "s"),
    ("critlen.refine_s", "s"),
    ("cli.dispatch.self_s", "s"),
    ("slowest_unit_s", "s"),
    ("trace.overhead_s", "s"),
    ("gate.worst_err_over_tol", "ratio"),
)

#: per-layer metrics that come from the parent, not from spans
PARENT_METRICS = ("slowest_unit_s", "trace.overhead_s", "gate.worst_err_over_tol")

#: per-layer metrics that must be non-zero on each workload's traced run
EXPECTED = {
    "critlen": (
        "cli.dispatch.self_s", "determinants.minor_values.calls",
        "trigpoly.tp_eval_mp.calls", "critlen.grid_s", "critlen.refine_s",
        "rootfind.refine_bracket.calls", "rootfind.refine_bracket.evals",
        "bessel.zeros.calls", "bessel.bessel_j.calls"),
    "verify-spherical": (
        "cli.dispatch.self_s",
        *(f"identities.run_identity.{kind}.s" for kind in RUN_IDENTITY_KINDS),
        "trigpoly.tp_eval.calls", "trigpoly.tp_eval_over_power.calls",
        "determinants.stack_from_spherical.calls",
        "quadrature.cumulative_integrals.calls", "quadrature.adaptive_simpson.calls",
        "quadrature.nodes", "bessel.zeros.calls"),
    "verify-bessel": (
        "cli.dispatch.self_s",
        *(f"identities.run_identity.{kind}.s" for kind in RUN_IDENTITY_KINDS),
        "bessel.bessel_j.calls", "bessel.bessel_stack_values.calls",
        "quadrature.cumulative_integrals.calls", "quadrature.adaptive_simpson.calls",
        "quadrature.nodes", "bessel.zeros.calls"),
    "dual-route": (
        "determinants.symbolic_minor.self_s", "determinants.wronskian_minor.calls",
        "trigpoly.tp_eval.calls", "trigpoly.tp_eval.near0.calls",
        "trigpoly.tp_eval_mp.calls"),
}


def _module(name: str):
    return importlib.import_module(f"chebcrit.{name}")


class Tracer:
    """Span store plus the wrappers that feed it (single-threaded)."""

    def __init__(self):
        self.keys: list[str] = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self._open = [-1]
        self._classify = self._classifiers()

    @staticmethod
    def _classifiers() -> dict:
        """Variant rules by span; they read program constants, which must exist."""
        trigpoly, identities = _module("trigpoly"), _module("identities")
        for owner, attr in ((trigpoly, "MACLAURIN_RADIUS"), (identities, "REGISTRY")):
            if not hasattr(owner, attr):
                raise TraceWiringError(f"{owner.__name__}.{attr} is gone")
        radius = trigpoly.MACLAURIN_RADIUS
        registry = identities.REGISTRY
        return {
            "trigpoly.tp_eval": lambda a, k: "near0" if abs(a[1]) < radius else "",
            "identities.run_identity": lambda a, k: registry[a[0]].kind,
        }

    def wrap(self, span: str, fn, site: str = ""):
        """fn, recording one span per call under ``span`` (see module doc)."""
        keys, parents, starts, ends = self.keys, self.parents, self.starts, self.ends
        open_, counts = self._open, self.counts
        classify = self._classify.get(span)
        counter = ARG0_COUNTERS.get(span)
        suffix = f"@{site}" if site else ""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = span
            if classify is not None:
                variant = classify(args, kwargs)
                if variant:
                    key = f"{span}#{variant}"
            if counter is not None:
                args = (_counted(args[0], counts, counter),) + args[1:]
            i = len(keys)
            keys.append(key + suffix)
            parents.append(open_[-1])
            ends.append(0.0)
            open_.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()

        return traced

    def install(self) -> None:
        """Patch every binding in BINDINGS, after checking all of them."""
        plan = []
        for span, home, attr, callers in BINDINGS:
            original = getattr(_module(home), attr, None)
            if original is None:
                raise TraceWiringError(f"chebcrit.{home}.{attr} is gone")
            for caller in callers:
                if getattr(_module(caller), attr, None) is not original:
                    raise TraceWiringError(
                        f"chebcrit.{caller}.{attr} is not chebcrit.{home}.{attr}: "
                        f"the binding this trace patches was renamed or rebound")
                plan.append((span, caller, attr, original))
        for span, caller, attr, original in plan:
            setattr(_module(caller), attr, self.wrap(span, original, site=caller))

    def summary(self) -> dict[str, float]:
        """Per-layer metrics from the spans: every PER_LAYER name but those
        the parent adds; a layer that never ran reads 0."""
        n = len(self.keys)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        own = dur[:]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        calls, self_s, total, durs = Counter(), Counter(), Counter(), {}
        for i, key in enumerate(self.keys):
            name, _, site = key.partition("@")
            base = name.partition("#")[0]
            for group in {base, name, f"{base}@{site}"}:
                calls[group] += 1
                self_s[group] += own[i]
                total[group] += dur[i]
            durs.setdefault(base, []).append(dur[i])

        out = {"quadrature.nodes": self.counts["quadrature.nodes"],
               "rootfind.refine_bracket.evals": self.counts["rootfind.refine_bracket.evals"],
               "trigpoly.tp_eval.near0.calls": calls["trigpoly.tp_eval#near0"],
               "trigpoly.tp_eval.near0.self_s": self_s["trigpoly.tp_eval#near0"],
               "critlen.grid_s": total["determinants.minor_values@critlen"],
               "critlen.refine_s": total["determinants.wronskian_minor@critlen"]}
        for group in calls:
            out[f"{group}.calls"] = calls[group]
            out[f"{group}.self_s"] = self_s[group]
        for base, unit, scale in (("trigpoly.tp_eval", "us", 1e6),
                                  ("bessel.bessel_j", "us", 1e6),
                                  ("determinants.minor_values", "ms", 1e3)):
            ordered = sorted(durs.get(base, ()))
            for q in (50, 99):
                out[f"{base}.p{q}_{unit}"] = _percentile(ordered, q) * scale
        for kind in RUN_IDENTITY_KINDS:
            out[f"identities.run_identity.{kind}.s"] = total[f"identities.run_identity#{kind}"]
        return {metric: out.get(metric, 0) for metric, _ in PER_LAYER
                if metric not in PARENT_METRICS}


def _counted(f, counts: Counter, name: str):
    def counted(*args, **kwargs):
        counts[name] += 1
        return f(*args, **kwargs)
    return counted


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of a sorted list (0 for no samples)."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def check_observed(workload: str, metrics: dict[str, float]) -> None:
    """Fail loudly when a span the workload exercises was never observed."""
    missing = [m for m in EXPECTED[workload] if not metrics.get(m)]
    if missing:
        raise TraceWiringError(
            f"traced {workload} observed no work in: {', '.join(missing)} "
            f"(a call path or binding changed; fix perfbench/spans.py)")
