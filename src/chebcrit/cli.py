"""Command-line interface: evaluation, zeros, scans, verification, critical length.

Subcommands
    fn       evaluate f_n or show its exact coefficients
    zeros    positive zeros of J_nu or J_nu'
    scan     grid scan of v(f_n), w(f_n), or a Wronskian minor (CSV or JSON)
    verify   run the identity registry against a built-in model
    critlen  critical-length estimate with the per-minor first zeros

Output is byte-deterministic for a fixed configuration and version: floats
are rendered at 17 significant digits, the data payload carries no
timestamps, and run metadata (tool version, fully resolved configuration)
lives in a separate "header" object.  Exit codes: 0 success / all checks
pass, 1 a verification or positivity check failed, 2 usage error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Sequence

from . import __version__
from .bessel import bessel_deriv_zeros, bessel_zeros
from .critlen import conjecture_scan, estimate_critical_length
from .determinants import symbolic_v, symbolic_w, wronskian_minor
from .errors import NumericalFailure, UsageError
from .identities import IDENTITY_TAGS, run_all, run_identity
from .models import parse_model
from .trigpoly import format_trigpoly, spherical_fn, to_json_dict, tp_eval


# ----------------------------------------------------------------------
# deterministic rendering
# ----------------------------------------------------------------------

def fmt_float(x: float) -> str:
    return format(x, ".17g")


def decimal_literal(text: str) -> float:
    """Flag parser: finite decimal literals only (no inf/nan)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a decimal literal: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"numeric flags must be finite: {text!r}")
    return value


def render_json(obj, indent: int = 0) -> str:
    """Canonical JSON: insertion-ordered keys, floats at 17 significant
    digits, non-finite floats rendered as null."""
    pad = "  " * indent
    if isinstance(obj, float):
        return fmt_float(obj) if math.isfinite(obj) else "null"
    if obj is None or isinstance(obj, (int, str)):  # bools are ints
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {render_json(str(k))}: {render_json(v, indent + 1)}'
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise UsageError(f"cannot render {type(obj).__name__} as JSON")


def _config(args) -> dict:
    """The fully resolved configuration: every flag of the subcommand, in
    the order its parser declares them."""
    return {k: v for k, v in vars(args).items() if k != "run"}


def _header(args) -> dict:
    return {"version": __version__, "config": _config(args)}


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _parse_range(text: str) -> tuple[float, float]:
    lo_s, sep, hi_s = text.partition(":")
    if not sep:
        raise UsageError(f"range must look like a:b, got {text!r}")
    try:
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise UsageError(f"bad range endpoints in {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise UsageError(f"range needs finite a < b, got {text!r}")
    return lo, hi


def _sign(v: float) -> int:
    if v > 0.0:
        return 1
    if v < 0.0:
        return -1
    return 0


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_fn(args) -> int:
    f = spherical_fn(args.n)
    payload: dict = {"header": _header(args), "n": args.n}
    if args.at:
        payload["values"] = [{"x": x, "value": tp_eval(f, x)} for x in args.at]
    else:
        payload["pretty"] = format_trigpoly(f)
        payload["harmonics"] = to_json_dict(f)
    _emit(render_json(payload))
    return 0


def _cmd_zeros(args) -> int:
    finder = bessel_deriv_zeros if args.deriv else bessel_zeros
    rows = [{"index": k, "value": z.value, "residual": z.residual}
            for k, z in enumerate(finder(args.nu, args.count, args.tol), 1)]
    _emit(render_json({"header": _header(args), "zeros": rows}))
    return 0


def _scan_values(args) -> tuple[list[float], list[float]]:
    lo, hi = _parse_range(args.range)
    if args.points < 2:
        raise UsageError("--points must be >= 2")
    xs = [lo + (hi - lo) * i / (args.points - 1) for i in range(args.points)]
    xs[-1] = hi  # the range end itself, not its rounded reconstruction
    if args.what == "minor":
        if args.j is None:
            raise UsageError("scan --what minor needs --j")
        vals = [wronskian_minor(args.n, args.j, x) for x in xs]
    else:
        target = symbolic_v(args.n) if args.what == "v" else symbolic_w(args.n)
        vals = [tp_eval(target, x) for x in xs]
    return xs, vals


def _cmd_scan(args) -> int:
    xs, vals = _scan_values(args)
    if args.format == "csv":
        lines = [f"# chebcrit {__version__}"]
        lines.append("# " + " ".join(f"{k}={v}" for k, v in _config(args).items()))
        lines.append("x,value,sign")
        for x, v in zip(xs, vals):
            lines.append(f"{fmt_float(x)},{fmt_float(v)},{_sign(v)}")
        _emit("\n".join(lines))
    else:
        rows = [{"x": x, "value": v, "sign": _sign(v)} for x, v in zip(xs, vals)]
        _emit(render_json({"header": _header(args), "rows": rows}))
    return 0


def _cmd_verify(args) -> int:
    model = parse_model(args.model)
    lo, hi = _parse_range(args.range)
    kwargs = dict(lo=lo, hi=hi, points=args.points, tol=args.tol,
                  spacing=args.spacing)
    if args.identity == "all":
        reports = run_all(model, **kwargs)
    else:
        reports = [run_identity(args.identity, model, **kwargs)]
    all_passed = all(r.passed for r in reports)
    payload = {"header": _header(args),
               "all_pass": all_passed,
               "reports": [r.as_dict() for r in reports]}
    _emit(render_json(payload))
    return 0 if all_passed else 1


def _cmd_critlen(args) -> int:
    if args.n_max is not None:
        reports = [r.as_dict() for r in conjecture_scan(args.n_max)]
    else:
        reports = [estimate_critical_length(args.n, args.cap, args.tol).as_dict()]
    if args.format == "table":
        lines = [f"# chebcrit {__version__}",
                 "# " + " ".join(f"{k}={v}" for k, v in _config(args).items())]
        for rep in reports:
            lines.append(
                f"n={rep['n']}  estimate={fmt_float(rep['estimate'])}  "
                f"reference={fmt_float(rep['reference'])}  "
                f"gap={fmt_float(rep['gap'])}  "
                f"consistent={str(rep['conjecture_consistent']).lower()}")
            lines.append("   j  first_zero              indeterminate")
            for row in rep["per_j"]:
                fz = "-" if row["first_zero"] is None else fmt_float(row["first_zero"])
                lines.append(f"  {row['j']:>2}  {fz:<22}  "
                             f"{'yes' if row['indeterminate'] else 'no'}")
        _emit("\n".join(lines))
    else:
        _emit(render_json({"header": _header(args), "reports": reports}))
    return 0


# ----------------------------------------------------------------------
# parser / dispatch
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse with one change: an argument that starts with "-" and a
    digit, or with "-." and a digit, or that is -inf, -infinity or -nan in
    any case, is a value, never an option.  argparse's own test passes -5
    and -0.5 but reads -1e-3, -5., -1:1 and -inf as unknown options (so a
    non-finite flag would not reach decimal_literal's message).  No flag of
    the CLI starts so, and the subparsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf(inity)?$|nan$)",
                                                   re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chebcrit",
        description="Determinant machinery and critical-length estimation "
                    "for the trig-polynomial spaces built from spherical "
                    "Bessel functions.",
        epilog="Exit codes: 0 ok / all pass, 1 check failed, 2 usage error, "
               "3 numerical failure.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_fn = sub.add_parser("fn", help="evaluate f_n or show its exact form")
    p_fn.add_argument("--n", type=int, required=True)
    p_fn.add_argument("--show", action="store_true",
                      help="emit the exact rational harmonics (default)")
    p_fn.add_argument("--at", type=decimal_literal, nargs="+",
                      help="evaluate at these abscissae instead of showing")
    p_fn.set_defaults(run=_cmd_fn)

    p_z = sub.add_parser("zeros", help="positive zeros of J_nu or J_nu'")
    p_z.add_argument("--nu", type=decimal_literal, required=True)
    p_z.add_argument("--count", type=int, required=True)
    p_z.add_argument("--deriv", action="store_true",
                     help="zeros of the derivative J_nu'")
    p_z.add_argument("--tol", type=decimal_literal, default=1e-12)
    p_z.set_defaults(run=_cmd_zeros)

    p_s = sub.add_parser("scan", help="grid scan of v, w, or a minor")
    p_s.add_argument("--what", choices=("v", "w", "minor"), required=True)
    p_s.add_argument("--n", type=int, required=True)
    p_s.add_argument("--j", type=int, help="minor index (for --what minor)")
    p_s.add_argument("--range", required=True, metavar="A:B")
    p_s.add_argument("--points", type=int, required=True)
    p_s.add_argument("--format", choices=("csv", "json"), default="csv")
    p_s.set_defaults(run=_cmd_scan)

    p_v = sub.add_parser("verify", help="run identity checks against a model")
    p_v.add_argument("--identity", default="all",
                     choices=("all",) + IDENTITY_TAGS, metavar="TAG|all")
    p_v.add_argument("--model", required=True,
                     help="spherical:<n> or bessel:<nu>")
    p_v.add_argument("--range", default="0.01:30", metavar="A:B")
    p_v.add_argument("--points", type=int, default=500)
    p_v.add_argument("--tol", type=decimal_literal, default=None,
                     help="override the per-identity default tolerance")
    p_v.add_argument("--spacing", choices=("log", "linear"), default="log")
    p_v.set_defaults(run=_cmd_verify)

    p_c = sub.add_parser("critlen", help="critical-length estimate")
    which = p_c.add_mutually_exclusive_group(required=True)
    which.add_argument("--n", type=int)
    which.add_argument("--n-max", type=int, dest="n_max",
                       help="scan n = 0..n_max instead of a single n")
    p_c.add_argument("--cap", type=decimal_literal, default=None,
                     help="scan cap (default 1.5 * reference)")
    p_c.add_argument("--tol", type=decimal_literal, default=1e-10)
    p_c.add_argument("--format", choices=("json", "table"), default="json")
    p_c.set_defaults(run=_cmd_critlen)
    return parser


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Parse argv and run one subcommand, mapping errors to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
