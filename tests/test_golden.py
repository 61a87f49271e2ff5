"""CLI payloads against the committed goldens, byte for byte.

``CASES`` is the one table of golden commands.  Under pytest each case
runs in-process through ``cli.dispatch`` with stdout captured.  Run as a
script, ``PYTHONPATH=src python tests/test_golden.py``, it replays every
case in a fresh interpreter (``python -m chebcrit.cli``) and exits nonzero
if any payload or exit code differs; it needs no pytest, and CI runs it so
before pytest is installed, beside its own step for the critlen --n-max 6
reference.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from chebcrit.cli import dispatch

GOLDEN = Path(__file__).parent / "golden"
AT = ("--at", "1e-4", "1e-3", "0.0099", "0.01", "0.5", "7.5", "29.9", "-0.005")

CASES = {
    "critlen_9.json": ("critlen", "--n", "9"),
    "critlen_1_table.txt": ("critlen", "--n-max", "1", "--format", "table"),
    "fn_3_large_x.json": ("fn", "--n", "3", "--at", "1.5707963267948966", "3.141592653589793",
                          "4.71238898038469", "1e6", "1e15", "1e80", "-30000"),
    "fn_8_at.json": ("fn", "--n", "8", *AT),
    "fn_16_at.json": ("fn", "--n", "16", *AT),
    "fn_16_show.json": ("fn", "--n", "16", "--show"),
    "scan_minor_3_5.json": ("scan", "--what", "minor", "--n", "3", "--j", "5",
                            "--range", "0.5:12", "--points", "200", "--format", "json"),
    "scan_minor_6_7_near0.json": ("scan", "--what", "minor", "--n", "6", "--j", "7",
                                  "--range", "0.001:0.05", "--points", "50",
                                  "--format", "json"),
    "scan_minor_6_7_first_zero.json": ("scan", "--what", "minor", "--n", "6", "--j", "7",
                                       "--range", "11.3:11.45", "--points", "40",
                                       "--format", "json"),
    "scan_minor_9_10_subnormal.json": ("scan", "--what", "minor", "--n", "9", "--j", "10",
                                       "--range", "0.001:0.01", "--points", "10",
                                       "--format", "json"),
    "scan_v_4_cancel.json": ("scan", "--what", "v", "--n", "4", "--range", "0.05:0.2",
                             "--points", "1000", "--format", "json"),
    "scan_v_12_near0.json": ("scan", "--what", "v", "--n", "12", "--range", "0.0001:0.0099",
                             "--points", "50", "--format", "json"),
    "scan_w_2_csv.csv": ("scan", "--what", "w", "--n", "2", "--range", "0.5:8",
                         "--points", "9"),
    "scan_w_8_near0.json": ("scan", "--what", "w", "--n", "8", "--range", "0.001:0.05",
                            "--points", "60", "--format", "json"),
    "zeros_0.json": ("zeros", "--nu", "0", "--count", "3"),
    "zeros_2.5.json": ("zeros", "--nu", "2.5", "--count", "3"),
    "zeros_3.4_deriv.json": ("zeros", "--nu", "3.4", "--count", "3", "--deriv"),
    "zeros_7.3.json": ("zeros", "--nu", "7.3", "--count", "3"),
    "zeros_1.5_deriv.json": ("zeros", "--nu", "1.5", "--count", "3", "--deriv"),
    "verify_spherical_0.json": ("verify", "--identity", "all", "--model", "spherical:0"),
    "verify_spherical_1.json": ("verify", "--identity", "all", "--model", "spherical:1"),
    "verify_spherical_2.json": ("verify", "--identity", "all", "--model", "spherical:2"),
    "verify_spherical_4.json": ("verify", "--identity", "all", "--model", "spherical:4"),
    # every grid point lies inside the series' reach: no Simpson node runs
    "verify_integral_V_8_inside.json": ("verify", "--identity", "integral-V",
                                        "--model", "spherical:8", "--range", "0.01:5"),
    # the one linear grid: its abscissae are not those of any log grid
    "verify_spherical_3_linear.json": ("verify", "--identity", "all", "--model", "spherical:3",
                                       "--range", "0.5:25", "--points", "120",
                                       "--spacing", "linear"),
    "verify_bessel_0.json": ("verify", "--identity", "all", "--model", "bessel:0"),
    "verify_bessel_1.json": ("verify", "--identity", "all", "--model", "bessel:1"),
    "verify_bessel_1.5.json": ("verify", "--identity", "all", "--model", "bessel:1.5"),
    "verify_bessel_3.4.json": ("verify", "--identity", "all", "--model", "bessel:3.4"),
}


def pytest_generate_tests(metafunc):
    """One test per case, parametrized by pytest's hook, so the module
    imports without pytest and the replay below runs wherever chebcrit
    does."""
    if "golden" in metafunc.fixturenames:
        metafunc.parametrize("golden", sorted(CASES))


def test_payload_matches_golden(capsys, golden):
    code = dispatch(list(CASES[golden]))
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


def first_difference(got: bytes, want: bytes) -> str:
    """The first line where two payloads differ, as ``line N: got | want``
    (a missing line reads as <end>)."""
    got_lines, want_lines = got.decode().splitlines(), want.decode().splitlines()
    for i in range(max(len(got_lines), len(want_lines))):
        g = got_lines[i] if i < len(got_lines) else "<end>"
        w = want_lines[i] if i < len(want_lines) else "<end>"
        if g != w:
            return f"line {i + 1}: {g.strip()} | golden {w.strip()}"
    return "no line differs"


def replay_cold() -> int:
    """Run each case as ``python -m chebcrit.cli`` in a fresh interpreter,
    print one line per case, with the first differing line under each case
    that differs, and return how many payloads or exit codes differ from
    the golden and 0."""
    failed = 0
    for golden in sorted(CASES):
        run = subprocess.run([sys.executable, "-m", "chebcrit.cli", *CASES[golden]],
                             capture_output=True, check=False)
        want = (GOLDEN / golden).read_bytes()
        ok = run.returncode == 0 and run.stdout == want
        print(f"{'ok' if ok else 'DIFFERS'} {golden} (exit {run.returncode})", flush=True)
        if not ok:
            print(f"  {first_difference(run.stdout, want)}", flush=True)
        failed += not ok
    return failed


if __name__ == "__main__":
    sys.exit(1 if replay_cold() else 0)
