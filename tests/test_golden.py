"""CLI payloads against the committed goldens, byte for byte, in-process.

Each case runs one golden command through ``cli.dispatch`` with stdout
captured.  The slow verify goldens (bessel:1.5, bessel:3.4) and the critlen
reference stay with the CI steps, which also run every golden in a cold
process.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from chebcrit.cli import dispatch

GOLDEN = Path(__file__).parent / "golden"
AT = ("--at", "1e-4", "1e-3", "0.0099", "0.01", "0.5", "7.5", "29.9", "-0.005")

CASES = {
    "fn_8_at.json": ("fn", "--n", "8", *AT),
    "fn_16_at.json": ("fn", "--n", "16", *AT),
    "scan_minor_3_5.json": ("scan", "--what", "minor", "--n", "3", "--j", "5",
                            "--range", "0.5:12", "--points", "200", "--format", "json"),
    "scan_minor_6_7_near0.json": ("scan", "--what", "minor", "--n", "6", "--j", "7",
                                  "--range", "0.001:0.05", "--points", "50",
                                  "--format", "json"),
    "scan_w_8_near0.json": ("scan", "--what", "w", "--n", "8", "--range", "0.001:0.05",
                            "--points", "60", "--format", "json"),
    "zeros_2.5.json": ("zeros", "--nu", "2.5", "--count", "3"),
    "zeros_3.4_deriv.json": ("zeros", "--nu", "3.4", "--count", "3", "--deriv"),
    "verify_spherical_1.json": ("verify", "--identity", "all", "--model", "spherical:1"),
    "verify_spherical_2.json": ("verify", "--identity", "all", "--model", "spherical:2"),
    "verify_spherical_4.json": ("verify", "--identity", "all", "--model", "spherical:4"),
    "verify_bessel_0.json": ("verify", "--identity", "all", "--model", "bessel:0"),
}


@pytest.mark.parametrize("golden", sorted(CASES))
def test_payload_matches_golden(capsys, golden):
    code = dispatch(list(CASES[golden]))
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()
