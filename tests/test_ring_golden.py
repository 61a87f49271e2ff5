"""Exact ring elements against digests recorded from the Fraction ring.

``tests/golden/ring_elements.json`` maps each element to the SHA-256 of
``json.dumps(..., sort_keys=True)`` of its ``to_json_dict`` (or, for a
Maclaurin tuple, of its rational strings).  It covers every
``symbolic_minor(n, j)`` for n <= 6, ``symbolic_v(n)`` and
``symbolic_w(n)`` for n <= 16, and the first vanishing order + 64
Maclaurin coefficients of each minor.  Re-record with

    PYTHONPATH=src python tests/test_ring_golden.py > tests/golden/ring_elements.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from chebcrit.determinants import (
    MAX_SYMBOLIC_N,
    admissible_j,
    symbolic_minor,
    symbolic_v,
    symbolic_w,
)
from chebcrit.trigpoly import MAX_SPHERICAL_N, maclaurin, to_json_dict, vanishing_order

GOLDEN = Path(__file__).parent / "golden" / "ring_elements.json"


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def ring_digests() -> dict[str, str]:
    out = {}
    for n in range(MAX_SYMBOLIC_N + 1):
        for j in admissible_j(n):
            e = symbolic_minor(n, j)
            out[f"minor:{n}:{j}"] = _digest(to_json_dict(e))
            coeffs = maclaurin(e, vanishing_order(e) + 64)
            out[f"maclaurin:{n}:{j}"] = _digest([f"{c.numerator}/{c.denominator}"
                                                 for c in coeffs])
    for n in range(MAX_SPHERICAL_N + 1):
        out[f"v:{n}"] = _digest(to_json_dict(symbolic_v(n)))
        out[f"w:{n}"] = _digest(to_json_dict(symbolic_w(n)))
    return out


def test_ring_elements_match_the_recorded_digests():
    assert ring_digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    print(json.dumps(ring_digests(), indent=1, sort_keys=True))
