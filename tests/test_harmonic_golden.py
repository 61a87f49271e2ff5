"""Certified values on the harmonic form against recorded digests.

``tests/golden/harmonic_values.json`` maps each ring element to the
SHA-256 of ``json.dumps(..., sort_keys=True)`` of its values at x = 0.01,
0.0125, 0.5, 3.3, 11.385 and 15.77, where the kernel sums the harmonic
form: the ``tp_eval_mp`` pairs (man, exp) and the ``tp_eval`` doubles (as
``float.hex``).  It covers every ``fn_derivatives(n, 2n)`` for n <= 16 and
every ``symbolic_minor(n, j)`` for n <= 6; at 0.01 and 0.0125 the f_n^(k)
of n >= 9 climb the precision ladder past its first rung.  A change to how
the kernel sums an element, or a stack of them, must leave every digest as
it is.  Re-record with

    PYTHONPATH=src python tests/test_harmonic_golden.py > tests/golden/harmonic_values.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from chebcrit.determinants import MAX_SYMBOLIC_N, admissible_j, symbolic_minor
from chebcrit.trigpoly import MAX_SPHERICAL_N, fn_derivatives, tp_eval, tp_eval_mp

GOLDEN = Path(__file__).parent / "golden" / "harmonic_values.json"

XS = (0.01, 0.0125, 0.5, 3.3, 11.385, 15.77)


def _digests(elements) -> list[str]:
    """One digest per element, of its values at every x of XS."""
    pairs = [tp_eval_mp(elements, x) for x in XS]
    out = []
    for i, a in enumerate(elements):
        values = {"mp": [list(at_x[i]) for at_x in pairs],
                  "double": [tp_eval(a, x).hex() for x in XS]}
        out.append(hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest())
    return out


def harmonic_digests() -> dict[str, str]:
    out = {}
    for n in range(MAX_SPHERICAL_N + 1):
        for k, got in enumerate(_digests(fn_derivatives(n, 2 * n))):
            out[f"fn:{n}:{k}"] = got
    for n in range(MAX_SYMBOLIC_N + 1):
        js = admissible_j(n)
        for j, got in zip(js, _digests([symbolic_minor(n, j) for j in js])):
            out[f"minor:{n}:{j}"] = got
    return out


def test_harmonic_values_match_the_recorded_digests():
    assert harmonic_digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    print(json.dumps(harmonic_digests(), indent=1, sort_keys=True))
