"""Certified values below MACLAURIN_RADIUS against recorded digests.

``tests/golden/near0_values.json`` maps each ring element to the SHA-256
of ``json.dumps(..., sort_keys=True)`` of its values at x = 1e-4, 1e-3,
5e-3 and 0.0099, where the series form sums them: the ``tp_eval_mp``
pairs (man, exp) and the ``tp_eval`` doubles (as ``float.hex``).  It
covers every ``fn_derivatives(n, 2n)`` for n <= 16 and every
``symbolic_minor(n, j)`` for n <= 6.  A change to how the series form is
built or summed must leave every digest as it is.  Re-record with

    PYTHONPATH=src python tests/test_near0_golden.py > tests/golden/near0_values.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from chebcrit.determinants import MAX_SYMBOLIC_N, admissible_j, symbolic_minor
from chebcrit.trigpoly import MAX_SPHERICAL_N, fn_derivatives, tp_eval, tp_eval_mp

GOLDEN = Path(__file__).parent / "golden" / "near0_values.json"

XS = (1e-4, 1e-3, 5e-3, 0.0099)


def _digest(a) -> str:
    values = {"mp": [list(tp_eval_mp(a, x)) for x in XS],
              "double": [tp_eval(a, x).hex() for x in XS]}
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()


def near0_digests() -> dict[str, str]:
    out = {}
    for n in range(MAX_SPHERICAL_N + 1):
        for k, d in enumerate(fn_derivatives(n, 2 * n)):
            out[f"fn:{n}:{k}"] = _digest(d)
    for n in range(MAX_SYMBOLIC_N + 1):
        for j in admissible_j(n):
            out[f"minor:{n}:{j}"] = _digest(symbolic_minor(n, j))
    return out


def test_near0_values_match_the_recorded_digests():
    assert near0_digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    print(json.dumps(near0_digests(), indent=1, sort_keys=True))
