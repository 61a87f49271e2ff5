"""Bracketing scan and bracket refinement on functions with known zeros."""

from __future__ import annotations

import math

import pytest

from chebcrit.errors import NumericalFailure, UsageError
from chebcrit.rootfind import bracket_kth_zero, refine_bracket


def test_refine_requires_sign_change():
    with pytest.raises(UsageError):
        refine_bracket(lambda t: t * t + 1.0, 0.0, 1.0)


@pytest.mark.parametrize("lo, hi", [(1.0, 2.0), (0.0, 1.0)])
def test_refine_returns_exact_endpoint_zero(lo, hi):
    res = refine_bracket(lambda t: t - 1.0, lo, hi)
    assert res.value == 1.0
    assert res.residual == 0.0
    assert res.iterations == 0


def test_refine_converges_within_xtol():
    xtol = 1e-10
    res = refine_bracket(math.sin, 3.0, 3.3, xtol=xtol)
    assert abs(res.value - math.pi) <= xtol
    assert res.residual <= 1e-9
    assert 0 < res.iterations < 200


def test_refine_skips_known_endpoint_values():
    seen = []

    def f(t):
        seen.append(t)
        return math.sin(t)

    plain = refine_bracket(f, 3.0, 3.3, xtol=1e-10)
    plain_evals = len(seen)
    seen.clear()
    res = refine_bracket(f, 3.0, 3.3, xtol=1e-10, flo=math.sin(3.0), fhi=math.sin(3.3))
    assert res == plain
    assert len(seen) == plain_evals - 2
    assert 3.0 not in seen and 3.3 not in seen


def test_refine_returns_known_endpoint_zero_without_evaluating():
    def f(t):
        raise AssertionError("no evaluation expected")

    assert refine_bracket(f, 1.0, 2.0, flo=0.0, fhi=1.0).value == 1.0
    assert refine_bracket(f, 1.0, 2.0, flo=-1.0, fhi=0.0).value == 2.0


def test_bracket_finds_kth_sign_change():
    br = bracket_kth_zero(math.sin, 3, start=0.5, step=0.1, cap=20.0)
    assert br.lo < 3 * math.pi < br.hi
    assert br.hi - br.lo <= 0.1 + 1e-12
    assert br.index == 3
    assert br.kind == "function"


def test_bracket_raises_below_k_sign_changes():
    # sin has only two zeros (pi, 2*pi) in (0.5, 7)
    with pytest.raises(NumericalFailure):
        bracket_kth_zero(math.sin, 3, start=0.5, step=0.1, cap=7.0)


def test_bracket_degenerate_when_scan_lands_on_zero():
    br = bracket_kth_zero(lambda t: t - 1.0, 1, start=0.5, step=0.25, cap=2.0)
    assert br.lo < 1.0 < br.hi
    assert br.hi - br.lo <= 1e-9

