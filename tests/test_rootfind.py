"""The sign-change scan and bisection refinement on functions with known zeros."""

from __future__ import annotations

import math

import pytest

import chebcrit.bessel
from chebcrit.bessel import bessel_deriv_zero, bessel_deriv_zeros, bessel_zero, bessel_zeros
from chebcrit.errors import NumericalFailure, UsageError
from chebcrit.rootfind import first_zeros, refine_bracket, sign_changes


def _kth(f, k, **grid):
    """The k-th zero: the last of the first k that first_zeros yields."""
    *_, last = first_zeros(f, k, **grid)
    return last


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
    assert res.residual is None  # the refiner does not evaluate its root
    assert 0 < res.iterations < 200


def test_reported_zeros_carry_the_residual_the_refiner_leaves_out():
    seen = []

    def f(t):
        seen.append(t)
        return math.sin(t)

    xtol = 1e-10
    refined = refine_bracket(f, 3.0, 3.3, xtol=xtol)
    refine_evals = len(seen)
    assert refined.value not in seen
    grid = dict(start=3.0, step=0.3, cap=3.3, xtol=xtol)
    res = next(first_zeros(math.sin, 1, **grid))
    assert res.value == refined.value and res.iterations == refined.iterations
    assert res.residual == abs(math.sin(res.value)) <= 1e-9
    del seen[:]
    next(first_zeros(f, 1, **grid))
    assert len(seen) == refine_evals + 1  # the refiner's, plus the root's residual


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


def test_sign_changes_yields_crossings_and_exact_zeros():
    samples = [(0.0, 1.0), (1.0, -1.0), (2.0, 0.0), (3.0, 2.0), (4.0, 3.0), (5.0, -1.0)]
    assert list(sign_changes(samples)) == [
        (0.0, 1.0, 1.0, -1.0), (2.0, 0.0, 2.0, 0.0), (4.0, 3.0, 5.0, -1.0)]


def test_kth_zero_finds_kth_crossing_of_sin():
    res = _kth(math.sin, 3, start=0.5, step=0.1, cap=20.0, xtol=1e-12)
    assert abs(res.value - 3 * math.pi) <= 1e-11
    assert res.iterations > 0


def test_kth_zero_raises_below_k_sign_changes():
    # sin has only two zeros (pi, 2*pi) in (0.5, 7)
    with pytest.raises(NumericalFailure, match="needed 3$"):
        _kth(math.sin, 3, start=0.5, step=0.1, cap=7.0)


def test_kth_zero_returns_exact_grid_zero():
    res = _kth(lambda t: t - 1.0, 1, start=0.5, step=0.25, cap=2.0)
    assert res.value == 1.0
    assert res.residual == 0.0
    assert res.iterations == 0


def test_kth_zero_counts_tangential_grid_zero():
    # no sign change anywhere: the double zero sits exactly on a grid point
    res = _kth(lambda t: (t - 1.0) ** 2, 1, start=0.5, step=0.25, cap=2.0)
    assert res.value == 1.0
    assert res.iterations == 0


def test_kth_zero_counts_exact_zero_at_cap():
    res = _kth(lambda t: t - 2.0, 1, start=0.5, step=0.25, cap=2.0)
    assert res.value == 2.0
    assert res.iterations == 0


def test_kth_zero_evaluates_nothing_past_the_bracket():
    seen = []

    def f(t):
        seen.append(t)
        return math.sin(t)

    grid = [0.5]
    while grid[-1] < 20.0:
        grid.append(min(grid[-1] + 0.1, 20.0))
    hi = list(sign_changes((x, math.sin(x)) for x in grid))[1][2]
    _kth(f, 2, start=0.5, step=0.1, cap=20.0)
    assert max(seen) == hi


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bessel_zero_evaluates_no_abscissa_twice(monkeypatch, k):
    seen = []
    plain = chebcrit.bessel.bessel_j

    def recording(nu, x, *args, **kwargs):
        seen.append(x)
        return plain(nu, x, *args, **kwargs)

    monkeypatch.setattr(chebcrit.bessel, "bessel_j", recording)
    bessel_zero(2.5, k)
    assert seen
    assert len(seen) == len(set(seen))


def test_first_zeros_refines_the_first_brackets_of_one_scan():
    seen = []

    def f(t):
        seen.append(t)
        return math.sin(t)

    grid = dict(start=0.5, step=0.1, cap=20.0)
    got = list(first_zeros(f, 4, **grid))
    assert got == [_kth(math.sin, k, **grid) for k in (1, 2, 3, 4)]
    assert len(seen) == len(set(seen))  # no abscissa evaluated twice


def test_first_zeros_yields_what_it_found_then_names_the_first_missing():
    # sin has only two zeros (pi, 2*pi) in (0.5, 7)
    zeros = first_zeros(math.sin, 5, start=0.5, step=0.1, cap=7.0)
    assert abs(next(zeros).value - math.pi) <= 1e-11
    assert abs(next(zeros).value - 2 * math.pi) <= 1e-11
    with pytest.raises(NumericalFailure, match=r"only 2 sign change\(s\).*needed 3$"):
        next(zeros)


@pytest.mark.parametrize("zeros, zero, nu", [(bessel_zeros, bessel_zero, 2.5),
                                             (bessel_deriv_zeros, bessel_deriv_zero, 3.4)])
def test_bessel_zeros_match_one_call_per_k_and_scan_once(monkeypatch, zeros, zero, nu):
    want = [zero(nu, k) for k in (1, 2, 3)]
    seen = []
    plain = chebcrit.bessel._series_values

    def recording(nu_, x, *args, **kwargs):
        seen.append(x)
        return plain(nu_, x, *args, **kwargs)

    monkeypatch.setattr(chebcrit.bessel, "_series_values", recording)
    assert list(zeros(nu, 3)) == want
    assert seen
    assert len(seen) == len(set(seen))


def test_negative_xtol_is_refused_before_the_scan():
    seen = []

    def f(t):
        seen.append(t)
        return math.sin(t)

    with pytest.raises(UsageError):
        next(first_zeros(f, 1, start=1.0, step=0.1, cap=10.0, xtol=-1.0))
    with pytest.raises(UsageError):
        bessel_zero(2.5, 1, -1.0)
    assert seen == []
    assert abs(bessel_zero(2.5, 1, 0.0).value - 5.7634591968945498) <= 1e-14
