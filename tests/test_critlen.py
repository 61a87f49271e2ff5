"""Critical-length scans against the proved cases and the bound direction."""

from __future__ import annotations

import math

import pytest

from chebcrit.bessel import bessel_zero
from chebcrit.critlen import CritLenReport, conjecture_scan, estimate_critical_length
from chebcrit.errors import UsageError


def bisect_root(f, lo, hi, iters=200):
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def test_n0_estimate_is_pi():
    rep = estimate_critical_length(0)
    assert abs(rep.estimate - math.pi) <= 1e-9
    assert [r.j for r in rep.per_j] == [1]
    assert rep.conjecture_consistent


def test_n1_estimate_matches_bisection_oracle():
    oracle = bisect_root(lambda t: math.sin(t) - t * math.cos(t), 4.0, 5.0)
    rep = estimate_critical_length(1)
    assert abs(rep.estimate - oracle) <= 1e-8
    assert abs(rep.estimate - 4.4934094579) <= 1e-8
    # the j = 2 minor is v(f_1), positive everywhere: no zero below the cap
    j2 = next(r for r in rep.per_j if r.j == 2)
    assert j2.first_zero is None and not j2.indeterminate
    j3 = next(r for r in rep.per_j if r.j == 3)
    assert j3.first_zero is not None


def test_n2_estimate_is_reference():
    rep = estimate_critical_length(2)
    want = bessel_zero(2.5, 1).value
    assert abs(rep.estimate - want) <= 1e-8
    assert rep.conjecture_consistent
    assert rep.estimate <= rep.reference + 1e-8


def test_conjecture_scan_through_n2():
    reports = conjecture_scan(2)
    assert [r.n for r in reports] == [0, 1, 2]
    for rep in reports:
        assert rep.conjecture_consistent
        assert rep.estimate <= rep.reference + 1e-8


def test_n3_bound_direction():
    rep = estimate_critical_length(3)
    assert rep.estimate <= rep.reference + 1e-8
    # v-minor (j = 2n) and w-minor (j = 2n-1) stay positive below the reference
    for j in (2 * 3, 2 * 3 - 1):
        entry = next(r for r in rep.per_j if r.j == j)
        assert entry.first_zero is None or entry.first_zero > rep.reference - 1e-6


def test_sub_noise_dip_is_flagged_indeterminate():
    # a dip below the noise floor without a sign change must be surfaced,
    # not resolved into a zero
    from chebcrit.critlen import _scan_one_minor

    xs = [0.1, 0.2, 0.3, 0.4, 0.5]
    vals = [1.0, 0.5, 1e-14, 0.5, 1.0]
    res = _scan_one_minor(1, 3, xs, vals, cap=0.5, tol=1e-10)
    assert res.indeterminate
    assert res.first_zero is None
    assert "without a sign change" in res.note

    # a dip before the first sign change wins over the sign change
    res = _scan_one_minor(1, 3, xs, [1.0, 1e-14, 1.0, -1.0, -2.0], cap=0.5, tol=1e-10)
    assert res.indeterminate
    assert "near x=0.2 " in res.note


def test_sign_change_is_refined_and_exact_zero_reported(monkeypatch):
    # a synthetic linear minor stands in for the Wronskian minor; the
    # refinement must look it up through critlen's module binding
    import chebcrit.critlen as critlen

    root = 0.2345
    seen = []

    def minor(n, j, t):
        seen.append(t)
        return t - root

    monkeypatch.setattr(critlen, "wronskian_minor", minor)
    xs = [0.1, 0.2, 0.3, 0.4, 0.5]
    tol = 1e-10

    res = critlen._scan_one_minor(1, 3, xs, [x - root for x in xs], cap=0.5, tol=tol)
    assert abs(res.first_zero - root) <= tol
    assert seen and 0.2 not in seen and 0.3 not in seen  # the scan's values are reused
    assert res.first_zero not in seen  # and no residual is evaluated at the root
    assert not res.indeterminate
    assert res.note == ""

    # a dip after the first sign change is never looked at
    vals = [x - root for x in xs[:3]] + [1e-14, 0.2]
    res = critlen._scan_one_minor(1, 3, xs, vals, cap=0.5, tol=tol)
    assert abs(res.first_zero - root) <= tol
    assert not res.indeterminate

    res = critlen._scan_one_minor(1, 3, xs, [-0.2, -0.1, 0.0, 0.1, 0.2],
                                  cap=0.5, tol=tol)
    assert res.first_zero == 0.3
    assert res.note == "scan landed on an exact zero"


def test_validation():
    with pytest.raises(UsageError):
        estimate_critical_length(-1)
    with pytest.raises(UsageError):
        conjecture_scan(9)
    with pytest.raises(UsageError):
        estimate_critical_length(2, tol=-1.0)
