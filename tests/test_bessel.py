"""Series evaluation and zero structure of J_nu against independent oracles."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from mpmath import mp
from mpmath.libmp import dps_to_prec

from chebcrit import bessel
from chebcrit.bessel import (
    bessel_deriv_zero,
    bessel_j,
    bessel_j_deriv,
    bessel_stack_values,
    bessel_zero,
    fn_deriv_zero,
    fn_zero,
)
from chebcrit.errors import NumericalFailure, UsageError
from chebcrit.trigpoly import spherical_fn, tp_eval


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


# independent oracles, frozen from bisection on elementary closed forms
J32_FIRST_ZERO = bisect_root(lambda t: math.sin(t) - t * math.cos(t), 4.0, 5.0)
JP12_FIRST_ZERO = bisect_root(lambda t: math.sin(t) - 2 * t * math.cos(t), 1.0, 1.4)


# ---------------------------------------------------------------- series

def test_j0_at_origin():
    assert bessel_j(0, 0.0) == 1.0


def test_half_order_closed_form():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x, so J_{1/2}(pi) = 0
    assert abs(bessel_j(0.5, math.pi)) <= 1e-13
    for x in (0.7, 3.0, 14.0):
        expected = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert abs(bessel_j(0.5, x) - expected) <= 1e-13 * max(1.0, abs(expected))


def test_series_matches_mpmath_oracle():
    for nu in (0.0, 1.0, 2.5, 3.4, 8.5):
        for x in (0.05, 1.0, 7.3, 19.0, 30.0, 45.0):
            want = float(mpmath.besselj(nu, x))
            got = bessel_j(nu, x)
            assert abs(got - want) <= 1e-13 * max(abs(want), 1e-280), (nu, x)


def test_cross_oracle_with_spherical_fn():
    # f_n(x) = sqrt(pi/2) x^(n+1/2) J_{n+1/2}(x)
    n, x = 2, 3.0
    series_side = math.sqrt(math.pi / 2) * x ** (n + 0.5) * bessel_j(n + 0.5, x)
    exact_side = tp_eval(spherical_fn(n), x)
    assert abs(series_side - exact_side) <= 1e-12 * abs(exact_side)


def test_spherical_f3_vs_series():
    f3 = spherical_fn(3)
    for x in (1.0, 5.0, 10.0):
        series_side = math.sqrt(math.pi / 2) * x ** 3.5 * bessel_j(3.5, x)
        exact_side = tp_eval(f3, x)
        assert abs(series_side - exact_side) <= 1e-11 * max(1.0, abs(exact_side))


# ---------------------------------------------------------------- derivatives

def test_deriv_at_small_x():
    # J_0' = -J_1 -> 0 as x -> 0+
    assert abs(bessel_j_deriv(0, 1e-8, 1)) <= 1e-8


def test_bessel_ode_residual():
    nu, x = 2.0, 3.0
    j = bessel_j(nu, x)
    j1 = bessel_j_deriv(nu, x, 1)
    j2 = bessel_j_deriv(nu, x, 2)
    resid = j2 + j1 / x + (1 - nu * nu / (x * x)) * j
    assert abs(resid) <= 1e-11


def test_deriv_matches_mpmath():
    for nu, x, order in ((1.5, 2.0, 1), (3.4, 9.0, 1), (2.0, 5.5, 2)):
        want = float(mpmath.besselj(nu, x, derivative=order))
        got = bessel_j_deriv(nu, x, order)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_deriv_nonzero_at_simple_zero():
    z = bessel_zero(3.4, 1)
    assert abs(bessel_j_deriv(3.4, z.value, 1)) > 0.05


def test_deriv_order_validated():
    with pytest.raises(UsageError):
        bessel_j_deriv(1.0, 2.0, 3)


def test_stack_values():
    vals = bessel_stack_values(2.0, 3.0, 4)
    assert len(vals) == 5
    assert abs(vals[0] - bessel_j(2.0, 3.0)) == 0.0
    want = float(mpmath.diff(lambda t: mpmath.besselj(2.0, t), 3.0, 4))
    assert abs(vals[4] - want) <= 1e-10 * max(1.0, abs(want))


# ---------------------------------------------------------------- fixed-point series

def _ref_series(nu, x, order, tol):
    """One order per pass through mpf operators: (sum, magnitude, n_terms)."""
    xm = mp.mpf(x)
    num = mp.mpf(nu)
    half = xm / 2
    base = half ** num / mp.gamma(num + 1)
    ratio_num = half * half
    total = mp.mpf(0)
    mag = mp.mpf(0)
    prev_abs = None
    k = 0
    while k <= bessel.SERIES_TERM_CAP:
        a = 2 * k + num
        if order == 0:
            term = base
        else:
            fall = mp.mpf(1)
            for i in range(order):
                fall *= a - i
            term = base * fall / xm ** order
        total += term
        t_abs = abs(term)
        mag += t_abs
        if prev_abs is not None and t_abs < prev_abs and t_abs < tol * abs(total):
            return total, mag, k + 1
        prev_abs = t_abs
        base = -base * ratio_num / ((k + 1) * (k + num + 1))
        k += 1
    raise AssertionError("reference series hit the term cap")


def _ref_escalation(nu, x, order, tol):
    """(float value, digits at which the roundoff bound was met)."""
    dps = 30
    while dps <= 2000:
        with mp.workdps(dps):
            total, mag, n_terms = _ref_series(nu, x, order, tol)
            bound = mag * mp.mpf(10) ** (-dps) * (n_terms + 8)
            if bound == 0 or bound <= abs(total) * mp.mpf(tol) * mp.mpf("0.5"):
                return float(total), dps
        dps *= 2
    raise AssertionError("reference bound not met below 2000 digits")


_NUS = (0.0, 0.5, 1.5, 2.0, 3.4)
_XS = (1e-2, 0.7, 3.0, 12.0, 30.0, 40.0)


@lru_cache(maxsize=None)
def _ref_value(nu, x, order, tol=bessel.DEFAULT_SERIES_TOL):
    return _ref_escalation(nu, x, order, tol)[0]


def _exact_partial_sum(nu, x, order, n_terms):
    """The first n_terms terms of the order-times differentiated series in
    the rationals, before the prefactor (x/2)^nu / Gamma(nu+1) / x^order."""
    nu_q, x_q = Fraction(nu), Fraction(x)
    y = x_q * x_q / 4
    s, total = Fraction(1), Fraction(0)
    for k in range(n_terms):
        fall = Fraction(1)
        for i in range(order):
            fall *= 2 * k + nu_q - i
        total += s * fall
        s = -s * y / ((k + 1) * (k + 1 + nu_q))
    return total


@pytest.mark.parametrize("nu", _NUS)
def test_fixed_point_error_sum_contains_the_exact_partial_sum(nu):
    # per order, the pass stops where the mpf reference does, and its
    # integer total lies within its error sum of the exact partial sum
    # times 2^scale
    for x in _XS:
        for dps in (30, 60):
            with mp.workdps(dps):
                want_terms = [_ref_series(nu, x, r, 1e-15)[2] for r in range(6)]
            prec = dps_to_prec(dps)
            together = bessel._series_pass(nu, x, range(6), 1e-15, prec)
            assert [n_terms for _, _, n_terms, _ in together] == want_terms, (x, dps)
            for r, (total, err, n_terms, scale) in enumerate(together):
                exact = _exact_partial_sum(nu, x, r, n_terms) * 2 ** scale
                assert abs(total - exact) <= err, (x, dps, r)
            alone = [bessel._series_pass(nu, x, (r,), 1e-15, prec)[0] for r in range(6)]
            assert alone == together, (x, dps)


def test_sampled_values_are_bit_identical_to_the_reference():
    rng = random.Random(16)
    for _ in range(200):
        nu = rng.choice((0.0, 0.5, 1.0, 1.5, 2.0, 3.4, 7.25))
        x = 10 ** rng.uniform(-3, math.log10(50))
        want = tuple(_ref_value(nu, x, r) for r in range(6))
        assert bessel._series_values(nu, x, range(6), bessel.DEFAULT_SERIES_TOL) == want, (nu, x)


@pytest.mark.parametrize("nu", _NUS)
def test_single_orders_match_reference(nu):
    for x in _XS:
        assert bessel_j(nu, x) == _ref_value(nu, x, 0), x
        for order in (1, 2):
            assert bessel_j_deriv(nu, x, order) == _ref_value(nu, x, order), (x, order)
        for order in range(6):
            got = bessel._series_values(nu, x, (order,), bessel.DEFAULT_SERIES_TOL)
            assert got == (_ref_value(nu, x, order),), (x, order)


@pytest.mark.parametrize("nu", _NUS)
def test_stacks_match_reference(nu):
    for x in _XS:
        for m in range(2, 6):
            want = tuple(_ref_value(nu, x, r) for r in range(m + 1))
            assert bessel_stack_values(nu, x, m) == want, (x, m)


def test_falling_factorials_stay_exact_for_a_tiny_order():
    # at nu = 1e-300 the factor 2 + nu - 2 of order 3 at k = 1 is nu itself:
    # rounded to 0, it would stop orders 3-5 after one term, near 1e-300
    with mp.workdps(40):
        want = [float(mpmath.besselj(mp.mpf(1e-300), 2, derivative=r)) for r in range(6)]
    got = bessel_stack_values(1e-300, 2.0, 5)
    for r in range(6):
        assert abs(got[r] - want[r]) <= 1e-14 * abs(want[r]), r


def test_stack_escalates_only_the_orders_that_need_it(monkeypatch):
    # at (2.0, 40.0) the kernel's own error sums of orders 1, 3, 5 meet
    # tol/2 at 30 digits and orders 0, 2, 4 need 60: the second pass sums
    # exactly the orders whose bound failed, and every one of them passes
    nu, x, tol = 2.0, 40.0, 1e-15
    passes = []
    plain = bessel._series_pass

    def recording(nu_, x_, orders, tol_, prec):
        sums = plain(nu_, x_, orders, tol_, prec)
        passes.append((prec, {r: 2 * err <= abs(total) * Fraction(tol)
                              for r, (total, err, _, _) in zip(orders, sums)}))
        return sums

    monkeypatch.setattr(bessel, "_series_pass", recording)
    got = bessel_stack_values(nu, x, 5, tol)
    assert [prec for prec, _ in passes] == [dps_to_prec(30), dps_to_prec(60)]
    at_30, at_60 = passes[0][1], passes[1][1]
    assert [r for r, met in at_30.items() if not met] == [0, 2, 4]
    assert at_60 == {0: True, 2: True, 4: True}
    assert got == tuple(_ref_escalation(nu, x, r, tol)[0] for r in range(6))


def test_stack_resums_only_the_orders_whose_bound_fails(monkeypatch):
    # at (1.5, 42.0) the error sums of orders 3 and 5 meet tol/2 at 30
    # digits and the other four need 60
    passes = []
    plain = bessel._series_pass

    def recording(nu, x, orders, tol, prec):
        passes.append((prec, tuple(orders)))
        return plain(nu, x, orders, tol, prec)

    monkeypatch.setattr(bessel, "_series_pass", recording)
    got = bessel_stack_values(1.5, 42.0, 5, 1e-15)
    assert passes == [(103, (0, 1, 2, 3, 4, 5)), (203, (0, 1, 2, 4))]
    assert got == tuple(_ref_escalation(1.5, 42.0, r, 1e-15)[0] for r in range(6))


def test_gamma_is_computed_once_per_order_and_precision(monkeypatch):
    calls = []
    plain = bessel.mpf_gamma

    def counting(z, prec, rnd):
        calls.append(prec)
        return plain(z, prec, rnd)

    monkeypatch.setattr(bessel, "mpf_gamma", counting)
    bessel._gamma_plus_one.cache_clear()
    for x in (0.7, 3.0, 12.0, 45.0):   # 45.0 escalates to 60 digits
        bessel_stack_values(3.4, x, 5)
        bessel_j(3.4, x)
    assert sorted(calls) == [103, 203]  # 30 and 60 digits
    bessel._gamma_plus_one.cache_clear()


def test_term_cap_raises_numerical_failure(monkeypatch):
    monkeypatch.setattr(bessel, "SERIES_TERM_CAP", 3)
    with pytest.raises(NumericalFailure, match="within 3 terms.*order=0"):
        bessel_j(1.5, 20.0)
    with pytest.raises(NumericalFailure, match="within 3 terms.*order=0"):
        bessel_stack_values(1.5, 20.0, 4)
    with pytest.raises(NumericalFailure, match="within 3 terms.*order=2"):
        bessel_j_deriv(1.5, 20.0, 2)


# ---------------------------------------------------------------- zeros

def test_first_zero_of_sin_order():
    z = bessel_zero(0.5, 1)
    assert abs(z.value - math.pi) <= 1e-12
    assert z.residual <= 1e-12


def test_three_halves_zero():
    z = bessel_zero(1.5, 1)
    assert abs(z.value - J32_FIRST_ZERO) <= 1e-9
    assert abs(z.value - 4.4934094579) <= 1e-9


def test_zero_monotone_in_k():
    zs = [bessel_zero(2.5, k).value for k in (1, 2, 3)]
    assert zs[0] < zs[1] < zs[2]


def test_interlacing():
    for nu in (0.5, 1.5, 2.5, 3.5):
        a = bessel_zero(nu, 1).value
        b = bessel_zero(nu + 1, 1).value
        c = bessel_zero(nu, 2).value
        assert 0 < a < b < c


def test_deriv_zero_watson_bound():
    z = bessel_deriv_zero(1.5, 1)
    assert 1.5 < z.value < bessel_zero(1.5, 1).value


def test_deriv_zero_precedes_function_zero():
    assert bessel_deriv_zero(2.5, 1).value < bessel_zero(2.5, 1).value


def test_deriv_zero_half_order_anchor():
    # d/dx (sin x / sqrt(x)) = 0 solves tan x = 2x; regression anchor 1.1655612
    z = bessel_deriv_zero(0.5, 1)
    assert abs(z.value - JP12_FIRST_ZERO) <= 1e-9
    assert abs(z.value - 1.1655612) <= 5e-7


def test_fn_zero_matches_bessel_zero():
    # the x^(n+1/2) factor moves no positive zeros
    for n in range(0, 9):
        a = fn_zero(n, 1).value
        b = bessel_zero(n + 0.5, 1).value
        assert abs(a - b) <= 1e-9


def test_fn_deriv_zero_matches_shifted_order():
    for n in range(1, 9):
        a = fn_deriv_zero(n, 1).value
        b = bessel_zero(n - 0.5, 1).value
        assert abs(a - b) <= 1e-9


def test_zero_chain():
    for n in (1, 3):
        a = fn_deriv_zero(n, 1).value
        b = fn_zero(n, 1).value
        c = fn_deriv_zero(n, 2).value
        assert 0 < a < b < c


def test_usage_errors():
    with pytest.raises(UsageError):
        bessel_j(-1.0, 2.0)
    with pytest.raises(UsageError):
        bessel_j(1.0, -2.0)
    with pytest.raises(UsageError):
        bessel_zero(1.0, 0)
    with pytest.raises(UsageError):
        bessel_deriv_zero(0.0, 1)
