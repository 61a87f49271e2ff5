"""Series evaluation and zero structure of J_nu against independent oracles."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from mpmath import mp
from mpmath.libmp import dps_to_prec

from chebcrit import bessel, fixedpoint
from chebcrit.bessel import (
    bessel_deriv_zero,
    bessel_deriv_zeros,
    bessel_j,
    bessel_j_deriv,
    bessel_stack_values,
    bessel_zero,
    bessel_zeros,
    fn_deriv_zero,
    fn_zero,
    j_squared_integral,
)
from chebcrit.errors import NumericalFailure, UsageError
from chebcrit.identities import make_grid
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

@lru_cache(maxsize=None)
def _mp_value(nu, x, order):
    """J_nu^(order)(x) at 80 digits, independent of the series kernel."""
    with mp.workdps(80):
        return mpmath.besselj(mp.mpf(nu), mp.mpf(x), derivative=order)


def _within_bound(got, nu, x, order, tol=bessel.DEFAULT_SERIES_TOL):
    """got within tol/2 of the 80-digit value, relative, plus half an ulp."""
    want = _mp_value(nu, x, order)
    with mp.workdps(80):
        return abs(mp.mpf(got) - want) <= tol / 2 * abs(want) + math.ulp(float(want)) / 2


_NUS = (0.0, 0.5, 1.5, 2.0, 3.4)
_XS = (1e-2, 0.7, 3.0, 12.0, 30.0, 40.0)


def _horner(nu, x, order, F):
    """(total, K) of the order's row at x, summed as the kernel sums it."""
    mx, dx = x.as_integer_ratio()
    Y = mx * mx
    sh = Y.bit_length()
    acc, rest = bessel._row(nu, order, F, sh - 2 * dx.bit_length())
    for c in rest:
        acc = (acc * Y >> sh) + c
    return acc, len(rest)


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
    # per order, the Horner total of the row lies within its bound
    # 1.5 (K + 1) of 2^F times the exact series; 40 terms past the row's
    # last index stand for the series, whose rest is far below one unit
    for x in _XS:
        for dps in (30, 60):
            F = dps_to_prec(dps)
            for r in range(6):
                total, K = _horner(nu, x, r, F)
                exact = _exact_partial_sum(nu, x, r, K + 41) * 2 ** F
                assert abs(total - exact) <= Fraction(3, 2) * (K + 1), (x, dps, r)


def test_a_row_stops_only_where_every_factor_is_positive():
    # the tail bound needs every factor 2(K+1) + nu - i, i < r, of
    # P_r(K+1) positive; at x = 1e-20 the terms past the first are below
    # one unit, and only that test stops order 5 at nu = 0.5 from ending at
    # K = 0, where P_5(1) is positive with two negative factors
    for nu in _NUS:
        for x in (1e-20, *_XS):
            for r in range(6):
                _, K = _horner(nu, x, r, dps_to_prec(30))
                assert 2 * (K + 1) + Fraction(nu) - (r - 1) > 0, (nu, x, r)


def test_sampled_values_meet_the_bound():
    rng = random.Random(16)
    for _ in range(200):
        nu = rng.choice((0.0, 0.5, 1.0, 1.5, 2.0, 3.4, 7.25))
        x = 10 ** rng.uniform(-3, math.log10(50))
        got = bessel._series_values(nu, x, range(6), bessel.DEFAULT_SERIES_TOL)
        for r in range(6):
            assert _within_bound(got[r], nu, x, r), (nu, x, r)


@pytest.mark.parametrize("nu", _NUS)
def test_single_orders_match_reference(nu):
    for x in _XS:
        assert _within_bound(bessel_j(nu, x), nu, x, 0), x
        for order in (1, 2):
            assert _within_bound(bessel_j_deriv(nu, x, order), nu, x, order), (x, order)
        for order in range(6):
            got = bessel._series_values(nu, x, (order,), bessel.DEFAULT_SERIES_TOL)
            assert got == bessel_stack_values(nu, x, 5)[order:order + 1], (x, order)


@pytest.mark.parametrize("nu", _NUS)
def test_stacks_match_reference(nu):
    for x in _XS:
        for m in range(2, 6):
            got = bessel_stack_values(nu, x, m)
            assert len(got) == m + 1
            for r in range(m + 1):
                assert _within_bound(got[r], nu, x, r), (x, m, r)


def test_falling_factorials_stay_exact_for_a_tiny_order():
    # at nu = 1e-300 the factor 2 + nu - 2 of order 3 at k = 1 is nu itself:
    # rounded to 0, it would stop orders 3-5 after one term, near 1e-300
    with mp.workdps(40):
        want = [float(mpmath.besselj(mp.mpf(1e-300), 2, derivative=r)) for r in range(6)]
    got = bessel_stack_values(1e-300, 2.0, 5)
    for r in range(6):
        assert abs(got[r] - want[r]) <= 1e-14 * abs(want[r]), r


@pytest.mark.parametrize("nu, x, order", [
    (1e-20, 6e-4, 5), (1e-20, 1e-7, 3), (1e-20, 2e-7, 4), (1e-20, 1e-4, 5),
    (1e-12, 6e-4, 5)])
def test_tiny_order_stack_meets_an_80_digit_reference(nu, x, order):
    # a factor of P_r(k) is about nu at a small k, so that term is tiny
    # while the next is not: a stopping test that takes the tiny term for
    # the tail fails here (6.5% off at the first case)
    got = bessel_stack_values(nu, x, 5)[order]
    want = _mp_value(nu, x, order)
    with mp.workdps(80):
        assert abs(mp.mpf(got) - want) <= 1e-13 * abs(want)


def _recording_rows(monkeypatch):
    """A list that gets (F, order) for every row the kernel asks for."""
    asked = []
    plain = bessel._row

    def recording(nu, r, F, rho):
        asked.append((F, r))
        return plain(nu, r, F, rho)

    monkeypatch.setattr(bessel, "_row", recording)
    return asked


def _meets_bound(nu, x, order, F, tol):
    total, K = _horner(nu, x, order, F)
    return 3 * (K + 1) <= abs(total) * Fraction(tol)


def test_stack_escalates_only_the_orders_that_need_it(monkeypatch):
    # at (2.0, 1e-8) orders 3-5 start at y or y^2, so their bounds fail
    # at 30 digits and orders 0-2 meet tol/2: the second pass sums exactly
    # the orders whose bound failed, and every one of them passes
    nu, x, tol = 2.0, 1e-8, 1e-15
    at_30 = {r: _meets_bound(nu, x, r, dps_to_prec(30), tol) for r in range(6)}
    at_60 = {r: _meets_bound(nu, x, r, dps_to_prec(60), tol) for r in range(6)}
    assert [r for r, met in at_30.items() if not met] == [3, 4, 5]
    assert all(at_60[r] for r in (3, 4, 5))
    asked = _recording_rows(monkeypatch)
    got = bessel_stack_values(nu, x, 5, tol)
    assert asked == [(dps_to_prec(30), r) for r in range(6)] + [
        (dps_to_prec(60), r) for r in (3, 4, 5)]
    for r in range(6):
        assert _within_bound(got[r], nu, x, r, tol), r


def test_stack_resums_only_the_orders_whose_bound_fails(monkeypatch):
    # at (2.0, 1e-6) only order 5, which starts at y^2, needs 60 digits
    asked = _recording_rows(monkeypatch)
    got = bessel_stack_values(2.0, 1e-6, 5, 1e-15)
    assert asked == [(103, r) for r in range(6)] + [(203, 5)]
    for r in range(6):
        assert _within_bound(got[r], 2.0, 1e-6, r, 1e-15), r


def test_a_second_abscissa_with_the_same_rho_builds_no_row():
    # y = 2.25 and 3.0625 both lie below 2^2: the second call reuses the
    # row of the first
    assert bessel._row.cache_info().maxsize is not None
    bessel._row.cache_clear()
    first = bessel_j(1.5, 3.0)
    built = bessel._row.cache_info().misses
    second = bessel_j(1.5, 3.5)
    assert bessel._row.cache_info().misses == built
    assert _within_bound(first, 1.5, 3.0, 0) and _within_bound(second, 1.5, 3.5, 0)


def test_gamma_is_computed_once_per_order_and_precision(monkeypatch):
    calls = []
    plain = bessel.mpf_gamma

    def counting(z, prec, rnd):
        calls.append(prec)
        return plain(z, prec, rnd)

    monkeypatch.setattr(bessel, "mpf_gamma", counting)
    bessel._gamma_plus_one.cache_clear()
    # the double nearest j_(3.4,1): J_3.4 there needs 60 digits
    for x in (0.7, 3.0, 12.0, 45.0, 6.867010195869923):
        bessel_stack_values(3.4, x, 5)
        bessel_j(3.4, x)
    assert sorted(calls) == [103, 203]  # 30 and 60 digits
    bessel._gamma_plus_one.cache_clear()


def test_term_cap_raises_numerical_failure(monkeypatch):
    # a row built under the full cap would be summed as it is
    bessel._row.cache_clear()
    monkeypatch.setattr(bessel, "SERIES_TERM_CAP", 3)
    with pytest.raises(NumericalFailure, match="within 3 terms.*order=0"):
        bessel_j(1.5, 20.0)
    with pytest.raises(NumericalFailure, match="within 3 terms.*order=0"):
        bessel_stack_values(1.5, 20.0, 4)
    with pytest.raises(NumericalFailure, match="within 3 terms.*order=2"):
        bessel_j_deriv(1.5, 20.0, 2)


# ---------------------------------------------------------------- prefactor

_PREFACTOR_XS = (5e-324, 1e-300, 1e-7, 0.01, 1.0, 6.867010195869923, 29.0, 127.5)


@pytest.mark.parametrize("nu", (0.0, 1.0, 2.0, 0.5, 1.5, 2.5, 3.4, 1e-20, 7.3, 40.75))
def test_half_x_power_meets_its_bound(nu):
    # (M, X) within 2^-W relative of (x/2)^nu; integer nu takes the exact
    # route, half-integer nu the isqrt, the rest ln and exp
    for x in _PREFACTOR_XS:
        mx, dx = x.as_integer_ratio()
        for F in (103, 203):
            W = F + bessel._PREFACTOR_GUARD
            M, X = bessel._half_x_power(nu, mx, dx.bit_length() - 1, W)
            with mp.workdps(120):
                want = (mp.mpf(x) / 2) ** mp.mpf(nu)
                assert abs(mp.ldexp(M, X) - want) < mp.ldexp(want, -W), (x, F)
                if nu == int(nu):
                    assert mp.ldexp(M, X) == want, (x, F)


@pytest.mark.parametrize("F", (103, 203))
def test_ln_and_exp_rows_are_within_one_unit(F):
    # the rows at the working precision of nu = 3.4 (V = W + 2 + 12)
    V = F + bessel._PREFACTOR_GUARD + 14
    with mp.workprec(V + 40):
        for j in range(257):
            want = mp.ldexp(mp.log(1 + mp.mpf(j) / 256), V)
            assert abs(fixedpoint._row(fixedpoint._ln_1p, V, j) - want) < 1, j
        for j in range(178):
            want = mp.ldexp(mp.exp(mp.mpf(j) / 256), V)
            assert abs(fixedpoint._row(fixedpoint._exp_taylor, V, j) - want) < 1, j
    assert 178 / 256 > math.log(2) > 177 / 256  # no reduced argument needs row 178


def test_ln_ratio_and_exp_fixed_are_within_one_unit():
    V = 137
    rng = random.Random(22)
    with mp.workprec(V + 40):
        for _ in range(200):
            zd = rng.getrandbits(80) | 1 << 80
            zn = rng.randrange(zd // 3 + 1)
            want = mp.ldexp(mp.log(mp.mpf(zd + zn) / (zd - zn)), V)
            assert abs(fixedpoint._ln_ratio(zn, zd, V) - want) < 1, (zn, zd)
            D = rng.randrange(7 << V - 4)  # u < 0.4375 here, u < 2^-8 below
            for D in (D, D >> 8):
                want = mp.ldexp(mp.exp(mp.ldexp(D, -V)), V)
                assert abs(fixedpoint._exp_taylor(D, V) - want) < 1, D


def test_over_and_underflow_raise_numerical_failure():
    # a nonzero J_nu^(r)(x) outside the double range raises, as trigpoly's
    # values and the minors do, where mpmath's to_float gave +-inf or 0.0;
    # subnormal and finite values stay as they were
    for call, what in (
            (lambda: bessel_stack_values(0.5, 1e-300, 5), r"J_0.5\^\(2\) at x=1e-300 overflows"),
            (lambda: bessel_stack_values(3.4, 1e-200, 5), r"J_3.4\^\(0\) at x=1e-200 underflows"),
            (lambda: bessel_j(3.4, 1e-300), r"J_3.4\^\(0\) at x=1e-300 underflows"),
            (lambda: bessel_j(200.0, 1.0), "underflows"),
            # numerators far past the double range underflow without a
            # float conversion; integer nu = 1e300 takes the ln and exp route
            (lambda: bessel_j(1000.0, 100.0), "underflows"),
            (lambda: bessel_stack_values(1e300, 1.0, 5), "underflows"),
            # the integral of J_3.4^2/t^2 from 0 to x is ~x^5.8 / 66,000, ~1.5e-1165
            (lambda: j_squared_integral(3.4, 1e-200),
             r"the integral of J_3.4\^2/t\^2 at x=1e-200 underflows")):
        with pytest.raises(NumericalFailure, match=what):
            call()
    assert bessel_j(0.5, 1e-300) == 7.978845608028654e-151
    assert bessel_j_deriv(0.5, 1e-300, 1) == 3.9894228040143267e+149
    assert bessel_j(0.5, 5e-324) == 1.7735048886036274e-162
    assert bessel_j(3.4, 2e-91) == float(mpmath.besselj(3.4, mp.mpf(2e-91))) < 2.0**-1022


def test_the_prefactor_is_computed_once_per_precision(monkeypatch):
    # the double nearest j_(3.4,1): order 0 needs 60 digits, the other
    # five orders of the stack are accepted at 30
    asked = _recording_rows(monkeypatch)
    calls = []
    plain = bessel._half_x_power

    def counting(nu, mx, s, W):
        calls.append(W)
        return plain(nu, mx, s, W)

    monkeypatch.setattr(bessel, "_half_x_power", counting)
    bessel_stack_values(3.4, 6.867010195869923, 5)
    assert asked == [(103, r) for r in range(6)] + [(203, 0)]
    assert calls == [103 + bessel._PREFACTOR_GUARD, 203 + bessel._PREFACTOR_GUARD]


# ---------------------------------------------------------------- integral of J_nu^2/t^2

#: the default verify grid, on which the integral's head runs
_GRID = tuple(make_grid(0.01, 30.0, 500))


@lru_cache(maxsize=None)
def _squared_integral_ref(nu, x):
    """The integral of J_nu^2 / t^2 from 0 to x at 40 digits, by mpmath's
    quadrature on panels of length at most 2."""
    with mp.workdps(40):
        nu, x = mp.mpf(nu), mp.mpf(x)
        return mp.quad(lambda t: mpmath.besselj(nu, t) ** 2 / t ** 2,
                       mp.linspace(0, x, int(x) // 2 + 2))


@pytest.mark.parametrize("nu", (1.5, 2.0, 3.4))
def test_squared_integral_is_the_correctly_rounded_40_digit_value(nu):
    for x in (0.01, 0.5, 3.0, 9.0, 15.0):
        assert j_squared_integral(nu, x) == float(_squared_integral_ref(nu, x)), x


def test_squared_integral_gives_none_past_its_reach():
    # the row of y = x^2/4 < 2^rho holds at most 64 terms: rho = 6 (x < 16)
    # fits at 30 digits for nu = 1.5 and 3.4, and rho = 7 does not
    assert j_squared_integral(1.5, 0.0) == 0.0
    for nu in (1.5, 3.4):
        reach = max(x for x in _GRID if j_squared_integral(nu, x) is not None)
        assert reach == max(x for x in _GRID if x < 16.0), nu
        assert len(bessel._squared_integral_row(nu, 103, 6)[1]) < 64
        assert bessel._squared_integral_row(nu, 103, 7) is None
        for x in (16.0, 30.0, 1e300):
            assert j_squared_integral(nu, x) is None, (nu, x)


def test_squared_integral_refuses_nu_at_most_one_half():
    # J_nu^2 / t^2 ~ t^(2 nu - 2) at 0: the integral diverges for nu <= 1/2
    for nu in (0.0, 0.25, 0.5):
        with pytest.raises(UsageError, match="diverges"):
            j_squared_integral(nu, 1.0)
    for nu, x in ((-1.0, 1.0), (math.inf, 1.0), (1.5, -1.0), (1.5, math.inf), (1.5, math.nan)):
        with pytest.raises(UsageError):
            j_squared_integral(nu, x)


def _integral_row_total(x, row):
    """(total, K): the integral row at x summed as the kernel sums it."""
    mx, _ = x.as_integer_ratio()
    Y = mx * mx
    sh = Y.bit_length()
    acc, rest = row
    for c in rest:
        acc = (acc * Y >> sh) + c
    return acc, len(rest)


def _integral_series(nu, x, n_terms):
    """The first n_terms terms of sum_k b_k y^k in the rationals."""
    nu_q, y = Fraction(nu), Fraction(x) ** 2 / 4
    term, total = 1 / (2 * nu_q - 1), Fraction(0)  # b_0 = 1 / (2 nu - 1)
    for k in range(n_terms):
        total += term
        term *= -2 * y * (2 * nu_q + 2 * k - 1) / ((2 * nu_q + k + 1) * (k + 1) * (nu_q + k + 1))
    return total


@pytest.mark.parametrize("nu", (1.5, 3.4))
def test_the_integral_stop_test_carries_weight(nu):
    # at the first default-grid point of each row below x = 1, the full
    # row's Horner total lies within 1.5 (K + 1) units of 2^F times the
    # series (40 more terms stand for it); a row cut one term short leaves
    # that bound at some of them, so its enclosure would no longer hold the
    # value.  (No double moves: the dropped term is below 2^13 units of
    # 2^-103.)
    F, broken, rows = 103, 0, {}
    for x in _GRID:
        mx, dx = x.as_integer_ratio()
        rows.setdefault((mx * mx).bit_length() - 2 * dx.bit_length(), x)
    for rho, x in rows.items():
        if x >= 1.0:
            break
        row = bessel._squared_integral_row(nu, F, rho)
        rest = row[1]
        exact = _integral_series(nu, x, len(rest) + 41) * 2 ** F
        total, K = _integral_row_total(x, row)
        assert abs(total - exact) <= Fraction(3, 2) * (K + 1), x
        total, K = _integral_row_total(x, (rest[0], rest[1:]))
        broken += abs(total - exact) > Fraction(3, 2) * (K + 1)
    assert broken


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
    for zeros, nu in ((bessel_zeros, -1.0), (bessel_deriv_zeros, 0.0)):
        with pytest.raises(UsageError):
            zeros(nu, 3)  # at the call, before any zero is drawn
    for zero in (fn_zero, fn_deriv_zero):
        for n, k in ((-1, 1), (1.5, 1), (17, 1), (2, 0)):
            with pytest.raises(UsageError):
                zero(n, k)


def test_missing_fn_deriv_zero_names_its_target():
    # f_2' has about a dozen zeros below its scan cap 2.5 + ZERO_SCAN_SPAN
    with pytest.raises(NumericalFailure, match=r"^zero of f_2': only \d+ sign change"):
        fn_deriv_zero(2, 40)


@pytest.mark.parametrize("zero, arg, label", [(bessel_zero, 2.5, "J_2.5"),
                                              (bessel_deriv_zero, 3.4, "J_3.4'"),
                                              (fn_zero, 2, "f_2")])
def test_missing_zero_names_its_target(zero, arg, label):
    # each scan gives up at nu (or n + 0.5) + ZERO_SCAN_SPAN, about a dozen zeros in
    with pytest.raises(NumericalFailure, match=rf"^zero of {re.escape(label)}: only \d+ sign"):
        zero(arg, 40)


def test_every_derivative_zero_drawn_is_checked_against_nu(monkeypatch):
    # a stand-in J_3.4' with its first zero at pi < 3.4, then 2 pi and 3 pi
    monkeypatch.setattr(bessel, "bessel_j_deriv", lambda nu, t, order: math.sin(t))
    zeros = bessel_deriv_zeros(3.4, 3)
    with pytest.raises(NumericalFailure, match=r"^computed j'_\{3.4,1\} = 3.14159"):
        next(zeros)
