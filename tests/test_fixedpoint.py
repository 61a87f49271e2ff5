"""Bounds of the fixed-point elementary functions, the int-to-double and
rational roundings, and the precision ladder."""

from __future__ import annotations

import math
import random

import pytest
from mpmath import mp
from mpmath.libmp import dps_to_prec, from_man_exp, from_rational

from chebcrit import bessel, trigpoly
from chebcrit.errors import NumericalFailure
from chebcrit.fixedpoint import (
    _SHIFT_CAP,
    _checked_double,
    _cos_sin_taylor,
    _exp_taylor,
    _int_to_double,
    _ladder,
    _nearest_bits,
    _row,
)


@pytest.mark.parametrize("W", (156, 289, 2149))
def test_table_rows_and_reduced_arguments_are_within_one_unit(W):
    # every cos/sin row (pi/2 < 403 / 2^8) and exp row (ln 2 < 178 / 2^8),
    # and random arguments below 2^-8 for both signs of the Taylor sum,
    # against mpmath at W + 60 bits
    rng = random.Random(W)
    small = [rng.randrange(1 << W - 8) for _ in range(200)]
    with mp.workprec(W + 60):
        for j in range(403):
            u = mp.mpf(j) / 256
            C, S = _row(_cos_sin_taylor, W, j)
            assert abs(C - mp.ldexp(mp.cos(u), W)) < 1, j
            assert abs(S - mp.ldexp(mp.sin(u), W)) < 1, j
        for j in range(178):
            want = mp.ldexp(mp.exp(mp.mpf(j) / 256), W)
            assert abs(_row(_exp_taylor, W, j) - want) < 1, j
        for D in small:
            d = mp.ldexp(D, -W)
            C, S = _cos_sin_taylor(D, W)
            assert abs(C - mp.ldexp(mp.cos(d), W)) < 1, D
            assert abs(S - mp.ldexp(mp.sin(d), W)) < 1, D
            assert abs(_exp_taylor(D, W) - mp.ldexp(mp.exp(d), W)) < 1, D


def _old_nearest_double(n, F):
    """trigpoly's former n 2^-F rounding, the reference for den = 1."""
    try:
        return n / (1 << F)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _old_scaled_quotient(num, den, e):
    """bessel's former num 2^e / den rounding, the reference for any den."""
    sign = -1.0 if num < 0 else 1.0
    mag = num.bit_length() - den.bit_length() + e
    if mag > 1024:
        return sign * math.inf
    if mag < -1075:
        return sign * 0.0
    try:
        return (num << e) / den if e >= 0 else num / (den << -e)
    except OverflowError:
        return sign * math.inf


def _same(a, b):
    """Equal doubles with equal signs, so 0.0 and -0.0 differ."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_int_to_double_gives_what_the_two_former_helpers_gave():
    # random numerators, denominators and exponents, and the ends of the
    # double range: a quotient in [2^(mag-1), 2^(mag+1)) for mag = 1024,
    # 1025 (overflow), -1075 and -1074 (underflow and the least subnormal)
    rng = random.Random(23)
    cases = []
    for _ in range(3000):
        num = rng.getrandbits(rng.choice((1, 53, 200, 2000))) * rng.choice((1, -1))
        den = rng.getrandbits(rng.choice((1, 60, 300))) | 1
        mag = rng.choice((1024, 1025, -1075, -1074, rng.randrange(-1200, 1200)))
        e = rng.randrange(-3000, 3000) if rng.random() < 0.3 else (
            mag - num.bit_length() + den.bit_length())
        cases.append((num, den, e))
    big = 3 << _SHIFT_CAP + 9  # |e| at or past _SHIFT_CAP takes the bit-length path
    cases += [(big, 1, -_SHIFT_CAP - 9), (-big, 7, -_SHIFT_CAP - 10),
              (5, 1, -_SHIFT_CAP), (-5, 3, -_SHIFT_CAP), (5, 1, _SHIFT_CAP),
              (-5, big, _SHIFT_CAP + 9), (0, 1, -_SHIFT_CAP), (0, 1, _SHIFT_CAP),
              (0, 5, 0)]
    for num, den, e in cases:
        got = _int_to_double(num, den, e)
        # the former helper gave inf for 0 2^e past the double range, a
        # numerator bessel never passed (an accepted sum is nonzero)
        want = _old_scaled_quotient(num, den, e) if num else 0.0
        assert _same(got, want), (num, den, e)
        if den == 1 and e <= 0:
            assert _same(got, _old_nearest_double(num, -e)), (num, e)


def test_checked_double_refuses_what_leaves_the_double_range():
    assert _checked_double(3, 1, -1076, "tiny") == 2.0**-1074  # a subnormal passes
    assert _checked_double(0, 1, -2000, "zero") == 0.0  # a true zero passes
    assert _checked_double(-5, 3, 0, "plain") == -5 / 3
    with pytest.raises(NumericalFailure, match="^w_3 at x=0.5 underflows double precision$"):
        _checked_double(1, 1, -1076, "w_{} at x={!r}", 3, 0.5)
    with pytest.raises(NumericalFailure, match="^big overflows double precision$"):
        _checked_double(-1, 1, 1024, "big")


def test_nearest_bits_is_from_rational():
    # (m, e) is the value of mpmath's from_rational at prec bits, ties to
    # even, for random quotients and for exact ties (power-of-two dens)
    rng = random.Random(29)
    for _ in range(3000):
        num = rng.getrandbits(rng.randint(1, 400)) * rng.choice((1, -1))
        den = 1 << rng.randrange(300) if rng.random() < 0.3 else rng.getrandbits(300) | 1
        prec = rng.choice((1, 2, 53, 136, 269))
        want = mp.make_mpf(from_rational(num, den, prec, "n"))
        assert mp.make_mpf(from_man_exp(*_nearest_bits(num, den, prec))) == want, (num, den, prec)
    assert _nearest_bits(0, 7, 136) == (0, 0)


def test_ladder_is_dps_to_prec_at_every_digit_count():
    # the one ladder helper builds the kernel's 40 ... 2560 digits and the
    # Bessel series' 30 ... 1920 digits, as mpmath's dps_to_prec gave them
    kernel = [dps_to_prec(40 << j) for j in range(7)]
    series = [dps_to_prec(30 << j) for j in range(7)]
    assert list(_ladder(40, 5000)) == list(trigpoly._EVAL_PRECS) == kernel
    assert list(_ladder(30, 2000)) == list(bessel._SERIES_PRECS) == series
    assert kernel[0] == 136 and series[0] == 103
