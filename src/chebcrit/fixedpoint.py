"""Fixed-point elementary functions on Python ints, each with a proved bound.

An integer V at W bits stands for V 2^-W.  Each elementary function here
takes exact integers and returns integers within a stated number of units
of 2^-W of the true value, so the certificates built on them
(``trigpoly``'s kernel, ``bessel``'s prefactor) rest on integer arithmetic
alone:

* pi/2 by Machin's formula (``_half_pi``);
* cos, sin and exp by one Taylor sum (``_taylor``), and ln by one atanh
  sum (``_ln_ratio``);
* cos and sin of any dyadic (``_cos_sin``), ln of any positive dyadic
  (``_ln``) and exp of any fixed-point value (``_exp``): a reduction, a
  table row at a multiple of 2^-8 and a sum on the rest below 2^-8, the
  usual table-plus-reduced-argument evaluation (Brent and Zimmermann,
  Modern Computer Arithmetic, 2010, section 4.4);
* one correctly rounded int-to-double conversion (``_int_to_double``),
  its checked form (``_checked_double``), which refuses a value outside
  the double range, and Ziv's rounding test on an integer enclosure
  (``_ziv_double``);
* the rounding of exact rational coefficients to one Horner row of
  integers (``_horner_row``), which ``trigpoly``'s series and ``bessel``'s
  rows share;
* the rounding of an exact rational to a given number of bits
  (``_nearest_bits``), and the one precision ladder of the multiprecision
  sums (``_ladder``).

The table rows are built on first use per (function, W, row) and kept in
plain lists, and pi/2 once per precision.  These caches are process-global
and not guarded by a lock.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import NumericalFailure

_TABLE_BITS = 8  # the table rows sit at multiples of 2^-8

_LOG2_10 = 3.3219280948873626  # the float mpmath's dps_to_prec multiplies by

#: Below this |e| _int_to_double shifts before it looks at the bit lengths.
_SHIFT_CAP = 1 << 20


def _taylor(D: int, W: int, sign: int):
    """The even and odd parts of the Taylor sum of cos (sign -1) or exp
    (sign +1) at u = D / 2^W, 0 <= u < 1.571, W >= 128, at Wg = W + g bits,
    g = W.bit_length() + 3, before rounding:

        even = sum_m (sign z)^m / (2m)!,  odd = u sum_m (sign z)^m / (2m+1)!,

    z = u^2.  Rounded to W bits, each of cos u = even and sin u = odd (sign
    -1) and exp u = even + odd (sign +1) is within 1 of its value times 2^W.

    In units of 2^-Wg: z and z^2 are floored, off by < 1 and < 2 z + 1 <
    5.94 (z < 2.469, z^2 < 6.1).  One running term feeds the sums c0, s0,
    c1 and s1 of z^(2m) / (4m + i)!, i = 0, 1, 2, 3: each loop adds it to
    c0, divides it by 4m+1, 4m+2 and 4m+3, adding it to s0, c1 and s1 in
    turn, divides it by 4m+4 and multiplies it by z^2, one floor per step.
    Through these steps the summands of c0, s0, c1 and s1 are off by < 9.4,
    2.9, 1.5 and 1.34.  The true term shrinks by z^2 / 24 < 2^-1.97 in the
    first loop and by z^2 / 1680 < 2^-8.1 in each later one, so it is below
    1 after at most (Wg - 1.97) / 8.1 + 2 loops and the computed term (then
    at most 10) is 0 one loop later: the loop stops at the first zero term,
    after N < Wg / 8 + 3 loops, and the terms left out add < 9.5 to each
    sum.  So even = c0 + sign floor(z c1 / 2^Wg) (c1 < 0.51) is off by <
    13.2 N + 35, odd = floor(D (s0 + sign floor(z s1 / 2^Wg)) / 2^Wg) (s1 <
    0.17, u < 1.571) by < 9.8 N + 55, and their sum by < 2.875 Wg + 159 <=
    2^(g-1) for W >= 128.  The rounding to W bits adds 1/2.
    """
    g = W.bit_length() + 3
    Wg = W + g
    D <<= g
    z = D * D >> Wg
    z2 = z * z >> Wg
    term = 1 << Wg
    c0 = s0 = c1 = s1 = 0
    i = 1
    while term:
        c0 += term
        term //= i
        s0 += term
        term //= i + 1
        c1 += term
        term //= i + 2
        s1 += term
        term = (term // (i + 3)) * z2 >> Wg
        i += 4
    return c0 + sign * (z * c1 >> Wg), D * (s0 + sign * (z * s1 >> Wg)) >> Wg


def _cos_sin_taylor(D: int, W: int):
    """cos and sin of u = D / 2^W, 0 <= u < 1.571, W >= 128, each within 1
    of its value times 2^W (see _taylor)."""
    even, odd = _taylor(D, W, -1)
    g = W.bit_length() + 3
    half = 1 << (g - 1)
    return (even + half) >> g, (odd + half) >> g


def _exp_taylor(D: int, W: int) -> int:
    """exp(u), u = D / 2^W, 0 <= u < 1.571, W >= 128, within 1 of its value
    times 2^W (see _taylor)."""
    even, odd = _taylor(D, W, 1)
    g = W.bit_length() + 3
    return (even + odd + (1 << (g - 1))) >> g


def _ln_ratio(zn: int, zd: int, W: int) -> int:
    """The integer within 1 of 2^W ln((zd + zn) / (zd - zn)), for
    0 <= zn/zd <= 1/3 and W >= 64.

    2 atanh(z), z = zn/zd, at Wg = W + g bits, g = W.bit_length() + 3, in
    units of 2^-Wg.  t_0 = floor(2^(Wg+1) z) is off by < 1, and z2 =
    floor(t_0^2 / 2^(Wg+2)) by < z + 1 <= 4/3 from z^2 2^Wg.  The power
    t_i = floor(t_(i-1) z2 / 2^Wg), t_(i-1) <= 2^(Wg+1) / 3, is off by e_i
    <= e_(i-1) z^2 + 8/9 + 1 < 2.13, so each summand floor(t_i / (2i+1))
    by < 2.13.  The sum stops at the first t_N = 0, N < Wg/3 + 2 (z^2 <=
    1/9), and the terms left out add < 2.4.  The sum is off by < 0.71 Wg
    + 6.7 <= 2^(g-1), and the rounding to W bits adds 1/2.
    """
    g = W.bit_length() + 3
    Wg = W + g
    t = (zn << (Wg + 1)) // zd
    z2 = t * t >> (Wg + 2)
    total, i = 0, 1
    while t:
        total += t // i
        t = t * z2 >> Wg
        i += 2
    return (total + (1 << (g - 1))) >> g


def _ln_1p(D: int, W: int) -> int:
    """ln(1 + u), u = D / 2^W, 0 <= u <= 1, W >= 64, within 1 of its value
    times 2^W: 2 atanh(u / (2 + u)) by _ln_ratio."""
    return _ln_ratio(D, (2 << W) + D, W)


# f -> ({W: [f at j / 2^8 at W bits, or None before its first use]}, the
# row count).  Plain lists: an lru_cache per row costs more memory.
_ROWS: dict = {
    _cos_sin_taylor: ({}, 403),  # pi/2 < 403 / 2^8
    _exp_taylor: ({}, 178),  # ln 2 < 178 / 2^8
    _ln_1p: ({}, 257),  # row 256 is ln 2
}


def _row(f, W: int, j: int):
    """f(j << W - 8, W), the row j of the table of f at W bits, built on
    first use per (f, W, j)."""
    tables, count = _ROWS[f]
    rows = tables.get(W)
    if rows is None:
        rows = tables[W] = [None] * count
    row = rows[j]
    if row is None:
        row = rows[j] = f(j << W - _TABLE_BITS, W)
    return row


@lru_cache(maxsize=None)
def _half_pi(L: int) -> int:
    """The integer nearest to (pi/2) 2^L, within 1, for L >= 32.

    Machin's formula pi/2 = 8 atan(1/5) - 2 atan(1/239) at W = L + g bits,
    g = L.bit_length() + 3.  Each summand floor(2^W / (i n^i)), i odd, is
    one floor (nested floors by integers are one floor), so off by < 1;
    the alternating tail past the last nonzero power is below 1.  With
    at most W / (2 lg n) + 1 summands, the sum is off by < 1.86 W + 20
    units of 2^-W, at most 2^(g-1) for L >= 32, and the rounding to L bits
    adds 1/2.
    """
    W = L + L.bit_length() + 3

    def atan_inv(n: int) -> int:
        total, power, i, n2 = 0, (1 << W) // n, 1, n * n
        while power:
            total += power // i if i & 2 == 0 else -(power // i)
            power //= n2
            i += 2
        return total

    return (8 * atan_inv(5) - 2 * atan_inv(239) + (1 << (W - L - 1))) >> (W - L)


def _cos_sin(m: int, s: int, F: int):
    """(C, S) with |C - 2^F cos y| < 1 and |S - 2^F sin y| < 1 for the
    exact dyadic y = m / 2^s, s >= 0, F >= 108, on Python ints.

    At W = F + 20 bits, in units of 2^-W:

    * Reduction.  |y| < 2^b, b = max(bit length of |m| - s, 0), so the
      quadrant count q = floor(|y| / (pi/2)) is below 2^b, and it and the
      remainder r come from divmod(Y, P) at L = W + b + 2 bits, Y = |y| 2^L
      floored (off by < 1) and P = _half_pi(L) (within 1).  The remainder
      R = Y - q P is off by < 1 + q <= 2^b units of 2^-L (the code checks
      q < 2^b), so by 1/4 of a unit at W, and R >> (L - W) by < 1.25.
    * Table and Taylor sum.  R / 2^W = j / 2^8 + d, 0 <= d < 2^-8, j <= 402;
      the row j of _cos_sin_taylor and _cos_sin_taylor(d) are each within 1.
    * Angle addition.  cos(t + d) = cos t cos d - sin t sin d and sin(t +
      d) = sin t cos d + cos t sin d with every factor off by <= 1 are off
      by < |cos t| + |sin t| + |cos d| + |sin d| + 2 2^-W < 2.9.
    * Rounding.  With the reduction, cos and sin of r at W bits are off by
      < 4.15, and the rounding to F bits adds 1/2: each of C and S is off
      by < 1/2 + 4.15 2^-20.  The quadrant map (q mod 4) and the sign of y
      are exact.
    """
    W = F + 20
    y = abs(m)
    b = max(y.bit_length() - s, 0)
    L = W + b + 2
    Y = y << (L - s) if L >= s else y >> (s - L)
    q, R = divmod(Y, _half_pi(L))
    if q >> b:
        raise NumericalFailure(f"cos/sin reduction of {m}/2^{s} needs more than {b} guard bits")
    R >>= L - W
    j = R >> (W - _TABLE_BITS)
    cd, sd = _cos_sin_taylor(R - (j << (W - _TABLE_BITS)), W)
    ct, st = _row(_cos_sin_taylor, W, j)
    shift = 2 * W - F
    half = 1 << (shift - 1)
    C = (ct * cd - st * sd + half) >> shift
    S = (st * cd + ct * sd + half) >> shift
    q &= 3
    if q:
        C, S = ((-S, C), (-C, -S), (S, -C))[q - 1]
    return C, -S if m < 0 else S


def _ln(m: int, e: int, W: int) -> int:
    """The integer within |E| + 2 of 2^W ln(m 2^e), m >= 1, W >= 64, where
    E = bit length of m - 1 + e.

    m 2^e = 2^E (1 + j/2^8)(1 + d), 0 <= j < 2^8, 0 <= d < 2^-8 exactly, so
    ln(m 2^e) = E ln 2 + ln(1 + j/2^8) + ln(1 + d): the rows 2^8 (ln 2) and j
    of _ln_1p, each within 1, and _ln_ratio on the exact ratio (1 + d) =
    P / Q, within 1.
    """
    b = m.bit_length()
    j = (m - (1 << b - 1) << _TABLE_BITS) >> b - 1
    P, Q = m << _TABLE_BITS, (1 << _TABLE_BITS) + j << b - 1
    return ((b - 1 + e) * _row(_ln_1p, W, 1 << _TABLE_BITS) + _row(_ln_1p, W, j)
            + _ln_ratio(P - Q, P + Q, W))


def _exp(z: int, W: int) -> tuple[int, int]:
    """(E, k) with E 2^(k-W) within (1.01 |k| + 4.02) 2^-W relative of
    exp(z 2^-W), for W >= 128 and |k| <= 2^(W-20).

    With L the row 2^8 of _ln_1p (ln 2 2^W within 1), z = k L + R, 0 <= R
    < L, so exp(z 2^-W) = 2^k exp(R 2^-W) exp(k (L - 2^W ln 2) 2^-W), the
    last factor within 1.01 |k| 2^-W of 1.  R / 2^W = i / 2^8 + d, i <=
    177, 0 <= d < 2^-8, and exp(R 2^-W) = exp(i / 2^8) exp(d): the row i of
    _exp_taylor (below 2.0 2^W) and _exp_taylor(d) (below 1.004 2^W), each
    within 1, so their product floored to W bits is off by < 4.01 units of
    2^-W, relative to exp(R 2^-W) >= 1.
    """
    k, R = divmod(z, _row(_ln_1p, W, 1 << _TABLE_BITS))
    i = R >> W - _TABLE_BITS
    return _row(_exp_taylor, W, i) * _exp_taylor(R - (i << W - _TABLE_BITS), W) >> W, k


def _int_to_double(num: int, den: int, e: int) -> float:
    """The double nearest num 2^e / den, den > 0, from one int true
    division, which rounds correctly: +-inf past the double range and a
    signed zero below it, as mpmath's to_float gives them.

    For |e| >= _SHIFT_CAP the shift alone could take gigabytes, so the bit
    lengths settle those two ends first: 2^(mag-1) < |quotient| < 2^(mag+1).
    """
    if not -_SHIFT_CAP < e < _SHIFT_CAP:
        mag = num.bit_length() - den.bit_length() + e
        if mag < -1075 or not num:
            return -0.0 if num < 0 else 0.0
        if mag > 1024:
            return math.inf if num > 0 else -math.inf
    try:
        return (num << e) / den if e >= 0 else num / (den << -e)
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _checked_double(num: int, den: int, e: int, what: str, *args) -> float:
    """_int_to_double(num, den, e), or NumericalFailure where it overflows
    or where a nonzero value rounds to 0.0 (subnormals pass).  The message
    names the value as what.format(*args), formatted only on failure."""
    v = _int_to_double(num, den, e)
    if math.isinf(v) or (not v and num):
        raise NumericalFailure(
            f"{what.format(*args)} {'overflows' if v else 'underflows'} double precision")
    return v


def _ziv_double(T: int, E: int, den: int, e: int, what: str, *args) -> float | None:
    """The double of every value in [(T - E) 2^e / den, (T + E) 2^e / den],
    den > 0, where both ends round to one double and |T| > E, so that the
    interval excludes 0 (Ziv's rounding test): that double is then each
    value correctly rounded.  None where the test fails; where the double
    overflows or underflows, _checked_double raises NumericalFailure with
    what.format(*args)."""
    lo = _int_to_double(T - E, den, e)
    if abs(T) > E and lo == _int_to_double(T + E, den, e):
        if not lo or math.isinf(lo):  # T - E is nonzero: this raises
            _checked_double(T - E, den, e, what, *args)
        return lo
    return None


def _horner_row(terms) -> tuple[int, tuple[int, ...]]:
    """(c_K, (c_(K-1), ..., c_0)) for the terms (n_k, d_k, t_k), k = 0..K,
    d_k > 0, c_k the integer nearest n_k 2^t_k / d_k, from one integer
    division each: a row as Horner's rule reads it."""
    # the integer nearest n / d is floor((2n + d) / 2d), here with the 2^t
    # on n or on d
    row = [((num << t + 1) + den) // (2 * den) if t >= 0 else
           (2 * num + (den << -t)) // (den << 1 - t) for num, den, t in terms]
    return row[-1], tuple(reversed(row[:-1]))


def _nearest_bits(num: int, den: int, prec: int) -> tuple[int, int]:
    """(m, e) with m 2^e the number of ``prec`` bits nearest num / den,
    den > 0, ties to even: the rounding of mpmath's from_rational.

    With e = bit length of |num| - bit length of den - prec, the quotient
    |num| / (den 2^e) lies in (2^(prec-1), 2^(prec+1)), and one more bit
    of e puts its floor below 2^prec.
    """
    if not num:
        return 0, 0
    a = abs(num)
    e = a.bit_length() - den.bit_length() - prec
    while True:
        n, d = (a << -e, den) if e < 0 else (a, den << e)
        q, r = divmod(n, d)
        if not q >> prec:
            break
        e += 1
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
    return (-q if num < 0 else q), e


def _ladder(dps: int, max_dps: int) -> tuple[int, ...]:
    """The working precisions in bits for dps, 2 dps, 4 dps, ... up to
    max_dps decimal digits, each round((d + 1) log2 10) as mpmath's
    dps_to_prec gives it."""
    return tuple(round(((dps << j) + 1) * _LOG2_10)
                 for j in range((max_dps // dps).bit_length()))
