"""Real-order Bessel functions J_nu by power series, the integral of
J_nu^2/t^2 by its exact series, and bracketed zeros.

    J_nu(x) = (x/2)^nu / Gamma(nu+1) * sum_k (-y)^k / (k! (nu+1)_k),  y = x^2/4

Order r of termwise differentiation weighs term k by the falling factorial
P_r(k) = (2k+nu)(2k+nu-1)...(2k+nu-r+1) and divides by x^r, so every order
is a power series sum_k b_k y^k with the exact rational coefficients

    b_k = (-1)^k P_r(k) / (k! (nu+1)_k).

nu = N/2^E and x are exact dyadics, so b_k is a ratio of integers.  Let
2^rho be the least power of two above y and u = y / 2^rho < 1.  The row
of (nu, r, F, rho) holds c_k = b_k 2^(rho k + F) rounded to the nearest
integer, k = 0..K, each from one integer division; rows are cached, and a
call sums its row by Horner's rule in u, acc <- floor(acc u) + c_k, with
u = Y / 2^sh for the integers Y = mx^2 and sh its bit length, x = mx/2^s.

The row stops at the first K where
  (1) every factor of P_r(K+1) is positive,
  (2) q = 2^rho |b_(K+2) / b_(K+1)| < 1, and
  (3) |b_(K+1)| 2^(rho (K+1) + F) / (1 - q) <= 1,
each checked exactly on integers.  The tail past K is then at most one
unit of 2^-F.  Proof: the term ratio |b_(k+1)/b_k| y is
y P_r(k+1) / (P_r(k) (k+1)(k+1+nu)).  Once the factors of P_r(k) are
positive, each (2k+2+nu-i)/(2k+nu-i) and 1/((k+1)(k+1+nu)) decreases in
k, so for k >= K+1 the ratio is at most its value at K+1, which is below q
since y < 2^rho.  The tail is then at most |b_(K+1)| y^(K+1) / (1 - q),
and y^(K+1) < 2^(rho (K+1)).  (Without (1) the ratios need not decrease:
for tiny nu one factor of P_r(k) is about nu at a small k, so that term
is tiny while the next one is not.)

Roundoff: c_K is off by at most 1/2, and each Horner step adds at most 1
for the floor and 1/2 for the coefficient to the error times u < 1.  So
the total is within 1/2 + 1.5 K of the row's exact sum, and within
1.5 (K + 1) units of 2^F sum_k b_k y^k once the tail's one unit is
added, with no per-term division and no rescaling.

Each order is summed at F = 103 bits (30 digits), then at doubled
digits up to 1920 (``fixedpoint._ladder``, which builds ``trigpoly``'s
ladder too), until 1.5 (K + 1) <= tol/2 of its total.  The prefactor
(x/2)^nu / Gamma(nu+1) / x^r takes no mpf arithmetic but Gamma:

  * (x/2)^nu is an integer pair (M, X), M 2^X within 2^-W relative at
    W = F + 20 bits (_half_x_power): exact for integer nu, one isqrt for
    half-integer nu, else the fixed-point ln and exp of ``fixedpoint``,
    on 2^-8 table rows, whose docstrings prove their bounds;
  * Gamma(nu+1) is mpmath's mpf_gamma at F bits, computed once per
    (nu, F) and handed on as the integer pair (gman, gexp), Gamma(nu+1) =
    gman 2^gexp: the one value, and the one place in the package, that
    mpmath still supplies, within one unit of its last bit, 2^(1-F)
    relative;
  * the double is one int true division, acc M / (gman mx^r) times a
    power of two, where x = mx / 2^s; Python rounds it correctly, and
    ``fixedpoint._checked_double`` raises NumericalFailure where it
    overflows or where the nonzero value rounds to 0.0, as ``trigpoly``'s
    values and the minors do (subnormals pass).

The returned double is then within tol/2 + 2^-W + 2^(1-F) of
J_nu^(r)(x) relative (their products add below 2^(1-F) tol), plus half
an ulp, for any x whose row fits in SERIES_TERM_CAP terms (at 30 digits
every x < 128 does).  A stack's orders share one abscissa, one prefactor
per precision, and only the orders whose bound fails are summed again.

Series only, no asymptotic expansions: at desk scale the adaptive series
meets tolerance everywhere and keeps one code path for all real nu >= 0.
``_series_values`` is the one entry of the three evaluators and checks
their common arguments; each evaluator checks only its own.

The integral of J_nu^2/t^2 (``j_squared_integral``).  By the product
formula (DLMF 10.8.3),

    J_nu(x)^2 = (x/2)^(2nu) / Gamma(nu+1)^2 * sum_k (2nu+k+1)_k (-y)^k / (k! (nu+1)_k^2),

and termwise integration gives, for nu > 1/2 (below, the integral
diverges at 0),

    int_0^x J_nu(t)^2 / t^2 dt = (x/2)^(2nu) / (x Gamma(nu+1)^2) * sum_k b_k y^k,
    b_k = (-1)^k (2nu+k+1)_k / (k! (nu+1)_k^2 (2nu+2k-1)).

``_squared_integral_row(nu, F, rho)`` holds c_k = b_k 2^(rho k + F) rounded
to the nearest integer, from |b_0| = 1/(2nu-1) and the ratio

    |b_(k+1) / b_k| = 2 (2nu+2k-1) / ((2nu+k+1)(k+1)(nu+k+1)),

each a ratio of integers with every factor positive, and it is summed by
the same Horner rule in u.  Since 2nu+2k-1 < 2 (2nu+k+1), the term ratio
|b_(k+1)/b_k| y is below 4y / ((k+1)(nu+k+1)), which decreases in k.  The
row stops at the first K where

    |b_(K+1)| 2^(rho (K+1) + F) <= 1 - q,   q = 2^rho 4 / ((K+2)(nu+K+2)),

checked exactly on integers (the test implies q < 1).  For k >= K+1 the
term ratio is then below q, since y < 2^rho, so the tail past K is at most
|b_(K+1)| y^(K+1) / (1 - q) < |b_(K+1)| 2^(rho (K+1)) / (1 - q), one unit of
2^-F, and the Horner total is within 1.5 (K + 1) units of 2^F sum_k b_k y^k,
as for J_nu.  A row holds at most _SQUARED_INTEGRAL_TERMS (64) terms;
where it would need more, the integral gives None and Simpson continues.
At 30 digits that reach is y < 2^6 (x < 16) for nu = 1.5 to 3.4, y < 2^5
for nu near 1 and y < 2^7 at nu = 20.  The prefactor is ``_half_x_power``
squared over Gamma's pair squared, within 2^(3-F) relative; the enclosure
is widened by that, and ``fixedpoint._ziv_double`` rounds both of its ends
and must get one double (Ziv's test), so the double is the value
correctly rounded.

Zeros: ``bessel_zeros``, ``bessel_deriv_zeros`` and ``_fn_zeros`` (of f_n
and f_n') each state where their scan starts, where it gives up and what
its failures name, and all three draw from ``_zeros``, the one fixed-step
scan (ZERO_SCAN_STEP) and bisection of ``rootfind.first_zeros``.  The k-th
zero is the last of the first k, and argument errors are raised at the
call, before any zero is drawn.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from mpmath.libmp import fone, from_float, mpf_add, mpf_gamma, round_nearest

from .errors import NumericalFailure, UsageError
from .fixedpoint import _checked_double, _exp, _horner_row, _ladder, _ln, _ziv_double
from .rootfind import ZeroResult, first_zeros
from .trigpoly import fn_derivatives, tp_eval

DEFAULT_SERIES_TOL = 1e-14
SERIES_TERM_CAP = 500

#: Zero-scan resolution.  Consecutive zeros of J_nu are > pi apart
#: asymptotically and > 1 apart for every order in scope, so a pi/8 step
#: cannot skip a zero; each bracket carries a sign change or an exact zero.
ZERO_SCAN_STEP = math.pi / 8

#: The scan for the k-th zero gives up at nu + ZERO_SCAN_SPAN.
ZERO_SCAN_SPAN = 40.0

DEFAULT_ROOT_XTOL = 1e-12

_MAX_SERIES_DERIV = 5

_RND = round_nearest

_SERIES_MAX_DPS = 2000
#: the series' working precisions in bits: 30, 60, ..., 1920 digits
_SERIES_PRECS = _ladder(30, _SERIES_MAX_DPS)

#: the prefactor (x/2)^nu is computed at W = F + _PREFACTOR_GUARD bits
_PREFACTOR_GUARD = 20

#: integer and half-integer nu below this take the exact and isqrt routes
_EXACT_POWER_CAP = 1024

#: A row of the integral of J_nu^2/t^2 holds at most this many terms, and
#: Simpson continues past its reach: until the benchmark's spans are bound
#: to stages (ROADMAP item 3), perfbench's spans.EXPECTED and the traced CI
#: step need Simpson nodes on verify-bessel.
_SQUARED_INTEGRAL_TERMS = 64


def _check_order(nu: float) -> float:
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0:
        raise UsageError("the order nu must be finite and >= 0")
    return nu


@lru_cache(maxsize=256)
def _gamma_plus_one(nu: float, prec: int) -> tuple[int, int]:
    """(gman, gexp) with Gamma(nu + 1) = gman 2^gexp at ``prec`` bits, as
    mpmath's gamma gives it for the mpf nu + 1, once per (nu, prec): every
    sum at one precision shares it.  The one use of mpmath in the package."""
    _, gman, gexp, _ = mpf_gamma(mpf_add(from_float(nu), fone, prec, _RND), prec, _RND)
    return gman, gexp


@lru_cache(maxsize=1024)
def _row(nu: float, r: int, F: int, rho: int):
    """The Horner row of order r for y < 2^rho at F fraction bits.

    Returns (c_K, (c_(K-1), ..., c_0)), c_k the integer nearest to
    b_k 2^(rho k + F), K the first index that meets the three tests of the
    module docstring.  Raises NumericalFailure if K + 1 > SERIES_TERM_CAP.
    """
    n, d = nu.as_integer_ratio()
    e = d.bit_length() - 1  # nu = n / 2^e

    def fall(k: int) -> int:  # 2^(e r) P_r(k)
        p = 1
        for i in range(r):
            p *= ((2 * k - i) << e) + n
        return p

    # b_k = (-1)^k fall(k) 2^(e (k - r)) / d_k, d_k = k! prod_(j <= k) (j 2^e + n)
    dens = [1]
    K = 0
    while True:
        if K >= SERIES_TERM_CAP:
            raise NumericalFailure(
                f"Bessel series did not converge within {SERIES_TERM_CAP} terms "
                f"(nu={nu}, y < 2^{rho}, order={r})")
        j = K + 1
        dens.append(dens[-1] * j * ((j << e) + n))
        # every factor of P_r(K + 1) is positive: the last, 2(K+1) + nu - r + 1, is least
        if ((2 * j - r + 1) << e) + n > 0:
            a, p1 = fall(j + 1), fall(j)
            b = p1 * (j + 1) * (((j + 1) << e) + n)
            g, h = rho + e, e * (j - r) + rho * j + F
            low = min(g, h, 0)  # both sides times 2^-low, so no shift is negative
            # q = 2^g a / b = 2^rho |b_(K+2) / b_(K+1)| < 1, and
            # |b_(K+1)| 2^(rho (K+1) + F) <= 1 - q, times d_(K+1) b
            if (a << g - low < b << -low and (p1 * b << h - low)
                    + (dens[j] * a << g - low) <= dens[j] * b << -low):
                break
        K += 1
    return _horner_row([(-fall(k) if k & 1 else fall(k), dens[k], e * (k - r) + rho * k + F)
                        for k in range(K + 1)])


@lru_cache(maxsize=256)
def _squared_integral_row(nu: float, F: int, rho: int):
    """The Horner row of the integral of J_nu^2 / t^2 for y < 2^rho at F
    fraction bits, nu > 1/2.

    Returns (c_K, (c_(K-1), ..., c_0)), c_k the integer nearest to
    b_k 2^(rho k + F) for the b_k of the module docstring, K the first index
    that meets its stop test; None where no K < _SQUARED_INTEGRAL_TERMS
    does.
    """
    n, d = nu.as_integer_ratio()
    e = d.bit_length() - 1  # nu = n / 2^e
    # b_k = nums[k] / dens[k]; b_0 = 1 / (2 nu - 1), and |b_(k+1) / b_k| is
    # 2 (2nu+2k-1) / ((2nu+k+1)(k+1)(nu+k+1)), each factor times 2^e
    nums, dens = [1 << e], [2 * n - (1 << e)]
    for K in range(_SQUARED_INTEGRAL_TERMS):
        j = K + 1
        nums.append(-nums[K] * (((2 * K - 1) << e) + 2 * n) << e + 1)
        dens.append(dens[K] * ((j << e) + 2 * n) * j * ((j << e) + n))
        # q = 2^g / B = 2^rho 4 / ((K+2)(nu+K+2)), and the test
        # |b_(K+1)| 2^(rho (K+1) + F) <= 1 - q, times dens[j] B
        B = (j + 1) * (((j + 1) << e) + n)
        g, h = rho + 2 + e, rho * j + F
        low = min(g, h, 0)  # both sides times 2^-low, so no shift is negative
        if (abs(nums[j]) * B << h - low) + (dens[j] << g - low) <= dens[j] * B << -low:
            break
    else:
        return None
    return _horner_row([(nums[k], dens[k], rho * k + F) for k in range(K + 1)])


def _half_x_power(nu: float, mx: int, s: int, W: int) -> tuple[int, int]:
    """(M, X) with |M 2^X - (x/2)^nu| < 2^-W (x/2)^nu, for x = mx / 2^s > 0,
    on Python ints, W >= 116.  Three routes:

    * Integer nu < _EXACT_POWER_CAP: M = mx^nu and X = -(s + 1) nu, exact.
    * Half-integer nu = n + 1/2 < _EXACT_POWER_CAP: with x/2 = m / 2^u, u
      even (m = mx, u = s + 1 or m = 2 mx, u = s + 2), sqrt(x/2) =
      isqrt(m 2^(2W)) 2^-(W + u/2) is floored from a value >= 2^W, so off
      by < 2^-W relative, and the factor (x/2)^n is exact.
    * Any other nu = n / 2^e: at V = W + a + 12 bits, nu < 2^a, in units of
      2^-V.  x/2 = mx 2^-t lies in [2^E2, 2^(E2+1)), |E2| <= 1075, so
      fixedpoint._ln gives ln(x/2) off by < |E2| + 2, and z = nu ln(x/2),
      floored, is off by < nu (|E2| + 2) + 1: exp(z 2^-V) is within 1.01
      (nu (|E2| + 2) + 1) 2^-V relative of (x/2)^nu.  fixedpoint._exp gives
      (E, k), E 2^(k-V) within (1.01 |k| + 4.02) 2^-V relative of exp(z
      2^-V), with |k| <= nu (|E2| + 1) + 2.  The two add to < 1.01 nu (2
      |E2| + 3) + 7.1 < 2^(a+12) units, so M = E, X = k - V is off by <
      2^-W relative.
    """
    n, d = nu.as_integer_ratio()
    t = s + 1  # x/2 = mx / 2^t
    if nu < _EXACT_POWER_CAP:
        if d == 1:
            return mx ** n, -t * n
        if d == 2:
            n >>= 1
            m, u = (mx, t) if t % 2 == 0 else (mx << 1, t + 1)
            return math.isqrt(m << 2 * W) * mx ** n, -W - u // 2 - t * n
    e = d.bit_length() - 1
    V = W + max(n.bit_length() - e, 0) + 12
    E, k = _exp(n * _ln(mx, -t, V) >> e, V)
    return E, k - V


def _series_values(nu: float, x: float, orders: Sequence[int],
                   tol: float) -> tuple[float, ...]:
    """Adaptive-precision series values, each within tol/2 relative plus
    the prefactor's and Gamma's roundings and half an ulp.

    The one entry of ``bessel_j``, ``bessel_j_deriv`` and
    ``bessel_stack_values``, and the one place their common arguments are
    checked: nu and x finite and >= 0, x > 0 for a derivative order, and
    tol > 0 (UsageError).  At F fraction bits every order's row is summed
    by Horner's rule, and an order is accepted once its error bound is at
    most |total| * tol / 2; only the orders that fail at d digits are
    summed again at 2d digits.  The prefactor (x/2)^nu and Gamma(nu + 1)
    are computed once per F, and each accepted order's double is one
    correctly rounded int division, refused (NumericalFailure) outside the
    double range.
    """
    nu, x = _check_order(nu), float(x)
    if not math.isfinite(x) or x < 0:
        raise UsageError("J_nu needs finite x >= 0")
    if tol <= 0:
        raise UsageError("tol must be positive")
    if x == 0.0:
        if any(orders):
            raise UsageError("derivatives of J_nu need x > 0")
        return tuple(1.0 if nu == 0 else 0.0 for _ in orders)
    tol_num, tol_den = float(tol).as_integer_ratio()
    mx, dx = x.as_integer_ratio()
    s = dx.bit_length() - 1  # x = mx / 2^s
    Y = mx * mx
    sh = Y.bit_length()  # u = Y / 2^sh = y / 2^rho < 1, y = x^2 / 4
    rho = sh - 2 * s - 2
    values = {}
    pending = list(orders)
    for prec in _SERIES_PRECS:
        # J_nu^(r)(x) = acc 2^-prec M 2^X / (gman 2^gexp (mx 2^-s)^r)
        M, X = _half_x_power(nu, mx, s, prec + _PREFACTOR_GUARD)
        gman, gexp = _gamma_plus_one(nu, prec)
        for r in pending:
            try:
                acc, rest = _row(nu, r, prec, rho)
            except NumericalFailure as exc:  # the row is cached per (nu, r, F, rho), not per x
                raise NumericalFailure(f"{exc} at x={x!r}") from exc
            for c in rest:
                acc = (acc * Y >> sh) + c
            # |acc - 2^prec sum_k b_k y^k| <= 1.5 (K + 1), K = len(rest)
            if 3 * (len(rest) + 1) * tol_den <= abs(acc) * tol_num:
                values[r] = _checked_double(acc * M, gman * mx ** r, X - prec - gexp + s * r,
                                            "J_{}^({}) at x={!r}", nu, r, x)
        pending = [r for r in pending if r not in values]
        if not pending:
            return tuple(values[r] for r in orders)
    raise NumericalFailure(
        f"Bessel series error bound not met below {_SERIES_MAX_DPS} digits (nu={nu}, x={x})")


def bessel_j(nu: float, x: float, tol: float = DEFAULT_SERIES_TOL) -> float:
    """J_nu(x) by the power series, within tol/2 relative plus the
    prefactor's 2^-(F+20), Gamma's rounding at F bits (2^(1-F), F >= 103,
    from mpmath's mpf_gamma, the one mpmath value trusted) and half an ulp
    (see the module docstring).  Raises NumericalFailure where the value
    overflows a double or is nonzero and rounds to 0.0."""
    return _series_values(nu, x, (0,), tol)[0]


def j_squared_integral(nu: float, x: float) -> float | None:
    """The integral of J_nu(t)^2 / t^2 from 0 to x as a double, correctly
    rounded, from the exact series of the module docstring; None past its
    reach, where the row of y = x^2/4 needs more than
    _SQUARED_INTEGRAL_TERMS terms (x up to about 16 at 30 digits).

    At F bits of _SERIES_PRECS the row is summed by Horner's rule, its
    error 1.5 (K + 1) units is widened by the prefactor's 2^(4-F) relative,
    and both ends of the enclosure are rounded once each, from the
    integers; precision grows until they give one double and the interval
    excludes 0 (Ziv's test, as ``trigpoly``'s quotients take it).  Raises
    UsageError for nu <= 1/2, where the integral diverges at 0, and for x
    that is not finite and >= 0; NumericalFailure where the value
    overflows a double or is nonzero and rounds to 0.0.
    """
    nu, x = _check_order(nu), float(x)
    if nu <= 0.5:
        raise UsageError("the integral of J_nu^2/t^2 from 0 diverges for nu <= 1/2")
    if not math.isfinite(x) or x < 0:
        raise UsageError("the integral of J_nu^2/t^2 needs finite x >= 0")
    if x == 0.0:
        return 0.0
    mx, dx = x.as_integer_ratio()
    s = dx.bit_length() - 1  # x = mx / 2^s
    Y = mx * mx
    sh = Y.bit_length()  # u = Y / 2^sh = y / 2^rho < 1
    rho = sh - 2 * s - 2
    for prec in _SERIES_PRECS:
        row = _squared_integral_row(nu, prec, rho)
        if row is None:
            return None
        acc, rest = row
        for c in rest:
            acc = (acc * Y >> sh) + c
        # with S = sum_k b_k y^k, |acc - 2^prec S| <= 1.5 (K + 1), K = len(rest);
        # the value is P S, and P' = M^2 2^(2X) / (x (gman 2^gexp)^2) is within
        # 2^(3-prec) of P relative, so 2^prec P S / P' lies within err of acc
        err = (3 * len(rest) + 4) // 2
        err += (abs(acc) + err >> prec - 4) + 1
        M, X = _half_x_power(nu, mx, s, prec + _PREFACTOR_GUARD)
        gman, gexp = _gamma_plus_one(nu, prec)
        num, den, e = M * M, gman * gman * mx, 2 * (X - gexp) + s - prec
        got = _ziv_double(acc * num, err * num, den, e,
                          "the integral of J_{}^2/t^2 at x={!r}", nu, x)
        if got is not None:
            return got
    return None


def bessel_j_deriv(nu: float, x: float, order: int = 1,
                   tol: float = DEFAULT_SERIES_TOL) -> float:
    """First or second derivative of J_nu at x > 0, by termwise differentiation."""
    if order not in (1, 2):
        raise UsageError("order must be 1 or 2")
    return _series_values(nu, x, (order,), tol)[0]


def bessel_stack_values(nu: float, x: float, m: int,
                        tol: float = DEFAULT_SERIES_TOL) -> tuple[float, ...]:
    """(J_nu(x), J_nu'(x), ..., J_nu^(m)(x)) for identity checking, m <= 5."""
    if not 2 <= m <= _MAX_SERIES_DERIV:
        raise UsageError(f"stack depth m must be in [2, {_MAX_SERIES_DERIV}]")
    return _series_values(nu, x, range(m + 1), tol)


# ----------------------------------------------------------------------
# zeros
# ----------------------------------------------------------------------

def _zeros(f: Callable[[float], float], count: int, start: float, cap: float,
           tol: float, label: str) -> Iterator[ZeroResult]:
    """The first ``count`` zeros of f on [start, cap], from one scan at
    ZERO_SCAN_STEP (``rootfind.first_zeros``), each refined to within tol.
    Every zero the package reports comes from here; a NumericalFailure is
    prefixed with ``label``, the target."""
    try:
        yield from first_zeros(f, count, start=start, step=ZERO_SCAN_STEP, cap=cap, xtol=tol)
    except NumericalFailure as exc:
        raise NumericalFailure(f"{label}: {exc}") from exc


def bessel_zeros(nu: float, count: int,
                 tol: float = DEFAULT_ROOT_XTOL) -> Iterator[ZeroResult]:
    """The first ``count`` positive zeros j_{nu,1}, j_{nu,2}, ... of J_nu,
    lazily, from one scan; nu is checked at the call."""
    nu = _check_order(nu)
    return _zeros(lambda t: bessel_j(nu, t), count, max(nu, tol, 1e-6),
                  nu + ZERO_SCAN_SPAN, tol, f"zero of J_{nu}")


def bessel_deriv_zeros(nu: float, count: int,
                       tol: float = DEFAULT_ROOT_XTOL) -> Iterator[ZeroResult]:
    """The first ``count`` positive zeros j'_{nu,1}, j'_{nu,2}, ... of J_nu',
    lazily, from one scan; nu > 0 is checked at the call.

    The scan starts at nu, as j'_{nu,1} > nu (DLMF 10.21(i)).  That bound
    is enforced on every zero drawn as a sanity check, so a zero at nu
    itself is refused; a violation signals a numerical failure, not a
    mathematical one.
    """
    nu = _check_order(nu)
    if nu == 0:
        raise UsageError("derivative zeros need nu > 0")
    zeros = _zeros(lambda t: bessel_j_deriv(nu, t, 1), count, max(nu, tol, 1e-6),
                   nu + ZERO_SCAN_SPAN, tol, f"zero of J_{nu}'")

    def checked():
        for k, res in enumerate(zeros, 1):
            if res.value <= nu:
                raise NumericalFailure(
                    f"computed j'_{{{nu},{k}}} = {res.value} <= nu, violating j' > nu")
            yield res
    return checked()


def _fn_zeros(n: int, order: int, count: int, tol: float) -> Iterator[ZeroResult]:
    """The first ``count`` positive zeros of f_n (order 0) or f_n' (order 1),
    lazily, from one scan; spherical_fn refuses an n out of range at the
    call."""
    a = fn_derivatives(n, order)[order]
    return _zeros(lambda t: tp_eval(a, t), count, max(tol, 1e-3), n + 0.5 + ZERO_SCAN_SPAN,
                  tol, f"zero of f_{n}" + "'" * order)


def bessel_zero(nu: float, k: int, tol: float = DEFAULT_ROOT_XTOL) -> ZeroResult:
    """k-th positive zero j_{nu,k}: the last of ``bessel_zeros(nu, k)``."""
    *_, res = bessel_zeros(nu, k, tol)
    return res


def bessel_deriv_zero(nu: float, k: int, tol: float = DEFAULT_ROOT_XTOL) -> ZeroResult:
    """k-th positive zero j'_{nu,k} of J_nu': the last of ``bessel_deriv_zeros(nu, k)``."""
    *_, res = bessel_deriv_zeros(nu, k, tol)
    return res


def fn_zero(n: int, k: int, tol: float = DEFAULT_ROOT_XTOL) -> ZeroResult:
    """k-th positive zero of the spherical function f_n (equals j_{n+1/2,k})."""
    *_, res = _fn_zeros(n, 0, k, tol)
    return res


def fn_deriv_zero(n: int, k: int, tol: float = DEFAULT_ROOT_XTOL) -> ZeroResult:
    """k-th positive zero of f_n' (equals j_{n-1/2,k} for n >= 1)."""
    *_, res = _fn_zeros(n, 1, k, tol)
    return res
