"""Real-order Bessel functions J_nu by power series, with bracketed zeros.

The series

    J_nu(x) = sum_k (-1)^k / (Gamma(k+1) Gamma(k+nu+1)) * (x/2)^(2k+nu)

is evaluated term by term with a recurrence for the term ratio; termwise
differentiation gives the derivatives.  Partial sums of this series cancel
violently for large x (terms grow to ~e^x before the alternation wins), so
the summation runs at adaptive working precision against a running bound
on the accumulated roundoff: the returned double is then reliable for the
whole desk-scale range x <= 50 at any requested tolerance down to ~1e-15.

Series only, no asymptotic expansions: at desk scale the adaptive series
meets tolerance everywhere and keeps one code path for all real nu >= 0.

One function, ``_series_values``, serves every entry point.  It runs on
the ``mpmath.libmp`` primitives that mpf's operators and mpmath's gamma
call, at a precision passed as an argument (never mpmath's global
context), with the same rounding and in the same order, so every value is
bit for bit what the mpf operators give; Gamma(nu+1) is computed once per
(nu, precision).  The term sequence does not depend on the derivative
order, so a stack's orders are summed in one pass: each order keeps its
own total, magnitude, previous |term| and stopping test, and only the
orders whose roundoff bound fails at d digits are summed again at 2d
digits.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from mpmath.libmp import (
    dps_to_prec,
    fone,
    from_float,
    from_int,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gamma,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pow,
    mpf_pow_int,
    mpf_shift,
    mpf_sub,
    round_nearest,
    to_float,
)

from .errors import NumericalFailure, UsageError
from .rootfind import ZeroResult, first_zeros, kth_zero
from .trigpoly import fn_derivatives, spherical_fn, tp_eval

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


def _check_order(nu: float) -> float:
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0:
        raise UsageError("the order nu must be finite and >= 0")
    return nu


@lru_cache(maxsize=256)
def _gamma_plus_one(nu: float, prec: int):
    """Gamma(nu + 1) as a raw mpf at ``prec`` bits, as mpmath's gamma gives
    it for the mpf nu + 1, once per (nu, prec): every series pass at one
    precision shares it."""
    return mpf_gamma(mpf_add(from_float(nu), fone, prec, _RND), prec, _RND)


def _series_raw(nu: float, x: float, orders: Sequence[int], tol: float,
                prec: int) -> list:
    """One pass of the series and its order-times differentiated forms.

    Runs at ``prec`` bits and returns, per order in ``orders``, the raw
    mpf triple (sum, magnitude, n_terms), where magnitude bounds
    sum_k |T_k|.  Each order keeps its own total, magnitude, previous
    |term| and stopping test: it truncates when its current term is below
    tol * |partial sum| and its terms are decreasing.  Raises
    NumericalFailure at the term cap, naming the lowest order still open.
    The comments give the mpf expression each primitive call reproduces.
    """
    # the order stays an mpf: double-precision term factors would freeze a
    # ~1e-16 error into every term
    xm, num = from_float(x), from_float(nu)
    half = mpf_shift(xm, -1)  # xm / 2, exact
    # half ** num / Gamma(nu + 1), the k = 0 term before differentiation
    base = mpf_div(mpf_pow(half, num, prec, _RND), _gamma_plus_one(nu, prec), prec, _RND)
    ratio_num = mpf_mul(half, half, prec, _RND)
    tol_r = from_float(tol)
    top = max(orders)
    powers = {r: mpf_pow_int(xm, r, prec, _RND) for r in orders if r}  # xm ** r
    state = {r: [fzero, fzero, None] for r in orders}  # [total, mag, prev_abs]
    done = {}
    k = 0
    while k <= SERIES_TERM_CAP:
        if top:
            a = mpf_add(num, from_int(2 * k), prec, _RND)  # 2 * k + num, the power of x
        fall = fone
        for r in range(top + 1):
            if r:  # fall *= a - (r - 1): now a (a-1) ... (a-r+1)
                fall = mpf_mul(fall, mpf_sub(a, from_int(r - 1), prec, _RND), prec, _RND)
            st = state.get(r)
            if st is None:
                continue
            if r:  # base * fall / xm ** r
                term = mpf_div(mpf_mul(base, fall, prec, _RND), powers[r], prec, _RND)
            else:
                term = base
            total = st[0] = mpf_add(st[0], term, prec, _RND)
            t_abs = mpf_abs(term, prec, _RND)
            st[1] = mpf_add(st[1], t_abs, prec, _RND)
            prev_abs = st[2]
            # t_abs < prev_abs and t_abs < tol * abs(total)
            if (prev_abs is not None and mpf_lt(t_abs, prev_abs)
                    and mpf_lt(t_abs, mpf_mul(mpf_abs(total, prec, _RND), tol_r,
                                               prec, _RND))):
                done[r] = (total, st[1], k + 1)
                del state[r]
                if not state:
                    return [done[r] for r in orders]
                top = max(state)
            else:
                st[2] = t_abs
        # base = -base * ratio_num / ((k + 1) * (k + num + 1))
        den = mpf_add(mpf_add(num, from_int(k), prec, _RND), fone, prec, _RND)
        den = mpf_mul_int(den, k + 1, prec, _RND)
        base = mpf_div(mpf_mul(mpf_neg(base, prec, _RND), ratio_num, prec, _RND),
                       den, prec, _RND)
        k += 1
    raise NumericalFailure(
        f"Bessel series did not converge within {SERIES_TERM_CAP} terms "
        f"(nu={nu}, x={x}, order={min(state)})")


def _series_values(nu: float, x: float, orders: Sequence[int],
                   tol: float) -> tuple[float, ...]:
    """Adaptive-precision series values, relative error <~ a few * tol each.

    All orders are summed in one pass per precision; only the orders whose
    roundoff bound fails at d digits are summed again at 2d digits.
    """
    if tol <= 0:
        raise UsageError("tol must be positive")
    if x == 0.0:
        if any(orders):
            raise UsageError("series derivatives need x > 0")
        return tuple(1.0 if nu == 0 else 0.0 for _ in orders)
    values = {}
    pending = list(orders)
    half_tol = mpf_shift(from_float(tol), -1)  # tol * 0.5, exactly
    dps = 30
    while dps <= 2000:
        prec = dps_to_prec(dps)
        sums = _series_raw(nu, x, pending, tol, prec)
        ulp = mpf_pow_int(from_int(10), -dps, prec, _RND)  # mp.mpf(10) ** -dps
        for r, (total, mag, n_terms) in zip(pending, sums):
            # mag * ulp * (n_terms + 8) <= abs(total) * tol * 0.5
            bound = mpf_mul_int(mpf_mul(mag, ulp, prec, _RND), n_terms + 8, prec, _RND)
            if bound == fzero or mpf_le(bound, mpf_mul(mpf_abs(total), half_tol, prec, _RND)):
                values[r] = to_float(total, rnd=_RND)
        pending = [r for r in pending if r not in values]
        if not pending:
            return tuple(values[r] for r in orders)
        dps *= 2
    raise NumericalFailure(
        f"Bessel series roundoff bound not met below 2000 digits (nu={nu}, x={x})")


def bessel_j(nu: float, x: float, tol: float = DEFAULT_SERIES_TOL) -> float:
    """J_nu(x) by the power series, relative error <= 10*tol for x <= 50."""
    nu = _check_order(nu)
    x = float(x)
    if not math.isfinite(x) or x < 0:
        raise UsageError("bessel_j requires finite x >= 0")
    return _series_values(nu, x, (0,), tol)[0]


def bessel_j_deriv(nu: float, x: float, order: int = 1,
                   tol: float = DEFAULT_SERIES_TOL) -> float:
    """First or second derivative of J_nu at x > 0, by termwise differentiation."""
    nu = _check_order(nu)
    if order not in (1, 2):
        raise UsageError("order must be 1 or 2")
    x = float(x)
    if not math.isfinite(x) or x <= 0:
        raise UsageError("bessel_j_deriv requires finite x > 0")
    return _series_values(nu, x, (order,), tol)[0]


def bessel_stack_values(nu: float, x: float, m: int,
                        tol: float = DEFAULT_SERIES_TOL) -> tuple[float, ...]:
    """(J_nu(x), J_nu'(x), ..., J_nu^(m)(x)) for identity checking, m <= 5."""
    nu = _check_order(nu)
    if not 2 <= m <= _MAX_SERIES_DERIV:
        raise UsageError(f"stack depth m must be in [2, {_MAX_SERIES_DERIV}]")
    x = float(x)
    if not math.isfinite(x) or x <= 0:
        raise UsageError("stacks need finite x > 0")
    return _series_values(nu, x, range(m + 1), tol)


# ----------------------------------------------------------------------
# zeros
# ----------------------------------------------------------------------

def _zero_of(f: Callable[[float], float], k: int, *, scan_from: float,
             cap: float, xtol: float, label: str) -> ZeroResult:
    try:
        return kth_zero(f, k, start=scan_from, step=ZERO_SCAN_STEP, cap=cap,
                        xtol=xtol)
    except NumericalFailure as exc:
        raise NumericalFailure(f"{label}: {exc}") from exc


def _zeros_of(f: Callable[[float], float], count: int, *, scan_from: float,
              cap: float, xtol: float, label: str) -> Iterator[ZeroResult]:
    try:
        yield from first_zeros(f, count, start=scan_from, step=ZERO_SCAN_STEP,
                               cap=cap, xtol=xtol)
    except NumericalFailure as exc:
        raise NumericalFailure(f"{label}: {exc}") from exc


def _j_scan(nu: float, tol: float):
    """(f, keywords of _zero_of/_zeros_of) for the zeros of J_nu."""
    nu = _check_order(nu)
    return (lambda t: bessel_j(nu, t)), dict(
        scan_from=max(nu, tol, 1e-6), cap=nu + ZERO_SCAN_SPAN, xtol=tol,
        label=f"zero of J_{nu}")


def _j_prime_scan(nu: float, tol: float):
    """(nu as a float, f, keywords of _zero_of/_zeros_of) for the zeros of J_nu'."""
    nu = _check_order(nu)
    if nu == 0:
        raise UsageError("derivative zeros need nu > 0")
    return nu, (lambda t: bessel_j_deriv(nu, t, 1)), dict(
        scan_from=max(nu * 0.5, tol, 1e-6), cap=nu + ZERO_SCAN_SPAN, xtol=tol,
        label=f"zero of J_{nu}'")


def _above_nu(nu: float, k: int, res: ZeroResult) -> ZeroResult:
    """res, the k-th zero of J_nu', checked against j' > nu."""
    if res.value <= nu:
        raise NumericalFailure(
            f"computed j'_{{{nu},{k}}} = {res.value} <= nu, violating j' > nu")
    return res


def bessel_zero(nu: float, k: int, tol: float = DEFAULT_ROOT_XTOL) -> ZeroResult:
    """k-th positive zero j_{nu,k}, bracketed by scanning then refined."""
    f, scan = _j_scan(nu, tol)
    if k < 1:
        raise UsageError("k must be >= 1")
    return _zero_of(f, k, **scan)


def bessel_zeros(nu: float, count: int,
                 tol: float = DEFAULT_ROOT_XTOL) -> Iterator[ZeroResult]:
    """The first ``count`` positive zeros j_{nu,1}, j_{nu,2}, ... of J_nu,
    lazily, from one scan (see ``rootfind.first_zeros``)."""
    f, scan = _j_scan(nu, tol)
    return _zeros_of(f, count, **scan)


def bessel_deriv_zero(nu: float, k: int, tol: float = DEFAULT_ROOT_XTOL) -> ZeroResult:
    """k-th positive zero j'_{nu,k} of J_nu'.

    The classical bound j'_{nu,1} > nu is enforced as a sanity check on the
    result; a violation signals a numerical failure, not a mathematical one.
    """
    nu, f, scan = _j_prime_scan(nu, tol)
    if k < 1:
        raise UsageError("k must be >= 1")
    return _above_nu(nu, k, _zero_of(f, k, **scan))


def bessel_deriv_zeros(nu: float, count: int,
                       tol: float = DEFAULT_ROOT_XTOL) -> Iterator[ZeroResult]:
    """The first ``count`` positive zeros j'_{nu,1}, j'_{nu,2}, ... of J_nu',
    lazily, from one scan, each checked against j' > nu in turn."""
    nu, f, scan = _j_prime_scan(nu, tol)
    return (_above_nu(nu, k, res) for k, res in enumerate(_zeros_of(f, count, **scan), 1))


def fn_zero(n: int, k: int, tol: float = DEFAULT_ROOT_XTOL) -> ZeroResult:
    """k-th positive zero of the spherical function f_n (equals j_{n+1/2,k})."""
    if k < 1:
        raise UsageError("k must be >= 1")
    f_n = spherical_fn(n)
    cap = (n + 0.5) + ZERO_SCAN_SPAN
    return _zero_of(lambda t: tp_eval(f_n, t), k, scan_from=max(tol, 1e-3),
                    cap=cap, xtol=tol, label=f"zero of f_{n}")


def fn_deriv_zero(n: int, k: int, tol: float = DEFAULT_ROOT_XTOL) -> ZeroResult:
    """k-th positive zero of f_n' (equals j_{n-1/2,k} for n >= 1)."""
    if n < 0:
        raise UsageError("n must be >= 0")
    if k < 1:
        raise UsageError("k must be >= 1")
    fp = fn_derivatives(n, 1)[1]
    cap = (n + 0.5) + ZERO_SCAN_SPAN
    return _zero_of(lambda t: tp_eval(fp, t), k, scan_from=max(tol, 1e-3),
                    cap=cap, xtol=tol, label=f"zero of f_{n}'")
