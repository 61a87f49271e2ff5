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
"""

from __future__ import annotations

import math
from typing import Callable

from mpmath import mp

from .errors import NumericalFailure, UsageError
from .rootfind import ZeroResult, kth_zero
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


def _check_order(nu: float) -> float:
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0:
        raise UsageError("the order nu must be finite and >= 0")
    return nu


def _series_mpf(nu: float, x: float, order: int, tol: float):
    """One pass of the (order-times differentiated) series at current precision.

    Returns (sum, magnitude, n_terms) where magnitude bounds sum_k |T_k|.
    Truncates when the current term is below tol * |partial sum| and the
    terms are decreasing; raises NumericalFailure at the term cap.
    """
    xm = mp.mpf(x)
    num = mp.mpf(nu)  # keep the order in mpf: double-precision term factors
    half = xm / 2     # would freeze a ~1e-16 error into every term
    base = half ** num / mp.gamma(num + 1)  # k = 0 term before differentiation
    ratio_num = half * half
    total = mp.mpf(0)
    mag = mp.mpf(0)
    prev_abs = None
    k = 0
    while k <= SERIES_TERM_CAP:
        a = 2 * k + num  # power of x in the k-th term
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
    raise NumericalFailure(
        f"Bessel series did not converge within {SERIES_TERM_CAP} terms "
        f"(nu={nu}, x={x}, order={order})")


def _series_value(nu: float, x: float, order: int, tol: float) -> float:
    """Adaptive-precision series evaluation, relative error <~ a few * tol."""
    if tol <= 0:
        raise UsageError("tol must be positive")
    if x == 0.0:
        if order == 0:
            return 1.0 if nu == 0 else 0.0
        raise UsageError("series derivatives need x > 0")
    dps = 30
    while dps <= 2000:
        with mp.workdps(dps):
            total, mag, n_terms = _series_mpf(nu, x, order, tol)
            bound = mag * mp.mpf(10) ** (-dps) * (n_terms + 8)
            if bound == 0 or bound <= abs(total) * mp.mpf(tol) * mp.mpf("0.5"):
                return float(total)
        dps *= 2
    raise NumericalFailure(
        f"Bessel series roundoff bound not met below 2000 digits (nu={nu}, x={x})")


def bessel_j(nu: float, x: float, tol: float = DEFAULT_SERIES_TOL) -> float:
    """J_nu(x) by the power series, relative error <= 10*tol for x <= 50."""
    nu = _check_order(nu)
    x = float(x)
    if not math.isfinite(x) or x < 0:
        raise UsageError("bessel_j requires finite x >= 0")
    return _series_value(nu, x, 0, tol)


def bessel_j_deriv(nu: float, x: float, order: int = 1,
                   tol: float = DEFAULT_SERIES_TOL) -> float:
    """First or second derivative of J_nu at x > 0, by termwise differentiation."""
    nu = _check_order(nu)
    if order not in (1, 2):
        raise UsageError("order must be 1 or 2")
    x = float(x)
    if not math.isfinite(x) or x <= 0:
        raise UsageError("bessel_j_deriv requires finite x > 0")
    return _series_value(nu, x, order, tol)


def bessel_stack_values(nu: float, x: float, m: int,
                        tol: float = DEFAULT_SERIES_TOL) -> tuple[float, ...]:
    """(J_nu(x), J_nu'(x), ..., J_nu^(m)(x)) for identity checking, m <= 5."""
    nu = _check_order(nu)
    if not 2 <= m <= _MAX_SERIES_DERIV:
        raise UsageError(f"stack depth m must be in [2, {_MAX_SERIES_DERIV}]")
    x = float(x)
    if not math.isfinite(x) or x <= 0:
        raise UsageError("stacks need finite x > 0")
    return tuple(_series_value(nu, x, r, tol) for r in range(m + 1))


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


def bessel_zero(nu: float, k: int, tol: float = DEFAULT_ROOT_XTOL) -> ZeroResult:
    """k-th positive zero j_{nu,k}, bracketed by scanning then refined."""
    nu = _check_order(nu)
    if k < 1:
        raise UsageError("k must be >= 1")
    start = max(nu, tol, 1e-6)
    cap = nu + ZERO_SCAN_SPAN
    f = lambda t: bessel_j(nu, t)
    return _zero_of(f, k, scan_from=start, cap=cap, xtol=tol,
                    label=f"zero of J_{nu}")


def bessel_deriv_zero(nu: float, k: int, tol: float = DEFAULT_ROOT_XTOL) -> ZeroResult:
    """k-th positive zero j'_{nu,k} of J_nu'.

    The classical bound j'_{nu,1} > nu is enforced as a sanity check on the
    result; a violation signals a numerical failure, not a mathematical one.
    """
    nu = _check_order(nu)
    if nu == 0:
        raise UsageError("derivative zeros need nu > 0")
    if k < 1:
        raise UsageError("k must be >= 1")
    start = max(nu * 0.5, tol, 1e-6)
    cap = nu + ZERO_SCAN_SPAN
    f = lambda t: bessel_j_deriv(nu, t, 1)
    res = _zero_of(f, k, scan_from=start, cap=cap, xtol=tol,
                   label=f"zero of J_{nu}'")
    if res.value <= nu:
        raise NumericalFailure(
            f"computed j'_{{{nu},{k}}} = {res.value} <= nu, violating j' > nu")
    return res


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
