"""Real-order Bessel functions J_nu by power series, with bracketed zeros.

    J_nu(x) = (x/2)^nu / Gamma(nu+1) * sum_k s_k,  s_k = (-x^2/4)^k / (k! (nu+1)_k)

is summed term by term; order r of termwise differentiation weighs s_k by
the falling factorial (2k+nu)(2k+nu-1)...(2k+nu-r+1) and divides by x^r.
Partial sums cancel violently for large x (terms grow to ~e^x before the
alternation wins), so each sum is redone at doubled precision until a
rigorous bound on its roundoff is at most tol/2 of it: the returned double
is then reliable for the whole desk-scale range x <= 50 at any requested
tolerance down to ~1e-15.

The terms are fixed-point Python ints.  nu = N/2^E and x are exact
dyadics, so the step s_(k+1) = -s_k y 2^E / D_k, y = x^2/4, has the exact
integer divisor D_k = (k+1)((k+1) 2^E + N), and 2^(E r) times the falling
factorial is an integer.  Each term keeps at least F bits (F the working
precision; the scale grows by exact shifts as the terms shrink), and the
nearest rounding of that one division is the only rounding.  A running
integer e_k bounds the error of the k-th term, e_(k+1) = ceil(e_k y 2^E /
D_k) + 1, so each order's error sum bounds the error of its total; the
prefactor, with Gamma(nu+1) computed once per (nu, precision), adds a few
roundings at F bits.  A stack's orders share the terms and are summed in
one pass, and only the orders whose bound fails are summed again.

The bound covers the partial sum that the stopping rule selects.  The
truncation rests on a hypothesis: an order stops at the first term below
tol times its partial sum and below the term before it, and the omitted
tail is smaller than that term when the later terms alternate in sign and
shrink.  They do once the falling factorials are positive, since the term
ratio then decreases in k, so a ratio below 1 stays below 1.

Series only, no asymptotic expansions: at desk scale the adaptive series
meets tolerance everywhere and keeps one code path for all real nu >= 0.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from mpmath.libmp import (
    dps_to_prec,
    fone,
    from_float,
    from_man_exp,
    mpf_add,
    mpf_div,
    mpf_gamma,
    mpf_mul,
    mpf_pow,
    mpf_pow_int,
    mpf_shift,
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


def _series_pass(nu: float, x: float, orders: Sequence[int], tol: float,
                 prec: int) -> list:
    """One fixed-point pass of the series and its order-times differentiated forms.

    Returns per order r in ``orders`` the ints (total, err, n_terms, scale):
    |total - 2^scale * the exact sum of the first n_terms terms| <= err,
    the terms taken before the prefactor (x/2)^nu / Gamma(nu+1) / x^r.  An
    order stops when its current term is below tol * |partial sum| and
    below its previous term, both tested exactly.  Raises NumericalFailure
    at the term cap, naming the lowest order still open.
    """
    n, e = nu.as_integer_ratio()
    e = e.bit_length() - 1  # nu = n / 2^e
    mx, dx = x.as_integer_ratio()
    y_num, y_den = mx * mx << e, dx * dx << 2  # y 2^e, y = x^2 / 4
    tol_num, tol_den = float(tol).as_integer_ratio()
    state = {r: [0, 0, None] for r in orders}  # [total, err, previous |term|]
    top = max(orders)
    done = {}
    s, err, scale = 1 << prec, 0, prec  # S_k = s_k 2^scale + error, |error| <= err
    k = 0
    while k <= SERIES_TERM_CAP:
        fall = 1
        for r in range(top + 1):
            if r:  # fall = P_r(k) = P_(r-1)(k) * ((2k - r + 1) 2^E + N)
                fall *= ((2 * k - r + 1) << e) + n
            st = state.get(r)
            if st is None:
                continue
            term = s * fall
            total = st[0] = st[0] + term
            st[1] += err * abs(fall)
            t_abs = abs(term)
            prev_abs = st[2]
            # t_abs < prev_abs and t_abs < tol * |total|
            if (prev_abs is not None and t_abs < prev_abs
                    and t_abs * tol_den < tol_num * abs(total)):
                done[r] = (total, st[1], k + 1, scale + e * r)
                del state[r]
                if not state:
                    return [done[r] for r in orders]
                top = max(state)
            else:
                st[2] = t_abs
        d = (k + 1) * (((k + 1) << e) + n) * y_den  # D_k y_den
        step = -s * y_num
        # rescale by 2^b, exactly, so that the next S keeps prec bits
        b = prec + d.bit_length() - step.bit_length()
        if b > 0:
            scale += b
            step <<= b
            err <<= b
            for st in state.values():
                st[:] = [v << b for v in st]
        err = -(-err * y_num // d) + 1
        s = (2 * step + d) // (2 * d)  # nearest
        k += 1
    raise NumericalFailure(
        f"Bessel series did not converge within {SERIES_TERM_CAP} terms "
        f"(nu={nu}, x={x}, order={min(state)})")


def _series_values(nu: float, x: float, orders: Sequence[int],
                   tol: float) -> tuple[float, ...]:
    """Adaptive-precision series values, relative error <~ a few * tol each.

    All orders are summed in one pass per precision; an order is accepted
    once its error sum is at most |total| * tol / 2, and only the orders
    that fail at d digits are summed again at 2d digits.
    """
    if tol <= 0:
        raise UsageError("tol must be positive")
    if x == 0.0:
        if any(orders):
            raise UsageError("series derivatives need x > 0")
        return tuple(1.0 if nu == 0 else 0.0 for _ in orders)
    tol_num, tol_den = float(tol).as_integer_ratio()
    xm = from_float(x)
    values = {}
    pending = list(orders)
    dps = 30
    while dps <= 2000:
        prec = dps_to_prec(dps)
        sums = _series_pass(nu, x, pending, tol, prec)
        # (x/2)^nu / Gamma(nu + 1), the k = 0 term before differentiation
        base = mpf_div(mpf_pow(mpf_shift(xm, -1), from_float(nu), prec, _RND),
                       _gamma_plus_one(nu, prec), prec, _RND)
        for r, (total, err, _, scale) in zip(pending, sums):
            if 2 * err * tol_den <= abs(total) * tol_num:
                value = mpf_mul(from_man_exp(total, -scale), base, prec, _RND)
                if r:
                    value = mpf_div(value, mpf_pow_int(xm, r, prec, _RND), prec, _RND)
                values[r] = to_float(value, rnd=_RND)
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
