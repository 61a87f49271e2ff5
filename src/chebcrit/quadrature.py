"""Adaptive Simpson quadrature with a Richardson error estimate.

The interval is bisected recursively; on each subinterval the coarse
Simpson value S1 is compared against the two-panel refinement S2, the
classical estimate err = (S2 - S1)/15 decides acceptance, and the accepted
value is the Richardson-extrapolated S2 + (S2 - S1)/15.  Tolerances are
distributed to subintervals by halving.  A node is also accepted once its
error estimate reaches the double-precision roundoff floor of the local
panel magnitude, so requesting a tolerance far below what doubles can
express degrades gracefully instead of exhausting the subdivision budget.

Its estimate is not a bound.  ``identities`` runs it only where an exact
series head gives up, continued from the head's last value through
``cumulative_integrals``' ``start``: on the spherical integrals past the
reach of ``trigpoly.tp_integral_over_power`` (x ~ 20-21, 24 at n = 16),
and on the Bessel integral past the Bessel head's reach
(``bessel.j_squared_integral``, x ~ 16).
"""

from __future__ import annotations

from typing import Callable

from .errors import NumericalFailure

_MAX_DEPTH = 48
_ROUNDOFF = 1e-15


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, *,
                     abs_tol: float, max_depth: int = _MAX_DEPTH,
                     fa: float | None = None, fm: float | None = None,
                     fb: float | None = None) -> float:
    """Integral of f over [a, b] with estimated absolute error <= abs_tol
    (or <= the roundoff floor of the integrand magnitude, if larger).

    ``fa``, ``fm`` and ``fb`` are f(a), f((a + b)/2) and f(b) when the
    caller already holds them; those points are then not evaluated again.
    """
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_simpson(f, b, a, abs_tol=abs_tol, max_depth=max_depth,
                                 fa=fb, fm=fm, fb=fa)
    if abs_tol <= 0:
        raise NumericalFailure("abs_tol must be positive")
    if fa is None:
        fa = f(a)
    if fb is None:
        fb = f(b)
    m = 0.5 * (a + b)
    if fm is None:
        fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, abs_tol, max_depth)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    s2 = left + right
    err = (s2 - whole) / 15.0
    mag = (b - a) / 6.0 * (abs(fa) + 4.0 * abs(flm) + 2.0 * abs(fm)
                           + 4.0 * abs(frm) + abs(fb))
    if abs(err) <= max(tol, _ROUNDOFF * mag):
        return s2 + err
    if depth <= 0:
        raise NumericalFailure(
            f"adaptive Simpson exhausted the subdivision budget on "
            f"[{a}, {b}] (estimated error {abs(err):.3e} > {tol:.3e})")
    half = 0.5 * tol
    return (_simpson_rec(f, a, m, fa, flm, fm, left, half, depth - 1)
            + _simpson_rec(f, m, b, fm, frm, fb, right, half, depth - 1))


def cumulative_integrals(f: Callable[[float], float], a: float, xs, *,
                         rel_tol: float = 1e-12, start: float = 0.0) -> list[float]:
    """Integrals to each x of the ascending sequence xs, incrementally: the
    integral's value ``start`` at a plus that of f from a to x.

    Each new segment is integrated once and accumulated, so evaluating an
    integral identity over a whole grid costs a single pass.  The segment
    tolerance follows the running magnitude of the accumulated integral,
    from |start| (with a one-panel probe bootstrapping the scale), keeping
    the total relative error near rel_tol * len(xs) for integrands of one
    sign.  The probe's three values seed the segment's Simpson rule, and
    f(x) carries over to the next segment, so no abscissa is evaluated
    twice.
    """
    out = []
    total = start
    prev = a
    fprev = None
    scale = abs(start)
    for x in xs:
        if x < prev:
            raise NumericalFailure("cumulative_integrals needs ascending points")
        if x > prev:
            if fprev is None:
                fprev = f(prev)
            fmid = f(0.5 * (prev + x))
            fx = f(x)
            probe = abs((x - prev) / 6.0 * (fprev + 4.0 * fmid + fx))
            seg_scale = max(scale, probe)
            tol = rel_tol * seg_scale if seg_scale > 0 else 1e-280
            total += adaptive_simpson(f, prev, x, abs_tol=tol,
                                      fa=fprev, fm=fmid, fb=fx)
            scale = max(scale, abs(total))
            prev, fprev = x, fx
        out.append(total)
    return out
