"""Bracketed root finding: scan for sign changes, refine by safeguarded secant.

All consumers (Bessel zeros, zeros of the spherical functions, critical
length scans) locate simple zeros of smooth functions whose consecutive
zeros are well separated, so a fixed-step scan followed by a bisection /
secant hybrid is sufficient and fully deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import NumericalFailure, UsageError


@dataclass(frozen=True)
class ZeroBracket:
    """A sign-change interval for the k-th zero of a target function."""

    lo: float
    hi: float
    kind: str  # "function" or "derivative"
    index: int

    def __post_init__(self):
        if not (0 < self.lo < self.hi):
            raise UsageError("bracket must satisfy 0 < lo < hi")
        if self.index < 1:
            raise UsageError("zero index must be >= 1")


@dataclass(frozen=True)
class ZeroResult:
    value: float
    residual: float
    iterations: int


def bracket_kth_zero(f: Callable[[float], float], k: int, *, start: float,
                     step: float, cap: float, kind: str = "function") -> ZeroBracket:
    """Scan [start, cap] with the given step for the k-th sign change of f.

    The step must be small enough that no two zeros share one scan cell;
    every returned bracket is re-verified to carry a sign change.  Raises
    NumericalFailure when fewer than k sign changes exist below the cap.
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    if step <= 0 or cap <= start:
        raise UsageError("need step > 0 and cap > start")
    found = 0
    x_prev = start
    f_prev = f(x_prev)
    x = x_prev
    while x < cap:
        x = min(x_prev + step, cap)
        fx = f(x)
        if f_prev == 0.0:
            # landed exactly on a zero; count it with a degenerate bracket
            found += 1
            if found == k:
                eps = step * 1e-9
                return ZeroBracket(max(x_prev - eps, start), x_prev + eps, kind, k)
        elif f_prev * fx < 0:
            found += 1
            if found == k:
                return ZeroBracket(x_prev, x, kind, k)
        x_prev, f_prev = x, fx
        if x >= cap:
            break
    raise NumericalFailure(
        f"only {found} sign change(s) of the target found in ({start}, {cap}); "
        f"needed {k}")


def refine_bracket(f: Callable[[float], float], lo: float, hi: float, *,
                   xtol: float = 1e-12, max_iter: int = 200,
                   flo: float | None = None, fhi: float | None = None) -> ZeroResult:
    """Refine a sign-change bracket by bisection with safeguarded secant steps.

    The secant step is taken only when it falls strictly inside the current
    bracket; otherwise the step bisects.  Terminates when the bracket width
    is below xtol (plus a few ulps of the abscissa).  A caller that already
    holds f(lo) or f(hi) passes it as flo or fhi, and that end is not
    evaluated again.
    """
    if flo is None:
        flo = f(lo)
    if fhi is None:
        fhi = f(hi)
    if flo == 0.0:
        return ZeroResult(lo, 0.0, 0)
    if fhi == 0.0:
        return ZeroResult(hi, 0.0, 0)
    if flo * fhi > 0:
        raise UsageError("refine_bracket requires a sign change")
    iters = 0
    for _ in range(max_iter):
        width = hi - lo
        if width <= xtol + 4.0 * math.ulp(max(abs(lo), abs(hi))):
            break
        iters += 1
        mid = 0.5 * (lo + hi)
        x = mid
        if fhi != flo:
            sec = (lo * fhi - hi * flo) / (fhi - flo)
            if lo + 0.01 * width < sec < hi - 0.01 * width:
                x = sec
        fx = f(x)
        if fx == 0.0:
            return ZeroResult(x, 0.0, iters)
        if flo * fx < 0:
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
    root = lo + (hi - lo) * flo / (flo - fhi)  # final secant interpolation
    return ZeroResult(root, abs(f(root)), iters)


def kth_zero(f: Callable[[float], float], k: int, *, start: float, step: float,
             cap: float, xtol: float = 1e-12, kind: str = "function") -> ZeroResult:
    """Bracket and refine the k-th positive zero of f on (start, cap)."""
    br = bracket_kth_zero(f, k, start=start, step=step, cap=cap, kind=kind)
    return refine_bracket(f, br.lo, br.hi, xtol=xtol)
