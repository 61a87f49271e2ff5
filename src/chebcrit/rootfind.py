"""Bracketed root finding: one sign-change scan, one bisection refiner.

All consumers (Bessel zeros, zeros of the spherical functions, critical
length scans) locate simple zeros of smooth functions whose consecutive
zeros are well separated, so a fixed-step scan followed by bisection is
sufficient and fully deterministic.  ``sign_changes`` is the only scan and
``refine_bracket`` the only refiner.  ``first_zeros`` joins them on a
fixed grid, refining the first few brackets of one scan; ``kth_zero`` runs
the same scan and refines only its k-th bracket; the critical-length scan
feeds ``sign_changes`` its precomputed rows of minor values.

The refiner once took safeguarded secant steps.  They bought nothing: on
45 zeros of J_nu and f_n (k = 1..3) the secant took 1,777 evaluations
inside the brackets and plain bisection 1,800, with bit-identical roots,
and on the critical-length brackets the secant took 23-35 evaluations
where bisection takes 28-30.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

from .errors import NumericalFailure, UsageError


@dataclass(frozen=True)
class ZeroResult:
    value: float
    residual: float
    iterations: int


def sign_changes(samples: Iterable[tuple[float, float]]
                 ) -> Iterator[tuple[float, float, float, float]]:
    """Yield a bracket (lo, f(lo), hi, f(hi)) for every zero seen in samples.

    ``samples`` are (x, f(x)) pairs in increasing x.  A sign change between
    neighbours yields their pair; a sample that is exactly zero yields the
    degenerate bracket (x, 0.0, x, 0.0) and is counted once.  The scan is
    lazy: no sample past the hi end of the last bracket taken is drawn.
    """
    x_prev = f_prev = None
    for x, fx in samples:
        if fx == 0.0:
            yield x, 0.0, x, 0.0
        elif f_prev is not None and f_prev * fx < 0:
            yield x_prev, f_prev, x, fx
        x_prev, f_prev = x, fx


def _grid(f: Callable[[float], float], start: float, step: float,
          cap: float) -> Iterator[tuple[float, float]]:
    x = start
    yield x, f(x)
    while x < cap:
        x = min(x + step, cap)
        yield x, f(x)


def refine_bracket(f: Callable[[float], float], lo: float, hi: float, *,
                   xtol: float = 1e-12, max_iter: int = 200,
                   flo: float | None = None, fhi: float | None = None) -> ZeroResult:
    """Refine a sign-change bracket by bisection.

    Terminates when the bracket width is below xtol (plus a few ulps of the
    abscissa), then interpolates linearly between the final ends.  A caller
    that already holds f(lo) or f(hi) passes it as flo or fhi, and that end
    is not evaluated again; an end whose value is exactly zero is returned
    with no iteration.
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
        if hi - lo <= xtol + 4.0 * math.ulp(max(abs(lo), abs(hi))):
            break
        iters += 1
        x = 0.5 * (lo + hi)
        fx = f(x)
        if fx == 0.0:
            return ZeroResult(x, 0.0, iters)
        if flo * fx < 0:
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
    root = lo + (hi - lo) * flo / (flo - fhi)  # final linear interpolation
    return ZeroResult(root, abs(f(root)), iters)


def _first_brackets(f: Callable[[float], float], count: int, start: float,
                    step: float, cap: float,
                    xtol: float) -> Iterator[tuple[float, float, float, float]]:
    """The first ``count`` brackets of one scan of the grid start, then
    min(x + step, cap) up to the cap, lazily: nothing past the count-th
    bracket is drawn.  The refiners' xtol is checked here, before the scan
    draws its first sample."""
    if step <= 0 or cap <= start:
        raise UsageError("need step > 0 and cap > start")
    if not xtol >= 0:
        raise UsageError(f"xtol must be >= 0, got {xtol}")
    return islice(sign_changes(_grid(f, start, step, cap)), count)


def _too_few(found: int, needed: int, start: float, cap: float) -> NumericalFailure:
    return NumericalFailure(
        f"only {found} sign change(s) of the target found in ({start}, {cap}); "
        f"needed {needed}")


def first_zeros(f: Callable[[float], float], count: int, *, start: float,
                step: float, cap: float, xtol: float = 1e-12) -> Iterator[ZeroResult]:
    """The first ``count`` zeros of f on [start, cap], from one scan.

    The step must be small enough that no two zeros share one scan cell.
    Each bracket is refined by ``refine_bracket`` with the scan values of
    its ends and yielded before the scan goes on.  When the scan ends with
    fewer than ``count`` zeros, the ones found have been yielded and
    NumericalFailure names the first missing one.
    """
    if count < 1:
        raise UsageError("count must be >= 1")
    found = 0
    brackets = _first_brackets(f, count, start, step, cap, xtol)
    for found, (lo, flo, hi, fhi) in enumerate(brackets, 1):
        yield refine_bracket(f, lo, hi, xtol=xtol, flo=flo, fhi=fhi)
    if found < count:
        raise _too_few(found, found + 1, start, cap)


def kth_zero(f: Callable[[float], float], k: int, *, start: float, step: float,
             cap: float, xtol: float = 1e-12) -> ZeroResult:
    """The k-th zero of f on [start, cap], from the scan ``first_zeros``
    makes; only the k-th bracket is refined.  Raises NumericalFailure when
    fewer than k zeros are seen."""
    if k < 1:
        raise UsageError("k must be >= 1")
    brackets = list(_first_brackets(f, k, start, step, cap, xtol))
    if len(brackets) < k:
        raise _too_few(len(brackets), k, start, cap)
    lo, flo, hi, fhi = brackets[-1]
    return refine_bracket(f, lo, hi, xtol=xtol, flo=flo, fhi=fhi)
