"""Bracketed root finding: one sign-change scan, one bisection refiner.

All consumers (Bessel zeros, zeros of the spherical functions, critical
length scans) locate simple zeros of smooth functions whose consecutive
zeros are well separated, so a fixed-step scan followed by bisection is
sufficient and fully deterministic.  ``sign_changes`` is the only scan and
``refine_bracket`` the only refiner.  ``first_zeros`` joins them on a
fixed grid, refining the first few brackets of one scan, so the k-th zero
is the last of the first k it yields; the critical-length scan feeds
``sign_changes`` its precomputed rows of minor values.

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

#: the most bisection steps refine_bracket takes
_MAX_BISECTIONS = 200


@dataclass(frozen=True)
class ZeroResult:
    """A refined zero: its abscissa, |f| there, and the bisection steps.

    ``refine_bracket`` leaves the residual of an interpolated root as None
    (the critical-length scan has no use for it); ``first_zeros`` reports
    every zero with its residual.
    """

    value: float
    residual: float | None
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
                   xtol: float = 1e-12,
                   flo: float | None = None, fhi: float | None = None) -> ZeroResult:
    """Refine a sign-change bracket by bisection.

    Terminates when the bracket width is below xtol (plus a few ulps of the
    abscissa), or after _MAX_BISECTIONS steps, then interpolates linearly
    between the final ends, without evaluating f there (the residual is
    None).  A caller that already holds
    f(lo) or f(hi) passes it as flo or fhi, and that end is not evaluated
    again; an end whose value is exactly zero is returned with no iteration
    and residual 0.0, as is an exact zero met while bisecting.
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
    for _ in range(_MAX_BISECTIONS):
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
    return ZeroResult(root, None, iters)


def first_zeros(f: Callable[[float], float], count: int, *, start: float,
                step: float, cap: float, xtol: float = 1e-12) -> Iterator[ZeroResult]:
    """The first ``count`` zeros of f on [start, cap], from one scan.

    The grid is start, then min(x + step, cap) up to the cap, and the step
    must be small enough that no two zeros share one scan cell.  Each
    bracket is refined by ``refine_bracket`` with the scan values of its
    ends and yielded, with its residual |f(root)| filled in where the
    refiner interpolated, before the scan goes on, and
    nothing past the count-th bracket is drawn.  The arguments, xtol
    included, are checked before the scan draws its first sample.  When
    the scan ends with fewer than ``count`` zeros, the ones found have been
    yielded and NumericalFailure names the first missing one.
    """
    if count < 1:
        raise UsageError("count must be >= 1")
    if step <= 0 or cap <= start:
        raise UsageError("need step > 0 and cap > start")
    if not xtol >= 0:
        raise UsageError(f"xtol must be >= 0, got {xtol}")
    found = 0
    brackets = islice(sign_changes(_grid(f, start, step, cap)), count)
    for found, (lo, flo, hi, fhi) in enumerate(brackets, 1):
        res = refine_bracket(f, lo, hi, xtol=xtol, flo=flo, fhi=fhi)
        if res.residual is None:  # an interpolated root
            res = ZeroResult(res.value, abs(f(res.value)), res.iterations)
        yield res
    if found < count:
        raise NumericalFailure(
            f"only {found} sign change(s) of the target found in ({start}, {cap}); "
            f"needed {found + 1}")
