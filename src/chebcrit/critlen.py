"""Critical-length estimation for the trig-polynomial space of index n.

The critical length is the least positive zero over the admissible minors
w_j (j = n+1 .. 2n+1) of the canonical basis.  The top minor (j = 2n+1) is
f_n itself, whose first zero is the Bessel zero j_{n+1/2,1}, so the
estimate is always bounded by that reference value; the conjecture under
exploration is that the estimate *equals* the reference.  That equality is
a theorem for n <= 2 and open for n >= 3: the scan asserts nothing for
open cases, it reports.

Each minor is scanned on (eps, cap) with a fixed base step tied to the
problem scale, the first hit of ``sign_changes`` over its precomputed
values is refined by ``refine_bracket``, and sub-noise dips without a sign
change are surfaced as "indeterminate" rather than being counted as zeros.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .bessel import bessel_zero
from .determinants import admissible_j, minor_values, wronskian_minor
from .errors import UsageError
from .rootfind import refine_bracket, sign_changes

#: scan starts at this offset from 0 (minors vanish to high order at 0)
EPSILON = 1e-3

#: base scan resolution: reference / SCAN_DIVISIONS
SCAN_DIVISIONS = 512

#: |value| below NOISE_FLOOR * (running scale) without a sign change is
#: reported as indeterminate instead of being resolved by fiat
NOISE_FLOOR = 1e-12

#: conjecture-consistency gap threshold for the report flag
GAP_TOL = 1e-6

MAX_CONJECTURE_N = 6


@dataclass
class PerJResult:
    j: int
    first_zero: float | None
    search_cap: float
    indeterminate: bool = False
    note: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class CritLenReport:
    n: int
    per_j: list[PerJResult]
    estimate: float
    reference: float
    gap: float
    conjecture_consistent: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _scan_one_minor(n: int, j: int, xs: list[float], vals: list[float],
                    cap: float, tol: float) -> PerJResult:
    """Locate the first zero of minor j from precomputed scan values.

    A sub-noise dip without a sign change before the first sign change (or
    exact zero) makes the minor indeterminate instead.
    """
    hit = next(sign_changes(enumerate(vals)), None)
    end = len(vals) - 1 if hit is None else hit[2]
    running_scale = 0.0
    for i, v in enumerate(vals[:end]):
        running_scale = max(running_scale, abs(v))
        if (i > 0 and abs(v) < NOISE_FLOOR * running_scale
                and vals[i - 1] * vals[i + 1] > 0):
            return PerJResult(j, None, cap, indeterminate=True,
                              note=f"|minor| dipped to {v:.3e} near x={xs[i]:.6g} "
                                   f"without a sign change")
    if hit is None:
        return PerJResult(j, None, cap, note="no sign change below the cap")
    lo, flo, hi, fhi = hit
    if lo == hi:
        return PerJResult(j, xs[lo], cap, note="scan landed on an exact zero")
    res = refine_bracket(lambda t: wronskian_minor(n, j, t), xs[lo], xs[hi],
                         xtol=tol, flo=flo, fhi=fhi)
    return PerJResult(j, res.value, cap)


def estimate_critical_length(n: int, cap: float | None = None,
                             tol: float = 1e-10) -> CritLenReport:
    """Scan every admissible minor for its first zero; the minimum is the
    critical-length estimate, reported against the Bessel reference.

    The estimate can only be trusted as an upper bound in general: for
    n >= 3 equality with the reference is an open question and the report
    never asserts it (the conjecture_consistent flag is descriptive).
    """
    if not isinstance(n, int) or n < 0:
        raise UsageError("n must be a non-negative integer")
    if tol <= 0:
        raise UsageError("tol must be positive")
    reference = bessel_zero(n + 0.5, 1).value
    if cap is None:
        cap = 1.5 * reference
    if cap <= EPSILON:
        raise UsageError(f"cap must exceed the scan offset {EPSILON}")
    js = list(admissible_j(n))
    step = reference / SCAN_DIVISIONS
    count = max(2, int(math.ceil((cap - EPSILON) / step)) + 1)
    xs = [min(EPSILON + i * step, cap) for i in range(count)]
    columns: dict[int, list[float]] = {j: [] for j in js}
    for x in xs:
        row = minor_values(n, x, js)
        for j in js:
            columns[j].append(row[j])
    per_j = [_scan_one_minor(n, j, xs, columns[j], cap, tol) for j in js]
    zeros = [r.first_zero for r in per_j if r.first_zero is not None]
    estimate = min(zeros) if zeros else math.inf
    gap = estimate - reference
    consistent = abs(gap) <= GAP_TOL
    return CritLenReport(n=n, per_j=per_j, estimate=estimate,
                         reference=reference, gap=gap,
                         conjecture_consistent=consistent)


def conjecture_scan(n_max: int) -> list[CritLenReport]:
    """Reports for n = 0..n_max (exploratory output, nothing asserted)."""
    if not isinstance(n_max, int) or not 0 <= n_max <= MAX_CONJECTURE_N:
        raise UsageError(f"n_max must be an integer in [0, {MAX_CONJECTURE_N}]")
    return [estimate_critical_length(n) for n in range(n_max + 1)]

