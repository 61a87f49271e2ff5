"""Wronskian determinants of the canonical basis of the trig-polynomial space.

The space spanned by x^k sin x and x^k cos x for k = 0..n has dimension
2n+2 and a canonical basis u_0, ..., u_{2n+1} with u_k = f_n^(2n+1-k),
where f_n is the n-th spherical function: u_k vanishes to exact order k at
the origin.  The critical length of the space is the least positive zero
over j > (2n+1)/2 of the minors

    w_{j}(x) = det W(u_j, ..., u_{2n+1})(x),

where the Wronskian matrix W carries the functions left-to-right in basis
order (derivative order decreasing) and differentiates downwards.  With
that column order the two small cases reduce to the named determinants

    j = 2n:    v(f) = f'^2 - f'' f
    j = 2n-1:  w(f) = det [[f'', f', f], [f''', f'', f'], [f'''', f''', f'']]

and w(f) equals minus the determinant of the 3x3 Hankel matrix of f.  That
is the case s = 3 of a general identity: reversing the column order of the
s x s matrix W(u_j..u_{2n+1}), s = 2n+2-j, gives the leading s x s block
H_s of the one Hankel matrix H = [f_n^(r+t)], so

    w_j = (-1)^(s(s-1)/2) det H_s.

Two independent evaluation routes are provided and cross-checked in tests:
a numeric route (exact ring derivatives, certified extended-precision entry
evaluation, then every leading minor of H exactly, from one fraction-free
elimination on Python ints with no roundoff and no precision to choose)
and a fully symbolic route (cofactor expansion in the ring, then validated
evaluation).  The exact minors are those of the evaluated entries, which
carry a certified 1e-30 relative error; exactness removes the elimination
roundoff, not that error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from mpmath.libmp import from_man_exp, fzero, round_nearest, to_float

from .errors import NumericalFailure, UsageError
from .trigpoly import (
    TrigPoly,
    derivatives,
    fn_derivatives,
    tp_add,
    tp_eval,
    tp_eval_mp,
    tp_mul,
    tp_neg,
    tp_zero,
)

#: symbolic_minor cofactor expansion is budgeted for n <= 6 (the matrix is
#: (2n+2-j)-square and coefficients grow combinatorially).
MAX_SYMBOLIC_N = 6


# ----------------------------------------------------------------------
# derivative stacks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DerivStack:
    """Values (f(x), f'(x), ..., f^(m)(x)) at a point, m >= 2."""

    x: float
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) < 3:
            raise UsageError("a derivative stack needs at least (f, f', f'')")
        if not all(math.isfinite(v) for v in self.values):
            raise UsageError("stack values must be finite")
        if not math.isfinite(self.x):
            raise UsageError("stack abscissa must be finite")

    @property
    def m(self) -> int:
        return len(self.values) - 1

    def require(self, m: int, what: str) -> None:
        if self.m < m:
            raise UsageError(f"{what} needs a stack of depth m >= {m}, got {self.m}")


def stack_from_trigpoly(f: TrigPoly, x: float, m: int) -> DerivStack:
    """Exact-derivative stack of a ring element, evaluated with validation."""
    return _stack(derivatives, f, x, m)


def stack_from_spherical(n: int, x: float, m: int) -> DerivStack:
    """stack_from_trigpoly of f_n, from its cached derivatives."""
    return _stack(fn_derivatives, n, x, m)


def _stack(derivatives_of, f, x: float, m: int) -> DerivStack:
    if m < 2:
        raise UsageError("stack depth m must be >= 2")
    return DerivStack(float(x), tuple(tp_eval(d, x) for d in derivatives_of(f, m)))


# ----------------------------------------------------------------------
# the named small determinants
# ----------------------------------------------------------------------

def v_det(s: DerivStack) -> float:
    """v(f) = f'(x)^2 - f''(x) f(x), the 2x2 Wronskian of (f', f)."""
    s.require(2, "v_det")
    f, f1, f2 = s.values[0], s.values[1], s.values[2]
    return f1 * f1 - f2 * f


def w_det(s: DerivStack) -> float:
    """The 3x3 determinant with rows (f'',f',f), (f''',f'',f'), (f'''',f''',f'')."""
    s.require(4, "w_det")
    f, f1, f2, f3, f4 = s.values[:5]
    return (f2 * (f2 * f2 - f3 * f1)
            - f1 * (f3 * f2 - f4 * f1)
            + f * (f3 * f3 - f4 * f2))


def hankel_det(s: DerivStack) -> float:
    """det of the Hankel matrix [[f,f',f''],[f',f'',f'''],[f'',f''',f'''']] = -w(f).

    Computed directly (not as -w_det) so the sign relation is testable.
    """
    s.require(4, "hankel_det")
    f, f1, f2, f3, f4 = s.values[:5]
    return (f * (f2 * f4 - f3 * f3)
            - f1 * (f1 * f4 - f3 * f2)
            + f2 * (f1 * f3 - f2 * f2))


def w_prime_det(s: DerivStack) -> float:
    """w'(x) from the stack: the last row of w differentiates to (f^(5),f'''',f''')."""
    s.require(5, "w_prime_det")
    f, f1, f2, f3, f4, f5 = s.values[:6]
    return (f2 * (f2 * f3 - f4 * f1)
            - f1 * (f3 * f3 - f5 * f1)
            + f * (f3 * f4 - f5 * f2))


# ----------------------------------------------------------------------
# canonical basis and Wronskian minors
# ----------------------------------------------------------------------

def admissible_j(n: int) -> range:
    """Integer j with (2n+1)/2 < j <= 2n+1, i.e. n+1 .. 2n+1."""
    return range(n + 1, 2 * n + 2)


def canonical_basis(n: int) -> tuple[TrigPoly, ...]:
    """(u_0, ..., u_{2n+1}) with u_k = f_n^(2n+1-k); u_k vanishes to order k at 0."""
    derivs = fn_derivatives(n, 2 * n + 1)
    return tuple(derivs[2 * n + 1 - k] for k in range(2 * n + 2))


def _check_minor_args(n: int, j: int) -> int:
    if not isinstance(n, int) or n < 0:
        raise UsageError("n must be a non-negative integer")
    if not isinstance(j, int) or not (2 * n + 1 < 2 * j <= 2 * (2 * n + 1)):
        raise UsageError(
            f"j must be an integer with (2n+1)/2 < j <= 2n+1; got j={j} for n={n}")
    return 2 * n + 2 - j  # matrix size


@lru_cache(maxsize=None)
def _minor_entry_grid(n: int, size: int) -> tuple[tuple[TrigPoly, ...], ...]:
    """Exact ring elements of the size x size Wronskian W(f_n^(size-1), ...,
    f_n): entry (r, t) = f_n^(size-1-t+r).  It is W(u_j..u_{2n+1}) for
    size = 2n+2-j, and the matrix of v(f_n) and w(f_n) for sizes 2 and 3."""
    derivs = fn_derivatives(n, 2 * size - 2)
    return tuple(
        tuple(derivs[size - 1 - t + r] for t in range(size))
        for r in range(size)
    )


_ENTRY_RTOL = 1e-30


def _bareiss_step(a, k: int, prev: int) -> None:
    """One step of Bareiss's fraction-free elimination on the int rows of
    ``a``, in place: every entry below and right of the pivot (k, k) becomes
    (a[i][j] a[k][k] - a[i][k] a[k][j]) / prev, a division without remainder
    when ``prev`` is the previous pivot (1 before the first)."""
    row = a[k]
    piv = row[k]
    for below in a[k + 1:]:
        factor = below[k]
        for c in range(k + 1, len(a)):
            below[c] = (below[c] * piv - factor * row[c]) // prev


def _bareiss_det(rows) -> int:
    """Exact determinant of square int rows: Bareiss's elimination, with a
    row exchange only where a pivot is zero (no candidate gives det = 0)."""
    a = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(len(a) - 1):
        if not a[k][k]:
            swap = next((r for r in range(k + 1, len(a)) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        _bareiss_step(a, k, prev)
        prev = a[k][k]
    return sign * a[-1][-1]


def _hankel(vals, size: int) -> list[list]:
    """The leading size x size block of the Hankel matrix H[r][t] = vals[r+t]."""
    return [[vals[r + t] for t in range(size)] for r in range(size)]


def _exact_hankel_minors(vals, sizes: list[int]) -> dict:
    """det H_s for every s in sizes, exactly, as raw mpfs.

    ``vals`` are the raw mpf entries f^(0), f^(1), ..., each a dyadic
    rational man * 2^exp.  Shifted to their least exponent emin they are
    Python ints, and det H_s is 2^(emin s) times the integer minor.
    Unpivoted fraction-free elimination: the k-th pivot is the integer
    det H_(k+1), so one pass gives every leading minor.  Once a pivot is
    exactly zero, that size and every larger one take _bareiss_det of their
    own block.
    """
    emin = min((exp for _, man, exp, _ in vals if man), default=0)
    ints = [(-man if sign else man) << (exp - emin) for sign, man, exp, _ in vals]
    a = _hankel(ints, max(sizes))
    dets = {}
    prev = 1
    for k, row in enumerate(a):
        piv = row[k]
        if not piv:
            for s in sizes:
                if s > k:
                    dets[s] = _bareiss_det(_hankel(ints, s))
            break
        if k + 1 in sizes:
            dets[k + 1] = piv
        _bareiss_step(a, k, prev)
        prev = piv
    return {s: from_man_exp(d, emin * s) for s, d in dets.items()}


def wronskian_minor(n: int, j: int, x: float) -> float:
    """det W(u_j, ..., u_{2n+1})(x) for the canonical basis of the space.

    The single-minor slice of ``minor_values``, so a minor has the same
    value on the scan grid and during refinement.
    """
    return minor_values(n, x, [j])[j]


def minor_values(n: int, x: float, js: Iterable[int] | None = None) -> dict[int, float]:
    """The admissible minors w_j at one abscissa, from one elimination.

    Reversing the column order of W(u_j..u_{2n+1}) turns it into the
    leading s x s block of the Hankel matrix H = [f_n^(r+t)], s = 2n+2-j,
    so w_j = (-1)^(s(s-1)/2) det H_s.  The entries f_n^(0..2s-2) are
    differentiated exactly in the ring and evaluated to a certified 1e-30
    relative error; the leading minors of those entries are then exact, the
    pivots of one fraction-free elimination on Python ints, and each w_j is
    the double nearest to its exact minor.  Exactness removes the
    elimination roundoff, not the entries' error: a minor is only as good
    as its 1e-30 entries allow.
    """
    if js is None:
        js = admissible_j(n)
    js = sorted(set(js))
    for j in js:
        _check_minor_args(n, j)
    x = float(x)
    if not (math.isfinite(x) and x > 0):
        raise UsageError("Wronskian minors need finite x > 0")
    if not js:
        return {}
    sizes = [2 * n + 2 - j for j in js]
    derivs = fn_derivatives(n, 2 * max(sizes) - 2)
    vals = [tp_eval_mp(d, x, _ENTRY_RTOL)._mpf_ for d in derivs]
    dets = _exact_hankel_minors(vals, sizes)
    out = {}
    for j, s in zip(js, sizes):
        # the float nearest to the minor (libmp's to_float rounds down by
        # default); subnormals pass, but not a nonzero minor that rounds to
        # 0.0 or beyond the largest double
        v = to_float(dets[s], rnd=round_nearest)
        if math.isinf(v) or (v == 0.0 and dets[s] != fzero):
            what = "overflows" if v else "underflows"
            raise NumericalFailure(f"w_{j} of n = {n} at x={x!r} {what} double precision")
        out[j] = -v if s * (s - 1) // 2 % 2 else v
    return out


# ----------------------------------------------------------------------
# symbolic route
# ----------------------------------------------------------------------

def _symbolic_det(grid) -> TrigPoly:
    """Cofactor expansion along the first column, memoized on row subsets;
    the last column's cofactor is its remaining entry."""
    size = len(grid)
    memo: dict[tuple[int, tuple[int, ...]], TrigPoly] = {}

    def expand(col: int, rows: tuple[int, ...]) -> TrigPoly:
        if col == size - 1:
            return grid[rows[0]][col]
        key = (col, rows)
        got = memo.get(key)
        if got is not None:
            return got
        acc = tp_zero()
        for idx, r in enumerate(rows):
            sub = expand(col + 1, rows[:idx] + rows[idx + 1:])
            term = tp_mul(grid[r][col], sub)
            acc = tp_add(acc, term if idx % 2 == 0 else tp_neg(term))
        memo[key] = acc
        return acc

    return expand(0, tuple(range(size)))


@lru_cache(maxsize=None)
def symbolic_minor(n: int, j: int) -> TrigPoly:
    """The minor det W(u_j, ..., u_{2n+1}) expanded exactly in the ring."""
    size = _check_minor_args(n, j)
    if n > MAX_SYMBOLIC_N:
        raise UsageError(
            f"symbolic minors are budgeted for n <= {MAX_SYMBOLIC_N}, got n={n}")
    return _symbolic_det(_minor_entry_grid(n, size))


@lru_cache(maxsize=None)
def symbolic_v(n: int) -> TrigPoly:
    """v(f_n) = f_n'^2 - f_n'' f_n as an exact ring element."""
    return _symbolic_det(_minor_entry_grid(n, 2))


@lru_cache(maxsize=None)
def symbolic_w(n: int) -> TrigPoly:
    """w(f_n) (the 3x3 determinant above) as an exact ring element."""
    return _symbolic_det(_minor_entry_grid(n, 3))
