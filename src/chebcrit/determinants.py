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

Two independent evaluation routes are provided and cross-checked in tests,
each computing every leading minor of H once:

* numeric (``minor_values``): exact ring derivatives, certified entries
  as the dyadic integer pairs of one ``tp_eval_mp`` call per abscissa on
  the whole stack f_n, ..., f_n^(2S-2), then det H_1 .. det H_S
  exactly as the pivots of one fraction-free (Bareiss) elimination on
  Python ints, with no roundoff and no precision to choose.  A Bareiss
  step keeps a Hankel block symmetric, so the elimination updates only
  the upper triangle.  Each w_j is rounded straight from its integer to
  the nearest double by ``fixedpoint._checked_double``, so integers are
  all this module handles and it imports nothing from mpmath.  The
  minors of the last (n, x) are kept in a one-entry memo, so the
  single-minor calls of a loop over j at one abscissa share one
  evaluation and one elimination;
* symbolic (``symbolic_minor``): one cofactor expansion of H in the ring
  per n, memoized on row subsets, gives every det H_s of that n; each row
  subset's signed sum of products is one ``tp_dot``, reduced to canonical
  form once.

The exact minors are those of the evaluated entries, which carry a
certified 1e-30 relative error; exactness removes the elimination
roundoff, not that error.  The memo, like the point memo and tables of
``trigpoly`` and the caches of ``fixedpoint``, is process-global and not
guarded by a lock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import UsageError
from .fixedpoint import _checked_double
from .trigpoly import (
    TrigPoly,
    derivatives,
    fn_derivatives,
    tp_dot,
    tp_eval,
    tp_eval_mp,
    tp_neg,
)

#: symbolic_minor cofactor expansion is budgeted for n <= 6 (the matrix is
#: (2n+2-j)-square and coefficients grow combinatorially).
MAX_SYMBOLIC_N = 6


# ----------------------------------------------------------------------
# derivative stacks
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
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


# (n, x, minors) of the last minor_values evaluation: minors[s - 1] is
# det H_s of f_n's entries at x as an (integer, exponent) pair, s = 1..S
_last = (None, None, ())


def _bareiss_det(rows) -> int:
    """Exact determinant of square int rows: Bareiss's fraction-free
    elimination, with a row exchange only where a pivot is zero (no
    candidate gives det = 0).  Each step turns every entry below and right
    of the pivot (k, k) into (a[i][c] a[k][k] - a[i][k] a[k][c]) / prev, a
    division without remainder when ``prev`` is the previous pivot (1
    before the first)."""
    a = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(len(a) - 1):
        if not a[k][k]:
            swap = next((r for r in range(k + 1, len(a)) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        row = a[k]
        piv = row[k]
        for below in a[k + 1:]:
            factor = below[k]
            for c in range(k + 1, len(a)):
                below[c] = (below[c] * piv - factor * row[c]) // prev
        prev = piv
    return sign * a[-1][-1]


def _hankel(vals, size: int) -> list[list]:
    """The leading size x size block of the Hankel matrix H[r][t] = vals[r+t]."""
    return [[vals[r + t] for t in range(size)] for r in range(size)]


def _exact_hankel_minors(vals, size: int) -> list[tuple[int, int]]:
    """[det H_1, ..., det H_size] exactly, each as a pair (d, e) for d 2^e.

    ``vals`` are the entries f^(0), f^(1), ... as ``tp_eval_mp`` gives
    them, dyadic pairs (man, exp) for man 2^exp.  Shifted to the least
    exponent emin of the nonzero ones they are Python ints, and det H_s is
    2^(emin s) times the integer minor.  Unpivoted fraction-free
    elimination: the k-th pivot is the integer det H_(k+1), so one pass
    gives every leading minor.  A Bareiss step keeps the trailing block of
    a symmetric matrix symmetric, so the pass updates only the upper
    triangle (columns c >= i of row i) and reads the factor a[i][k] as
    a[k][i] from the pivot row.  Once a pivot is exactly zero, that size
    and every larger one take _bareiss_det of their own block.
    """
    emin = min((exp for man, exp in vals if man), default=0)
    ints = [man << (exp - emin) if man else 0 for man, exp in vals]
    a = _hankel(ints, size)
    dets = []
    prev = 1
    for k, row in enumerate(a):
        piv = row[k]
        if not piv:
            dets += [_bareiss_det(_hankel(ints, s)) for s in range(k + 1, size + 1)]
            break
        dets.append(piv)
        for i in range(k + 1, size):
            below, factor = a[i], row[i]
            for c in range(i, size):
                below[c] = (below[c] * piv - factor * row[c]) // prev
        prev = piv
    return [(d, emin * s) for s, d in enumerate(dets, 1)]


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
    so w_j = (-1)^(s(s-1)/2) det H_s.  The entries f_n^(0..2S-2), S the
    largest s asked for, are differentiated exactly in the ring and
    evaluated to a certified 1e-30 relative error; the leading minors
    det H_1 .. det H_S of those entries are then exact, the pivots of one
    fraction-free elimination on Python ints, and each w_j is the double
    nearest to its exact minor, rounded straight from its integer.
    Exactness removes the elimination roundoff, not the entries' error: a
    minor is only as good as its 1e-30 entries allow.

    The minors of the last (n, x) are kept, so a call at that point whose
    sizes they cover (the next j of a loop over ascending j) reads them
    without evaluating or eliminating again.
    """
    global _last
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
    size = 2 * n + 2 - js[0]
    last_n, last_x, dets = _last
    if last_n != n or last_x != x or len(dets) < size:
        derivs = fn_derivatives(n, 2 * size - 2)
        dets = _exact_hankel_minors(tp_eval_mp(derivs, x), size)
        _last = (n, x, dets)
    out = {}
    for j in js:
        s = 2 * n + 2 - j
        d, e = dets[s - 1]
        v = _checked_double(d, 1, e, "w_{} of n = {} at x={!r}", j, n, x)
        out[j] = -v if s * (s - 1) // 2 % 2 else v
    return out


# ----------------------------------------------------------------------
# symbolic route
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _ring_hankel_minors(n: int, size: int) -> tuple[TrigPoly, ...]:
    """(det H_1, ..., det H_size) of f_n's Hankel matrix H[r][t] = f_n^(r+t),
    exactly in the ring, from one cofactor expansion.

    D(rows) is the determinant of those rows of H against its first
    len(rows) columns, expanded along its last column and memoized on the
    row subset: one ``tp_dot`` of the signed products, one reduction.  Every leading block's rows {0..s-1} turn up in the
    expansion of the largest, so det H_s is D(0..s-1) for every s.
    """
    derivs = fn_derivatives(n, 2 * size - 2)
    memo: dict[tuple[int, ...], TrigPoly] = {}

    def expand(rows: tuple[int, ...]) -> TrigPoly:
        col = len(rows) - 1
        if not col:
            return derivs[rows[0]]
        got = memo.get(rows)
        if got is not None:
            return got
        acc = memo[rows] = tp_dot([(-1 if (col - idx) % 2 else 1, derivs[r + col],
                                    expand(rows[:idx] + rows[idx + 1:]))
                                   for idx, r in enumerate(rows)])
        return acc

    return tuple(expand(tuple(range(s))) for s in range(1, size + 1))


@lru_cache(maxsize=None)
def symbolic_minor(n: int, j: int) -> TrigPoly:
    """The minor det W(u_j, ..., u_{2n+1}) expanded exactly in the ring."""
    size = _check_minor_args(n, j)
    if n > MAX_SYMBOLIC_N:
        raise UsageError(
            f"symbolic minors are budgeted for n <= {MAX_SYMBOLIC_N}, got n={n}")
    det = _ring_hankel_minors(n, n + 1)[size - 1]
    return tp_neg(det) if size * (size - 1) // 2 % 2 else det


@lru_cache(maxsize=None)
def symbolic_v(n: int) -> TrigPoly:
    """v(f_n) = f_n'^2 - f_n'' f_n as an exact ring element: -det H_2."""
    return tp_neg(_ring_hankel_minors(n, 2)[1])


@lru_cache(maxsize=None)
def symbolic_w(n: int) -> TrigPoly:
    """w(f_n) (the 3x3 determinant above) as an exact ring element: -det H_3."""
    return tp_neg(_ring_hankel_minors(n, 3)[2])
