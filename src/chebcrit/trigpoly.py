"""Exact arithmetic in the ring of trigonometric polynomials.

Elements are finite sums

    sum_k  A_k(x) * cos(k x) + B_k(x) * sin(k x),      k = 0, 1, 2, ...

with rational polynomial coefficients A_k, B_k, stored as integer
numerators over one positive denominator per element, in lowest terms, so
that every ring operation runs on Python ints.  The ring is closed under
addition, multiplication (product-to-sum reduction) and differentiation,
which is exactly what is needed to construct the spherical functions f_n
and all of their derivatives without rounding: the canonical form of an
element is unique, so structural identities (ODEs, derivative recurrences,
Wronskian expansions) can be checked by exact cancellation to the zero
element.

Numeric evaluation is a separate concern: the closed forms have integer
coefficients that grow like (2n+1)!! while the function values near x = 0
vanish to high order, so a fixed-precision sum loses every significant
digit.  ``tp_eval_mp`` is the one certified evaluator, with three routes:

* below |x| = MACLAURIN_RADIUS (0.01), 0 included, the exact Maclaurin
  expansion is summed at 50 digits, where the cancellation is worst (it
  falls through only when its decay test fails, never at 0);
* otherwise a pure polynomial is summed exactly in the rationals;
* and any other element in its harmonic form, with adaptive working
  precision (mpmath) against a running magnitude bound.

``tp_eval`` and the far side of ``tp_eval_over_power`` round its value to
a double, correct to ~1 ulp whenever it is representable.

Each element is compiled for evaluation once per working precision: a
table of its coefficients as raw mpf values (per harmonic, in Horner order,
with their absolute values), and once for the 50-digit Maclaurin route.
The tables are stored on the instance, outside the dataclass fields, so
``==`` and ``hash`` are unchanged.  The sums run on the ``mpmath.libmp``
primitives that mpf's operators and ``mp.cos``/``mp.sin`` call, at the
same precision and rounding, so every value is bit for bit what the mpf
operators give.  A coefficient is converted from its own num/den in
lowest terms, as ``mp.mpf(num) / den`` would convert it: the numerator is
rounded to the precision before the division, and an exact rational
conversion would round once and differ in the last bit.  So the values do
not depend on the denominator an element shares.

There is no precision context: every route, the compilation of a table
and the exact-polynomial route included, computes at a precision passed
to it as an argument (``dps_to_prec(dps)`` bits for d digits), so no
value depends on mpmath's global precision; the only mpf objects made
are the values ``tp_eval_mp`` returns.  The abscissa, its absolute value
and cos/sin(k x) are kept in a one-entry memo of the last abscissa, per
precision and harmonic, so the derivatives of f_n evaluated at one point
share a single cos/sin evaluation.

Both certificates are made cheap without changing a bit:

* The Maclaurin sum stops early.  Its table ends at the last nonzero
  coefficient and carries a suffix bound per slot i, an integer bound on
  log2 of max over j > i of |c_j| 2^(-6 (j - i - 1)).  Below
  MACLAURIN_RADIUS (< 2^-6) that bounds every later term through the
  current power of x; once it is at most 1/8 ulp of the running total, no
  later addition can move the total, and the final 2^-110 decay test
  would pass, so the early return is what the full 64-slot loop returns.
* The harmonic route's rounding bound B (the sum of |coefficient| |x|^i
  over all rows, times 10^-dps and an operation count) is first tried as
  a double: one float Horner sum of the per-power magnitudes rounded up,
  with a 2^-40 relative slack, gives B' >= B.  If B' certifies the value,
  so would B; otherwise B is computed on raw mpfs and decides as before.
  The pre-test stands down where underflow or overflow could undercut B'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from mpmath import mp
from mpmath.libmp import (
    dps_to_prec,
    from_float,
    from_int,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cos_sin,
    mpf_div,
    mpf_gt,
    mpf_le,
    mpf_mul,
    mpf_mul_int,
    mpf_pow_int,
    mpf_shift,
    round_ceiling,
    round_nearest,
    to_float,
)

from .errors import NumericalFailure, UsageError

#: Largest n accepted by :func:`spherical_fn`; coefficient growth is ~(2n+1)!!.
MAX_SPHERICAL_N = 16

#: Below this |x|, 0 included, tp_eval_mp uses the exact Maclaurin expansion
#: instead of the harmonic form (the harmonic form cancels catastrophically
#: near 0).
MACLAURIN_RADIUS = 1e-2

_MACLAURIN_EXTRA_TERMS = 64
_MACLAURIN_DPS = 50
_MACLAURIN_PREC = dps_to_prec(_MACLAURIN_DPS)
_SUFFIX_SHIFT = 6  # the early stop's radius is 2^-6 >= MACLAURIN_RADIUS
_VANISHING_ORDER_CAP = 600
_EVAL_START_DPS = 40
_EVAL_MAX_DPS = 5000
_EVAL_RTOL = 1e-17
_EVAL_RTOL_FLOOR = 1e-30
_RND = round_nearest  # mp's default rounding, the one its mpf operators use

# The harmonic route's float pre-test (see _float_accepts): its relative
# slack, the largest degree the slack covers, the coefficient range it
# accepts and the least float magnitude sum it trusts.
_PRETEST_SLACK = 2.0 ** -40
_PRETEST_MAX_DEGREE = 1024
_PRETEST_COEFF_RANGE = (2.0 ** -1000, 2.0 ** 1000)
_PRETEST_MIN_MAG = 2.0 ** -900

# Process-global state: the point memo of the harmonic route (_point) and
# the tables compiled onto each element.  Neither is guarded by a lock, so
# evaluation makes no claim of thread safety.


# ----------------------------------------------------------------------
# integer coefficient tuples (index = power of x)
# ----------------------------------------------------------------------

def _trim(p) -> tuple[int, ...]:
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return tuple(p[:n])


def _lin(p, sp: int, q, sq: int) -> list[int]:
    """sp * p + sq * q, coefficientwise."""
    if len(p) < len(q):
        p, sp, q, sq = q, sq, p, sp
    out = [sp * c for c in p]
    for i, c in enumerate(q):
        out[i] += sq * c
    return out


def _pmul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


# ----------------------------------------------------------------------
# TrigPoly
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TrigPoly:
    """Canonical element of the ring: harmonics sorted by frequency k.

    ``terms`` holds triples (k, cos_coeffs, sin_coeffs) of integer
    numerators over the one positive denominator ``den``.  Invariants of
    the canonical form: no triple with both parts empty, no trailing zero
    numerators, k = 0 carries an empty sin part, the gcd of ``den`` and
    every numerator is 1, and the zero element has den = 1.  Structural
    equality of canonical forms is equality of functions.
    """

    terms: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]
    den: int

    def is_zero(self) -> bool:
        return not self.terms

    def max_degree(self) -> int:
        return max((len(p) - 1 for _, c, s in self.terms for p in (c, s)), default=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrigPoly({format_trigpoly(self)})"


def _make(harmonics: Mapping, den: int) -> TrigPoly:
    """The canonical element sum_k (c_k cos kx + s_k sin kx) / den from
    integer numerator sequences {k: (c_k, s_k)}, den > 0."""
    terms = []
    g = den
    for k in sorted(harmonics):
        c, s = harmonics[k]
        c = _trim(c)
        s = () if k == 0 else _trim(s)
        if c or s:
            terms.append((k, c, s))
            if g != 1:
                g = math.gcd(g, *c, *s)
    if g != 1:  # with no terms left, g = den and the element is TrigPoly((), 1)
        terms = [(k, tuple(v // g for v in c), tuple(v // g for v in s)) for k, c, s in terms]
    return TrigPoly(tuple(terms), den // g)


def _from_rationals(harmonics: Mapping) -> TrigPoly:
    """The canonical element from rational coefficients {k: (cos, sin)}."""
    fracs = {k: ([Fraction(v) for v in c], [Fraction(v) for v in s])
             for k, (c, s) in harmonics.items()}
    den = math.lcm(*(v.denominator for c, s in fracs.values() for v in (*c, *s)))
    return _make({k: ([v.numerator * (den // v.denominator) for v in c],
                      [v.numerator * (den // v.denominator) for v in s])
                  for k, (c, s) in fracs.items()}, den)


def tp_zero() -> TrigPoly:
    return _make({}, 1)


def tp_from_poly(coeffs) -> TrigPoly:
    """Plain polynomial in x (the k = 0 harmonic)."""
    return tp_term(0, coeffs)


def tp_x(power: int = 1) -> TrigPoly:
    return tp_from_poly([0] * power + [1])


def tp_term(k: int, cos_coeffs=(), sin_coeffs=()) -> TrigPoly:
    """A(x)*cos(kx) + B(x)*sin(kx) for a single frequency k >= 0, with
    rational coefficients."""
    if k < 0:
        raise UsageError("harmonic frequency must be non-negative")
    return _from_rationals({k: (cos_coeffs, sin_coeffs)})


def tp_sin() -> TrigPoly:
    return tp_term(1, (), (1,))


def tp_cos() -> TrigPoly:
    return tp_term(1, (1,), ())


# ----------------------------------------------------------------------
# ring operations
# ----------------------------------------------------------------------

def tp_add(a: TrigPoly, b: TrigPoly) -> TrigPoly:
    den = math.lcm(a.den, b.den)
    acc = {}
    for e in (a, b):
        scale = den // e.den
        for k, c, s in e.terms:
            c0, s0 = acc.get(k, ((), ()))
            acc[k] = (_lin(c0, 1, c, scale), _lin(s0, 1, s, scale))
    return _make(acc, den)


def tp_neg(a: TrigPoly) -> TrigPoly:
    return TrigPoly(tuple((k, tuple(-v for v in c), tuple(-v for v in s))
                          for k, c, s in a.terms), a.den)


def tp_sub(a: TrigPoly, b: TrigPoly) -> TrigPoly:
    return tp_add(a, tp_neg(b))


def tp_scale(a: TrigPoly, s) -> TrigPoly:
    """a times the rational s."""
    s = Fraction(s)
    num = s.numerator
    return _make({k: ([num * v for v in c], [num * v for v in ss]) for k, c, ss in a.terms},
                 a.den * s.denominator)


def tp_mul(a: TrigPoly, b: TrigPoly) -> TrigPoly:
    """Exact product, reduced to canonical form.

    Uses the product-to-sum rules
        cos j cos k = (cos(j-k) + cos(j+k)) / 2
        sin j sin k = (cos(j-k) - cos(j+k)) / 2
        sin j cos k = (sin(j+k) + sin(j-k)) / 2
    with cos(-m) = cos m and sin(-m) = -sin m.  The integer products are
    accumulated unhalved over the denominator 2 * a.den * b.den, which is
    reduced once.
    """
    size = a.max_degree() + b.max_degree() + 1
    acc: dict[int, tuple[list, list]] = {}

    def add(m: int, part: int, p, sign: int):
        if m < 0:
            m = -m
            if part:
                sign = -sign
        elif m == 0 and part:
            return
        slot = acc.get(m)
        if slot is None:
            slot = acc[m] = ([0] * size, [0] * size)
        dst = slot[part]
        for i, v in enumerate(p):
            dst[i] += sign * v

    for j, cj, sj in a.terms:
        for k, ck, sk in b.terms:
            if cj and ck:
                p = _pmul(cj, ck)
                add(j - k, 0, p, 1)
                add(j + k, 0, p, 1)
            if sj and sk:
                p = _pmul(sj, sk)
                add(j - k, 0, p, 1)
                add(j + k, 0, p, -1)
            if cj and sk:
                p = _pmul(cj, sk)
                add(j + k, 1, p, 1)
                add(j - k, 1, p, -1)
            if sj and ck:
                p = _pmul(sj, ck)
                add(j + k, 1, p, 1)
                add(j - k, 1, p, 1)
    return _make(acc, 2 * a.den * b.den)


def tp_diff(a: TrigPoly, order: int = 1) -> TrigPoly:
    """Exact derivative (d/dx), applied ``order`` times."""
    if order < 0:
        raise UsageError("derivative order must be non-negative")
    return derivatives(a, order)[-1]


@lru_cache(maxsize=1024)
def _diff_once(a: TrigPoly) -> TrigPoly:
    # d/dx [A cos kx + B sin kx] = (A' + kB) cos kx + (B' - kA) sin kx
    acc = {}
    for k, c, s in a.terms:
        acc[k] = (_lin([i * v for i, v in enumerate(c)][1:], 1, s, k),
                  _lin([i * v for i, v in enumerate(s)][1:], 1, c, -k))
    return _make(acc, a.den)


def derivatives(a: TrigPoly, m: int) -> tuple[TrigPoly, ...]:
    """(a, a', ..., a^(m)) as exact ring elements."""
    out = [a]
    for _ in range(m):
        out.append(_diff_once(out[-1]))
    return tuple(out)


# ----------------------------------------------------------------------
# spherical functions f_n
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _spherical(n: int) -> TrigPoly:
    if n == 0:
        return tp_sin()
    if n == 1:
        # sin x - x cos x
        return tp_term(1, (0, -1), (1,))
    # f_n = (2n-1) f_{n-1} - x^2 f_{n-2}
    return tp_sub(tp_scale(_spherical(n - 1), 2 * n - 1),
                  tp_mul(tp_x(2), _spherical(n - 2)))


def spherical_fn(n: int) -> TrigPoly:
    """The n-th spherical function P(x) sin x + Q(x) cos x.

    Built by the three-term recurrence f_0 = sin x, f_1 = sin x - x cos x,
    f_{n+1} = (2n+1) f_n - x^2 f_{n-1}, which keeps all coefficients as
    exact integers.  f_n equals sqrt(pi/2) * x^(n+1/2) * J_{n+1/2}(x) and
    vanishes to order 2n+1 at x = 0.
    """
    if not isinstance(n, int) or n < 0:
        raise UsageError("n must be a non-negative integer")
    if n > MAX_SPHERICAL_N:
        raise UsageError(f"n={n} exceeds the maximum {MAX_SPHERICAL_N}")
    return _spherical(n)


@lru_cache(maxsize=None)
def fn_derivatives(n: int, m: int) -> tuple[TrigPoly, ...]:
    """(f_n, f_n', ..., f_n^(m)) for the n-th spherical function."""
    return derivatives(spherical_fn(n), m)


# ----------------------------------------------------------------------
# Maclaurin expansion (exact rational Taylor coefficients at 0)
# ----------------------------------------------------------------------

@lru_cache(maxsize=512)
def maclaurin(a: TrigPoly, count: int) -> tuple[Fraction, ...]:
    """The first ``count`` Taylor coefficients of ``a`` at x = 0, exactly.

    They are summed as integers over the common denominator
    den * (count - 1)!, with cos(kx) and sin(kx) contributing
    +-k^m (count - 1)! / m! to the coefficient of x^m.
    """
    top = math.factorial(max(count - 1, 0))
    out = [0] * count
    for k, cpart, spart in a.terms:
        tm = top  # k^m (count - 1)! / m!, exact at every m < count
        for m in range(count if k else 1):  # cos 0x = 1
            if m > 0:
                tm = tm * k // m
            part = spart if m % 2 else cpart
            if not part:
                continue
            t = -tm if (m // 2) % 2 else tm
            for i, ci in enumerate(part[:count - m]):
                out[i + m] += ci * t
    den = a.den * top
    return tuple(Fraction(v, den) for v in out)


def vanishing_order(a: TrigPoly) -> int:
    """Order of the zero of ``a`` at x = 0 (0 when a(0) != 0).

    Raises UsageError for the zero element and NumericalFailure if no
    nonzero Taylor coefficient is found below the safety cap.
    """
    if a.is_zero():
        raise UsageError("the zero element has no vanishing order")
    count = 8
    while count <= _VANISHING_ORDER_CAP:
        coeffs = maclaurin(a, count)
        for i, c in enumerate(coeffs):
            if c != 0:
                return i
        count *= 2
    raise NumericalFailure(
        f"no nonzero Maclaurin coefficient below order {_VANISHING_ORDER_CAP}")


# ----------------------------------------------------------------------
# numeric evaluation
# ----------------------------------------------------------------------

def _raw_coeff(num: int, den: int, prec: int):
    """num/den as a raw mpf at ``prec`` bits, as ``mp.mpf(num) / den`` gives
    it in lowest terms (not an exact rational conversion; the module
    docstring says why)."""
    g = math.gcd(num, den)
    return mpf_div(from_int(num // g, prec, _RND), from_int(den // g), prec, _RND)


def _harmonic_table(a: TrigPoly, dps: int):
    """The compiled harmonic form of ``a`` at ``dps`` digits, built once.

    Returns (rows, mag_rows, ten_pow, ops, fmag, scale_up):

    * rows: one (k, cos row, sin row) per harmonic, a row being None for an
      empty part and otherwise (leading coefficient, the rest) as raw mpfs
      in Horner order;
    * mag_rows: the rows of |coefficient|, in the order the rounding bound
      adds them;
    * ten_pow, ops: 10^-dps and the operation count of the rounding bound;
    * fmag: the float pre-test's row, (leading, the rest) in Horner order,
      each entry the sum over all rows of the |coefficient|s of one power
      of x rounded up to a double; None where the pre-test cannot be sound
      (see _float_accepts);
    * scale_up: ten_pow * ops * (1 + _PRETEST_SLACK) as a raw mpf, rounded
      up.

    The tables live on the instance, so a lookup never hashes the
    element's numerators.
    """
    tables = a.__dict__.setdefault("_harmonic_tables", {})
    table = tables.get(dps)
    if table is None:
        prec = dps_to_prec(dps)
        raw = [(k, [_raw_coeff(c, a.den, prec) for c in cpart],
                [_raw_coeff(c, a.den, prec) for c in spart])
               for k, cpart, spart in a.terms]
        ten_pow = mpf_pow_int(from_int(10), -dps, prec, _RND)  # mp.mpf(10) ** -dps
        parts = [part for _, cpart, spart in raw for part in (cpart, spart) if part]
        ops = a.max_degree() + 8 * len(a.terms) + 16
        scale_up = mpf_mul(mpf_mul_int(ten_pow, ops, prec, round_ceiling),
                           from_float(1.0 + _PRETEST_SLACK), prec, round_ceiling)
        table = (tuple((k, _horner_row(c), _horner_row(s)) for k, c, s in raw),
                 tuple(_horner_row([mpf_abs(c) for c in part]) for part in parts),
                 ten_pow, ops, _float_magnitudes(parts), scale_up)
        tables[dps] = table
    return table


def _horner_row(part):
    """(leading coefficient, the rest in Horner order) of a coefficient
    list (index = power of x), or None for an empty one."""
    return (part[-1], tuple(reversed(part[:-1]))) if part else None


def _float_magnitudes(parts):
    """The pre-test's float row for the raw coefficient lists ``parts``
    (index = power of x), or None when a coefficient lies outside
    [2^-1000, 2^1000], or the degree or the number of parts exceeds
    _PRETEST_MAX_DEGREE."""
    lo, hi = _PRETEST_COEFF_RANGE
    if len(parts) > _PRETEST_MAX_DEGREE:
        return None
    sums = []
    for raw in parts:
        if len(raw) > _PRETEST_MAX_DEGREE + 1:
            return None
        sums.extend([fzero] * (len(raw) - len(sums)))
        for i, c in enumerate(raw):
            if c == fzero:
                continue
            if not lo <= abs(to_float(c)) <= hi:
                return None
            sums[i] = mpf_add(sums[i], mpf_abs(c))  # exact: no precision given
    fmag = [to_float(s, rnd=round_ceiling) for s in reversed(sums)]
    return fmag[0], tuple(fmag[1:])


# (x, raw x, raw |x|, {(prec, k): mpf_cos_sin(k x)}) for the last abscissa
_point = (None, None, None, None)


def _point_values(x: float):
    """The point memo for ``x``, replacing the memo of any other abscissa."""
    global _point
    if _point[0] != x:
        xr = from_float(x)
        _point = (x, xr, mpf_abs(xr), {})
    return _point


def _horner_raw(row, xr, prec):
    """Horner evaluation of a (leading, rest) row on raw mpfs."""
    acc, rest = row
    for c in rest:
        acc = mpf_add(mpf_mul(acc, xr, prec, _RND), c, prec, _RND)
    return acc


def _harmonic_value(rows, x: float, prec: int):
    """The raw value of the harmonic form with table rows ``rows`` at ``x``."""
    _, xr, _, trig = _point_values(x)
    total = fzero
    for k, crow, srow in rows:
        if k == 0:
            total = mpf_add(total, _horner_raw(crow, xr, prec), prec, _RND)
            continue
        cos_sin = trig.get((prec, k))
        if cos_sin is None:
            cos_sin = trig[prec, k] = mpf_cos_sin(mpf_mul_int(xr, k, prec, _RND), prec, _RND)
        cos_kx, sin_kx = cos_sin
        if crow:
            total = mpf_add(total, mpf_mul(_horner_raw(crow, xr, prec), cos_kx, prec, _RND),
                            prec, _RND)
        if srow:
            total = mpf_add(total, mpf_mul(_horner_raw(srow, xr, prec), sin_kx, prec, _RND),
                            prec, _RND)
    return total


def _exact_bound(table, x: float, prec: int):
    """The raw rounding bound B of the harmonic-form sum: the sum of the
    |term| magnitudes, times 10^-dps and the operation count."""
    _, mag_rows, ten_pow, ops, _, _ = table
    axr = _point_values(x)[2]
    mag = fzero
    for row in mag_rows:
        mag = mpf_add(mag, _horner_raw(row, axr, prec), prec, _RND)
    return mpf_mul_int(mpf_mul(mag, ten_pow, prec, _RND), ops, prec, _RND)


def _float_accepts(table, x: float, prec: int, limit) -> bool:
    """Whether B' <= limit, for the raw B' >= _exact_bound(table, x, prec)
    from one float Horner sum; False where the pre-test stands down.

    Let M be the exact sum of |coefficient| * |x|^i over all rows.  The
    exact bound B sums M at prec >= 136 bits (40 digits) with at most
    2 * degree + rows nearest roundings of relative error 2^-prec each and
    rounds twice more; with degree and rows at most _PRETEST_MAX_DEGREE
    that is B <= M * 10^-dps * ops * (1 + 2^-120).  The float row's
    entries are the per-power sums rounded up, so their exact Horner sum
    is >= M; each of its 2 * degree float roundings loses at most a factor
    (1 - 2^-53), less than 2^-41 in all for degree <= _PRETEST_MAX_DEGREE.
    Requiring the float sum m to be a finite normal double >= 2^-900 keeps
    overflow out and bounds what gradual underflow of a product can lose
    (below 2^-1074 per step, shrinking with |x| < 1) far below that.  The
    slack 2^-40 covers both, and B' = m * scale_up is rounded up, so
    B' >= B: whatever B' accepts, B accepts too.

    B' lies in [2^(p-2), 2^p] for p the sum of the binary exponents of m
    and scale_up, and a nonzero limit in [2^(q-1), 2^q); so p < q accepts
    and p >= q + 2 rejects without forming B', which is formed only when
    p is q or q + 1, or when scale_up is not finite.
    """
    fmag = table[4]
    if fmag is None or limit == fzero:
        return False
    m, rest = fmag
    ax = abs(x)
    for c in rest:
        m = m * ax + c
    if not _PRETEST_MIN_MAG <= m < math.inf:
        return False
    scale_up = table[5]
    p = math.frexp(m)[1] + scale_up[2] + scale_up[3]
    q = limit[2] + limit[3]
    if scale_up[1] and not q <= p <= q + 1:  # scale_up finite and p not q or q + 1
        return p < q
    return mpf_le(mpf_mul(from_float(m), scale_up, prec, round_ceiling), limit)


def _eval_adaptive_mp(a: TrigPoly, x: float, rtol: float):
    """mpf value certified to the requested relative error, escalating precision.

    At each precision the float bound B' is tried first; only when it
    fails is the exact bound B computed, and B decides.  Since B <= B',
    every accepted value and every escalation is what B alone gives.
    """
    # A pure polynomial can be evaluated exactly in the rationals, which also
    # covers exact zeros at rational points (the harmonic route cannot
    # certify a true zero).
    if all(k == 0 for k, _, _ in a.terms):
        fx = Fraction(x)
        val = Fraction(0)
        for _, cpart, _ in a.terms:  # at most one, the k = 0 harmonic
            for c in reversed(cpart):
                val = val * fx + c
        return mp.make_mpf(_raw_coeff(val.numerator, val.denominator * a.den,
                                      dps_to_prec(40)))
    rtol = from_float(rtol)
    dps = _EVAL_START_DPS
    while dps <= _EVAL_MAX_DPS:
        prec = dps_to_prec(dps)
        table = _harmonic_table(a, dps)
        total = _harmonic_value(table[0], x, prec)
        limit = mpf_mul(mpf_abs(total), rtol, prec, _RND)
        if _float_accepts(table, x, prec, limit):
            return mp.make_mpf(total)
        bound = _exact_bound(table, x, prec)
        if bound == fzero or mpf_le(bound, limit):
            return mp.make_mpf(total)
        dps *= 2
    raise NumericalFailure(
        f"evaluation at x={x!r} did not certify below {_EVAL_MAX_DPS} digits")


def _maclaurin_table(a: TrigPoly):
    """(m0, coefficients, later), built once.

    The coefficients are the raw Maclaurin coefficients m0, m0+1, ... at
    50 digits, None where zero, up to the last nonzero one below m0+64.
    later[i], for every slot i but the last, is an integer upper bound on
    log2 of max over j > i of |c_j| * 2^(-6 (j - i - 1)).
    """
    table = a.__dict__.get("_maclaurin_table")
    if table is None:
        m0 = vanishing_order(a)
        coeffs = maclaurin(a, m0 + _MACLAURIN_EXTRA_TERMS)[m0:]
        raw = [_raw_coeff(c.numerator, c.denominator, _MACLAURIN_PREC) if c else None
               for c in coeffs]
        while raw[-1] is None:  # raw[0] is the nonzero leading coefficient
            raw.pop()
        later = [0] * (len(raw) - 1)
        s = raw[-1][2] + raw[-1][3]
        for i in reversed(range(len(raw) - 1)):
            later[i] = s
            c = raw[i]
            s -= _SUFFIX_SHIFT
            if c is not None:
                s = max(s, c[2] + c[3])
        table = m0, tuple(raw), tuple(later)
        a.__dict__["_maclaurin_table"] = table
    return table


def _eval_maclaurin_mp(a: TrigPoly, x: float, denom_power: int = 0):
    """Evaluate a(x)/x^denom_power near 0 from the exact Maclaurin series.

    Returns an mpf good to ~1e-33 relative (50-digit working precision and
    a verified term decay), or None when the decay check fails and the
    caller must fall back to the adaptive route.  At x = 0 it returns the
    coefficient of x^denom_power, rounded to 50 digits, and never None.

    Works at 50 digits in any precision context.  For |x| below
    MACLAURIN_RADIUS (< 2^-6) the sum stops early and returns exactly what
    the full sum returns.  After slot i the power xp for slot i + 1 is at
    hand, and every later term c_j xp_j, j > i, is below
    2^later[i] * |xp| * 2 (the 2 covers the roundings of the later powers
    and of the product).  Once that is at most 1/8 ulp of the nonzero
    running total, round-to-nearest gives the total back on every later
    addition, and the final decay test (the last nonzero term at most
    2^-110 of the total) passes, as 2^-(prec+2) is far below 2^-110.
    Otherwise the sum runs to the last nonzero coefficient and the decay
    test decides as before.
    """
    if x == 0.0:
        *below, c = maclaurin(a, denom_power + 1)
        if any(below):
            raise UsageError(f"a/x^{denom_power} is singular at 0 "
                             f"(vanishing order {vanishing_order(a)})")
        return mp.make_mpf(_raw_coeff(c.numerator, c.denominator, _MACLAURIN_PREC))
    m0, coeffs, later = _maclaurin_table(a)
    prec = _MACLAURIN_PREC
    xr = from_float(x)
    xp = mpf_pow_int(xr, m0 - denom_power, prec, _RND)
    near = abs(x) < MACLAURIN_RADIUS
    gap = prec + 4  # 1/8 ulp, and the factor 2 of the roundings
    total = fzero
    for c, rest in zip(coeffs, later):  # every slot but the last
        if c is not None:
            total = mpf_add(total, mpf_mul(c, xp, prec, _RND), prec, _RND)
        xp = mpf_mul(xp, xr, prec, _RND)
        if near and total[1] and rest + xp[2] + xp[3] + gap <= total[2] + total[3]:
            return mp.make_mpf(total)
    last = mpf_mul(coeffs[-1], xp, prec, _RND)
    total = mpf_add(total, last, prec, _RND)
    if total != fzero and mpf_gt(mpf_abs(last), mpf_shift(mpf_abs(total), -110)):
        return None  # decay not established at this radius
    return mp.make_mpf(total)


def _finite(x) -> float:
    """x as a float, or UsageError when it is not finite."""
    x = float(x)
    if not math.isfinite(x):
        raise UsageError("x must be finite")
    return x


def tp_eval_mp(a: TrigPoly, x: float, rtol: float = _EVAL_RTOL):
    """The certified mpf value of ``a`` at ``x`` (the only evaluator).

    Below |x| = MACLAURIN_RADIUS, 0 included, the exact Maclaurin expansion
    is summed at 50 digits (there the harmonic form cancels to a value
    exponentially smaller than its terms).  Elsewhere, or when its decay
    test fails, a pure polynomial is summed exactly and any other element
    with adaptive working precision until a running magnitude bound
    certifies the relative error ``rtol``.  rtol is clamped at 1e-30; the
    Maclaurin route is good to ~1e-33.
    """
    x = _finite(x)
    rtol = max(float(rtol), _EVAL_RTOL_FLOOR)
    if a.is_zero():
        return mp.make_mpf(fzero)
    if abs(x) < MACLAURIN_RADIUS:
        got = _eval_maclaurin_mp(a, x)
        if got is not None:
            return got
    return _eval_adaptive_mp(a, x, rtol)


def tp_eval(a: TrigPoly, x: float) -> float:
    """Numeric value of ``a`` at ``x``: tp_eval_mp's value, rounded to a
    double, so correct to ~1 ulp of the result."""
    return _to_float(tp_eval_mp(a, x), float(x))


def tp_eval_over_power(a: TrigPoly, power: int, x: float) -> float:
    """a(x) / x^power with the removable singularity at 0 resolved exactly.

    Used for integrands like f_n^2 / t^(2n+3) whose factors vanish/blow up
    separately but whose ratio extends continuously to 0.
    """
    if power < 0:
        raise UsageError("power must be non-negative")
    x = _finite(x)
    if a.is_zero():
        if x == 0.0 and power > 0:
            raise UsageError("0/0 at x=0 for the zero element")
        return 0.0
    if abs(x) < MACLAURIN_RADIUS:
        got = _eval_maclaurin_mp(a, x, denom_power=power)
        if got is not None:
            return _to_float(got, x)
    return tp_eval(a, x) / x ** power


def _to_float(v, x: float) -> float:
    out = to_float(v._mpf_, rnd=_RND)
    if out != out or out in (float("inf"), float("-inf")):
        raise NumericalFailure(f"value at x={x!r} overflows double precision")
    return out


# ----------------------------------------------------------------------
# serialization / formatting
# ----------------------------------------------------------------------

def _rat_str(num: int, den: int) -> str:
    """num/den in lowest terms, as str(Fraction) but with the "/1"."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


def to_json_dict(a: TrigPoly) -> dict:
    """JSON form: {harmonic k: {"cos": [rational strings], "sin": [...]}}."""
    return {
        str(k): {"cos": [_rat_str(c, a.den) for c in cpart],
                 "sin": [_rat_str(c, a.den) for c in spart]}
        for k, cpart, spart in a.terms
    }


def from_json_dict(d: Mapping) -> TrigPoly:
    return _from_rationals({int(k): (parts.get("cos", ()), parts.get("sin", ()))
                            for k, parts in d.items()})


def _poly_str(p, den: int, var="x") -> str:
    bits = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        c = Fraction(c, den)
        if i == 0:
            bits.append(str(c))
            continue
        power = var if i == 1 else f"{var}^{i}"
        if c == 1:
            bits.append(power)
        elif c == -1:
            bits.append(f"-{power}")
        else:
            bits.append(f"{c}*{power}")
    return " + ".join(bits).replace("+ -", "- ")


def format_trigpoly(a: TrigPoly) -> str:
    """Human-readable rendering, e.g. '(3 - x^2)*sin(x) + (-3*x)*cos(x)'."""
    if a.is_zero():
        return "0"
    bits = []
    for k, cpart, spart in a.terms:
        if k == 0:
            if cpart:
                bits.append(f"({_poly_str(cpart, a.den)})")
            continue
        arg = "x" if k == 1 else f"{k}*x"
        if cpart:
            bits.append(f"({_poly_str(cpart, a.den)})*cos({arg})")
        if spart:
            bits.append(f"({_poly_str(spart, a.den)})*sin({arg})")
    return " + ".join(bits)
