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
digit.  ``tp_eval_mp``, ``tp_eval``, ``tp_eval_over_power`` and
``tp_integral_over_power`` share two fixed-point sums on Python ints, and
only exact values bypass them:

* at x = 0 the value is the exact Maclaurin coefficient, and a pure
  polynomial is summed exactly in the rationals; ``tp_eval`` and
  ``tp_eval_over_power`` round that rational once to the nearest double
  and ``tp_eval_mp`` to 136 bits (40 digits);
* below |x| = MACLAURIN_RADIUS (0.01), and for every integral, one Horner
  row sums the element's series form, its exact truncated Maclaurin series
  with a rigorous tail bound (below);
* elsewhere, and where the series form gives up, the kernel sums the
  harmonic form.

One generator, ``_enclosures(a, x, power)``, decides the route, the start
precision and the ladder, and yields the integer enclosures (T, E, F, d)
of a(x)/x^(power - d) at each precision in turn; each caller draws from it
until its own acceptance test passes.

The kernel works at F fraction bits.  Each coefficient num/den is the
integer nearest to num 2^F / den, and the double x is the exact dyadic
p / 2^s.  It returns integers T and E with |T 2^-F - a(x)| <= E 2^-F,
E summed term by term in units of 2^-F:

* Horner's rule acc = (acc p >> s) + c per cos or sin polynomial: the
  leading coefficient is off by at most 1/2, and each step floors (below
  1) and adds a coefficient off by 1/2, so the error grows as
  e' = ceil(e |p| / 2^s) + 2 from e = 1.
* cos kx and sin kx come from ``fixedpoint._cos_sin`` of the exact kx =
  k p / 2^s, on Python ints at W = F + 20 bits: a reduction by pi/2
  (Machin's formula) with guard bits that grow with the quadrant count, a
  table of cos and sin at multiples of 2^-8 built row by row, a Taylor sum
  on the rest and one angle addition.  Its docstring sums the bound:
  rounded to F fraction bits, each is off by less than 1/2 + 4.15 2^-20 <
  1.
* A product (P C) >> F of a polynomial value P, off by e_P, with such a
  C adds e_P + (|P| >> F) + 2: |P| 2^-F from C, e_P |cos| <= e_P from P,
  and below 1 from the floor.  A k = 0 polynomial adds its e alone.

The precision climbs one ladder, the bits of 40, 80, ..., 2560 digits
(``fixedpoint._ladder``), until the caller stops drawing; past its top,
the cap of 5000 digits, NumericalFailure is raised.  The harmonic form
starts at 40 digits, 136 bits.  The series form starts higher where its
exact leading coefficient c_m0 is small: at F = max(136, 105 - l) bits,
l the bit length of c_m0's numerator less that of its denominator in
lowest terms, so that |c_m0| > 2^(l-1) puts |c_m0| 2^F above 2^104, the
bits of 1e30 and 4 for the error count.  A row of up to 10 terms keeps
its error and the rescaling's unit within 2^4, and its first pass meets
tp_eval_mp's test (below); every near-0 row of the f_n^(k), n <= 16, and
of the minors of n <= 6 (7 to 25 terms) met it at the first pass for
1e-4 <= x < 0.01.  For the f_n entries and v(f_n) of n <= 6 that start is
136 bits, for f_12 (l = -42) it is 147.  The tests:

* ``tp_eval_mp(a, x)`` accepts when E rd <= |T| rn for the one relative
  tolerance 1e-30 = rn / rd exactly, and returns the dyadic pair (T, -F),
  the value T 2^-F itself, so the integers pass to ``determinants``
  without a conversion;
* ``tp_eval_over_power(a, power, x)``, and ``tp_eval`` at power 0,
  accept when both ends of the quotient, (T -+ E) 2^(s d - F) / p^d, round
  to the same double and |T| > E (Ziv's rounding test,
  ``fixedpoint._ziv_double``), and that double is
  then the quotient correctly rounded (so a true zero is never accepted):
  each end is one int division, and neither a(x) nor x^d is rounded.

On every route a double that overflows, or that is 0.0 for a nonzero
value (an underflow), raises NumericalFailure.

The series form of a, vanishing to order m0 (``_series_form``), holds the
exact Maclaurin coefficients c_m0, ..., c_(m0+N-1), N = _SERIES_TERMS =
128, as integer numerators over one denominator, a radius R and a
rational K with |a(x)/x^m0 - sum_(j<N) c_(m0+j) x^j| <= K |x|^N for
|x| <= R.  A term c x^i cos kx or c x^i sin kx leaves at most
|c| |x|^D k^M / M! / (1 - k|x|/(M+1)) in degrees D = m0 + N and above,
M = D - i, as the Taylor terms (k|x|)^m / m!, m >= M, of cos and sin
shrink at least by the ratio k|x|/(M+1); K (``_tail_bound``) sums these
at |x| = R.  This needs M >= 0 and k R < M + 1 for every term, else there
is no form.  R is read off the element: the largest R with k R <=
(M + 1)/2 for every term, so that each factor 1/(1 - k R/(M + 1)) is at
most 2; for f_n^2 it is (2n + 131)/4, and about 65 for an f_n entry.

The form serves two sums, each x^e (Q(x) + t) with |t| <= K' |x|^N:

* a(x)/x^(power - d) below |x| = MACLAURIN_RADIUS where |x| <= R, with
  Q = sum_j c_(m0+j) x^j, K' = K, e = m0 - power + d, and d = 0 where
  power <= m0 and d = power above it;
* ``tp_integral_over_power(a, power, x)``, the integral of a(t)/t^power
  from 0 to x for |x| <= R, with Q = sum_j c_(m0+j) x^j / (e + j) and
  e = m0 - power + 1, since integrating the bound K |t|^(m0 - power + N)
  gives K' = K / (e + N).  e <= 0, where the integral diverges at 0, is
  refused (UsageError).

Q is summed by Horner's rule in u = x / 2^r = p / 2^t, t the least with
|p| <= 2^t and r = t - s, so |u| <= 1 at every x != 0 (r <= 0 up to
|x| = 1), by ``_series_value``: the row of (F, r) holds c_j 2^(r j),
divided by e + j for the integral, rounded to the nearest multiple of
2^-F, and acc = floor(acc p / 2^t) + c_j.  The row stops at the least J
where the rest, the sum of |c_j| 2^(F + r j) over j > J, is below one
unit of 2^-F: as |x| <= 2^r, the terms it drops add less than that unit.
The stop is checked on integers, each term bounded by a power of two
from bit lengths, in units of 2^-(F + 8).  The leading coefficient is off
by at most 1/2, and each step adds below 1 for the floor and 1/2 for the
coefficient to the error times |u| <= 1, so with the rest's unit
E = floor(3J/2) + 2 >= 1/2 + 1.5 J + 1, as in ``bessel._row``: a point
certifies in one pass wherever the tail allows.  Near 0 the rows are
short (7 to 25 terms at 1e-4 <= x < 0.01 for the f_n^(k) and minors
above), and the integral's rows of f_n^2 and v(f_n) hold 11 to 37 terms
below x = 1, 37 to 63 up to x = 4 and 113 to all 128 past x = 8.

The sum's (T, E) at F bits give (T p^e, (E + tail) |p|^e) at F + s e
bits, tail = K' |x|^N 2^F rounded up.  They are yielded shifted right by
r', 2^r' <= |p|^e < 2^(r'+1), so that T keeps its size: T p^e floored, E
rounded up plus 1 for that floor, at F + s e - r' bits.  More precision
shrinks E against T but not the tail: once tail >= E and the caller
draws again, the stream ends.  Near 0 the harmonic form is then summed
from 136 bits, d = power.  The integral is the first value that passes
the rounding test, and None where the stream ends or yields nothing
(|x| > R), or where there is no form.  For the spherical integrands of
``identities`` it certifies up to x ~ 20-21 on the default grid (24 at
n = 16).

The kernel's tables and the series form are built once per element (the
tables per F, the form's rows per weight, F and r) and stored on the
instance, outside the dataclass fields, so ``==`` and ``hash`` are
unchanged.  There is no precision context: every route computes at a
precision passed to it as an argument, on Python ints, and nothing here
imports mpmath.  The kernel
keeps x = p / 2^s, its Horner error counts and cos/sin(k x) per (F, k) in
a one-entry memo of the last abscissa, so the derivatives of f_n
evaluated at one point share one cos/sin evaluation per F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import NumericalFailure, UsageError
from .fixedpoint import _checked_double, _cos_sin, _horner_row, _ladder, _nearest_bits, _ziv_double

#: Largest n accepted by :func:`spherical_fn`; coefficient growth is ~(2n+1)!!.
MAX_SPHERICAL_N = 16

#: Below this |x| the kernel sums an element's series form instead of its
#: harmonic form (the harmonic form cancels catastrophically near 0).
MACLAURIN_RADIUS = 1e-2

_SERIES_TERMS = 128  # the series form's tail is O(|x|^128)
_ROW_GUARD = 8  # a row's stop test sums the rest in units of 2^-(F + 8)
_VANISHING_ORDER_CAP = 600
_EVAL_MAX_DPS = 5000
# the kernel's working precisions in bits: 40, 80, ..., 2560 digits
_EVAL_PRECS = _ladder(40, _EVAL_MAX_DPS)
# tp_eval_mp's relative tolerance, 1e-30 = _RTOL_NUM / _RTOL_DEN exactly
_RTOL_NUM, _RTOL_DEN = (1e-30).as_integer_ratio()
# the Maclaurin route starts where |c_m0| 2^F > 2^_START_BITS: the bits of
# 1/rtol and 4 more for the error count
_START_BITS = (_RTOL_DEN // _RTOL_NUM).bit_length() + 4

# Process-global state: the point memo of the fixed-point kernel (_point),
# the tables compiled onto each element, the caches of pi/2 and of the
# cos/sin table rows in ``fixedpoint``, and the memo of the last (n, x) of
# ``determinants.minor_values``.  None is guarded by a lock, so evaluation
# makes no claim of thread safety.


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
def _maclaurin_ints(a: TrigPoly, count: int) -> tuple[int, ...]:
    """The numerators of the first ``count`` Taylor coefficients of ``a`` at
    x = 0 over the common denominator den * (count - 1)!, exactly.

    cos(kx) and sin(kx) contribute +-k^m (count - 1)! / m! to the
    coefficient of x^m.
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
    return tuple(out)


def maclaurin(a: TrigPoly, count: int) -> tuple[Fraction, ...]:
    """The first ``count`` Taylor coefficients of ``a`` at x = 0, exactly:
    the numerators of _maclaurin_ints over den * (count - 1)!."""
    den = a.den * math.factorial(max(count - 1, 0))
    return tuple(Fraction(v, den) for v in _maclaurin_ints(a, count))


def vanishing_order(a: TrigPoly) -> int:
    """Order of the zero of ``a`` at x = 0 (0 when a(0) != 0).

    Raises UsageError for the zero element and NumericalFailure if no
    nonzero Taylor coefficient is found below the safety cap.
    """
    if a.is_zero():
        raise UsageError("the zero element has no vanishing order")
    count = 8
    while count <= _VANISHING_ORDER_CAP:
        for i, c in enumerate(_maclaurin_ints(a, count)):
            if c:
                return i
        count *= 2
    raise NumericalFailure(
        f"no nonzero Maclaurin coefficient below order {_VANISHING_ORDER_CAP}")


# ----------------------------------------------------------------------
# numeric evaluation
# ----------------------------------------------------------------------

def _fixed_table(a: TrigPoly, F: int):
    """(degree, rows) of ``a`` at F fraction bits, built once per F and
    stored on the instance, so a lookup never hashes the element's
    numerators: one (k, cos row, sin row) per harmonic, a row None for an
    empty part, else (leading, the rest in Horner order), each num/den the
    integer nearest to num 2^F / den; degree is the most Horner steps of a
    row."""
    tables = a.__dict__.get("_fixed_tables")
    if tables is None:
        tables = a.__dict__["_fixed_tables"] = {}
    table = tables.get(F)
    if table is None:
        den, den2 = a.den, 2 * a.den

        def row(part):
            if not part:
                return None
            ints = [((c << (F + 1)) + den) // den2 for c in reversed(part)]
            return ints[0], tuple(ints[1:])

        rows = tuple((k, row(c), row(s)) for k, c, s in a.terms)
        table = tables[F] = (a.max_degree(), rows)
    return table


# (x, p, s, errs, {(F, k): (cos kx, sin kx) at F fraction bits}) for the
# last abscissa x = p / 2^s; errs[j] bounds the error of a Horner sum after
# j steps at x, in units of its fraction bits
_point = (None, 0, 0, [1], {})


def _point_values(x: float):
    """The point memo for ``x``, replacing the memo of any other abscissa."""
    global _point
    if _point[0] != x:
        p, d = x.as_integer_ratio()
        _point = (x, p, d.bit_length() - 1, [1], {})
    return _point


def _fixed_value(a: TrigPoly, x: float, F: int):
    """(T, E) with |T 2^-F - a(x)| <= E 2^-F, on Python ints, by the error
    model of the module docstring (errs[j] is e after j Horner steps)."""
    degree, rows = _fixed_table(a, F)
    _, p, s, errs, trig = _point_values(x)
    while len(errs) <= degree:
        errs.append(-(-errs[-1] * abs(p) >> s) + 2)
    total = bound = 0
    for k, crow, srow in rows:
        if k:
            cos_sin = trig.get((F, k))
            if cos_sin is None:
                cos_sin = trig[F, k] = _cos_sin(k * p, s, F)
        else:
            cos_sin = (None, None)
        for row, c in zip((crow, srow), cos_sin):
            if row is None:
                continue
            acc, rest = row
            for coeff in rest:
                acc = (acc * p >> s) + coeff
            if c is None:
                total += acc
                bound += errs[len(rest)]
            else:
                total += acc * c >> F
                bound += errs[len(rest)] + (abs(acc) >> F) + 2
    return total, bound


def _tail_bound(a: TrigPoly, degree: int, R: Fraction):
    """The rational K of the module docstring's tail bound for the Maclaurin
    terms of ``a`` of degree D = ``degree`` and above on |x| <= R, or None
    where a term fails its hypothesis."""
    total = Fraction(0)
    for k, cpart, spart in a.terms:
        for i, c in (*enumerate(cpart), *enumerate(spart)):
            M = degree - i
            if M < 0 or k * R >= M + 1:
                return None
            if c:
                total += Fraction(abs(c) * k**M * (M + 1), math.factorial(M)) / (M + 1 - k * R)
    return total / a.den


def _series_form(a: TrigPoly):
    """(m0, nums, den, R, K, extra, rows), the series form of the module
    docstring, built once and stored on the instance; None for a pure
    polynomial (summed exactly) and where _tail_bound is None.  nums[j] / den
    is c_(m0+j), j < _SERIES_TERMS, K bounds the tail on |x| <= R, the form
    is summed from _EVAL_PRECS[0] + extra bits, where |c_m0| 2^F >
    2^_START_BITS, and rows holds the Horner rows of _series_value."""
    if "_series_form" not in a.__dict__:
        form = None
        if a.terms and a.terms[-1][0]:  # harmonics sorted by k: not all k = 0
            m0 = vanishing_order(a)
            count = m0 + _SERIES_TERMS
            # the largest R with k R <= (M + 1)/2 for every term
            R = min(Fraction(count - max(len(c), len(s)) + 2, 2 * k) for k, c, s in a.terms if k)
            K = _tail_bound(a, count, R)
            if K is not None:
                nums = _maclaurin_ints(a, count)[m0:]
                den = a.den * math.factorial(count - 1)
                lead = Fraction(nums[0], den)  # |c_m0| > 2^(lg - 1)
                lg = lead.numerator.bit_length() - lead.denominator.bit_length()
                form = m0, nums, den, R, K, max(0, _START_BITS + 1 - lg - _EVAL_PRECS[0]), {}
        a.__dict__["_series_form"] = form
    return a.__dict__["_series_form"]


def _series_value(form, x: float, F: int, w: int):
    """(T, E) with |T 2^-F - Q(x)| <= E 2^-F for the form's Q at x != 0,
    Q(x) = sum_j c_(m0+j) x^j / (w + j) where w > 0 and without the divisor
    where w = 0, by Horner's rule in u = x / 2^r on the row of (w, F, r),
    built once and stored on the form (see the module docstring).

    The row holds c_j 2^(r j) at F fraction bits for j = 0..J, J the least
    index where the rest, the sum of |c_j| 2^(F + r j) over j > J, is below
    one unit.  That test runs on integers, in units of 2^-(F + _ROW_GUARD):
    a term n 2^t / d is below 2^b of them, b the bit length of n less that
    of d plus t + _ROW_GUARD + 1, and below 1 where b <= 0."""
    _, nums, den, _, _, _, rows = form
    _, p, s, _, _ = _point_values(x)
    t = (abs(p) - 1).bit_length()  # |p| <= 2^t: u = p / 2^t, r = t - s
    r = t - s
    row = rows.get((w, F, r))
    if row is None:
        dens = [den * (w + j) for j in range(len(nums))] if w else [den] * len(nums)
        J, dropped, base = len(nums) - 1, 0, F + _ROW_GUARD + 1
        while J:
            if nums[J]:
                b = nums[J].bit_length() - dens[J].bit_length() + base + r * J
                dropped += 1 << b if b > 0 else 1
                if dropped >> _ROW_GUARD:  # the rest may reach one unit: keep c_J
                    break
            J -= 1
        row = rows[w, F, r] = _horner_row([(nums[j], dens[j], F + r * j) for j in range(J + 1)])
    acc, rest = row
    for c in rest:
        acc = (acc * p >> t) + c
    return acc, 3 * len(rest) // 2 + 2


def _series_enclosures(form, e: int, x: float, d: int, w: int):
    """(T, E, F, d) with |T 2^-F - x^e (Q(x) + t)| <= E 2^-F for every
    |t| <= K' |x|^_SERIES_TERMS, Q the form's sum of weight w
    (_series_value) and K' = K / (w + _SERIES_TERMS) where w > 0, K where
    w = 0, one per pass at prec + extra fraction bits for prec in
    _EVAL_PRECS, until the tail K' |x|^_SERIES_TERMS 2^F reaches the sum's
    error: more precision cannot shrink it, so the stream ends there.  d
    passes through for the caller."""
    _, p, s, _, _ = _point_values(x)
    R, K, extra = form[3:6]
    if abs(p) * R.denominator > R.numerator << s:  # |x| > R: no enclosure
        return
    if w:
        K /= w + _SERIES_TERMS
    pe = p**e
    scale = abs(pe)
    r = scale.bit_length() - 1
    # K' |x|^N < 2^lg: below 2^-F the tail rounds up to 1 without |p|^N
    lg = (K.numerator.bit_length() - K.denominator.bit_length() + 1
          + _SERIES_TERMS * (abs(p).bit_length() - s))
    for prec in _EVAL_PRECS:
        F = prec + extra
        total, bound = _series_value(form, x, F, w)
        tail = 1
        if lg + F > 0:
            tail = -(-(K.numerator * abs(p) ** _SERIES_TERMS << F)
                     // (K.denominator << _SERIES_TERMS * s))
        yield total * pe >> r, -((-(bound + tail) * scale) >> r) + 1, F + s * e - r, d
        if tail >= bound:
            return


def _enclosures(a: TrigPoly, x: float, power: int):
    """(T, E, F, d) with |T 2^-F - a(x)/x^(power - d)| <= E 2^-F, one per
    kernel pass, the kernel at prec + extra fraction bits for prec in
    _EVAL_PRECS (40, 80, ..., 2560 digits): extra is the series form's and
    0 on the harmonic form.  The caller draws until its own test passes.

    Below MACLAURIN_RADIUS, where |x| <= R, they come from the series form,
    scaled by x^(m0 - power + d) with the tail added as the module docstring
    says, d = 0 where power is at most m0 and d = power above it, until the
    form gives up (tail >= E).  Then, elsewhere and where ``a`` has no form,
    they come from the harmonic form, d = power.  Past the ladder's top this
    raises NumericalFailure.
    """
    form = _series_form(a) if abs(x) < MACLAURIN_RADIUS else None
    if form is not None:
        m0 = form[0]
        d = 0 if power <= m0 else power
        yield from _series_enclosures(form, m0 - power + d, x, d, 0)
    for F in _EVAL_PRECS:
        yield (*_fixed_value(a, x, F), F, power)
    raise NumericalFailure(
        f"evaluation at x={x!r} did not certify below {_EVAL_MAX_DPS} digits")


def _finite(x) -> float:
    """x as a float, or UsageError when it is not finite."""
    x = float(x)
    if not math.isfinite(x):
        raise UsageError("x must be finite")
    return x


def _exact_value(a: TrigPoly, x: float, power: int):
    """The exact Fraction a(x)/x^power where the kernel is bypassed: at
    x = 0 the coefficient of x^power (UsageError where the quotient is
    singular there), and elsewhere for a pure polynomial (the kernel cannot
    certify a true zero); None otherwise."""
    if x == 0.0:
        *below, c = maclaurin(a, power + 1)
        if any(below):
            raise UsageError(f"a/x^{power} is singular at 0 "
                             f"(vanishing order {vanishing_order(a)})")
        return c
    if a.terms[-1][0]:  # harmonics sorted by k: not all k = 0
        return None
    xf = Fraction(x)
    return Fraction(sum(v * xf ** i for i, v in enumerate(a.terms[0][1])), a.den) / xf ** power


def tp_eval_mp(a: TrigPoly, x: float) -> tuple[int, int]:
    """The certified value of ``a`` at ``x`` as a dyadic pair (man, exp),
    the value man 2^exp.

    At x = 0 and for a pure polynomial it is the exact value rounded to
    _EVAL_PRECS[0] bits (40 digits).  Otherwise it draws the enclosures
    (T, E, F) of ``_enclosures`` until E is at most 1e-30 |T|, compared
    exactly, and the pair is (T, -F).
    """
    x = _finite(x)
    if a.is_zero():
        return 0, 0
    got = _exact_value(a, x, 0)
    if got is not None:
        return _nearest_bits(got.numerator, got.denominator, _EVAL_PRECS[0])
    for T, E, F, _ in _enclosures(a, x, 0):
        if E * _RTOL_DEN <= abs(T) * _RTOL_NUM:
            return T, -F


def tp_eval(a: TrigPoly, x: float) -> float:
    """Numeric value of ``a`` at ``x`` as a double, correctly rounded:
    ``tp_eval_over_power(a, 0, x)``."""
    return tp_eval_over_power(a, 0, x)


def tp_eval_over_power(a: TrigPoly, power: int, x: float) -> float:
    """a(x) / x^power as a double, with the removable singularity at 0
    resolved exactly.

    Used for integrands like f_n^2 / t^(2n+3) whose factors vanish/blow up
    separately but whose ratio extends continuously to 0.  The quotient is
    correctly rounded on every route and at every power:

    * an exact value, the coefficient of x^power at x = 0 or the Fraction
      a(x) / x^power of a pure polynomial, is rounded once;
    * otherwise ``_enclosures`` gives (T, E, F, d) for a(x)/x^(power - d),
      and with x = p / 2^s both ends (T -+ E) 2^(s d - F) / p^d of the
      quotient are rounded once each, from the integers; precision grows
      until they round to one double and |T| > E, so that the interval
      excludes 0 (Ziv's rounding test on the quotient itself).

    Neither a(x) nor x^power has to be a double.  Raises NumericalFailure
    when the quotient overflows a double, or is nonzero and rounds to 0.0.
    """
    if power < 0:
        raise UsageError("power must be non-negative")
    x = _finite(x)
    if a.is_zero():
        if x == 0.0 and power > 0:
            raise UsageError("0/0 at x=0 for the zero element")
        return 0.0
    exact = _exact_value(a, x, power)
    if exact is not None:
        return _checked_double(exact.numerator, exact.denominator, 0, "value at x={!r}", x)
    return _rounded(_enclosures(a, x, power), x)


def tp_integral_over_power(a: TrigPoly, power: int, x: float) -> float | None:
    """The integral of a(t)/t^power from 0 to x as a double, correctly
    rounded, from the series form in the module docstring: the first value
    that passes the rounding test, None where |x| > R or where the tail
    stops the rounding test.

    UsageError where e = m0 - power + 1 <= 0 (the integral diverges at 0,
    m0 the vanishing order of ``a``).  None where ``a`` has no form (a term
    that fails _tail_bound's hypothesis, or a pure polynomial).
    """
    if power < 0:
        raise UsageError("power must be non-negative")
    x = _finite(x)
    form = _series_form(a)
    m0 = vanishing_order(a) if form is None else form[0]
    e = m0 - power + 1
    if e <= 0:
        raise UsageError(f"the integral of a/t^{power} diverges at 0 (vanishing order {m0})")
    if form is None:
        return None
    if x == 0.0:
        return 0.0
    return _rounded(_series_enclosures(form, e, x, 0, e), x)


def _rounded(enclosures, x: float) -> float | None:
    """The value of the first (T, E, F, d) of ``enclosures`` that passes
    Ziv's rounding test (``fixedpoint._ziv_double``) on T 2^-F / x^d: with
    x = p / 2^s both ends (T -+ E) 2^(s d - F) / p^d are rounded once each,
    from the integers.  None when the enclosures run out."""
    _, p, s, _, _ = _point_values(x)
    for T, E, F, d in enclosures:
        den = p**d
        if den < 0:
            T, den = -T, -den
        got = _ziv_double(T, E, den, s * d - F, "value at x={!r}", x)
        if got is not None:
            return got
    return None


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
