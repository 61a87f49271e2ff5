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
digit.  ``tp_eval_mp`` and ``tp_eval`` share three routes:

* below |x| = MACLAURIN_RADIUS (0.01), 0 included, the exact Maclaurin
  expansion is summed at 50 digits (it falls through only when its decay
  test fails, never at 0);
* otherwise a pure polynomial is summed exactly in the rationals;
* and any other element on a fixed-point kernel on Python ints.

``tp_eval`` rounds the first two routes' mpf value to a double (~1 ulp).

The kernel works at F fraction bits.  Each coefficient num/den is the
integer nearest to num 2^F / den, and the double x is the exact dyadic
p / 2^s.  It returns integers T and E with |T 2^-F - a(x)| <= E 2^-F,
E summed term by term in units of 2^-F:

* Horner's rule acc = (acc p >> s) + c per cos or sin polynomial: the
  leading coefficient is off by at most 1/2, and each step floors (below
  1) and adds a coefficient off by 1/2, so the error grows as
  e' = ceil(e |p| / 2^s) + 2 from e = 1.
* cos kx and sin kx come from one ``mpf_cos_sin`` of the exact kx at
  F + 20 bits, trusted to be within 1 ulp (2^-(F+20), as both are at most
  1); rounded to F fraction bits, each is off by at most 1/2 + 2^-20 < 1.
* A product (P C) >> F of a polynomial value P, off by e_P, with such a
  C adds e_P + (|P| >> F) + 2: |P| 2^-F from C, e_P |cos| <= e_P from P,
  and below 1 from the floor.  A k = 0 polynomial adds its e alone.

F starts at dps_to_prec(40) bits, plus enough 64-bit steps for the
coefficient magnitude sum at |x| to keep 40 digits where it is below
2^-64.  It grows with the digits, 40, 80, ..., 2560, until the caller's
test passes, and past the cap of 5000 digits NumericalFailure is raised:

* ``tp_eval_mp(a, x, rtol)`` accepts when (E + (|T| >> F) + 1) rd <=
  |T| rn for rtol = rn / rd exactly, the two extra terms covering the
  rounding of T 2^-F to the F-bit mpf it returns;
* ``tp_eval`` accepts when (T - E) 2^-F and (T + E) 2^-F round to the
  same double (Ziv's rounding test) and |T| > E, and that double is then
  a(x) correctly rounded (so a true zero is never accepted).

On every route a double that overflows, or that is 0.0 for a nonzero
value (an underflow), raises NumericalFailure.

The tables of both routes are built once per element (per F for the
kernel) and stored on the instance, outside the dataclass fields, so
``==`` and ``hash`` are unchanged.  There is no precision context: every
route computes at a precision passed to it as an argument, so no value
depends on mpmath's global precision.  The kernel keeps x = p / 2^s, its
Horner error counts and cos/sin(k x) per (F, k) in a one-entry memo of
the last abscissa, so the derivatives of f_n evaluated at one point share
one cos/sin evaluation per F.

The Maclaurin sum stops early without changing a bit.  Its table ends at
the last nonzero coefficient and carries a suffix bound per slot i, an
integer bound on log2 of max over j > i of |c_j| 2^(-6 (j - i - 1)).
Below MACLAURIN_RADIUS (< 2^-6) that bounds every later term through the
current power of x; once it is at most 1/8 ulp of the running total, no
later addition can move the total, and the final 2^-110 decay test would
pass, so the early return is what the full 64-slot loop returns.
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
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cos_sin,
    mpf_div,
    mpf_gt,
    mpf_mul,
    mpf_pow_int,
    mpf_shift,
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
# the kernel's working precisions in bits: 40, 80, ..., 2560 digits
_EVAL_PRECS = tuple(dps_to_prec(_EVAL_START_DPS << j)
                    for j in range((_EVAL_MAX_DPS // _EVAL_START_DPS).bit_length()))
_EVAL_RTOL = 1e-17
_EVAL_RTOL_FLOOR = 1e-30
_RND = round_nearest  # mp's default rounding, the one its mpf operators use

# Process-global state: the point memo of the fixed-point kernel (_point)
# and the tables compiled onto each element.  Neither is guarded by a lock,
# so evaluation makes no claim of thread safety.


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
    it in lowest terms: the numerator rounds before the division, whatever
    denominator the element shares."""
    g = math.gcd(num, den)
    return mpf_div(from_int(num // g, prec, _RND), from_int(den // g), prec, _RND)


def _fixed_form(a: TrigPoly):
    """(low, logs, degree, tables): the fixed-point form of ``a``, built once.

    logs holds (i, l) per power i of x with a nonzero coefficient, l the
    bit length of its largest numerator less that of the denominator, so
    lg(xe) = max (l + i xe) estimates log2 of the largest term at
    |x| < 2^xe.  low is the least xe with lg(xe) > -64 (lg grows with xe).
    tables maps F to the rows of _fixed_table.  Stored on the instance, so
    a lookup never hashes the element's numerators.
    """
    form = a.__dict__.get("_fixed_form")
    if form is None:
        top: dict[int, int] = {}
        for _, cpart, spart in a.terms:
            for part in (cpart, spart):
                for i, c in enumerate(part):
                    if c:
                        top[i] = max(top.get(i, 0), abs(c).bit_length())
        dlen = a.den.bit_length()
        logs = tuple((i, b - dlen) for i, b in top.items())
        low = min((-64 - l) // i + 1 if i else (-math.inf if l > -64 else math.inf)
                  for i, l in logs)
        form = a.__dict__["_fixed_form"] = (low, logs, a.max_degree(), {})
    return form


def _fixed_table(a: TrigPoly, F: int):
    """One (k, cos row, sin row) per harmonic of ``a`` at F fraction bits,
    built once: a row is None for an empty part, else (leading, the rest in
    Horner order), each num/den as the integer nearest to num 2^F / den."""
    tables = _fixed_form(a)[3]
    table = tables.get(F)
    if table is None:
        den, den2 = a.den, 2 * a.den

        def row(part):
            if not part:
                return None
            ints = [((c << (F + 1)) + den) // den2 for c in reversed(part)]
            return ints[0], tuple(ints[1:])

        table = tables[F] = tuple((k, row(c), row(s)) for k, c, s in a.terms)
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


def _to_fixed(v, F: int) -> int:
    """The raw mpf v as the integer nearest to v 2^F."""
    sign, man, exp, _ = v
    shift = exp + F
    n = man << shift if shift >= 0 else ((man >> (-shift - 1)) + 1) >> 1
    return -n if sign else n


def _fixed_value(a: TrigPoly, x: float, F: int):
    """(T, E) with |T 2^-F - a(x)| <= E 2^-F, on Python ints, by the error
    model of the module docstring (errs[j] is e after j Horner steps)."""
    degree = _fixed_form(a)[2]
    rows = _fixed_table(a, F)
    _, p, s, errs, trig = _point_values(x)
    while len(errs) <= degree:
        errs.append(-(-errs[-1] * abs(p) >> s) + 2)
    total = bound = 0
    for k, crow, srow in rows:
        if k:
            cos_sin = trig.get((F, k))
            if cos_sin is None:
                cos_sin = trig[F, k] = tuple(
                    _to_fixed(v, F) for v in mpf_cos_sin(from_man_exp(k * p, -s), F + 20, _RND))
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


def _eval_fixed(a: TrigPoly, x: float, accept):
    """accept(T, E, F) for the first working precision where it is not None.

    F is dps_to_prec(dps) fraction bits for dps = 40, 80, ... up to 5000
    (_EVAL_PRECS).  Where the largest term of the coefficient magnitude sum
    at |x| is below 2^-64 (by the estimate lg of _fixed_form), F also
    carries -lg rounded up to a multiple of 64, so the sum keeps dps digits.
    """
    low, logs, _, _ = _fixed_form(a)
    xe = math.frexp(x)[1]  # |x| < 2^xe
    extra = 0 if xe >= low else -(max(l + i * xe for i, l in logs) >> 6) << 6
    for prec in _EVAL_PRECS:
        F = prec + extra
        got = accept(*_fixed_value(a, x, F), F)
        if got is not None:
            return got
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


def _mpf_route(a: TrigPoly, x: float):
    """The value of ``a`` (nonzero) at ``x`` from the Maclaurin route or,
    for a pure polynomial, the exact one; None for the fixed-point kernel."""
    if abs(x) < MACLAURIN_RADIUS:
        got = _eval_maclaurin_mp(a, x)
        if got is not None:
            return got
    if a.terms[-1][0]:  # harmonics sorted by k: not all k = 0
        return None
    # summed exactly (the kernel cannot certify a true zero), then rounded
    fx, val = Fraction(x), Fraction(0)
    for c in reversed(a.terms[0][1]):
        val = val * fx + c
    return mp.make_mpf(_raw_coeff(val.numerator, val.denominator * a.den, dps_to_prec(40)))


def tp_eval_mp(a: TrigPoly, x: float, rtol: float = _EVAL_RTOL):
    """The certified mpf value of ``a`` at ``x``.

    Below |x| = MACLAURIN_RADIUS, 0 included, the exact Maclaurin expansion
    is summed at 50 digits (there the harmonic form cancels to a value
    exponentially smaller than its terms).  Elsewhere, or when its decay
    test fails, a pure polynomial is summed exactly and any other element
    on the fixed-point kernel, at growing precision until its error bound
    E, plus the rounding of T to F bits, is at most rtol |T|, compared
    exactly.  rtol is clamped at 1e-30; the Maclaurin route is good to
    ~1e-33.
    """
    x = _finite(x)
    rtol = max(float(rtol), _EVAL_RTOL_FLOOR)
    if a.is_zero():
        return mp.make_mpf(fzero)
    got = _mpf_route(a, x)
    if got is not None:
        return got
    rn, rd = rtol.as_integer_ratio()

    def within_rtol(total, bound, F):
        mag = abs(total)
        if (bound + (mag >> F) + 1) * rd <= mag * rn:
            return mp.make_mpf(from_man_exp(total, -F, F, _RND))
        return None

    return _eval_fixed(a, x, within_rtol)


def tp_eval(a: TrigPoly, x: float) -> float:
    """Numeric value of ``a`` at ``x`` as a double.

    On the fixed-point kernel it is the correctly rounded value: precision
    grows until both ends of the certified interval [T - E, T + E] 2^-F
    round to one double and the interval excludes 0.  The Maclaurin and
    exact-polynomial routes round their mpf value, correct to ~1 ulp.
    Raises NumericalFailure when the value overflows a double, or is
    nonzero and rounds to 0.0.
    """
    x = _finite(x)
    if a.is_zero():
        return 0.0
    got = _mpf_route(a, x)
    if got is not None:
        return _to_float(got, x)

    def one_double(total, bound, F):
        lo = _nearest_double(total - bound, F)
        if lo != _nearest_double(total + bound, F) or abs(total) <= bound:
            return None  # two doubles, or not certified nonzero
        return _checked_double(lo, True, x)

    return _eval_fixed(a, x, one_double)


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


def _nearest_double(n: int, F: int) -> float:
    """n 2^-F rounded to the nearest double (int division rounds
    correctly), infinite beyond the double range."""
    try:
        return n / (1 << F)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _checked_double(out: float, nonzero: bool, x: float) -> float:
    """out, or NumericalFailure when it overflowed or when a nonzero value
    rounded to 0.0."""
    if not math.isfinite(out):
        raise NumericalFailure(f"value at x={x!r} overflows double precision")
    if out == 0.0 and nonzero:
        raise NumericalFailure(f"value at x={x!r} underflows double precision")
    return out


def _to_float(v, x: float) -> float:
    return _checked_double(to_float(v._mpf_, rnd=_RND), v._mpf_ != fzero, x)


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
