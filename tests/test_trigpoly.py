"""Exact-ring tests: closed forms, structural identities, validated evaluation."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import islice

import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp, from_rational

from chebcrit.errors import NumericalFailure, UsageError
from chebcrit.fixedpoint import _cos_sin, _half_pi
from chebcrit.trigpoly import (
    _EVAL_PRECS,
    _SERIES_TERMS,
    _START_BITS,
    MACLAURIN_RADIUS,
    TrigPoly,
    _enclosures,
    _fixed_table,
    _fixed_value,
    _radius,
    _series_enclosures,
    _series_form,
    _series_value,
    _tail_bound,
    derivatives,
    fn_derivatives,
    format_trigpoly,
    from_json_dict,
    maclaurin,
    spherical_fn,
    to_json_dict,
    tp_add,
    tp_cos,
    tp_diff,
    tp_dot,
    tp_eval,
    tp_eval_mp,
    tp_eval_over_power,
    tp_from_poly,
    tp_integral_over_power,
    tp_mul,
    tp_neg,
    tp_scale,
    tp_sin,
    tp_sub,
    tp_term,
    tp_x,
    tp_zero,
    vanishing_order,
)


def bisect_root(f, lo, hi, iters=200):
    """Independent root oracle: plain bisection on a sign change."""
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# first positive zero of sin x - x cos x, frozen from the bisection oracle
F1_FIRST_ZERO = bisect_root(lambda t: math.sin(t) - t * math.cos(t), 4.0, 5.0)


def random_element(rng, depth=3):
    gens = [tp_x(), tp_sin(), tp_cos(), tp_from_poly([Fraction(rng.randint(-3, 3), rng.randint(1, 4))])]
    if depth == 0:
        return rng.choice(gens)
    a = random_element(rng, depth - 1)
    b = random_element(rng, depth - 1)
    op = rng.choice(["add", "mul", "sub"])
    if op == "add":
        return tp_add(a, b)
    if op == "sub":
        return tp_sub(a, b)
    return tp_mul(a, b)


# ---------------------------------------------------------------- add

def test_add_inverse_is_zero():
    s = tp_sin()
    assert tp_add(s, tp_neg(s)).is_zero()


def test_f1_plus_xcos_is_sin():
    f1 = spherical_fn(1)
    assert tp_add(f1, tp_term(1, (0, 1), ())) == tp_sin()


def test_f2_plus_3xcos():
    f2 = spherical_fn(2)
    expected = tp_term(1, (), (3, 0, -1))  # (3 - x^2) sin x
    assert tp_add(f2, tp_term(1, (0, 3), ())) == expected


# ---------------------------------------------------------------- mul

def test_sin_squared_double_angle():
    got = tp_mul(tp_sin(), tp_sin())
    expected = tp_add(tp_from_poly([Fraction(1, 2)]),
                      tp_term(2, (Fraction(-1, 2),), ()))
    assert got == expected


def test_xsin_times_cos():
    got = tp_mul(tp_term(1, (), (0, 1)), tp_cos())
    expected = tp_term(2, (), (0, Fraction(1, 2)))  # (x/2) sin 2x
    assert got == expected


def test_dot_equals_the_chain_of_products_and_sums():
    # one reduction over the lcm of the denominators gives the canonical
    # element that tp_mul, tp_neg and tp_add give pair by pair, also with a
    # zero factor among the pairs; the empty sum is the zero element
    rng = random.Random(36)
    for _ in range(40):
        products = []
        for _ in range(rng.randint(1, 4)):
            scale = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 12))
            a = tp_scale(random_element(rng, 2), scale)
            b = random_element(rng, 2) if rng.random() < 0.8 else tp_zero()
            products.append((rng.choice((1, -1)), a, b))
        want = tp_zero()
        for sign, a, b in products:
            term = tp_mul(a, b)
            want = tp_add(want, term if sign > 0 else tp_neg(term))
        assert tp_dot(products) == want
        assert tp_dot(iter(products)) == want
    assert tp_dot([]) == tp_zero() and tp_dot([]).den == 1
    assert tp_dot([(1, tp_sin(), tp_zero())]) == tp_zero()


def test_f1_squared_pointwise():
    f1 = spherical_fn(1)
    sq = tp_mul(f1, f1)
    x = 2.0
    direct = (math.sin(x) - x * math.cos(x)) ** 2
    assert abs(tp_eval(sq, x) - direct) <= 1e-14 * direct


# ---------------------------------------------------------------- diff

def test_diff_sin_is_cos():
    assert tp_diff(tp_sin()) == tp_cos()


def test_diff_f1_is_x_f0():
    assert tp_diff(spherical_fn(1)) == tp_mul(tp_x(), spherical_fn(0))


def test_diff_product_rule_example():
    # d/dx (x^2 cos 2x) = 2x cos 2x - 2 x^2 sin 2x
    got = tp_diff(tp_term(2, (0, 0, 1), ()))
    assert got == tp_term(2, (0, 2), (0, 0, -2))


def test_diff_is_a_derivation_on_random_elements():
    rng = random.Random(20240811)
    for _ in range(25):
        a = random_element(rng)
        b = random_element(rng)
        lhs = tp_diff(tp_mul(a, b))
        rhs = tp_add(tp_mul(tp_diff(a), b), tp_mul(a, tp_diff(b)))
        assert tp_sub(lhs, rhs).is_zero()


# ---------------------------------------------------------------- canonical form

def test_canonical_uniqueness_random():
    rng = random.Random(7)
    elements = [random_element(rng) for _ in range(20)]
    for a in elements:
        assert tp_sub(a, a).is_zero()
    for a in elements:
        for b in elements:
            assert tp_sub(a, b).is_zero() == (a == b)


def test_canonical_denominator_is_reduced_and_positive():
    # integer numerators over one denominator: gcd 1, den > 0, zero has den 1
    rng = random.Random(15)
    elements = [random_element(rng) for _ in range(30)]
    elements += [tp_scale(e, Fraction(-6, 4)) for e in elements] + [tp_zero()]
    for a in elements:
        nums = [v for _, c, s in a.terms for v in (*c, *s)]
        assert a.den > 0 and math.gcd(a.den, *nums) == 1
        assert a.terms or a.den == 1
        assert tp_scale(tp_scale(a, Fraction(3, 7)), Fraction(7, 3)) == a
        assert from_json_dict(to_json_dict(a)) == a
    assert tp_sub(tp_mul(tp_sin(), tp_sin()), tp_mul(tp_sin(), tp_sin())) == TrigPoly((), 1)


# ---------------------------------------------------------------- spherical functions

def test_f0_is_sin():
    assert spherical_fn(0) == tp_sin()


def test_f2_closed_form():
    assert spherical_fn(2) == tp_term(1, (0, -3), (3, 0, -1))


def test_f3_closed_form_from_recurrence():
    # one recurrence step: (15 - 6x^2) sin x + (x^3 - 15x) cos x
    assert spherical_fn(3) == tp_term(1, (0, -15, 0, 1), (15, 0, -6))


def test_spherical_ode_structural():
    # x f'' - 2n f' + x f = 0 in the ring
    x = tp_x()
    for n in range(0, 11):
        f, f1, f2 = fn_derivatives(n, 2)
        resid = tp_add(tp_sub(tp_mul(x, f2), tp_scale(f1, 2 * n)), tp_mul(x, f))
        assert resid.is_zero(), f"ODE fails for n={n}"


def test_fn_prime_recurrence_structural():
    x = tp_x()
    for n in range(1, 11):
        lhs = tp_diff(spherical_fn(n))
        assert tp_sub(lhs, tp_mul(x, spherical_fn(n - 1))).is_zero()


def test_vanishing_order():
    for n in range(0, 9):
        f = spherical_fn(n)
        assert vanishing_order(f) == 2 * n + 1
        coeffs = maclaurin(f, 2 * n + 2)
        assert all(c == 0 for c in coeffs[: 2 * n + 1])
        assert coeffs[2 * n + 1] != 0


def test_spherical_bounds():
    with pytest.raises(UsageError):
        spherical_fn(17)
    with pytest.raises(UsageError):
        spherical_fn(-1)


# ---------------------------------------------------------------- evaluation

def test_eval_f0_at_half_pi():
    assert abs(tp_eval(spherical_fn(0), math.pi / 2) - 1.0) <= 1e-15


def test_eval_f2_at_pi():
    # closed form gives (3 - pi^2) sin pi - 3 pi cos pi = 3 pi
    got = tp_eval(spherical_fn(2), math.pi)
    assert abs(got - 3 * math.pi) <= 1e-13 * (3 * math.pi)


def test_eval_f1_at_its_first_zero():
    assert abs(tp_eval(spherical_fn(1), F1_FIRST_ZERO)) <= 1e-12


def test_eval_matches_math_at_moderate_x():
    f2 = spherical_fn(2)
    for x in (0.3, 1.7, 5.0, 13.0, 29.5):
        direct = (3 - x * x) * math.sin(x) - 3 * x * math.cos(x)
        assert abs(tp_eval(f2, x) - direct) <= 1e-12 * max(1.0, abs(direct))


def test_eval_near_zero_uses_exact_series():
    # f_8 ~ x^17/17!! near zero: sign and magnitude must survive cancellation
    f8 = spherical_fn(8)
    dfact = 1.0
    for k in range(3, 18, 2):
        dfact *= k
    for x in (1e-3, 5e-3, 9e-3, 0.02):
        got = tp_eval(f8, x)
        lead = x ** 17 / dfact
        assert got > 0
        assert abs(got - lead) <= 1e-4 * lead


def test_eval_polynomial_exact_zero():
    p = tp_from_poly([-1, 0, 1])  # x^2 - 1
    assert tp_eval(p, 1.0) == 0.0
    assert tp_eval(p, 2.0) == 3.0


def test_eval_rejects_nonfinite():
    with pytest.raises(UsageError):
        tp_eval(tp_sin(), float("inf"))
    with pytest.raises(UsageError):
        tp_eval(tp_sin(), float("nan"))


@pytest.mark.parametrize("x", [float("inf"), float("nan")])
def test_eval_mp_rejects_nonfinite(x):
    # a usage error (exit 2), as tp_eval gives, not a numerical failure
    with pytest.raises(UsageError):
        tp_eval_mp(spherical_fn(2), x)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("power", [0, 1])
def test_eval_over_power_rejects_nonfinite_for_the_zero_element(x, power):
    # the zero element is no exception to the finiteness check
    with pytest.raises(UsageError, match="finite"):
        tp_eval_over_power(tp_zero(), power, x)
    with pytest.raises(UsageError, match="finite"):
        tp_eval(tp_zero(), x)
    with pytest.raises(UsageError, match="finite"):
        tp_eval_mp(tp_zero(), x)


def _contract_cases():
    """A seeded set of (element, x) for the tp_eval/tp_eval_mp contract:
    f_n, f_n^(k), v(f_n), pure polynomials, the planted element and the
    zero element, at x on both sides of MACLAURIN_RADIUS, of both signs,
    and at +-0."""
    from chebcrit.determinants import symbolic_v

    rng = random.Random(11)
    elements = [tp_zero(), tp_from_poly([-1, 0, 1]), tp_from_poly([1, 0, 0, 1]), PLANTED]
    for n in range(0, 13, 3):
        k = rng.randint(1, 2 * n + 2)
        elements += [spherical_fn(n), fn_derivatives(n, k)[k], symbolic_v(n)]
    fixed = (0.0, -0.0, 3e-4, 0.0042, -0.005, 0.0099, 0.01, -0.0101, 0.7, -3.7, 29.5)
    cases = []
    for a in elements:
        xs = list(fixed)
        xs += [rng.choice((-1, 1)) * 10 ** rng.uniform(-4, 1.5) for _ in range(6)]
        cases += [(a, x) for x in xs]
    return cases


def test_eval_is_the_rounding_of_eval_mp():
    for a, x in _contract_cases():
        want = float(_mpf(tp_eval_mp(TrigPoly(a.terms, a.den), x)))
        assert tp_eval(TrigPoly(a.terms, a.den), x).hex() == want.hex(), (format_trigpoly(a), x)


def test_eval_at_zero_is_the_exact_constant_term():
    # x = 0 takes the exact route: its value is the exact a(0), the sum
    # of the constant cos coefficients, rounded once
    from chebcrit.determinants import admissible_j, symbolic_minor, symbolic_v, symbolic_w

    elements = [d for n in range(17) for d in fn_derivatives(n, 2 * n + 4)]
    elements += [symbolic_minor(n, j) for n in range(5) for j in admissible_j(n)]
    elements += [symbolic_v(n) for n in range(5)] + [symbolic_w(n) for n in range(5)]
    assert len(elements) == 382
    for a in elements:
        want = float(Fraction(sum(c[0] for _, c, _ in a.terms if c), a.den))
        for x in (0.0, -0.0):
            assert tp_eval(a, x).hex() == want.hex(), (format_trigpoly(a), x)


def test_eval_at_zero_reads_one_maclaurin_coefficient():
    # x = 0 returns the coefficient of x^p without building the element's
    # Maclaurin form; below the vanishing order the quotient is singular
    f = spherical_fn(4)
    f = TrigPoly(f.terms, f.den)  # a fresh element: no form cached
    for p in range(10):
        assert tp_eval_over_power(f, p, 0.0) == float(maclaurin(f, p + 1)[p])
    assert "_series_form" not in f.__dict__
    with pytest.raises(UsageError, match="vanishing order 9"):
        tp_eval_over_power(f, 10, 0.0)


def test_eval_mp_rounds_exact_values_to_the_first_precision():
    # x = 0 and a pure polynomial give the exact value as the pair of
    # from_rational at _EVAL_PRECS[0] bits (136), ties to even: the last
    # bit of 1 + ... at 136 bits is 2^-135
    down, up = 1 + Fraction(1, 2**136), 1 + Fraction(3, 2**136)  # two ties
    past = down + Fraction(1, 2**200)  # just past a tie
    for value in (down, up, past, -past, Fraction(1, 3), Fraction(-10**50, 7)):
        want = from_rational(value.numerator, value.denominator, _EVAL_PRECS[0], "n")
        poly = tp_from_poly([value])
        for a, x in ((poly, 0.5), (tp_add(tp_sin(), poly), 0.0)):
            assert _mpf(tp_eval_mp(a, x)) == mp.make_mpf(want), (value, x)
    assert tp_eval_mp(tp_zero(), 0.7) == (0, 0)


def test_exact_values_are_rounded_once():
    # c lies just above the midpoint of 1 and 1 + 2^-52: rounded to 40
    # digits first, it lands on the midpoint, and the tie then goes to 1.0
    c = 1 + Fraction(1, 2**53) + Fraction(1, 2**200)
    want = 1 + 2.0**-52
    bump = tp_from_poly([c - 1])
    assert tp_eval(tp_from_poly([c]), 0.5) == want  # a pure polynomial
    assert tp_eval(tp_add(tp_cos(), bump), 0.0) == want  # x = 0
    assert tp_eval_over_power(tp_mul(tp_x(2), tp_add(tp_cos(), bump)), 2, 0.0) == want


def test_eval_over_power_limit():
    # f_n / x^(2n+1) -> 1/(2n+1)!! at 0
    f2 = spherical_fn(2)
    assert abs(tp_eval_over_power(f2, 5, 0.0) - 1.0 / 15.0) <= 1e-16
    got = tp_eval_over_power(f2, 5, 1e-3)
    assert abs(got - 1.0 / 15.0) <= 1e-6 / 15.0
    # consistency with the direct quotient away from 0
    x = 0.5
    assert abs(tp_eval_over_power(f2, 5, x) - tp_eval(f2, x) / x**5) <= 1e-15


def test_eval_over_power_is_correctly_rounded_against_a_3000_bit_reference():
    # a(x)/x^power rounded once at every power 1..30, on both routes and on
    # both sides of the vanishing order: f_0..f_7, v(f_1)..v(f_6) and f_5'''
    # at five seeded +-x, log-uniform in [1e-3, 30], 2,250 quotients.
    # Dividing the double a(x) by the double x^power rounds twice
    from chebcrit.determinants import symbolic_v

    rng = random.Random(23)
    elements = [spherical_fn(n) for n in range(8)] + [symbolic_v(n) for n in range(1, 7)]
    elements.append(fn_derivatives(5, 3)[3])
    count = 0
    for a in elements:
        for _ in range(5):
            x = rng.choice((-1, 1)) * 10 ** rng.uniform(-3, math.log10(30))
            value = _ref_value(a, x, 3000)
            for power in range(1, 31):
                with mp.workprec(3000):
                    want = _nearest_double(value / mp.mpf(x) ** power)
                assert tp_eval_over_power(a, power, x) == want, (format_trigpoly(a)[:40], x, power)
                count += 1
    assert count == 2250


@pytest.mark.parametrize("a,power,x", [
    (tp_sin(), 2, 1e-170),              # x^2 underflows, the quotient ~1e170 does not
    (tp_from_poly([0, 1]), 3, 1e120),   # x^3 overflows, the quotient ~1e-240 does not
    (spherical_fn(2), 2, 1e200),        # f_2(x) overflows, the quotient ~0.644 does not
], ids=["sin-tiny-x", "poly-huge-x", "f2-huge-x"])
def test_eval_over_power_is_in_range_where_its_factors_are_not(a, power, x):
    with mp.workprec(3000):
        want = _nearest_double(_ref_value(a, x, 3000) / mp.mpf(x) ** power)
    assert tp_eval_over_power(a, power, x) == want


@pytest.mark.parametrize("evaluate,a,power,x,what", [
    (tp_eval_over_power, tp_sin(), 3, 1e-170, "overflows"),              # ~1e340, series form
    (tp_eval_over_power, spherical_fn(2), 7, -1e-170, "overflows"),      # ~-x^-2 / 15, series form
    (tp_eval_over_power, tp_from_poly([0, 1]), 3, 1e200, "underflows"),  # ~1e-400, exact
    (tp_eval_over_power, spherical_fn(2), 4, 1e300, "underflows"),       # ~1e-600 sin x, harmonic
    # the integral of f_2^2 / t^7 from 0 to x is ~x^4 / 900, ~1e-803
    (tp_integral_over_power, tp_mul(spherical_fn(2), spherical_fn(2)), 7, 1e-200, "underflows"),
], ids=["sin-tiny-x", "f2-tiny-x", "poly-huge-x", "f2-huge-x", "f2-squared-integral-tiny-x"])
def test_eval_over_power_out_of_range_raises_numerical_failure(evaluate, a, power, x, what):
    with pytest.raises(NumericalFailure, match=f"{what} double precision"):
        evaluate(a, power, x)


# ---------------------------------------------------------------- compiled evaluation

# Coefficients with 603-bit numerators: mp.mpf(num) rounds the numerator
# before the division, so an exact rational conversion differs from
# mp.mpf(num) / den in the last bit for some of them at 40, 50, 80 and 160
# digits alike (checked in test_planted_coefficients_are_double_rounding_traps);
# the kernel rounds each num/den once, to F fraction bits.  The leading
# Maclaurin coefficient of PLANTED is _WIDE[0].
_WIDE = [Fraction(3**380 + i, d) for i, d in zip(range(1, 9), (7, 11, 13, 17) * 2)]
PLANTED = tp_add(tp_term(2, _WIDE[:4], _WIDE[4:]), tp_from_poly([0, Fraction(1, 3), _WIDE[1]]))


def _mpf(pair):
    """The exact mpf of a dyadic pair (man, exp)."""
    return mp.make_mpf(from_man_exp(*pair))


def _compiled_cases():
    from chebcrit.determinants import symbolic_v

    return [("f2", spherical_fn(2)), ("f5'''", fn_derivatives(5, 3)[3]),
            ("f6^(12)", fn_derivatives(6, 12)[12]), ("v(f3)", symbolic_v(3)),
            ("planted", PLANTED)]


def test_planted_coefficients_are_double_rounding_traps():
    assert maclaurin(PLANTED, 1)[0] == _WIDE[0]
    for dps in (40, 50, 80, 160):
        with mp.workdps(dps):
            assert any(from_rational(c.numerator, c.denominator, mp.prec, "n")
                       != (mp.mpf(c.numerator) / c.denominator)._mpf_ for c in _WIDE)


@pytest.mark.parametrize("name,a", _compiled_cases())
def test_compiled_maclaurin_route_is_bit_identical(name, a):
    # the stopped series row against _ref_series_row at every scale r from
    # -13 to 5, x = +-(3/4) 2^r: bit-identical (T, E), a rest past J below
    # one unit and past J - 1 not below 1/8 (the integer test's slack), and
    # T within E of 2^F times the exact sum of all 128 terms
    extra = _series_form(a).extra
    F = _EVAL_PRECS[0] + extra
    for r in range(-13, 6):
        x = (-1) ** r * 0.75 * 2.0**r
        form = _series_form(_fresh(a))
        T, E = _series_value(form, x, F, 0)
        J = len(_row_of(form, x, F)[1])
        assert (T, E) == _ref_series_row(a, x, F, J), r
        assert _series_rest(a, x, F, J) < 1, r
        assert J == 0 or _series_rest(a, x, F, J - 1) >= Fraction(1, 8), r
        assert abs(T - _series_sum(a, x) * 2**F) <= E, r
    # the (T, E, F) the caller's test sees below MACLAURIN_RADIUS: the row's
    # (T, E) scaled to a(x)/x^power on Fractions, whatever the caller's
    # precision
    m0, K = form.m0, form.K
    for outer_dps in (40, 80, 160):
        for x in (3e-4, 1e-3, -0.0042, 0.0099):
            for power in (0, m0):
                with mp.workdps(outer_dps):
                    *got, d = next(_enclosures(_fresh(a), x, power))
                T, E = _series_value(_series_form(_fresh(a)), x, F, 0)
                assert d == 0
                want = _scaled_to_power(T, E, F, x, m0 - power, K)
                assert tuple(got) == want, (outer_dps, x, power)


@pytest.mark.parametrize("name,a", _compiled_cases())
def test_series_tail_is_rounded_up_exactly(name, a):
    # where K' |x|^128 2^F is about 2^b units, b from 0 to 60, each
    # enclosure of the stream, plain and weighted as the integral's, adds
    # the tail rounded up exactly: the bit-length shortcut that sets it to
    # 1 below one unit may not swallow a larger one
    form = _series_form(_fresh(a))
    m0, K, F = form.m0, form.K, _EVAL_PRECS[0] + form.extra
    lg_k = math.log2(K)
    for w, e in ((0, m0), (m0 + 1, m0 + 1)):
        tail_k = K / (w + _SERIES_TERMS) if w else K
        for b in (0, 1, 8, 30, 60):
            x = 2.0 ** ((b - F - lg_k) / _SERIES_TERMS)
            got = next(_series_enclosures(form, e, x, 0, w))
            T, E = _series_value(form, x, F, w)
            assert got == (*_scaled_to_power(T, E, F, x, e, tail_k), 0), (w, b)


@pytest.mark.parametrize("name,a", _compiled_cases())
def test_compiled_harmonic_route_is_bit_identical(name, a):
    # the kernel's (T, E) against _ref_fixed, written from the error model
    a = _fresh(a)
    for F in _EVAL_PRECS[:3]:
        for x in (0.013, 0.7, 3.7, 11.0, 29.5):
            assert _fixed_value(a, x, F) == _ref_fixed(a, x, F), (F, x)


def test_compiled_table_is_per_precision():
    # one table per working precision, each coefficient num/den the integer
    # nearest to num 2^F / den, in Horner order (highest power first)
    for _, a in _compiled_cases():
        a = _fresh(a)
        for F in _EVAL_PRECS[:2]:
            degree, table = _fixed_table(a, F)
            assert degree == a.max_degree()
            assert [k for k, _, _ in table] == [k for k, _, _ in a.terms]
            for (_, crow, srow), (_, cpart, spart) in zip(table, a.terms):
                for row, part in ((crow, cpart), (srow, spart)):
                    if not part:
                        assert row is None
                        continue
                    lead, rest = row
                    assert len(rest) + 1 == len(part)
                    for got, num in zip((lead, *rest), reversed(part)):
                        assert abs(got - Fraction(num << F, a.den)) <= Fraction(1, 2), (F, num)
        assert _compiled_precisions(a) == list(_EVAL_PRECS[:2])


def test_compiled_public_entry_points_match_reference():
    for _, a in _compiled_cases():
        for x in (0.004, 0.5, 7.25):
            ref = _ref_value(a, x)
            assert _within_rtol(_mpf(tp_eval_mp(_fresh(a), x)), ref, 1e-30), x
            assert tp_eval(_fresh(a), x) == _nearest_double(ref), x


def test_compiled_tables_leave_equality_and_hash_alone():
    a = TrigPoly(PLANTED.terms, PLANTED.den)
    b = TrigPoly(PLANTED.terms, PLANTED.den)
    tp_eval(a, 0.005)
    tp_eval(a, 2.0)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


# ---------------------------------------------------------------- the fixed-point kernel

@lru_cache(maxsize=None)
def _ref_value(a, x, prec=2000):
    """a(x) at ``prec`` bits through mpf operators: x and every numerator
    exact, one rounding per coefficient num/den, cos and sin kx at ``prec``
    bits."""
    with mp.workprec(prec):
        xm = mp.mpf(x)
        total = mp.mpf(0)
        for k, cpart, spart in a.terms:
            for part, trig in ((cpart, mp.cos), (spart, mp.sin)):
                if part:
                    acc = mp.mpf(0)
                    for c in reversed(part):
                        acc = acc * xm + mp.mpf(c) / a.den
                    total += acc if k == 0 else acc * trig(k * xm)
        return total


def _ref_fixed(a, x, F):
    """(T, E) of the fixed-point kernel, from its error model on Fractions:
    coefficients rounded to the nearest multiple of 2^-F, cos/sin kx the
    integers of _cos_sin (whose bound test_cos_sin_is_within_one_unit
    checks), every product floored to one, and E summing 1 for the leading
    coefficient, 2 per Horner step on top of the error carried through |x|,
    and |P| 2^-F + 2 per product with cos or sin."""
    xf = Fraction(x)
    p, s = xf.numerator, xf.denominator.bit_length() - 1
    unit = 2 ** F
    total = bound = 0
    for k, cpart, spart in a.terms:
        for part, C in zip((cpart, spart), _cos_sin(k * p, s, F)):
            if not part:
                continue
            acc = err = 0
            for i, num in enumerate(reversed(part)):
                c = math.floor(Fraction(num * unit, a.den) + Fraction(1, 2))
                acc = math.floor(acc * xf) + c
                err = 1 if i == 0 else math.ceil(err * abs(xf)) + 2
            if k == 0:
                total, bound = total + acc, bound + err
                continue
            total += math.floor(Fraction(acc * C, unit))
            bound += err + abs(acc) // unit + 2
    return total, bound


def _series_coefficients(a, w=0):
    """The exact Maclaurin coefficients c_j of a/x^m0, j < _SERIES_TERMS,
    each divided by w + j where w > 0: the integral's weights."""
    m0 = vanishing_order(a)
    cs = maclaurin(a, m0 + _SERIES_TERMS)[m0:]
    return [c / (w + j) for j, c in enumerate(cs)] if w else list(cs)


def _scale_of(x):
    """The r with 2^(r-1) < |x| <= 2^r."""
    xf = abs(Fraction(x))
    return (xf.numerator - 1).bit_length() - (xf.denominator.bit_length() - 1)


def _row_of(form, x, F, w=0):
    """The Horner row the series form holds for (x, F) and weight w."""
    return form.rows[w, F, _scale_of(x)]


def _ref_series_row(a, x, F, J, w=0):
    """(T, E) of the series row kept through c_J at (x, F), from its
    definition on Fractions: each c_j 2^(F + r j) rounded to the nearest
    integer, one floor per Horner step in u = x / 2^r, and E = floor(3J/2)
    + 2, 1/2 + 1.5 J units of roundoff and one for the rest."""
    r = _scale_of(x)
    u = Fraction(x) / Fraction(2) ** r
    coeffs = _series_coefficients(a, w)
    acc = 0
    for j in range(J, -1, -1):
        nearest = math.floor(coeffs[j] * Fraction(2) ** (F + r * j) + Fraction(1, 2))
        acc = math.floor(acc * u) + nearest
    return acc, 3 * J // 2 + 2


def _series_rest(a, x, F, J, w=0):
    """The sum of |c_j| 2^(F + r j) over J < j < _SERIES_TERMS, in units."""
    r = _scale_of(x)
    return sum(abs(c) * Fraction(2) ** (F + r * j)
               for j, c in enumerate(_series_coefficients(a, w)) if j > J)


def _series_sum(a, x, w=0):
    """The exact sum of all _SERIES_TERMS terms c_j x^j."""
    xf = Fraction(x)
    return sum(c * xf**j for j, c in enumerate(_series_coefficients(a, w)))


def _nearest_double(v):
    """The double nearest to the mpf v (int division rounds correctly, also
    below the normal range)."""
    man, exp = int(v.man), int(v.exp)
    n = -man if v < 0 else man
    return float(n << exp) if exp >= 0 else n / (1 << -exp)


def _bound_holds(T, E, F, ref):
    with mp.workprec(2000):
        return abs(mp.ldexp(T, -F) - ref) <= mp.ldexp(E, -F)


def _within_rtol(got, ref, rtol):
    with mp.workprec(2000):
        return abs(got - ref) <= abs(ref) * mp.mpf(rtol)


def _scaled_to_power(T, E, F, x, e, K):
    """The series row's (T, E, F) for Q at x, turned into those of
    x^e (Q(x) + t), |t| <= K |x|^128, on Fractions: x = p / 2^s, the tail
    K |x|^128 2^F rounded up joins E, and all is divided by 2^r,
    2^r <= |p|^e < 2^(r+1), T rounded down and E up, plus 1 for T."""
    xf = Fraction(x)
    p, s = xf.numerator, xf.denominator.bit_length() - 1
    tail = math.ceil(K * abs(xf) ** _SERIES_TERMS * 2**F)
    r = (abs(p) ** e).bit_length() - 1
    unit = Fraction(2) ** r
    return (math.floor(T * p**e / unit), math.ceil((E + tail) * abs(p) ** e / unit) + 1,
            F + s * e - r)


def _reference_cases():
    """_certificate_cases() plus PLANTED, next to its zero included."""
    xs = (3e-4, 0.0042, 0.013, 0.7, 3.7, 11.0, 29.5, _root_of(PLANTED, 1.25, 1.3))
    return _certificate_cases() + [(PLANTED, x) for x in xs]


def _fresh(a):
    """A new instance of ``a``, with no compiled table."""
    return TrigPoly(a.terms, a.den)


def _compiled_precisions(a):
    """The fraction bit counts ``a`` has compiled tables for."""
    return sorted(a.__dict__.get("_fixed_tables", {}))


def _root_of(a, lo, hi):
    """A double next to the zero of the element a bracketed by (lo, hi)."""
    return bisect_root(lambda t: tp_eval(a, t), lo, hi)


def _forget_point():
    from chebcrit import trigpoly

    trigpoly._point = (None, 0, 0, [1], {})


def _count_cos_sin(monkeypatch):
    """The precision F of every _cos_sin call the kernel makes from now on."""
    from chebcrit import trigpoly

    calls = []
    plain = trigpoly._cos_sin

    def counting(m, s, F):
        calls.append(F)
        return plain(m, s, F)

    monkeypatch.setattr(trigpoly, "_cos_sin", counting)
    return calls


def _record_passes(monkeypatch):
    """(summed, x, F, (T, E)) of every pass from now on: a harmonic sum
    (_fixed_value, summed the element) or a series row sum (_series_value,
    summed the element's series form)."""
    from chebcrit import trigpoly

    passes = []
    for name in ("_fixed_value", "_series_value"):
        def recording(b, x, F, *weight, plain=getattr(trigpoly, name)):
            got = plain(b, x, F, *weight)
            passes.append((b, x, F, got))
            return got

        monkeypatch.setattr(trigpoly, name, recording)
    return passes


def _x_and_F(passes):
    """The (x, F) of each recorded pass."""
    return [(x, F) for _, x, F, _ in passes]


def _trig_xs():
    """Doubles at quadrant edges (the nearest to j pi/4), tiny and huge |x|."""
    with mp.workprec(200):
        edges = [float(mp.pi * j / 4) for j in range(1, 9)]
    return (5e-324, 1e-300, 1e-3, *edges, -30000.0, 1e6, 1e15, 1e80, 1e300)


@pytest.mark.parametrize("F", [*_EVAL_PRECS[:3], _EVAL_PRECS[4]])
def test_cos_sin_is_within_one_unit(F):
    # |C - 2^F cos kx| < 1 and |S - 2^F sin kx| < 1 against mpmath at F +
    # 2000 bits, which reduces kx with guard bits of its own
    for x in _trig_xs():
        xf = Fraction(x)
        p, s = xf.numerator, xf.denominator.bit_length() - 1
        for k in (1, 2, 7, 40):
            C, S = _cos_sin(k * p, s, F)
            with mp.workprec(F + 2000):
                y = k * mp.mpf(x)
                assert abs(C - mp.ldexp(mp.cos(y), F)) < 1, (x, k)
                assert abs(S - mp.ldexp(mp.sin(y), F)) < 1, (x, k)


@pytest.mark.parametrize("L", [32, 33, 64, 136, 156, 1000, 2149, 8527])
def test_half_pi_is_within_one_unit(L):
    with mp.workprec(L + 64):
        assert abs(_half_pi(L) - mp.ldexp(mp.pi, L - 1)) <= 1


@pytest.mark.parametrize("F", _EVAL_PRECS[:3])
def test_kernel_error_bound_holds_against_a_2000_bit_reference(F):
    # |T 2^-F - a(x)| <= E 2^-F at any x, also where the sum cancels
    # (x near 0, next to a zero) and the bound certifies nothing
    for a, x in _reference_cases():
        T, E = _fixed_value(a, x, F)
        assert _bound_holds(T, E, F, _ref_value(a, x)), (format_trigpoly(a)[:40], x)


def test_certified_values_and_dps_match_the_references(monkeypatch):
    # the pair is within 1e-30 of the 2000-bit reference; the sums stop at
    # the first precision where their reference passes the exact 1e-30
    # test, and every bound formed on the way holds against the reference.
    # Below MACLAURIN_RADIUS the series form's row is summed from its start
    # precision, and its (T, E, F) are scaled by x^m0 with the tail added
    passes = _record_passes(monkeypatch)
    rn, rd = (1e-30).as_integer_ratio()
    for a, x in _reference_cases():
        del passes[:]
        got = tp_eval_mp(a, x)
        assert _within_rtol(_mpf(got), _ref_value(a, x), 1e-30), (format_trigpoly(a)[:40], x)
        form = _series_form(a) if abs(x) < MACLAURIN_RADIUS else None
        assert passes
        assert passes[0][2] == _EVAL_PRECS[0] + (form.extra if form else 0)
        for i, (b, _, F, (T, E)) in enumerate(passes):
            if form is None:
                assert b is a
                assert (T, E) == _ref_fixed(a, x, F)
            else:
                assert b is form
                assert (T, E) == _ref_series_row(a, x, F, len(_row_of(form, x, F)[1]))
                T, E, F = _scaled_to_power(T, E, F, x, form.m0, form.K)
            assert _bound_holds(T, E, F, _ref_value(a, x)), (x, F)
            last = i == len(passes) - 1
            assert (E * rd <= abs(T) * rn) == last, (x, F)
        assert got == (T, -F)  # T 2^-F itself


def test_eval_is_correctly_rounded_against_a_2000_bit_reference():
    for a, x in _reference_cases():
        assert tp_eval(a, x) == _nearest_double(_ref_value(a, x)), (format_trigpoly(a)[:40], x)


def test_eval_is_correctly_rounded_in_the_cancellation_band():
    # the grid of `scan --what v --n 4 --range 0.05:0.2 --points 1000`, where
    # v(f_4) is ~1e-26 to ~1e-21 while its terms are O(1); a value accepted
    # at a relative error of 1e-17 need not be the nearest double here
    from chebcrit.determinants import symbolic_v

    v = symbolic_v(4)
    for i in range(1000):
        x = 0.05 + (0.2 - 0.05) * i / 999
        assert tp_eval(v, x) == _nearest_double(_ref_value(v, x)), x


def test_escalating_elements_beside_entries_certified_at_40_digits(monkeypatch):
    # at a double next to a zero of PLANTED (harmonic 2), or of f_6'''
    # (harmonic 1, like every f_n entry), that element escalates one
    # precision while the other entries of the stack certify at the first
    # (40 digits); cos and sin are computed once per (precision, harmonic)
    derivs = fn_derivatives(6, 12)
    calls = _count_cos_sin(monkeypatch)
    for escalating, x, want_calls in ((PLANTED, _root_of(PLANTED, 1.25, 1.3), 3),
                                      (derivs[3], _root_of(derivs[3], 6.5, 7.5), 2)):
        order = list(derivs[:2]) + [escalating] + list(derivs[2:])
        fresh = [_fresh(a) for a in order]
        _forget_point()
        del calls[:]
        for a, f in zip(order, fresh):
            assert _within_rtol(_mpf(tp_eval_mp(f, x)), _ref_value(a, x), 1e-30), x
        for a, f in zip(order, fresh):
            want = list(_EVAL_PRECS[:2]) if a is escalating else [_EVAL_PRECS[0]]
            assert _compiled_precisions(f) == want, x
        harmonics = {(F, k) for f in fresh for F in _compiled_precisions(f)
                     for k, _, _ in f.terms if k}
        assert len(calls) == len(harmonics) == want_calls, x


@pytest.mark.parametrize("n", range(7))
def test_entries_at_one_abscissa_share_cos_sin_bit_identically(n, monkeypatch):
    # the stack f_n, ..., f_n^(2n) evaluated in sequence, as minor_values
    # does, makes one _cos_sin call per working precision, and each value
    # is the one a fresh instance gives with no shared memo
    calls = _count_cos_sin(monkeypatch)
    counts = []
    for x in (0.013, 0.7, 3.7, 11.0):
        derivs = fn_derivatives(n, 2 * n)
        stack = [_fresh(d) for d in derivs]
        _forget_point()
        del calls[:]
        got = [(tp_eval_mp(f, x), tp_eval(f, x)) for f in stack]
        precisions = {F for f in stack for F in _compiled_precisions(f)}
        assert len(calls) == len(precisions), x
        counts.append(len(calls))
        for d, (g, gf) in zip(derivs, got):
            assert _within_rtol(_mpf(g), _ref_value(d, x), 1e-30), (x, d)
            assert gf == _nearest_double(_ref_value(d, x)), (x, d)
            _forget_point()
            assert (tp_eval_mp(_fresh(d), x), tp_eval(_fresh(d), x)) == (g, gf)
    assert 1 in counts


def test_point_memo_is_keyed_by_abscissa_and_precision():
    a = fn_derivatives(5, 3)[3]
    p0, p1, p2 = _EVAL_PRECS[:3]
    steps = ((3.7, p0), (0.7, p0), (3.7, p1), (3.7, p0), (0.7, p2), (0.7, p1))
    want = {}
    for x, F in steps:
        _forget_point()
        want[x, F] = _fixed_value(_fresh(a), x, F)
    _forget_point()
    for x, F in steps:  # interleaved, with the memo kept between the steps
        assert _fixed_value(a, x, F) == want[x, F] == _ref_fixed(a, x, F), (x, F)


@pytest.mark.parametrize("a,x,precs", [
    (tp_term(1, (0, 0, 0, 0, 1)), 1e-300, _EVAL_PRECS[:1]),  # x^4 cos x ~ 2^-3987
    (tp_scale(spherical_fn(3), Fraction(1, 10**400)), 3.7, _EVAL_PRECS[:5]),
    (tp_scale(spherical_fn(3), 10**400), 3.7, _EVAL_PRECS[:1]),
], ids=["tiny-x", "tiny-coefficients", "huge-coefficients"])
def test_kernel_gives_a_tiny_magnitude_sum_enough_fraction_bits(a, x, precs, monkeypatch):
    # near 0 the series form's leading coefficient sets the start (here
    # 1, so the first precision); elsewhere the harmonic form starts at the
    # first precision and climbs until the sum carries the digits: a value
    # of 10^-400 (2^-1329) certifies 1e-30 at the fifth, 2129 bits
    passes = _record_passes(monkeypatch)
    assert _within_rtol(_mpf(tp_eval_mp(_fresh(a), x)), _ref_value(a, x), 1e-30)
    assert _x_and_F(passes) == [(x, F) for F in precs]


def _maclaurin_start(a):
    """The first precision of the series route of ``a``."""
    return _EVAL_PRECS[0] + _series_form(a).extra


def test_maclaurin_start_puts_the_leading_coefficient_above_the_acceptance():
    # |c_m0| 2^F > 2^_START_BITS at the start F, which is the first
    # precision for every entry and v of n <= 6 and grows with n past that
    from chebcrit.determinants import symbolic_v

    for n in range(17):
        for a in (*fn_derivatives(n, 2 * n + 2), *([symbolic_v(n)] if n <= 12 else ())):
            if not a.terms[-1][0]:
                continue  # a pure polynomial is summed exactly
            m0 = _series_form(a).m0
            c = abs(maclaurin(a, m0 + 1)[m0])
            F = _maclaurin_start(a)
            assert c * 2**F > 2**_START_BITS, (n, m0)
            if F > _EVAL_PRECS[0]:
                assert c * 2 ** (F - 2) <= 2**_START_BITS, (n, m0)
            if n <= 6:
                assert F == _EVAL_PRECS[0], (n, m0)
    assert _maclaurin_start(spherical_fn(12)) == 147


def test_f12_near_zero_takes_one_pass_per_abscissa(monkeypatch):
    # f_12 leads with about 2^-42 x^25: at 136 bits its T ~ 2^94 misses
    # 1e-30 and the sum ran a second time; the start from c_m0 certifies
    # at the first pass, one series row sum at 147 bits, at 200
    # log-spaced x below MACLAURIN_RADIUS
    passes = _record_passes(monkeypatch)
    f = _fresh(spherical_fn(12))
    xs = [10 ** (-4 + 2 * i / 200) for i in range(200)]
    for x in xs:
        got = tp_eval_mp(f, x)
        assert got[1] < 0 and got[0] > 0, x
    assert _x_and_F(passes) == [(x, 147) for x in xs]
    assert {id(b) for b, _, _, _ in passes} == {id(_series_form(f))}
    for x in xs[::40]:
        assert _within_rtol(_mpf(tp_eval_mp(f, x)), _ref_value(f, x), 1e-30), x


@pytest.mark.parametrize("route", ["kernel", "maclaurin"])
def test_eval_refuses_a_value_beyond_the_double_range(route):
    # sin 1 ~ 2^-0.25 on the kernel; f_16(1e-3) ~ 2^-391 on the series form
    a, x, shift = (tp_sin(), 1.0, 0) if route == "kernel" else (spherical_fn(16), 1e-3, 391)
    with pytest.raises(NumericalFailure, match="underflows double precision"):
        tp_eval(tp_scale(a, Fraction(1, 2 ** (1100 - shift))), x)
    with pytest.raises(NumericalFailure, match="overflows double precision"):
        tp_eval(tp_scale(a, 2 ** (1030 + shift)), x)
    # a subnormal value is a value
    sub = tp_scale(a, Fraction(1, 2 ** (1060 - shift)))
    got = tp_eval(sub, x)
    assert 0 < got < 2.0 ** -1022
    assert got == _nearest_double(_ref_value(sub, x))


def test_eval_does_not_round_a_true_zero_of_the_kernel():
    # (x - 1/2) cos x vanishes at the double 1/2: its interval never excludes
    # 0, so the kernel escalates to the cap rather than report an underflow
    a = tp_term(1, (Fraction(-1, 2), 1))
    for evaluate in (tp_eval, tp_eval_mp):
        with pytest.raises(NumericalFailure, match="did not certify below 5000 digits"):
            evaluate(a, 0.5)


@pytest.mark.parametrize("outer_dps", [15, 200])
def test_eval_bits_do_not_depend_on_the_callers_precision(outer_dps):
    derivs = fn_derivatives(6, 12)
    cases = [(d, x) for d in (derivs[0], derivs[3], derivs[12])
             for x in (0.004, 0.7, 11.0)]
    cases.append((PLANTED, _root_of(PLANTED, 1.25, 1.3)))

    def evaluate():
        # fresh instances, so the tables are compiled under the caller's context
        return [(tp_eval_mp(TrigPoly(a.terms, a.den), x),
                 tp_eval(TrigPoly(a.terms, a.den), x)) for a, x in cases]

    want = evaluate()
    with mp.workdps(outer_dps):
        prec = mp.prec
        got = evaluate()
        assert mp.prec == prec
    assert got == want


# ---------------------------------------------------------------- the Maclaurin certificate

def _certificate_cases():
    """A seeded set of (element, x): f_n, f_n^(k) and v(f_n) for n <= 12
    (but the pure polynomials, which the exact rational route evaluates),
    with x on both sides of MACLAURIN_RADIUS and of both signs."""
    from chebcrit.determinants import symbolic_v

    rng = random.Random(20)
    xs = (3e-4, 1e-3, 0.0042, 0.0099, -0.005, 0.01, 0.0101, 0.013, 0.7, 3.7, 11.0, 29.5)
    cases = []
    for n in range(13):
        k = rng.randint(1, 2 * n + 2)
        for a in (spherical_fn(n), fn_derivatives(n, k)[k], symbolic_v(n)):
            if any(h for h, _, _ in a.terms):
                cases += [(a, x) for x in rng.sample(xs, 4)]
    return cases


def _near_zero_elements():
    """f_n, f_n^(k) and v(f_n) for n <= 12 (seeded k), every symbolic minor
    for n <= 6, and PLANTED, but the pure polynomials (summed exactly)."""
    from chebcrit.determinants import admissible_j, symbolic_minor, symbolic_v

    rng = random.Random(19)
    elements = [PLANTED]
    for n in range(13):
        k = rng.randint(1, 2 * n + 2)
        elements += [spherical_fn(n), fn_derivatives(n, k)[k], symbolic_v(n)]
    elements += [symbolic_minor(n, j) for n in range(7) for j in admissible_j(n)]
    return [a for a in elements if a.terms[-1][0]]


def test_maclaurin_form_bound_holds_against_a_2000_bit_reference():
    # |T 2^-F - a(x)/x^power| <= E 2^-F for the (T, E, F) the caller's
    # acceptance sees, E holding the tail K |x|^128 |x|^(m0 - power)
    for a in _near_zero_elements():
        m0, K = _series_form(a).m0, _series_form(a).K
        for x in (3e-4, -3e-4, 1e-3, 0.0042, 0.0099):
            for power in (0, m0):
                T, E, F, _ = next(_enclosures(_fresh(a), x, power))
                assert Fraction(E, 2**F) >= K * abs(Fraction(x)) ** (_SERIES_TERMS + m0 - power)
                with mp.workprec(2000):
                    ref = _ref_value(a, x) / mp.mpf(x) ** power
                assert _bound_holds(T, E, F, ref), (format_trigpoly(a)[:40], x, power)


def test_maclaurin_tail_bound_covers_the_terms_beyond_the_form():
    # K |x|^128 bounds the Maclaurin terms of a/x^m0 of degree 128 and
    # above, summed here through degree 400 at |x| = R, the element's
    # radius, with their absolute values.  At sin 4000x, k R = 65 =
    # (M + 1)/2, and the geometric factor 1/(1 - 65/130) = 2 carries weight:
    # the sum exceeds K/2, the bound without it
    from chebcrit.determinants import symbolic_minor

    for a in (spherical_fn(4), fn_derivatives(7, 5)[5], symbolic_minor(6, 9), PLANTED,
              tp_term(4000, (), (1,))):
        form = _series_form(_fresh(a))
        m0, R, K = form.m0, form.R, form.K
        beyond = maclaurin(a, m0 + 400)[m0 + _SERIES_TERMS:]
        total = sum(abs(c) * R**i for i, c in enumerate(beyond))
        assert 0 < total <= K
    assert R == Fraction(130, 8000) and total > K / 2


# sin x + 10^300 x^129: the x^129 term lies just beyond the form (degrees
# 0..127 of a/x), and at x = 0.005 its tail, ~10^5.5, dwarfs Q(x) ~ 1.
# At x^130 the term fails _tail_bound's M >= 0, and there is no form
_BEYOND = tp_add(tp_sin(), tp_scale(tp_x(129), 10**300))
_NO_FORM = tp_add(tp_sin(), tp_scale(tp_x(130), 10**300))


@pytest.mark.parametrize("a,has_form,tried,harmonic", [
    (tp_term(4000, (), (1,)), True, 1, 0),   # R = 130/8000: tail ~1e-50 of the value
    (tp_term(8000, (), (1,)), True, 1, 1),   # R = 130/16000 > 0.005: tail ~1e-11
    (tp_term(20000, (), (1,)), True, 0, 1),  # R = 130/40000 < 0.005: the form does not reach
    (_BEYOND, True, 1, 1),
    (_NO_FORM, False, 0, 1),
], ids=["sin-4000x", "sin-8000x", "sin-20000x", "beyond-q", "no-form"])
def test_maclaurin_form_falls_through_to_the_harmonic_kernel(a, has_form, tried, harmonic,
                                                             monkeypatch):
    # the form certifies at its first precision, or gives up there (the
    # tail, not the row's error, keeps the acceptance from passing), does
    # not reach x or does not exist, and the harmonic kernel then gives the
    # value at its first precision: no precision climbs towards 5000 digits
    passes = _record_passes(monkeypatch)
    x = 0.005
    ref = _ref_value(a, x)
    for evaluate, holds in ((tp_eval, lambda got: got == _nearest_double(ref)),
                            (tp_eval_mp, lambda got: _within_rtol(_mpf(got), ref, 1e-30))):
        fresh = _fresh(a)
        del passes[:]
        assert holds(evaluate(fresh, x))
        form = _series_form(fresh)
        assert (form is not None) == has_form
        assert [F for b, _, F, _ in passes if b is form] == [_EVAL_PRECS[0]] * tried
        assert [F for b, _, F, _ in passes if b is fresh] == [_EVAL_PRECS[0]] * harmonic
    # a quotient the form gives up on is the harmonic kernel's enclosure of
    # a(x) over x^power, rounded once: the form's row and the harmonic form
    # are summed once each, as above
    with mp.workprec(2000):
        want = _nearest_double(ref / x)
    fresh = _fresh(a)
    del passes[:]
    assert tp_eval_over_power(fresh, 1, x) == want
    form = _series_form(fresh)
    assert [F for b, _, F, _ in passes if b is form] == [_EVAL_PRECS[0]] * tried
    assert [F for b, _, F, _ in passes if b is fresh] == [_EVAL_PRECS[0]] * harmonic


# ---------------------------------------------------------------- the enclosure stream

def _draw_to_the_harmonic_form(a, x, power, monkeypatch):
    """The enclosures of ``a`` drawn until the first one of the harmonic
    form, and the (summed, F, (T, E)) of every pass behind them."""
    passes = _record_passes(monkeypatch)
    drawn = []
    for got in _enclosures(a, x, power):
        drawn.append(got)
        if passes[-1][0] is a:
            return drawn, [(b, F, TE) for b, _, F, TE in passes]


@pytest.mark.parametrize("a", [PLANTED, spherical_fn(12), tp_term(4000, (), (1,)), _BEYOND],
                         ids=["planted", "f12", "sin-4000x", "beyond-q"])
@pytest.mark.parametrize("x", [3e-4, -0.005])
def test_stream_sums_the_maclaurin_form_until_it_gives_up(a, x, monkeypatch):
    # below MACLAURIN_RADIUS the first enclosure is the series row's at
    # _EVAL_PRECS[0] + extra bits (at power m0 it is not scaled), the row
    # climbs the ladder while its tail K |x|^128 2^F, rounded up, is below
    # its E, and the harmonic form follows at 136 bits only after the
    # first pass with tail >= E
    a = _fresh(a)
    form = _series_form(a)
    m0, K, extra = form.m0, form.K, form.extra
    drawn, passes = _draw_to_the_harmonic_form(a, x, m0, monkeypatch)
    assert drawn[0][2] == _EVAL_PRECS[0] + extra
    *series, (harmonic, F, _) = passes
    assert harmonic is a and F == _EVAL_PRECS[0]
    assert [b for b, _, _ in series] == [form] * len(series)
    assert [F for _, F, _ in series] == [prec + extra for prec in _EVAL_PRECS[:len(series)]]
    tails = [math.ceil(K * abs(Fraction(x)) ** _SERIES_TERMS * 2**F) for _, F, _ in series]
    gave_up = [tail >= E for tail, (_, _, (_, E)) in zip(tails, series)]
    assert gave_up == [False] * (len(series) - 1) + [True]
    assert [d for *_, d in drawn] == [0] * len(series) + [m0]


@pytest.mark.parametrize("x", [3e-4, -0.0042, 0.0099])
def test_stream_divides_by_x_to_the_d_where_power_exceeds_the_vanishing_order(x):
    # d = 0 where power <= m0 (the form gives the quotient itself) and
    # d = power above it (the form gives a(x)); each first enclosure holds
    # against the 2000-bit reference of a(x)/x^(power - d)
    from chebcrit.determinants import symbolic_v

    for a in (PLANTED, spherical_fn(3), symbolic_v(2)):
        m0 = _series_form(a).m0
        for power in range(m0 + 3):
            T, E, F, d = next(_enclosures(_fresh(a), x, power))
            assert d == (0 if power <= m0 else power), (format_trigpoly(a)[:40], power)
            with mp.workprec(2000):
                ref = _ref_value(a, x) / mp.mpf(x) ** (power - d)
            assert _bound_holds(T, E, F, ref), (format_trigpoly(a)[:40], power)


@pytest.mark.parametrize("a,x", [(PLANTED, 0.01), (PLANTED, -0.7), (spherical_fn(3), 29.5),
                                 (tp_term(20000, (), (1,)), 0.005), (_NO_FORM, 0.005)],
                         ids=["planted-radius", "planted", "f3", "sin-20000x-past-R", "no-form"])
def test_stream_elsewhere_climbs_the_ladder_from_136_bits(a, x):
    # at and above MACLAURIN_RADIUS, and below it past the form's R or
    # where there is no form, the harmonic form gives a(x) at each
    # precision of the ladder, d = power
    for power in (0, 2, 9):
        drawn = list(islice(_enclosures(_fresh(a), x, power), 3))
        assert [F for _, _, F, _ in drawn] == list(_EVAL_PRECS[:3])
        assert [d for *_, d in drawn] == [power] * 3
        for T, E, F, _ in drawn:
            assert _bound_holds(T, E, F, _ref_value(a, x)), (x, power, F)


# ---------------------------------------------------------------- integrals

def _integral_ref(a, power, x, prec=1500):
    """The integral of a(t)/t^power from 0 to x at 60 digits: Gauss-Legendre
    on u = t/x, the integrand scaled to 1 at u = 1 and each of its values
    taken at ``prec`` bits (the harmonic form cancels near 0)."""
    with mp.workprec(prec):
        top = _ref_value(a, x, prec) / mp.mpf(x) ** power

    def g(u):
        with mp.workprec(prec):
            t = u * x
            value = _ref_value(a, t, prec) / t**power / top
        return +value  # rounded to the quadrature's 60 digits

    with mp.workdps(60):
        return mp.quad(g, [0, 1], method="gauss-legendre") * x * top


def _spherical_integrals(n):
    """The (name, a, power) of the three spherical integrals of ``identities``."""
    from chebcrit.identities import _SPHERICAL_INTEGRANDS

    return [(name, *make(n)) for name, make in _SPHERICAL_INTEGRANDS.items()]


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_integral_series_is_the_correctly_rounded_60_digit_value(n):
    checked = 0
    for name, a, power in _spherical_integrals(n):
        if vanishing_order(a) - power + 1 <= 0:  # n = 1: V:f and V:v diverge at 0
            continue
        for x in (0.01, 1.0, 7.5):
            got = tp_integral_over_power(a, power, x)
            assert got == float(_integral_ref(a, power, x)), (n, name, x)
            checked += 1
    assert checked == (3 if n == 1 else 9)


@pytest.mark.parametrize("n", [1, 2, 6, 16])
def test_integral_far_range_is_the_correctly_rounded_60_digit_value(n):
    # past the reach of 64 terms (x ~ 8.5-9.3 at n <= 6) the 128-term
    # form certifies, up to x ~ 20-21 (24 at n = 16)
    checked = 0
    for name, a, power in _spherical_integrals(n):
        if vanishing_order(a) - power + 1 <= 0:  # n = 1: V:f and V:v diverge at 0
            continue
        for x in (10.0, 14.0, 18.0, 20.0):
            got = tp_integral_over_power(a, power, x)
            assert got == float(_integral_ref(a, power, x)), (n, name, x)
            checked += 1
    assert checked == (4 if n == 1 else 12)


def test_integral_series_gives_up_past_its_reach():
    # x = 20 lies inside the 128-term form's reach for every n here; x = 30
    # lies inside its R, so the tail, not the radius, stops it there, and
    # R + 1 lies past R itself
    for n in (2, 4, 8, 16):
        for name, a, power in _spherical_integrals(n):
            R = _series_form(a).R
            if name != "V:v":  # f_n^2: k = 2 on degree 2n, D = 4n + 2 + 128
                assert R == Fraction(2 * n + 131, 4)
            assert 30.0 < R, (n, name)
            assert tp_integral_over_power(a, power, 20.0) is not None, (n, name)
            assert tp_integral_over_power(a, power, 30.0) is None, (n, name)
            assert tp_integral_over_power(a, power, float(R) + 1) is None, (n, name)
    assert tp_integral_over_power(spherical_fn(2), 1, 0.0) == 0.0


def test_integral_series_takes_one_pass_per_point(monkeypatch):
    # Q is summed by Horner's rule in x/2^r, 1.5 units a step, so on the
    # default grid from x = 1 up to the reach the form draws one enclosure
    # per point
    from chebcrit import trigpoly
    from chebcrit.identities import _SPHERICAL_INTEGRANDS, make_grid

    a, power = _SPHERICAL_INTEGRANDS["V:f"](4)
    plain, draws = trigpoly._series_enclosures, []

    def counting(*args):
        for enclosure in plain(*args):
            draws.append(enclosure)
            yield enclosure

    monkeypatch.setattr(trigpoly, "_series_enclosures", counting)
    passes = {}
    for x in make_grid(0.01, 30.0, 500):
        draws.clear()
        if tp_integral_over_power(a, power, x) is None:
            break
        if x >= 1.0:
            passes[x] = len(draws)
    assert set(passes.values()) == {1} and max(passes) > 20.0


def test_scaled_sum_is_within_its_bound():
    # the integral's rows, c_j 2^(r j) / (e + j): bit-identical to
    # _ref_series_row, stopped where the rest is below one unit, and T
    # within E = floor(3J/2) + 2 units of 2^F Q(x), Q the exact sum of all
    # 128 weighted terms, on both sides of x = 1
    for n in (2, 6):
        for name, a, power in _spherical_integrals(n):
            form = _series_form(_fresh(a))
            e, F = form.m0 - power + 1, _EVAL_PRECS[0] + form.extra
            for x in (0.013, 0.3, 1.0, 1.7, 9.3, 20.5, -3.25):
                T, E = _series_value(form, x, F, e)
                J = len(_row_of(form, x, F, e)[1])
                assert (T, E) == _ref_series_row(a, x, F, J, e), (n, name, x)
                assert _series_rest(a, x, F, J, e) < 1, (n, name, x)
                assert abs(T - _series_sum(a, x, e) * 2**F) <= E, (n, name, x)


def test_a_near_zero_row_stops_early():
    # at x = 0.005 the terms of f_6 / x^13 fall below a unit of 2^-136 long
    # before the form's 128: its row holds at most 20 of them
    form = _series_form(_fresh(spherical_fn(6)))
    assert form.extra == 0  # 136 bits
    _series_value(form, 0.005, _EVAL_PRECS[0], 0)
    assert len(_row_of(form, 0.005, _EVAL_PRECS[0])[1]) + 1 <= 20


def test_a_near_zero_form_builds_only_what_its_rows_read():
    # the near-0 rows of the minor (6, 7) read 7 to 25 of its numerators,
    # and its form stops short of the cap; an integral row at x = 20 reads
    # all of them
    from chebcrit.determinants import symbolic_minor

    a = _fresh(symbolic_minor(6, 7))
    for x in (1e-4, 1e-3, 0.005, 0.0099):
        tp_eval(a, x)
        tp_eval_mp(a, x)
    assert len(_series_form(a).nums) < _SERIES_TERMS
    f4_squared = _fresh(tp_mul(spherical_fn(4), spherical_fn(4)))
    assert tp_integral_over_power(f4_squared, 11, 20.0) is not None
    assert len(_series_form(f4_squared).nums) == _SERIES_TERMS


def _lazy_cases():
    """_compiled_cases(), a minor and two elements of no one parity: at
    x = 0.375 and 136 bits the stop of (3 + 3x) cos(x) / 4 turns on the
    unbuilt numerators, each counted as one unit of the stop test."""
    from chebcrit.determinants import symbolic_minor

    mixed = tp_add(fn_derivatives(3, 1)[1], tp_scale(spherical_fn(3), Fraction(7, 3)))
    return _compiled_cases() + [("minor(5, 7)", symbolic_minor(5, 7)), ("mixed", mixed),
                                ("mixed-cos", tp_term(1, (Fraction(3, 4), Fraction(3, 4))))]


@pytest.mark.parametrize("name,a", _lazy_cases())
def test_lazy_rows_and_enclosures_are_those_of_the_full_form(name, a):
    # a row built from the first numerators stops where the row of all 128
    # stops, at every scale r from -14 to 2 and the first three precisions,
    # and the enclosures below MACLAURIN_RADIUS add the same tail (1)
    full = _series_form(_fresh(a))
    full.grow(_SERIES_TERMS)
    for F in _EVAL_PRECS[:3]:
        for r in range(-14, 3):
            x = (-1) ** r * 0.75 * 2.0**r
            lazy = _series_form(_fresh(a))
            assert _series_value(lazy, x, F, 0) == _series_value(full, x, F, 0), (F, r)
            assert _row_of(lazy, x, F) == _row_of(full, x, F), (F, r)
    for x in (1e-4, -3e-3, 0.0099):
        lazy = _series_form(_fresh(a))
        for e in (0, full.m0):
            assert (list(islice(_series_enclosures(lazy, e, x, 0, 0), 2))
                    == list(islice(_series_enclosures(full, e, x, 0, 0), 2))), (x, e)


def _fraction_tail_bound(a, degree, R):
    """The tail bound K summed on Fractions, each term exact."""
    total = Fraction(0)
    for k, cpart, spart in a.terms:
        for i, c in (*enumerate(cpart), *enumerate(spart)):
            M = degree - i
            if M < 0 or k * R >= M + 1:
                return None
            if c:
                total += Fraction(abs(c) * k**M * (M + 1), math.factorial(M)) / (M + 1 - k * R)
    return total / a.den


def test_integer_tail_bound_is_at_most_2_to_the_minus_50_above_the_exact_one():
    # each term rounded up at G fraction bits: K stays a bound, and G puts
    # it within 2^-50 relative of the exact sum, for coefficients of any
    # size (3^380 in PLANTED, 10^-400 times f_3)
    from chebcrit.determinants import symbolic_minor, symbolic_v

    elements = [spherical_fn(4), fn_derivatives(7, 5)[5], symbolic_minor(6, 9), symbolic_v(3),
                PLANTED, tp_scale(spherical_fn(3), Fraction(1, 10**400)), tp_term(4000, (), (1,))]
    checked = 0
    for a in elements:
        m0 = vanishing_order(a)
        for L in (8, 32, 64, _SERIES_TERMS):
            R = _radius(a, m0 + L)
            got, want = _tail_bound(a, m0 + L, R), _fraction_tail_bound(a, m0 + L, R)
            assert (got is None) == (want is None), L
            if want is not None:
                assert want <= got < want * (1 + Fraction(1, 2**50)), L
                checked += 1
    assert checked >= 20


def test_integral_series_refuses_an_integral_divergent_at_0():
    f1_squared = tp_mul(spherical_fn(1), spherical_fn(1))  # vanishing order 6
    assert tp_integral_over_power(f1_squared, 6, 1.0) is not None  # e = 1
    for power in (7, 9):  # e = 0 ("V:f" at n = 1), e = -2
        with pytest.raises(UsageError, match="diverges at 0"):
            tp_integral_over_power(f1_squared, power, 1.0)
    with pytest.raises(UsageError):
        tp_integral_over_power(f1_squared, -1, 1.0)


def test_integral_series_without_a_tail_bound_gives_none():
    # x^140 lies beyond the 128 terms of sin x + x^140 (vanishing order 1),
    # so its term fails _tail_bound's hypothesis M >= 0: there is no form,
    # and a pure polynomial has none either.  x^70 lies within them, and
    # sin x + x^70 gives its value
    with_140 = tp_add(tp_sin(), tp_x(140))
    assert _series_form(with_140) is None
    assert tp_integral_over_power(with_140, 0, 0.5) is None
    assert tp_integral_over_power(tp_x(3), 0, 0.5) is None
    with mp.workdps(60):
        want = float(1 - mp.cos(1.5) + mp.mpf(1.5) ** 71 / 71)
    assert tp_integral_over_power(tp_add(tp_sin(), tp_x(70)), 0, 1.5) == want


def test_integral_series_tail_carries_weight(monkeypatch):
    # at x = 20.12, on the ragged edge of the 128-term form's reach for
    # f_1^2 / t^5 (the first x = k/100 where it gives up is 19.96, the last
    # where it certifies 20.14), the 128 terms alone certify a value one
    # ulp off the 60-digit reference: the tail bound is what keeps it out
    from chebcrit import trigpoly

    a, power, x = tp_mul(spherical_fn(1), spherical_fn(1)), 5, 20.12
    want = float(_integral_ref(a, power, x))
    assert tp_integral_over_power(_fresh(a), power, x) is None
    monkeypatch.setattr(trigpoly, "_tail_bound", lambda *args: Fraction(0))
    planted = tp_integral_over_power(_fresh(a), power, x)
    assert planted is not None and planted != want


# ---------------------------------------------------------------- serialization

def test_eval_leaves_mp_context_untouched():
    import mpmath

    from chebcrit.bessel import bessel_j, bessel_stack_values
    from chebcrit.determinants import minor_values

    before = mpmath.mp.dps, mpmath.mp.prec
    tp_eval(spherical_fn(8), 1e-3)   # the series form's row
    tp_eval(spherical_fn(8), 25.0)   # forces precision escalation
    tp_eval_over_power(TrigPoly(PLANTED.terms, PLANTED.den), 1, 0.004)  # builds a series form
    tp_eval_mp(TrigPoly(PLANTED.terms, PLANTED.den), 3.7)               # builds harmonic tables
    bessel_j(3.4, 40.0)              # escalates the series precision (30 -> 60)
    bessel_stack_values(3.4, 40.0, 5)  # one series pass per precision for six orders
    minor_values(4, 3.0)             # 1e-30 entries, then the exact Hankel elimination
    assert (mpmath.mp.dps, mpmath.mp.prec) == before


def test_json_round_trip():
    f3 = spherical_fn(3)
    d = to_json_dict(f3)
    assert d["1"]["sin"] == ["15/1", "0/1", "-6/1"]
    assert from_json_dict(d) == f3


def test_format():
    assert format_trigpoly(spherical_fn(0)) == "(1)*sin(x)"
    assert format_trigpoly(tp_zero()) == "0"
