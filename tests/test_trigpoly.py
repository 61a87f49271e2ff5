"""Exact-ring tests: closed forms, structural identities, validated evaluation."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from mpmath import mp
from mpmath.libmp import dps_to_prec

from chebcrit.errors import UsageError
from chebcrit.trigpoly import (
    MACLAURIN_RADIUS,
    TrigPoly,
    _eval_maclaurin_mp,
    _exact_bound,
    _harmonic_table,
    _harmonic_value,
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
    tp_eval,
    tp_eval_mp,
    tp_eval_over_power,
    tp_from_poly,
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
    f_n, f_n^(k), v(f_n), pure polynomials (one of which fails the
    Maclaurin decay test), the planted element and the zero element, at x
    on both sides of MACLAURIN_RADIUS, of both signs, and at +-0."""
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
        want = float(tp_eval_mp(TrigPoly(a.terms, a.den), x))
        assert tp_eval(TrigPoly(a.terms, a.den), x).hex() == want.hex(), (format_trigpoly(a), x)


def test_eval_at_zero_is_the_exact_constant_term():
    # x = 0 takes the Maclaurin route: its value is the exact a(0), the sum
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
    # Maclaurin table; below the vanishing order the quotient is singular
    f = spherical_fn(4)
    f = TrigPoly(f.terms, f.den)  # a fresh element: no table cached
    for p in range(10):
        assert tp_eval_over_power(f, p, 0.0) == float(maclaurin(f, p + 1)[p])
    assert "_maclaurin_table" not in f.__dict__
    with pytest.raises(UsageError, match="vanishing order 9"):
        tp_eval_over_power(f, 10, 0.0)


def test_eval_over_power_limit():
    # f_n / x^(2n+1) -> 1/(2n+1)!! at 0
    f2 = spherical_fn(2)
    assert abs(tp_eval_over_power(f2, 5, 0.0) - 1.0 / 15.0) <= 1e-16
    got = tp_eval_over_power(f2, 5, 1e-3)
    assert abs(got - 1.0 / 15.0) <= 1e-6 / 15.0
    # consistency with the direct quotient away from 0
    x = 0.5
    assert abs(tp_eval_over_power(f2, 5, x) - tp_eval(f2, x) / x**5) <= 1e-15


# ---------------------------------------------------------------- compiled evaluation

# Coefficients with 603-bit numerators: mp.mpf(num) rounds the numerator
# before the division, so an exact rational conversion differs from the
# evaluator's expression in the last bit for some of them at 40, 50, 80 and
# 160 digits alike (checked in test_planted_coefficients_are_double_rounding_traps).
# The leading Maclaurin coefficient of PLANTED is _WIDE[0], a trap at 50 digits.
_WIDE = [Fraction(3**380 + i, d) for i, d in zip(range(1, 9), (7, 11, 13, 17) * 2)]
PLANTED = tp_add(tp_term(2, _WIDE[:4], _WIDE[4:]), tp_from_poly([0, Fraction(1, 3), _WIDE[1]]))


def _ref_horner(coeffs, den, xm, ax):
    acc = mp.mpf(0)
    mag = mp.mpf(0)
    for c in reversed(coeffs):
        c = Fraction(c, den)
        cm = mp.mpf(c.numerator) / c.denominator
        acc = acc * xm + cm
        mag = mag * ax + abs(cm)
    return acc, mag


def _ref_harmonic(a, x):
    """(value, rounding bound) at the current precision through mpf operators."""
    xm = mp.mpf(x)
    ax = abs(xm)
    total = mp.mpf(0)
    mag = mp.mpf(0)
    for k, cpart, spart in a.terms:
        for part, trig in ((cpart, mp.cos), (spart, mp.sin)):
            if part:
                v, m_ = _ref_horner(part, a.den, xm, ax)
                total += v if k == 0 else v * trig(k * xm)
                mag += m_
    ops = a.max_degree() + 8 * len(a.terms) + 16
    return total, mag * mp.mpf(10) ** (-mp.dps) * ops


def _ref_maclaurin(a, x, denom_power):
    """a(x)/x^denom_power from the Maclaurin series through mpf operators."""
    m0 = vanishing_order(a)
    coeffs = maclaurin(a, m0 + 64)
    with mp.workdps(50):
        if x == 0.0:
            c = coeffs[m0]
            return mp.mpf(0) if m0 > denom_power else mp.mpf(c.numerator) / c.denominator
        xm = mp.mpf(x)
        xp = xm ** (m0 - denom_power)
        total = mp.mpf(0)
        last = mp.mpf(0)
        for c in coeffs[m0:]:
            if c:
                last = mp.mpf(c.numerator) / c.denominator * xp
                total += last
            xp *= xm
        if total != 0 and abs(last) > abs(total) * mp.mpf(2) ** -110:
            return None
        return total


def _raw(v):
    return None if v is None else v._mpf_


def _harmonic_raw(a, x, dps):
    """Raw (value, rounding bound) of the harmonic form of ``a`` at ``dps``
    digits, from its compiled table, in no precision context."""
    prec = dps_to_prec(dps)
    table = _harmonic_table(a, dps)
    return _harmonic_value(table[0], x, prec), _exact_bound(table, x, prec)


def _compiled_cases():
    from chebcrit.determinants import symbolic_v

    return [("f2", spherical_fn(2)), ("f5'''", fn_derivatives(5, 3)[3]),
            ("f6^(12)", fn_derivatives(6, 12)[12]), ("v(f3)", symbolic_v(3)),
            ("planted", PLANTED)]


def test_planted_coefficients_are_double_rounding_traps():
    from mpmath.libmp import from_rational

    assert maclaurin(PLANTED, 1)[0] == _WIDE[0]
    for dps in (40, 50, 80, 160):
        with mp.workdps(dps):
            assert any(from_rational(c.numerator, c.denominator, mp.prec, "n")
                       != (mp.mpf(c.numerator) / c.denominator)._mpf_ for c in _WIDE)


@pytest.mark.parametrize("name,a", _compiled_cases())
def test_compiled_harmonic_route_is_bit_identical(name, a):
    a = TrigPoly(a.terms, a.den)  # a fresh instance: no table built elsewhere
    for dps in (40, 80, 160):
        for x in (0.013, 0.7, 3.7, 11.0, 29.5):
            got = _harmonic_raw(a, x, dps)  # raw, in no precision context
            with mp.workdps(dps):
                want = _ref_harmonic(a, x)
            assert got == (want[0]._mpf_, want[1]._mpf_), (dps, x)


@pytest.mark.parametrize("name,a", _compiled_cases())
def test_compiled_maclaurin_route_is_bit_identical(name, a):
    a = TrigPoly(a.terms, a.den)
    for outer_dps in (40, 80, 160):  # the route works at 50 digits whatever the caller's
        for x in (0.0, 1e-3, 0.0042, 0.0099):
            for power in (0, vanishing_order(a)) if x == 0.0 else (0, 1):
                with mp.workdps(outer_dps):
                    got = _eval_maclaurin_mp(a, x, power)
                want = _ref_maclaurin(a, x, power)
                assert _raw(got) == _raw(want), (outer_dps, x, power)


def test_compiled_public_entry_points_match_reference():
    for _, a in _compiled_cases():
        fresh = TrigPoly(a.terms, a.den)
        for x in (0.004, 0.5, 7.25):
            if x < MACLAURIN_RADIUS:
                want = _ref_maclaurin(a, x, 0)
            else:
                with mp.workdps(40):
                    want, bound = _ref_harmonic(a, x)
                    assert bound <= abs(want) * mp.mpf(1e-17)  # certifies at 40 digits
            assert tp_eval_mp(fresh, x)._mpf_ == want._mpf_
            assert tp_eval(fresh, x) == float(want)


def test_compiled_table_is_per_precision():
    x = 3.7
    a = TrigPoly(PLANTED.terms, PLANTED.den)
    _harmonic_raw(a, x, 40)
    got = _harmonic_raw(a, x, 80)
    assert got == _harmonic_raw(TrigPoly(PLANTED.terms, PLANTED.den), x, 80)


def test_compiled_tables_leave_equality_and_hash_alone():
    a = TrigPoly(PLANTED.terms, PLANTED.den)
    b = TrigPoly(PLANTED.terms, PLANTED.den)
    tp_eval(a, 0.005)
    tp_eval(a, 2.0)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


# ---------------------------------------------------------------- point memo, context-free loop

def _ref_eval_mp(a, x, rtol):
    """The certified harmonic-route value through mpf operators, escalating
    precision under mp.workdps as the evaluator did before its loop went raw."""
    dps = 40
    while True:
        with mp.workdps(dps):
            total, bound = _ref_harmonic(a, x)
            if bound == 0 or bound <= abs(total) * mp.mpf(rtol):
                return total, dps
        dps *= 2


def _compiled_dps(a):
    """The precisions an element has compiled harmonic tables for."""
    return sorted(a.__dict__.get("_harmonic_tables", ()))


def _root_of(a, lo, hi):
    """A double next to the zero of the element a bracketed by (lo, hi)."""
    return bisect_root(lambda t: tp_eval(a, t), lo, hi)


def _forget_point():
    from chebcrit import trigpoly

    trigpoly._point = (None, None, None, None)


@pytest.mark.parametrize("n", range(7))
def test_entries_at_one_abscissa_share_cos_sin_bit_identically(n):
    # the derivative stack of f_n evaluated in sequence, as minor_values does,
    # against the mpf-operator reference and against fresh instances
    derivs = fn_derivatives(n, 2 * n)
    for x in (0.013, 0.7, 3.7, 11.0):
        got = [tp_eval_mp(d, x, 1e-30)._mpf_ for d in derivs]
        got_float = [tp_eval(d, x) for d in derivs]
        for d, g, gf in zip(derivs, got, got_float):
            fresh = TrigPoly(d.terms, d.den)
            assert g == _ref_eval_mp(fresh, x, 1e-30)[0]._mpf_, (n, x)
            assert gf == float(_ref_eval_mp(fresh, x, 1e-17)[0]), (n, x)
            _forget_point()
            assert tp_eval_mp(fresh, x, 1e-30)._mpf_ == g, (n, x)


def test_point_memo_is_keyed_by_abscissa_and_precision():
    a = fn_derivatives(5, 3)[3]
    x1, x2 = 3.7, 0.7
    for x, dps in ((x1, 40), (x2, 40), (x1, 80), (x1, 40), (x2, 160), (x2, 80)):
        got = _harmonic_raw(a, x, dps)
        with mp.workdps(dps):
            want = _ref_harmonic(TrigPoly(a.terms, a.den), x)
        assert got == (want[0]._mpf_, want[1]._mpf_), (x, dps)


def test_escalating_elements_beside_entries_certified_at_40_digits():
    # at a double next to a zero of PLANTED (harmonic 2), and of f_6'''
    # (harmonic 1, like every f_n entry), that element escalates to 80 digits
    # while the other entries of the stack certify at 40; evaluated
    # interleaved, every value matches the reference
    derivs = fn_derivatives(6, 12)
    planted_zero = _root_of(PLANTED, 1.25, 1.3)
    entry_zero = _root_of(derivs[3], 6.5, 7.5)
    for x, escalating in ((planted_zero, PLANTED), (entry_zero, derivs[3])):
        _forget_point()
        order = list(derivs[:2]) + [escalating] + list(derivs[2:])
        got = [tp_eval_mp(a, x, 1e-30)._mpf_ for a in order]
        for a, g in zip(order, got):
            fresh = TrigPoly(a.terms, a.den)
            want, dps = _ref_eval_mp(fresh, x, 1e-30)
            assert g == want._mpf_, x
            assert dps == (80 if a is escalating else 40), x
            tp_eval_mp(fresh, x, 1e-30)
            assert _compiled_dps(fresh) == ([40, 80] if a is escalating else [40])


@pytest.mark.parametrize("outer_dps", [15, 200])
def test_eval_bits_do_not_depend_on_the_callers_precision(outer_dps):
    derivs = fn_derivatives(6, 12)
    cases = [(d, x) for d in (derivs[0], derivs[3], derivs[12])
             for x in (0.004, 0.7, 11.0)]
    cases.append((PLANTED, _root_of(PLANTED, 1.25, 1.3)))

    def evaluate():
        # fresh instances, so the tables are compiled under the caller's context
        return [(tp_eval_mp(TrigPoly(a.terms, a.den), x, 1e-30)._mpf_,
                 tp_eval(TrigPoly(a.terms, a.den), x)) for a, x in cases]

    want = evaluate()
    with mp.workdps(outer_dps):
        prec = mp.prec
        got = evaluate()
        assert mp.prec == prec
    assert got == want


# ---------------------------------------------------------------- cheaper certificates

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


def _ref_value_and_dps(a, x, rtol):
    """tp_eval_mp's value and final harmonic-route dps (None on the
    Maclaurin route) through the mpf-operator references."""
    if abs(x) < MACLAURIN_RADIUS:
        want = _ref_maclaurin(a, x, 0)
        if want is not None:
            return want._mpf_, None
    want, dps = _ref_eval_mp(a, x, rtol)
    return want._mpf_, dps


def _value_and_dps(a, x, rtol):
    fresh = TrigPoly(a.terms, a.den)
    got = tp_eval_mp(fresh, x, rtol)._mpf_
    return got, max(_compiled_dps(fresh), default=None)


@pytest.mark.parametrize("rtol", [1e-17, 1e-30])
def test_certified_values_and_dps_match_the_references(rtol):
    for a, x in _certificate_cases():
        assert _value_and_dps(a, x, rtol) == _ref_value_and_dps(a, x, rtol), x


def test_maclaurin_early_stop_is_bit_identical_and_stops_early(monkeypatch):
    from chebcrit import trigpoly

    products = []
    plain = trigpoly.mpf_mul

    def counting(*args):
        products.append(1)
        return plain(*args)

    monkeypatch.setattr(trigpoly, "mpf_mul", counting)
    for n in (2, 4, 8, 12):
        a = spherical_fn(n)
        a = TrigPoly(a.terms, a.den)
        for x in (3e-4, 1e-3, -0.0042, 0.0099):
            for power in (0, 1, 2 * n + 1):
                del products[:]
                got = _eval_maclaurin_mp(a, x, power)
                assert _raw(got) == _raw(_ref_maclaurin(a, x, power)), (n, x, power)
                # the full sum takes 64 power products and ~32 term products
                assert len(products) < 64, (n, x, len(products))


def test_maclaurin_suffix_bounds_every_later_term():
    # 2^later[i] bounds |c_j| * r^(j - i - 1) for every j > i at r = 2^-6, and
    # so at every |x| below MACLAURIN_RADIUS; the table ends at the last
    # nonzero coefficient
    from chebcrit.determinants import symbolic_v
    from chebcrit.trigpoly import _maclaurin_table

    for a in (spherical_fn(4), fn_derivatives(7, 5)[5], symbolic_v(6), PLANTED,
              tp_from_poly([1, 0, 0, 1])):
        m0, coeffs, later = _maclaurin_table(TrigPoly(a.terms, a.den))
        full = maclaurin(a, m0 + 64)[m0:]
        assert len(coeffs) == max(i for i, c in enumerate(full) if c) + 1
        assert len(later) == len(coeffs) - 1
        with mp.workdps(60):
            for i in range(len(coeffs) - 1):
                terms = [abs(mp.make_mpf(c)) * mp.mpf(2) ** (-6 * (j - i - 1))
                         for j, c in enumerate(coeffs[i + 1:], i + 1) if c is not None]
                assert max(terms) < mp.mpf(2) ** later[i] <= 2 * max(terms), i


def test_maclaurin_terms_ending_inside_the_table_still_run_the_decay_test():
    # a polynomial's Maclaurin terms end after its degree: the loop stops
    # there and the 2^-110 decay test decides on the last term, as before
    short = tp_from_poly([1, 0, 0, 1])         # 1 + x^3: x^3 fails the test
    long = tp_from_poly([1] + [0] * 39 + [1])  # 1 + x^40: x^40 passes it
    for x in (1e-3, -0.0042, 0.0099):
        assert _ref_maclaurin(short, x, 0) is None
        assert _eval_maclaurin_mp(TrigPoly(short.terms, short.den), x) is None
        want = _ref_maclaurin(long, x, 0)
        assert want is not None
        assert _eval_maclaurin_mp(TrigPoly(long.terms, long.den), x)._mpf_ == want._mpf_
    # the public entry point then falls back to the exact rational route
    assert tp_eval(short, 1e-3) == 1.000000001


def _formed_float_bound(table, x, prec):
    """The pre-test's B' formed as an mpf: the float Horner sum times
    scale_up, rounded up; None where the pre-test stands down."""
    from mpmath.libmp import from_float, mpf_mul, round_ceiling

    from chebcrit import trigpoly

    if table[4] is None:
        return None
    m, rest = table[4]
    for c in rest:
        m = m * abs(x) + c
    if not trigpoly._PRETEST_MIN_MAG <= m < math.inf:
        return None
    return mpf_mul(from_float(m), table[5], prec, round_ceiling)


def test_float_bound_never_undercuts_the_exact_bound():
    from mpmath.libmp import mpf_le, mpf_mul

    for a, x in _certificate_cases():
        if abs(x) < MACLAURIN_RADIUS:
            continue
        for dps in (40, 80, 160, 320):
            prec = dps_to_prec(dps)
            table = _harmonic_table(a, dps)
            quick, exact = _formed_float_bound(table, x, prec), _exact_bound(table, x, prec)
            assert quick is not None
            assert mpf_le(exact, quick), (x, dps)
            # and it is tight enough to decide: within 2^-30 of the exact bound
            assert mpf_le(quick, mpf_mul(exact, (0, 2**30 + 1, -30, 31), prec)), (x, dps)


def test_float_accepts_decides_as_the_formed_bound_does():
    # limits from a quarter to four times B', one ulp either side of it and
    # zero: the exponent comparison and the mpf test agree on every one
    from mpmath.libmp import from_man_exp, fzero, mpf_le, mpf_shift

    from chebcrit.trigpoly import _float_accepts

    for a, x in _certificate_cases()[::3]:
        if abs(x) < MACLAURIN_RADIUS:
            continue
        for dps in (40, 160):
            prec = dps_to_prec(dps)
            table = _harmonic_table(a, dps)
            quick = _formed_float_bound(table, x, prec)
            _, man, exp, _ = quick
            limits = [mpf_shift(quick, j) for j in range(-2, 3)] + [fzero]
            limits += [from_man_exp(man - 1, exp), from_man_exp(man + 1, exp)]
            for limit in limits:
                got = _float_accepts(table, x, prec, limit)
                assert got == (limit != fzero and mpf_le(quick, limit)), (x, dps, limit)


def test_float_accepts_replays_a_spherical_4_grid(monkeypatch):
    # every pre-test decision of tp_eval on f_4, its first five derivatives
    # and v(f_4) over verify's default grid is the one the formed B' gives
    from mpmath.libmp import fzero, mpf_le

    from chebcrit import trigpoly
    from chebcrit.determinants import symbolic_v
    from chebcrit.identities import make_grid

    decisions = []
    plain = trigpoly._float_accepts

    def replaying(table, x, prec, limit):
        got = plain(table, x, prec, limit)
        quick = _formed_float_bound(table, x, prec)
        want = quick is not None and limit != fzero and mpf_le(quick, limit)
        decisions.append((got, want))
        return got

    monkeypatch.setattr(trigpoly, "_float_accepts", replaying)
    elements = [TrigPoly(a.terms, a.den) for a in (*fn_derivatives(4, 5), symbolic_v(4))]
    for x in make_grid(0.01, 30.0, 500):
        for a in elements:
            tp_eval(a, x)
    assert all(got == want for got, want in decisions)
    assert {got for got, _ in decisions} == {True, False}


def test_float_bound_stands_down_outside_its_range():
    from mpmath.libmp import fone, mpf_shift

    from chebcrit.trigpoly import _eval_adaptive_mp, _float_accepts

    prec = dps_to_prec(40)
    # coefficients beyond 2^1000: the pre-test is never built, the exact bound decides
    huge = tp_scale(spherical_fn(3), Fraction(10) ** 400)
    assert _harmonic_table(TrigPoly(huge.terms, huge.den), 40)[4] is None
    for x in (0.7, 3.7, 11.0):
        assert _value_and_dps(huge, x, 1e-30) == _ref_value_and_dps(huge, x, 1e-30)
    # |x| = 1e-300 on the harmonic route: x^4 cos x has a float magnitude
    # sum that underflows, so the pre-test stands down even for a limit of 2^3000
    tiny = tp_term(1, (0, 0, 0, 0, 1))
    fresh = TrigPoly(tiny.terms, tiny.den)
    table = _harmonic_table(fresh, 40)
    assert _formed_float_bound(table, 1e-300, prec) is None
    assert not _float_accepts(table, 1e-300, prec, mpf_shift(fone, 3000))
    got = _eval_adaptive_mp(fresh, 1e-300, 1e-30)
    want, dps = _ref_eval_mp(tiny, 1e-300, 1e-30)
    assert (got._mpf_, max(_compiled_dps(fresh))) == (want._mpf_, dps)


def test_rejected_pre_test_leaves_the_exact_path_deciding(monkeypatch):
    from chebcrit import trigpoly

    exact_calls = []
    plain = trigpoly._exact_bound

    def counting(*args):
        exact_calls.append(1)
        return plain(*args)

    monkeypatch.setattr(trigpoly, "_exact_bound", counting)
    cases = [(a, x) for a, x in _certificate_cases() if abs(x) >= MACLAURIN_RADIUS]
    want = [_ref_value_and_dps(a, x, 1e-30) for a, x in cases]
    escalations = sum((dps // 40).bit_length() - 1 for _, dps in want)
    assert escalations > 0
    # with the slack as it is, the pre-test accepts every certified value
    # itself: the exact bound runs only on the precisions that escalate
    assert [_value_and_dps(a, x, 1e-30) for a, x in cases] == want
    assert len(exact_calls) == escalations
    # an infinite slack makes it reject everything: the exact bound decides
    # every precision, with the same values and the same escalation
    monkeypatch.setattr(trigpoly, "_PRETEST_SLACK", math.inf)
    del exact_calls[:]
    assert [_value_and_dps(a, x, 1e-30) for a, x in cases] == want
    assert len(exact_calls) == escalations + len(cases)


# ---------------------------------------------------------------- serialization

def test_eval_leaves_mp_context_untouched():
    import mpmath

    from chebcrit.bessel import bessel_j, bessel_stack_values
    from chebcrit.determinants import minor_values

    before = mpmath.mp.dps, mpmath.mp.prec
    tp_eval(spherical_fn(8), 1e-3)   # forces the exact-series path
    tp_eval(spherical_fn(8), 25.0)   # forces precision escalation
    tp_eval_over_power(TrigPoly(PLANTED.terms, PLANTED.den), 1, 0.004)  # builds a Maclaurin table
    tp_eval_mp(TrigPoly(PLANTED.terms, PLANTED.den), 3.7, 1e-30)        # builds harmonic tables
    bessel_j(3.4, 40.0)              # escalates the series precision (30 -> 60)
    bessel_stack_values(3.4, 40.0, 5)  # one series pass per precision for six orders
    minor_values(4, 3.0)             # two elimination passes (40 and 80 digits)
    assert (mpmath.mp.dps, mpmath.mp.prec) == before


def test_json_round_trip():
    f3 = spherical_fn(3)
    d = to_json_dict(f3)
    assert d["1"]["sin"] == ["15/1", "0/1", "-6/1"]
    assert from_json_dict(d) == f3


def test_format():
    assert format_trigpoly(spherical_fn(0)) == "(1)*sin(x)"
    assert format_trigpoly(tp_zero()) == "0"
