"""Determinant evaluators: named small determinants, minors, dual paths."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath.libmp import from_man_exp, to_float

from chebcrit import determinants
from chebcrit.bessel import fn_zero
from chebcrit.determinants import (
    DerivStack,
    admissible_j,
    canonical_basis,
    hankel_det,
    minor_values,
    stack_from_spherical,
    stack_from_trigpoly,
    symbolic_minor,
    symbolic_v,
    symbolic_w,
    v_det,
    w_det,
    w_prime_det,
    wronskian_minor,
)
from chebcrit.errors import NumericalFailure, UsageError
from chebcrit.trigpoly import (
    fn_derivatives,
    maclaurin,
    spherical_fn,
    tp_add,
    tp_diff,
    tp_eval,
    tp_eval_mp,
    tp_from_poly,
    tp_mul,
    tp_neg,
    tp_sin,
    tp_sub,
    tp_term,
    vanishing_order,
)


# ---------------------------------------------------------------- v_det / w_det

def test_v_of_f0_is_one():
    for x in (0.4, 1.0, 2.9, 17.0):
        s = stack_from_spherical(0, x, 2)
        assert abs(v_det(s) - 1.0) <= 1e-14


def test_v_with_vanishing_f():
    s = DerivStack(1.0, (0.0, 3.0, -7.0))
    assert v_det(s) == 9.0


def test_v_of_power_function():
    # v(x^3) at x=2: alpha x^(2 alpha - 2) = 3 * 2^4 = 48
    s = DerivStack(2.0, (8.0, 12.0, 12.0))
    assert v_det(s) == 48.0


def test_w_of_sin_vanishes():
    s = stack_from_spherical(0, 1.0, 4)
    assert abs(w_det(s)) <= 1e-15


def test_w_of_f1_vanishes_at_first_zero():
    z = fn_zero(1, 1).value
    s = stack_from_spherical(1, z, 4)
    assert abs(w_det(s)) <= 1e-9


def test_w_plus_hankel_is_zero():
    rng = random.Random(99)
    for _ in range(30):
        vals = tuple(rng.uniform(-4, 4) for _ in range(5))
        s = DerivStack(1.0, vals)
        w = w_det(s)
        h = hankel_det(s)
        assert abs(w + h) <= 1e-13 * max(1.0, abs(w))


def test_w_prime_matches_symbolic_derivative():
    for n in (1, 2, 4):
        wp = tp_diff(symbolic_w(n))
        for x in (0.8, 2.5, 6.0):
            s = stack_from_spherical(n, x, 5)
            want = tp_eval(wp, x)
            assert abs(w_prime_det(s) - want) <= 1e-11 * max(1.0, abs(want))


def test_stack_depth_validation():
    s = DerivStack(1.0, (1.0, 2.0, 3.0))
    with pytest.raises(UsageError):
        w_det(s)
    with pytest.raises(UsageError):
        DerivStack(1.0, (1.0, 2.0))


def test_stack_has_slots_and_refuses_mutation():
    # verify caches one stack per abscissa: no per-instance __dict__
    s = stack_from_spherical(3, 1.5, 4)
    assert not hasattr(s, "__dict__")
    assert DerivStack.__slots__ == ("x", "values")
    with pytest.raises(AttributeError):
        s.x = 2.0
    # a name that is no field is refused as well: TypeError on Python
    # 3.10-3.13, whose frozen __setattr__ names the class that slots=True
    # replaced, AttributeError where that is fixed
    with pytest.raises((AttributeError, TypeError)):
        s.extra = 1
    assert s == stack_from_spherical(3, 1.5, 4)


# ---------------------------------------------------------------- minors

def test_minor_top_j_is_fn():
    for n in (0, 1, 3):
        x = 2.2
        got = wronskian_minor(n, 2 * n + 1, x)
        assert abs(got - tp_eval(spherical_fn(n), x)) <= 1e-13 * max(1.0, abs(got))


def test_minor_2n_is_v():
    for n in (1, 2, 4):
        x = 1.7
        got = wronskian_minor(n, 2 * n, x)
        want = v_det(stack_from_spherical(n, x, 2))
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def test_minor_2n_minus_1_equals_w_with_positive_sign():
    # measured sign between the j = 2n-1 minor and w(f_n) is +1 (n >= 2;
    # for n = 1 that index falls outside the admissible range)
    for n in (2, 3, 4, 5, 6):
        x = 1.0
        got = wronskian_minor(n, 2 * n - 1, x)
        want = w_det(stack_from_spherical(n, x, 4))
        assert abs(got - want) <= 1e-10 * max(abs(want), 1e-30)
        assert got * want > 0


def test_minor_argument_validation():
    with pytest.raises(UsageError):
        wronskian_minor(2, 2, 1.0)  # j <= (2n+1)/2
    with pytest.raises(UsageError):
        wronskian_minor(2, 6, 1.0)  # j > 2n+1
    with pytest.raises(UsageError):
        wronskian_minor(2, 3, 0.0)  # x must be positive


def test_admissible_range():
    assert list(admissible_j(0)) == [1]
    assert list(admissible_j(2)) == [3, 4, 5]


def _forget_minors(monkeypatch):
    """Empty minor_values' memo of the last abscissa, so the next call
    evaluates and eliminates afresh."""
    monkeypatch.setattr(determinants, "_last", (None, None, ()))


def test_minor_values_batch_matches_single(monkeypatch):
    # x = 11.0317... is the refined zero of the n = 6, j = 11 minor; every
    # minor is exact in the entries, so the batch and the single-minor
    # slice agree bit for bit: each slice from a cold memo, and the slices
    # in ascending j (memo hits) and in descending j (a fresh elimination
    # per call) after one cold start each
    for n, x in ((3, 2.4), (6, 11.031776717530253)):
        _forget_minors(monkeypatch)
        batch = minor_values(n, x)
        assert sorted(batch) == list(admissible_j(n))
        for j, val in batch.items():
            _forget_minors(monkeypatch)
            assert val == wronskian_minor(n, j, x)
        for order in (sorted(batch), sorted(batch, reverse=True)):
            _forget_minors(monkeypatch)
            assert {j: wronskian_minor(n, j, x) for j in order} == batch


def test_interleaved_points_match_fresh_minors(monkeypatch):
    # the memo holds one (n, x): calls that hop between points, orders and
    # subsets of j must each give what a cold evaluation gives
    points = [(2, 0.7), (5, 0.7), (5, 3.1), (4, 0.004), (6, 3.1), (3, 9.5)]
    fresh = {}
    for n, x in points:
        _forget_minors(monkeypatch)
        fresh[n, x] = minor_values(n, x)
    rng = random.Random(2024)
    for _ in range(300):
        n, x = rng.choice(points)
        js = rng.sample(list(admissible_j(n)), rng.randint(1, n + 1))
        if len(js) == 1 and rng.random() < 0.5:
            assert wronskian_minor(n, js[0], x) == fresh[n, x][js[0]], (n, x, js)
        else:
            assert minor_values(n, x, js) == {j: fresh[n, x][j] for j in js}, (n, x, js)


# ---------------------------------------------------------------- Hankel elimination

def _exact_det(rows):
    """Exact determinant by cofactor expansion along the first row (exact
    for ints and Fractions, and for mpfs at a precision that rounds nothing)."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** t * rows[0][t] * _exact_det([r[:t] + r[t + 1:] for r in rows[1:]])
               for t in range(len(rows)))


#: mpf operators at this many bits round nothing in the determinants below
#: (every one needs under 5000)
_EXACT_PREC = 1 << 14


def _mpf_det(rows):
    """The determinant of int or mpf rows through mpf operators, without
    rounding."""
    with mpmath.workprec(_EXACT_PREC):
        return _exact_det([[mpmath.mpf(v) for v in r] for r in rows])


def _ref_lu_det(rows):
    """Determinant by LU with scaled partial pivoting through mpf operators
    at the current precision (a column with no nonzero candidate gives 0)."""
    a = [list(r) for r in rows]
    nrows = len(a)
    scales = [max(abs(x) for x in r) for r in a]
    if any(s == 0 for s in scales):
        return mpmath.mpf(0)
    det = mpmath.mpf(1)
    for col in range(nrows):
        piv = max(range(col, nrows), key=lambda r: abs(a[r][col]) / scales[r])
        if not a[piv][col]:
            return mpmath.mpf(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            scales[col], scales[piv] = scales[piv], scales[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, nrows):
            factor = a[r][col] * inv
            if factor:
                for c in range(col, nrows):
                    a[r][c] -= factor * a[col][c]
    return det


def _wronskian_grid(n, s):
    """The s x s Wronskian W(f_n^(s-1), ..., f_n) as ring elements, in
    basis column order: entry (r, t) = f_n^(s-1-t+r).  It is
    W(u_j..u_{2n+1}) for s = 2n+2-j, and the matrix of v(f_n) and w(f_n)
    for s = 2 and 3."""
    derivs = fn_derivatives(n, 2 * s - 2)
    return [[derivs[s - 1 - t + r] for t in range(s)] for r in range(s)]


def _pivoted_minor(n, j, x):
    """w_j by scaled-pivot LU on W itself, validated by precision doubling."""
    grid = _wronskian_grid(n, 2 * n + 2 - j)
    rows = [[_mpf(tp_eval_mp(tp, x)) for tp in row] for row in grid]
    dps = 40
    with mpmath.workdps(dps):
        prev = _ref_lu_det(rows)
    while dps <= 1280:
        dps *= 2
        with mpmath.workdps(dps):
            det = _ref_lu_det(rows)
            if abs(det - prev) <= 1e-13 * abs(det):
                return float(det)
        prev = det
    raise AssertionError("reference LU did not stabilize")


def _planted_mpfs(vals):
    """The rationals vals as mpfs to 400 digits."""
    with mpmath.workdps(400):
        return [mpmath.mpf(v.numerator) / v.denominator for v in map(Fraction, vals)]


def _mpf(pair):
    """The exact mpf of a dyadic pair (man, exp)."""
    return mpmath.mp.make_mpf(from_man_exp(*pair))


def _pair(v):
    """The dyadic pair (man, exp) of the mpf v, as tp_eval_mp gives values."""
    sign, man, exp, _ = v._mpf_
    return (-man if sign else man), exp


def _plant_entries(monkeypatch, n, vals):
    """Make f_n^(k)(x) evaluate to the rational vals[k] (to 400 digits) for
    any x, with minor_values' memo emptied so that it reads them."""
    derivs = fn_derivatives(n, 2 * n)
    planted = [_pair(v) for v in _planted_mpfs(vals)]
    _forget_minors(monkeypatch)
    monkeypatch.setattr(determinants, "tp_eval_mp", lambda d, x: planted[derivs.index(d)])


def _exact_minors(n, vals):
    """{j: w_j} exactly, from W(u_j..u_{2n+1}) in basis column order:
    entry (r, t) = f^(s-1-t+r), s = 2n+2-j."""
    out = {}
    for j in admissible_j(n):
        s = 2 * n + 2 - j
        out[j] = _exact_det([[Fraction(vals[s - 1 - t + r]) for t in range(s)]
                             for r in range(s)])
    return out


def _hankel_block(vals, s):
    return [[vals[r + t] for t in range(s)] for r in range(s)]


def _count_pivoted_dets(monkeypatch):
    """Record the size of every block _bareiss_det is asked for."""
    sizes = []
    bareiss_det = determinants._bareiss_det

    def counting(rows):
        sizes.append(len(rows))
        return bareiss_det(rows)

    monkeypatch.setattr(determinants, "_bareiss_det", counting)
    return sizes


#: integer Hankel entries whose leading minors H_1..H_(s-1) vanish exactly at
#: each position in turn, two of them in a row twice
_PLANTED_ZERO_PIVOTS = [
    (0, 1, 3, -2, 5),        # n = 2: H_1 = 0
    (1, 1, 1, 2, 5),         # n = 2: H_2 = 0
    (0, 1, 3, -2, 5, 1, 4),  # n = 3: H_1 = 0
    (1, 1, 1, 2, 5, 3, 2),   # n = 3: H_2 = 0
    (1, 0, 1, 0, 1, 2, 3),   # n = 3: H_3 = 0
    (0, 0, 2, 1, 1, 2, 7),   # n = 3: H_1 = H_2 = 0
    (1, 1, 1, 1, 2, 3, 5),   # n = 3: H_2 = H_3 = 0
]


@pytest.mark.parametrize("vals", _PLANTED_ZERO_PIVOTS)
def test_zero_pivot_falls_back_to_pivoted_lu(monkeypatch, vals):
    # the fallback is Bareiss's fraction-free LU with row exchanges, run on
    # the block of every requested size from the first zero pivot on
    n = (len(vals) - 1) // 2
    _plant_entries(monkeypatch, n, vals)
    fallback_sizes = _count_pivoted_dets(monkeypatch)
    got = minor_values(n, 1.0)
    hankel = {s: _exact_det(_hankel_block(vals, s)) for s in range(1, n + 2)}
    first_zero = min(s for s, d in hankel.items() if d == 0)
    assert first_zero <= n
    assert sorted(fallback_sizes) == list(range(first_zero, n + 2))
    want = _exact_minors(n, vals)
    assert {j: want[j] == 0 for j in want} == {
        j: hankel[2 * n + 2 - j] == 0 for j in want}
    for j, val in got.items():
        assert val == float(want[j]), (j, val, want[j])
        s = 2 * n + 2 - j
        assert val == (-1) ** (s * (s - 1) // 2) * float(hankel[s])


def test_minor_past_a_tiny_pivot_is_exact(monkeypatch):
    # the second pivot is 1e-30 * 3, so det H_2 and det H_4 sit thirty
    # digits below the products that make them: an elimination rounded to
    # 40 digits loses them, the exact one needs no second pass
    n = 3
    vals = (3, 1, Fraction(1, 3) + Fraction(1, 10 ** 30), 1, 1, 2, 7)
    _plant_entries(monkeypatch, n, vals)
    fallback_sizes = _count_pivoted_dets(monkeypatch)
    got = minor_values(n, 1.0)
    assert fallback_sizes == []
    want = _exact_minors(n, vals)
    for j, val in got.items():
        assert val == float(want[j])
        assert val == wronskian_minor(n, j, 1.0)


def test_minor_below_the_roundoff_of_its_elimination_keeps_its_sign(monkeypatch):
    # det H_3 of these entries is -1e-100/9, so w_3 = 1e-100/9; at 80 digits
    # the elimination leaves a roundoff of ~6e-83 with the other sign, which
    # any absolute acceptance test (say 1e-25 of the Hadamard scale) would
    # take for w_3; relative agreement between two precisions waits for the
    # precision that resolves it
    n = 2
    vals = (Fraction(1, 3), Fraction(1, 3), Fraction(2, 3), 1,
            Fraction(5, 3) - Fraction(1, 10 ** 100))
    _plant_entries(monkeypatch, n, vals)
    got = minor_values(n, 1.0)
    want = _exact_minors(n, vals)
    assert want[3] == Fraction(1, 9 * 10 ** 100)
    assert got == {j: float(w) for j, w in want.items()}
    assert got[3] == 1.1111111111111112e-101


@pytest.mark.parametrize("n", [5, 6])
def test_hankel_sign_convention_against_symbolic(n):
    for x in (0.5, 3.7, 7.9, 11.0):
        for j in admissible_j(n):
            a = tp_eval(symbolic_minor(n, j), x)
            b = wronskian_minor(n, j, x)
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b)), (n, j, x, a, b)


def _refined_minor_zeros():
    ref = json.loads((Path(__file__).resolve().parent.parent
                      / "perfbench" / "critlen_reference.json").read_text())
    return [(r["n"], p["j"], p["first_zero"]) for r in ref["reports"]
            for p in r["per_j"]
            if p["first_zero"] is not None and p["j"] < 2 * r["n"] + 1]


def test_hankel_minors_match_pivoted_lu_at_refined_zeros():
    # at the zero of w_j the leading minor det H_s vanishes, so every larger
    # size is read off past a tiny pivot: the hard case for no pivoting
    zeros = _refined_minor_zeros()
    assert len(zeros) == 9
    for n, _, x in zeros:
        got = minor_values(n, x)
        for j in admissible_j(n):
            assert got[j] == _pivoted_minor(n, j, x), (n, j, x)


def _entries(n, x):
    return [_mpf(tp_eval_mp(d, x)) for d in fn_derivatives(n, 2 * n)]


def _ref_hankel_minors(vals, sizes):
    """{s: det H_s} of mpf entries, through mpf operators without rounding."""
    return {s: _mpf_det(_hankel_block(vals, s)) for s in sizes}


def _raw_minors(vals, size):
    """_exact_hankel_minors of mpf entries, as dyadic pairs, each (d, e) as
    the raw mpf of d 2^e, normalized without rounding."""
    got = determinants._exact_hankel_minors([_pair(v) for v in vals], size)
    return [from_man_exp(d, e) for d, e in got]


@pytest.mark.parametrize("n", range(7))
def test_raw_elimination_is_bit_identical_to_mpf_operators(n):
    # the integer elimination on the dyadic pairs gives the very bits of
    # the exact determinant that mpf operators expand from the same entries
    sizes = list(range(1, n + 2))
    for x in (0.004, 0.3, 2.5, 7.9, 13.0):
        vals = _entries(n, x)
        want = _ref_hankel_minors(vals, sizes)
        assert _raw_minors(vals, n + 1) == [want[s]._mpf_ for s in sizes], (n, x)


@pytest.mark.parametrize("vals", _PLANTED_ZERO_PIVOTS)
def test_raw_elimination_matches_at_planted_zero_pivots(monkeypatch, vals):
    lu_sizes = _count_pivoted_dets(monkeypatch)
    entries = _planted_mpfs(vals)
    sizes = list(range(1, (len(vals) + 3) // 2))
    want = _ref_hankel_minors(entries, sizes)
    assert _raw_minors(entries, sizes[-1]) == [want[s]._mpf_ for s in sizes]
    assert lu_sizes  # the fallback ran


def test_upper_triangle_pass_matches_pivoted_elimination_of_every_block():
    # seeded random integer Hankel sequences, many with zero entries, so
    # that leading minors vanish (a zero pivot) before nonzero larger ones;
    # each leading minor against the full row-exchanging elimination
    rng = random.Random(11)
    zero_pivots = 0
    for _ in range(200):
        size = rng.randint(1, 7)
        ints = [rng.choice((0, 0, 1, -1, rng.randint(-10 ** 30, 10 ** 30)))
                for _ in range(2 * size - 1)]
        got = determinants._exact_hankel_minors([(v, 0) for v in ints], size)
        assert len(got) == size
        want = [determinants._bareiss_det(_hankel_block(ints, s)) for s in range(1, size + 1)]
        assert [d << e for d, e in got] == want, ints
        zero_pivots += any(not d for d in want[:-1]) and bool(want[-1])
    assert zero_pivots >= 20


def test_pivoted_elimination_is_bit_identical_to_mpf_operators():
    # random integer blocks, a third of them singular (one row an integer
    # multiple of another), with zeros that force row exchanges
    rng = random.Random(7)
    zero_dets = 0
    for trial in range(120):
        size = rng.randint(1, 5)
        rows = [[rng.choice((0, rng.randint(-9 * 10 ** 40, 9 * 10 ** 40)))
                 for _ in range(size)] for _ in range(size)]
        if trial % 3 == 0 and size > 1:
            src, dst = rng.sample(range(size), 2)
            rows[dst] = [rng.randint(-3, 3) * v for v in rows[src]]
        got = determinants._bareiss_det(rows)
        want = _mpf_det(rows)
        assert got == want, trial
        zero_dets += not want
    assert zero_dets >= 30


def test_minor_values_rounds_the_validated_minor_to_nearest():
    # libmp's to_float rounds toward zero by default; the minors must be the
    # nearest doubles, and for these abscissae the two differ for many of them
    directed = 0
    for n in range(1, 7):
        for x in (0.3, 2.5, 7.9):
            got = minor_values(n, x)
            want = _ref_hankel_minors(_entries(n, x), list(range(1, n + 2)))
            for j, val in got.items():
                s = 2 * n + 2 - j
                v = want[s] if s * (s - 1) // 2 % 2 == 0 else -want[s]
                assert val == float(v), (n, j, x)  # float(mpf) rounds to nearest
                directed += val != to_float(v._mpf_)
    assert directed >= 5


# ---------------------------------------------------------------- symbolic route

def test_minor_beyond_the_double_range_is_a_numerical_failure():
    # |w_j(f_16)(30)| exceeds the largest double for j = 17..19
    with pytest.raises(NumericalFailure, match="w_17 of n = 16 at x=30.0 overflows"):
        minor_values(16, 30.0)
    with pytest.raises(NumericalFailure, match="overflows double precision"):
        wronskian_minor(16, 19, 30.0)
    assert math.isfinite(wronskian_minor(16, 20, 30.0))


def test_minor_below_the_double_range_is_a_numerical_failure():
    # w_11..w_16 of f_10 at 1e-3 are certified and positive but round to 0.0;
    # subnormal minors (w_10 and w_11 of n = 9, near 3e-313 and 1.7e-317) pass
    with pytest.raises(NumericalFailure, match="w_11 of n = 10 at x=0.001 underflows"):
        minor_values(10, 1e-3)
    with pytest.raises(NumericalFailure, match="underflows double precision"):
        wronskian_minor(10, 16, 1e-3)
    assert 0 < wronskian_minor(10, 17, 1e-3)
    got = minor_values(9, 1e-3)
    assert 0 < got[10] < 2.2e-308 and 0 < got[11] < 1e-316


def test_symbolic_minor_n1_j2_closed_form():
    # v(f_1) = cos(2x)/2 + x^2 - 1/2
    got = symbolic_minor(1, 2)
    expected = tp_add(tp_term(2, (Fraction(1, 2),), ()),
                      tp_from_poly((Fraction(-1, 2), 0, 1)))
    assert got == expected
    assert got == symbolic_v(1)


def test_symbolic_minor_n0_is_sin():
    assert symbolic_minor(0, 1) == tp_sin()


def test_symbolic_vs_numeric_dual_path():
    n, j = 2, 3
    sym = symbolic_minor(n, j)
    for i in range(200):
        x = 0.05 + (30.0 - 0.05) * i / 199.0
        a = tp_eval(sym, x)
        b = wronskian_minor(n, j, x)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1e-30), (x, a, b)


def test_symbolic_w_equals_minor():
    for n in (2, 3):
        assert symbolic_minor(n, 2 * n - 1) == symbolic_w(n)


def test_symbolic_v_and_w_match_their_expansions():
    # the size-2 and size-3 minors against v and w expanded by hand,
    # including n = 0 and 1, where j = 2n - 1 is not an admissible index
    for n in range(6):
        f, f1, f2, f3, f4 = fn_derivatives(n, 4)
        assert symbolic_v(n) == tp_sub(tp_mul(f1, f1), tp_mul(f2, f))
        w = tp_add(tp_sub(tp_mul(f2, tp_sub(tp_mul(f2, f2), tp_mul(f3, f1))),
                          tp_mul(f1, tp_sub(tp_mul(f3, f2), tp_mul(f4, f1)))),
                   tp_mul(f, tp_sub(tp_mul(f3, f3), tp_mul(f4, f2))))
        assert symbolic_w(n) == w


def _ring_det(grid):
    """Determinant of a grid of ring elements by cofactor expansion along
    its first row, with no memo."""
    if len(grid) == 1:
        return grid[0][0]
    total = None
    for t, entry in enumerate(grid[0]):
        term = tp_mul(entry, _ring_det([row[:t] + row[t + 1:] for row in grid[1:]]))
        term = term if t % 2 == 0 else tp_neg(term)
        total = term if total is None else tp_add(total, term)
    return total


def test_symbolic_minors_match_a_wronskian_expansion():
    # the Hankel expansion against the Wronskian W(u_j..u_{2n+1}) itself,
    # in basis column order, expanded along another line
    for n in range(5):
        for j in admissible_j(n):
            assert symbolic_minor(n, j) == _ring_det(_wronskian_grid(n, 2 * n + 2 - j)), (n, j)
        assert symbolic_v(n) == _ring_det(_wronskian_grid(n, 2))
        assert symbolic_w(n) == _ring_det(_wronskian_grid(n, 3))


def test_symbolic_budget():
    with pytest.raises(UsageError):
        symbolic_minor(7, 10)


# ---------------------------------------------------------------- canonical basis

def test_canonical_basis_vanishing_orders():
    for n in range(1, 7):
        basis = canonical_basis(n)
        assert len(basis) == 2 * n + 2
        for k, b in enumerate(basis):
            assert vanishing_order(b) == k
            coeffs = maclaurin(b, k + 1)
            assert all(c == 0 for c in coeffs[:k])


# ---------------------------------------------------------------- ring-element stacks

def test_product_rule_for_v():
    # v(fg) = v(f) g^2 + f^2 v(g), pointwise on random ring elements
    rng = random.Random(4242)
    gens = [tp_sin(), tp_term(1, (0, 1), ()), tp_from_poly((1, Fraction(1, 2)))]
    for _ in range(8):
        f = tp_add(rng.choice(gens), rng.choice(gens))
        g = tp_mul(rng.choice(gens), rng.choice(gens))
        fg = tp_mul(f, g)
        for x in (0.7, 2.3, 11.0):
            vf = v_det(stack_from_trigpoly(f, x, 2))
            vg = v_det(stack_from_trigpoly(g, x, 2))
            vfg = v_det(stack_from_trigpoly(fg, x, 2))
            fx = tp_eval(f, x)
            gx = tp_eval(g, x)
            rhs = vf * gx * gx + fx * fx * vg
            assert abs(vfg - rhs) <= 1e-11 * max(1.0, abs(vfg), abs(rhs))
