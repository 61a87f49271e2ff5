"""Determinant evaluators: named small determinants, minors, dual paths."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath.libmp import to_float

from chebcrit import determinants
from chebcrit.bessel import bessel_zero, fn_zero
from chebcrit.critlen import EPSILON, SCAN_DIVISIONS
from chebcrit.determinants import (
    _lu_det,
    _minor_entry_grid,
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
from chebcrit.errors import UsageError
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
    tp_sin,
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


def test_minor_values_batch_matches_single():
    # x = 11.0317... is the refined zero of the n = 6, j = 11 minor; each
    # minor is frozen at the precision where it validates, so the batch
    # and the single-minor slice agree bit for bit
    for n, x in ((3, 2.4), (6, 11.031776717530253)):
        batch = minor_values(n, x)
        assert sorted(batch) == list(admissible_j(n))
        for j, val in batch.items():
            assert val == wronskian_minor(n, j, x)


# ---------------------------------------------------------------- Hankel elimination

def _exact_det(rows):
    """Exact integer determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** t * rows[0][t] * _exact_det([r[:t] + r[t + 1:] for r in rows[1:]])
               for t in range(len(rows)))


def _pivoted_minor(n, j, x):
    """w_j by scaled-pivot LU on W itself, validated by precision doubling."""
    grid = _minor_entry_grid(n, j)
    rows = [[tp_eval_mp(tp, x, 1e-30) for tp in row] for row in grid]
    dps = 40
    with mpmath.workdps(dps):
        prev = _lu_det(rows)
    while dps <= 1280:
        dps *= 2
        with mpmath.workdps(dps):
            det = _lu_det(rows)
            gap = abs(det - prev)
            had = mpmath.fprod(mpmath.norm(r) for r in rows)
            if gap <= 1e-13 * abs(det) or gap <= had * mpmath.mpf("1e-25"):
                return float(det)
        prev = det
    raise AssertionError("reference LU did not stabilize")


def _planted_mpfs(vals):
    """The rationals vals as mpfs to 400 digits."""
    with mpmath.workdps(400):
        return [mpmath.mpf(v.numerator) / v.denominator for v in map(Fraction, vals)]


def _plant_entries(monkeypatch, n, vals):
    """Make f_n^(k)(x) evaluate to the rational vals[k] (to 400 digits) for any x."""
    derivs = fn_derivatives(n, 2 * n)
    planted = _planted_mpfs(vals)
    monkeypatch.setattr(determinants, "tp_eval_mp",
                        lambda d, x, rtol: planted[derivs.index(d)])


@pytest.mark.parametrize("vals", [
    (0, 1, 3, -2, 5),  # H_1 = 0: the first pivot is zero
    (1, 1, 1, 2, 5),   # H_2 = 0: the second pivot is exactly zero
])
def test_zero_pivot_falls_back_to_pivoted_lu(monkeypatch, vals):
    n = 2
    _plant_entries(monkeypatch, n, vals)
    fallback_sizes = []

    def counting_lu(rows):
        fallback_sizes.append(len(rows))
        return _lu_det(rows)

    monkeypatch.setattr(determinants, "_lu_det", counting_lu)
    got = minor_values(n, 1.0)
    assert fallback_sizes
    for j, val in got.items():
        s = 2 * n + 2 - j
        # W(u_j..u_{2n+1}) itself, in basis column order: entry (r, t) = f^(s-1-t+r)
        want = _exact_det([[vals[s - 1 - t + r] for t in range(s)] for r in range(s)])
        assert abs(val - want) <= 1e-15 * abs(want)
        if s > 1:
            hankel = [[mpmath.mpf(vals[r + t]) for t in range(s)] for r in range(s)]
            with mpmath.workdps(80):
                assert val == (-1) ** (s * (s - 1) // 2) * float(_lu_det(hankel))


def test_minor_frozen_at_the_precision_where_it_validates(monkeypatch):
    # the tiny second pivot 1e-30 makes the third elimination step grow the
    # 40-digit roundoff past the absolute floor in det H_4 alone: sizes 1..3
    # validate at 80 digits, and the 160-digit pass recomputes size 4 only
    n = 3
    vals = (3, 1, Fraction(1, 3) + Fraction(1, 10 ** 30), 1, 1, 2, 7)
    _plant_entries(monkeypatch, n, vals)
    passes = []
    hankel_minors = determinants._hankel_minors

    def recording(entries, sizes):
        passes.append((mpmath.mp.dps, tuple(sizes)))
        return hankel_minors(entries, sizes)

    monkeypatch.setattr(determinants, "_hankel_minors", recording)
    got = minor_values(n, 1.0)
    assert passes[-1] == (160, (4,))
    for j, val in got.items():
        s = 2 * n + 2 - j
        want = _exact_det([[Fraction(vals[s - 1 - t + r]) for t in range(s)]
                           for r in range(s)])
        assert val == float(want)
        assert val == wronskian_minor(n, j, 1.0)


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


def test_first_scan_points_validate_without_the_hadamard_floor(monkeypatch):
    # near the origin |w_j| is far below 1e-25 * Hadamard (log10 ratio about
    # -91 at n = 6, x = 1e-3), so the floor could certify nothing there: the
    # relative test alone must accept the first critical-length abscissae
    xs_by_n = {}
    for n in range(7):
        step = bessel_zero(n + 0.5, 1).value / SCAN_DIVISIONS
        xs_by_n[n] = [EPSILON + i * step for i in range(4)]
    before = {(n, x): minor_values(n, x) for n, xs in xs_by_n.items() for x in xs}
    monkeypatch.setattr(determinants, "_DET_ABS_FLOOR", "0")
    for (n, x), vals in before.items():
        assert minor_values(n, x) == vals, (n, x)


def _ref_hankel_minors(vals, sizes):
    """The unpivoted elimination through mpf operators, on mpf entries, as
    _hankel_minors computed it before it ran on raw libmp tuples."""
    a = [[vals[r + t] for t in range(max(sizes))] for r in range(max(sizes))]
    out = {}
    for k, row in enumerate(a):
        piv = row[k]
        if not piv:
            for s in sizes:
                if s > k:
                    out[s] = _lu_det([[vals[r + t] for t in range(s)] for r in range(s)])
            break
        tau = tau * piv if k else piv
        if k + 1 in sizes:
            out[k + 1] = tau
        inv = 1 / piv
        for below in a[k + 1:]:
            factor = below[k] * inv
            if factor:
                for c in range(k + 1, len(a)):
                    below[c] -= factor * row[c]
    return out


def _ref_validated_minors(vals, sizes):
    """The validated minors as mpfs, through _ref_hankel_minors and mpf
    operators (the acceptance rule of _validated_hankel_minors)."""
    dps = 40
    with mpmath.workdps(dps):
        prev = _ref_hankel_minors(vals, sizes)
    out = {}
    while len(out) < len(sizes):
        dps *= 2
        with mpmath.workdps(dps):
            cur = _ref_hankel_minors(vals, [s for s in sizes if s not in out])
            for s, v in cur.items():
                gap = abs(v - prev[s])
                if gap > mpmath.mpf(1e-13) * abs(v):
                    hankel = [[vals[r + t] for t in range(s)] for r in range(s)]
                    had = mpmath.fprod(mpmath.norm(r) for r in hankel)
                    if gap > had * mpmath.mpf("1e-25"):
                        continue
                out[s] = v
        prev = cur
    return out


def _entries(n, x):
    return [tp_eval_mp(d, x, 1e-30) for d in fn_derivatives(n, 2 * n)]


_PLANTED_ZERO_PIVOTS = [(0, 1, 3, -2, 5), (1, 1, 1, 2, 5), (0, 0, 2, 1, 1, 2, 7)]


@pytest.mark.parametrize("n", range(7))
def test_raw_elimination_is_bit_identical_to_mpf_operators(n):
    sizes = list(range(1, n + 2))
    for x in (0.004, 0.3, 2.5, 7.9, 13.0):
        vals = _entries(n, x)
        for dps in (40, 80, 160):
            with mpmath.workdps(dps):
                got = determinants._hankel_minors([v._mpf_ for v in vals], sizes)
                want = _ref_hankel_minors(vals, sizes)
            assert got == {s: v._mpf_ for s, v in want.items()}, (n, x, dps)


@pytest.mark.parametrize("vals", _PLANTED_ZERO_PIVOTS)
def test_raw_elimination_matches_at_planted_zero_pivots(monkeypatch, vals):
    lu_sizes = []

    def counting_lu(rows):
        lu_sizes.append(len(rows))
        return _lu_det(rows)

    monkeypatch.setattr(determinants, "_lu_det", counting_lu)
    entries = _planted_mpfs(vals)
    sizes = list(range(1, (len(vals) + 3) // 2))
    for dps in (40, 80, 160):
        with mpmath.workdps(dps):
            got = determinants._hankel_minors([v._mpf_ for v in entries], sizes)
            want = _ref_hankel_minors(entries, sizes)
        assert got == {s: v._mpf_ for s, v in want.items()}, dps
    assert lu_sizes  # the fallback ran


def test_minor_values_rounds_the_validated_minor_to_nearest():
    # libmp's to_float rounds toward zero by default; the minors must be the
    # nearest doubles, and for these abscissae the two differ for many of them
    directed = 0
    for n in range(1, 7):
        for x in (0.3, 2.5, 7.9):
            got = minor_values(n, x)
            want = _ref_validated_minors(_entries(n, x), list(range(1, n + 2)))
            for j, val in got.items():
                s = 2 * n + 2 - j
                v = want[s] if s * (s - 1) // 2 % 2 == 0 else -want[s]
                assert val == float(v), (n, j, x)  # float(mpf) rounds to nearest
                directed += val != to_float(v._mpf_)
    assert directed >= 5


# ---------------------------------------------------------------- symbolic route

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
