"""Identity registry: every displayed relation verified at spot values."""

from __future__ import annotations

import math

import pytest

from chebcrit.bessel import bessel_zero, fn_zero
from chebcrit.determinants import DerivStack, symbolic_v, v_det
from chebcrit.errors import SingularPointError, UsageError
from chebcrit.identities import (
    IDENTITY_TAGS,
    REGISTRY,
    a23_coeffs,
    applicability,
    builtin_stack,
    cubic_coeffs,
    integral_check,
    positivity_criterion,
    residual,
    residual_parts,
    run_all,
    run_identity,
    v_aux,
)
from chebcrit.models import (
    CoeffModel,
    bessel_model,
    check_model_consistency,
    parse_model,
    spherical_model,
)
from chebcrit.trigpoly import tp_diff, tp_eval, tp_term


def linear_p_model():
    # p = x, q = -1: the positivity criterion evaluates to -1 < 0
    return CoeffModel(
        name="linear-p",
        p=lambda x: x, dp=lambda x: 1.0, d2p=lambda x: 0.0,
        d3p=lambda x: 0.0, d4p=lambda x: 0.0,
        q=lambda x: -1.0, dq=lambda x: 0.0, d2q=lambda x: 0.0,
        domain=(-math.inf, math.inf), qprime_is_zero=True,
    )


# ---------------------------------------------------------------- models

def test_builtin_model_derivatives_consistent():
    check_model_consistency(spherical_model(3), (0.7, 2.1, 9.0))
    check_model_consistency(bessel_model(2.5), (0.7, 2.1, 9.0))


def test_parse_model():
    assert parse_model("spherical:4").param == 4.0
    assert parse_model("bessel:2.5").param == 2.5
    with pytest.raises(UsageError):
        parse_model("weird:1")
    with pytest.raises(UsageError):
        parse_model("spherical")


def test_bessel_nu0_has_qprime_zero():
    assert bessel_model(0.0).qprime_is_zero
    assert not bessel_model(1.5).qprime_is_zero


# ---------------------------------------------------------------- pointwise residuals

def test_prop1_spot():
    model = spherical_model(2)
    s = builtin_stack(model, 1.7, 3)
    assert residual("prop1", model, s) <= 1e-11


def test_prop1_bessel():
    model = bessel_model(2.5)
    s = builtin_stack(model, 3.3, 3)
    res, scale = residual_parts("prop1", model, s)
    assert res <= 1e-12 * max(1.0, scale)


def test_remark_zero_at_first_zero_of_f2():
    model = spherical_model(2)
    z = fn_zero(2, 1).value
    s = builtin_stack(model, z, 4)
    assert residual("remark-zero", model, s) <= 1e-9


def test_thm_main4_spot():
    model = spherical_model(3)
    s = builtin_stack(model, 2.0, 5)
    assert residual("thm-main4", model, s) <= 1e-9


POINTWISE_TAGS = [tag for tag, info in REGISTRY.items() if info.residual is not None]


@pytest.mark.parametrize("tag", POINTWISE_TAGS)
def test_residuals_return_the_terms_of_their_two_sides(tag):
    info = REGISTRY[tag]
    model = spherical_model(3)
    x = fn_zero(3, 1).value if info.kind == "zero-point" else 2.0
    s = builtin_stack(model, x, info.min_depth)
    lhs, rhs = info.residual(model, s)
    assert lhs and rhs and all(isinstance(t, float) for t in lhs + rhs)
    res, scale = residual_parts(tag, model, s)
    assert res == abs(sum(lhs) - sum(rhs))
    assert scale == sum(abs(t) for t in lhs + rhs)
    assert res <= 1e-12 * max(1.0, scale)


def test_negative_tol_is_a_usage_error():
    model = spherical_model(2)
    with pytest.raises(UsageError):
        run_identity("prop1", model, lo=0.5, hi=2.0, points=3, tol=-1.0)
    with pytest.raises(UsageError):
        run_identity("integral-vJnu", model, lo=0.5, hi=2.0, points=3, tol=-1.0)
    with pytest.raises(UsageError):
        integral_check("integral-vfn", spherical_model(1), 5.0, tol=-1.0)
    assert run_identity("prop1", model, lo=0.5, hi=2.0, points=3, tol=0.0).tolerance == 0.0


def test_qprime_zero_gate():
    model = bessel_model(2.0)
    s = builtin_stack(model, 2.0, 4)
    with pytest.raises(UsageError):
        residual("thm-main4", model, DerivStack(2.0, (1.0,) * 6))
    ok, reason = applicability("thm-main4", model)
    assert not ok and "q'" in reason


def test_stack_depth_gate():
    model = spherical_model(2)
    s = builtin_stack(model, 2.0, 3)
    with pytest.raises(UsageError):
        residual("thm-main2", model, s)


@pytest.mark.parametrize("spec", ["bessel:2.7", "bessel:0", "spherical:2"])
def test_every_check_reads_one_stack_per_x(monkeypatch, spec):
    # the depths every applicable check reads (2 for the integrals and the
    # criterion) are all served by one stack evaluation at a given x
    from chebcrit import identities
    from chebcrit.bessel import bessel_stack_values
    from chebcrit.determinants import stack_from_spherical

    calls = []

    def counted_bessel(nu, x, m, tol):
        calls.append(m)
        return bessel_stack_values(nu, x, m, tol)

    def counted_spherical(n, x, m):
        calls.append(m)
        return stack_from_spherical(n, x, m)

    monkeypatch.setattr(identities, "bessel_stack_values", counted_bessel)
    monkeypatch.setattr(identities, "stack_from_spherical", counted_spherical)
    model = parse_model(spec)
    depths = sorted({2} | {info.min_depth for info in REGISTRY.values()
                           if info.kind in ("stack", "zero-point")
                           and applicability(info.tag, model)[0]})
    assert depths[-1] == (5 if model.qprime_is_zero else 4)
    x = 2.3456789  # an abscissa no other test asks for
    stacks = [builtin_stack(model, x, m) for m in depths]
    assert len(calls) == 1
    deepest = stacks[-1].values
    for m, s in zip(depths, stacks):
        assert s.values == deepest[:m + 1]
    if model.family == "bessel":
        fresh = bessel_stack_values(model.param, x, depths[-1], identities._BESSEL_STACK_TOL)
    else:
        fresh = stack_from_spherical(int(model.param), x, depths[-1]).values
    assert deepest == fresh


def test_remark_zero_reports_a_zero_it_checked():
    # every residual at the zeros of sin is exactly 0: the worst point is
    # still the first zero evaluated, not the grid's lower end
    rep = run_identity("remark-zero", spherical_model(0))
    assert rep.max_abs_residual == 0.0
    assert rep.worst_x == fn_zero(0, 1).value


# ---------------------------------------------------------------- coefficients

def test_cubic_coeffs_spherical_values():
    # a3 = -4n(n-1)/x^3 vanishes at n=1; a0 = 4n/x^2 = 8 at n=2, x=1
    a0, a1, a2, a3 = cubic_coeffs(spherical_model(1), 2.0)
    assert abs(a3) <= 1e-15
    a0, a1, a2, a3 = cubic_coeffs(spherical_model(2), 1.0)
    assert abs(a0 - 8.0) <= 1e-13
    assert abs(a1 + 40.0) <= 1e-12  # -4n(3n-1)/x^3 at n=2, x=1


def test_cubic_coeffs_constant_model_vanish():
    model = CoeffModel(
        name="const", p=lambda x: 1.3, dp=lambda x: 0.0, d2p=lambda x: 0.0,
        d3p=lambda x: 0.0, d4p=lambda x: 0.0, q=lambda x: 0.7,
        dq=lambda x: 0.0, d2q=lambda x: 0.0,
        domain=(-math.inf, math.inf), qprime_is_zero=True)
    assert cubic_coeffs(model, 2.0) == (0.0, 0.0, 0.0, 0.0)


def test_a23_closed_forms():
    a2, a3 = a23_coeffs(spherical_model(2), 1.0)
    assert abs(a2 - 12.0) <= 1e-12
    assert abs(a3 - 12.0) <= 1e-12
    a2, a3 = a23_coeffs(spherical_model(1), 1.7)
    assert abs(a2) <= 1e-12 and abs(a3) <= 1e-12
    a2, _ = a23_coeffs(spherical_model(3), 2.0)
    assert abs(a2 - 2.25) <= 1e-12


def test_a23_requires_qprime_zero_and_dp():
    with pytest.raises(UsageError):
        a23_coeffs(bessel_model(2.0), 1.0)
    with pytest.raises(SingularPointError):
        a23_coeffs(spherical_model(0), 1.0)


def test_a1_vanishes_identically():
    # A1 = a1' - a1 p + 2 a2 = 0 for a1 = p', a2 = (p'p - p'')/2, any model
    for model in (spherical_model(3), bessel_model(2.5)):
        for x in (0.3, 1.1, 4.0, 17.0):
            d2p, dp, p = model.d2p(x), model.dp(x), model.p(x)
            a1_combo = d2p - dp * p + 2 * (0.5 * (dp * p - d2p))
            assert abs(a1_combo) <= 1e-12 * max(1.0, abs(d2p), abs(dp * p))


def test_v_triple_prime_of_f1_structural():
    # v(f_1) = cos(2x)/2 + x^2 - 1/2 has v''' = 4 sin 2x
    got = tp_diff(symbolic_v(1), 3)
    assert got == tp_term(2, (), (4,))


# ---------------------------------------------------------------- positivity criterion

def test_criterion_bessel_formula():
    model = bessel_model(2.0)
    rep = positivity_criterion(model, 0.1, 10.0, 200)
    assert rep.passed
    # the criterion equals (x^2 + nu^2)/x^2 for the Bessel equation
    x = 2.7
    g = model.q(x) - model.p(x) / model.dp(x) * model.dq(x)
    assert abs(g - (x * x + 4.0) / (x * x)) <= 1e-14


def test_criterion_spherical_is_one():
    rep = positivity_criterion(spherical_model(3), 0.1, 10.0, 100)
    assert rep.passed
    # q - (p/p')q' = 1 - 0 exactly for the spherical equation
    assert rep.max_abs_residual == 0.0
    assert rep.note.startswith("min of q - (p/p')q' on the grid: 1;")


def test_criterion_fails_for_negative_q():
    rep = positivity_criterion(linear_p_model(), 1.0, 2.0, 50)
    assert not rep.passed
    assert rep.max_abs_residual == 1.0


def test_criterion_scans_the_requested_spacing():
    # p = e^x, q = (x-c)^2 + 2(x-c) + 2 with c = 1.5: the criterion
    # q - (p/p')q' is (x-c)^2, least at c, a point of the linear grid
    # 1, 1.5, 2 but not of the log grid 1, sqrt 2, 2
    c = 1.5
    model = CoeffModel(
        name="exp-p",
        p=math.exp, dp=math.exp, d2p=math.exp, d3p=math.exp, d4p=math.exp,
        q=lambda x: (x - c) ** 2 + 2 * (x - c) + 2,
        dq=lambda x: 2 * (x - c) + 2, d2q=lambda x: 2.0,
        domain=(-math.inf, math.inf), qprime_is_zero=False,
    )
    rep = run_identity("thm-main1-criterion", model, lo=1.0, hi=2.0, points=3,
                       spacing="linear")
    assert rep.grid["spacing"] == "linear"
    assert rep.worst_x == 1.5
    assert rep.passed and rep.max_abs_residual == 0.0


# ---------------------------------------------------------------- integral checks

def test_integral_vfn_n1_at_5():
    model = spherical_model(1)
    rep = integral_check("integral-vfn", model, 5.0)
    assert rep.passed, rep
    # left side from the closed form v(f_1) = cos(2x)/2 + x^2 - 1/2
    want = 0.5 * math.cos(10.0) + 25.0 - 0.5
    s = builtin_stack(model, 5.0, 2)
    assert abs(v_det(s) - want) <= 1e-12 * want


def test_integral_v_bessel_nu2_at_4():
    rep = integral_check("integral-vJnu", bessel_model(2.0), 4.0)
    assert rep.passed
    assert rep.max_rel_residual <= 1e-8


def test_integral_v_generic_matches_specialized():
    model = spherical_model(2)
    r1 = integral_check("integral-v", model, 3.0)
    r2 = integral_check("integral-vfn", model, 3.0)
    assert r1.passed and r2.passed


def test_integral_vJnu_rejects_small_nu():
    with pytest.raises(UsageError):
        integral_check("integral-vJnu", bessel_model(1.0), 3.0)


def test_eq_vpositive_trivial_at_n1():
    rep = integral_check("eq-Vpositive", spherical_model(1), 2.0)
    assert rep.passed and "trivial" in rep.note


def test_integral_V_spot():
    rep = integral_check("integral-V", spherical_model(2), 4.0)
    assert rep.passed, (rep.max_rel_residual, rep.note)


def test_v_aux_closed_form_n1():
    # V(f_1) = 2x^2 exactly
    model = spherical_model(1)
    for x in (0.5, 1.0, 2.0, 7.0):
        s = builtin_stack(model, x, 2)
        assert abs(v_aux(model, s) - 2.0 * x * x) <= 1e-11 * max(1.0, x * x)


# ---------------------------------------------------------------- bessel-specific

def test_v_at_bessel_zero_equals_deriv_squared():
    # at a zero of J_nu, v(J_nu) = J_nu'(j)^2 (the square of the derivative,
    # not of the function value, which vanishes there)
    from chebcrit.bessel import bessel_j_deriv

    nu = 2.5
    for k in (1, 2):
        z = bessel_zero(nu, k).value
        s = builtin_stack(bessel_model(nu), z, 2)
        jp = bessel_j_deriv(nu, z, 1)
        assert abs(v_det(s) - jp * jp) <= 1e-11 * jp * jp
        assert v_det(s) > 1e-4  # clearly not J(j)^2 = 0


def test_v_of_derivative_dominates_v():
    # spherical model has q = 1 and p' >= 0, so v(f_n') >= v(f_n)
    for n in (1, 3):
        for x in (0.2, 1.0, 4.7, 19.0):
            s = builtin_stack(spherical_model(n), x, 3)
            f, f1, f2, f3 = s.values[:4]
            v_of_deriv = f2 * f2 - f3 * f1
            v = f1 * f1 - f2 * f
            assert v_of_deriv >= v - 1e-12 * max(1.0, abs(v))


# ---------------------------------------------------------------- grid runners

def test_run_all_spherical_small_grid():
    reports = run_all(spherical_model(2), lo=0.05, hi=20.0, points=40)
    assert len(reports) == len(IDENTITY_TAGS)
    for rep in reports:
        assert rep.passed, (rep.identity, rep.max_rel_residual, rep.note)
    ran = [r for r in reports if not r.skipped]
    assert {r.identity for r in ran} >= {"prop1", "thm-main4", "integral-vfn"}


def test_run_all_bessel_small_grid():
    reports = run_all(bessel_model(2.0), lo=0.05, hi=20.0, points=40)
    for rep in reports:
        assert rep.passed, (rep.identity, rep.max_rel_residual, rep.note)
    skipped = {r.identity for r in reports if r.skipped}
    assert "thm-main4" in skipped and "cor5" in skipped
    ran = {r.identity for r in reports if not r.skipped}
    assert {"prop1", "prop2", "thm-main2", "cubic-coeffs", "integral-vJnu"} <= ran


def test_run_identity_skips_inapplicable():
    rep = run_identity("integral-vJnu", spherical_model(2))
    assert rep.skipped and rep.passed


def test_run_identity_custom_model_needs_stacks():
    # grid runners only know how to build stacks for the built-in families;
    # custom models use residual() with caller-supplied stacks instead
    with pytest.raises(UsageError):
        run_identity("prop1", linear_p_model(), points=5)
    s = DerivStack(1.0, (0.5, -0.25, 0.125, -0.0625))
    assert residual("prop1", linear_p_model(), s) >= 0.0


def test_registry_covers_all_tags():
    assert set(REGISTRY) == set(IDENTITY_TAGS)
