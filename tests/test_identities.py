"""Identity registry: every displayed relation verified at spot values."""

from __future__ import annotations

import math

import pytest

from chebcrit.bessel import bessel_j, bessel_zero, fn_zero, j_squared_integral
from chebcrit.determinants import DerivStack, symbolic_v, v_det
from chebcrit.errors import SingularPointError, UsageError
from chebcrit.identities import (
    IDENTITY_TAGS,
    REGISTRY,
    TOL_EXACT,
    TOL_INTEGRAL,
    a23_coeffs,
    applicability,
    builtin_stack,
    cubic_coeffs,
    integral_check,
    make_grid,
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
from chebcrit.trigpoly import tp_diff, tp_eval, tp_integral_over_power, tp_term


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


def test_qprime_zero_is_not_read_off_an_underflowed_nu_squared():
    # nu^2 underflows to 0 below nu ~ 1.5e-162, yet q' = 0 only at nu = 0
    model = bessel_model(1e-170)
    assert model.dq(1.0) == 0.0 and not model.qprime_is_zero


@pytest.mark.parametrize("model, a, b", [(spherical_model(3), -6.0, 0.0),
                                          (bessel_model(2.5), 1.0, 6.25)])
def test_builtin_models_are_one_inverse_power_form(model, a, b):
    # p = a/x, q = 1 - b/x^2 at a point where every power of x is exact
    x = 2.0
    assert (model.p(x), model.dp(x), model.d2p(x), model.d3p(x), model.d4p(x)) == (
        a / 2, -a / 4, 2 * a / 8, -6 * a / 16, 24 * a / 32)
    assert (model.q(x), model.dq(x), model.d2q(x)) == (1 - b / 4, 2 * b / 8, -6 * b / 16)


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
    from chebcrit.identities import _cumulative

    info = REGISTRY[tag]
    model = bessel_model(2.5) if tag == "integral-vJnu" else spherical_model(3)
    assert applicability(tag, model)[0]
    x = fn_zero(3, 1).value if info.kind == "zero-point" else 2.0
    s = builtin_stack(model, x, info.min_depth)
    integrals = [_cumulative(model.family, model.param, name, (x,))[0]
                 for name in info.integrals]
    assert bool(integrals) == (info.kind == "integral")
    lhs, rhs = info.residual(model, s, *integrals)
    assert lhs and rhs and all(isinstance(t, float) for t in lhs + rhs)
    res, scale = residual_parts(tag, model, s, *integrals)
    assert res == abs(_sum_left_to_right(lhs) - _sum_left_to_right(rhs))
    assert scale == _sum_left_to_right(abs(t) for t in lhs + rhs)
    assert res <= 1e-12 * max(1.0, scale)


def _sum_left_to_right(terms):
    """The documented sum of residual_parts: left to right from int 0."""
    total = 0
    for t in terms:
        total += t
    return total


def test_residual_sums_round_each_addition_on_every_python():
    # 1e16 + 1 is a tie that rounds back to 1e16, twice; the compensated
    # sum of Python 3.12 and later gives 1e16 + 2
    from chebcrit.identities import _sum_left_to_right as summed

    terms = [1e16, 1.0, 1.0]
    assert summed(terms) == _sum_left_to_right(terms) == 1e16
    assert summed(t for t in terms) == 1e16
    assert math.copysign(1.0, summed([-0.0])) == 1.0 and summed([]) == 0


@pytest.mark.parametrize("tag", ["integral-v", "integral-V", "prop1"])
def test_residual_parts_needs_each_named_integral(tag):
    model = spherical_model(3)
    s = builtin_stack(model, 2.0, 3)
    wrong = len(REGISTRY[tag].integrals) + 1
    with pytest.raises(UsageError, match="integrals"):
        residual_parts(tag, model, s, *[0.0] * wrong)
    if REGISTRY[tag].integrals:
        with pytest.raises(UsageError, match="integrals"):
            residual_parts(tag, model, s)


def test_eq_vpositive_is_singular_below_n_2():
    # the prefactor 6n(n-1) divides V; the grid reports n < 2 as trivial
    model = spherical_model(1)
    with pytest.raises(SingularPointError):
        residual_parts("eq-Vpositive", model, builtin_stack(model, 2.0, 2), 0.0, 0.0)


@pytest.mark.parametrize("spacing", ["log", "linear"])
def test_grid_ends_at_hi(spacing):
    # the log grid's reconstruction of 30 is 29.99999999999998; the criterion
    # evaluates its endpoint condition at hi, which must be a grid point
    xs = make_grid(0.01, 30.0, 500, spacing)
    assert (len(xs), xs[0], xs[-1]) == (500, 0.01, 30.0)
    assert xs == sorted(set(xs))


def test_negative_tol_is_a_usage_error():
    model = spherical_model(2)
    with pytest.raises(UsageError):
        run_identity("prop1", model, lo=0.5, hi=2.0, points=3, tol=-1.0)
    with pytest.raises(UsageError):
        run_identity("integral-vJnu", model, lo=0.5, hi=2.0, points=3, tol=-1.0)
    with pytest.raises(UsageError):
        integral_check("integral-vfn", spherical_model(1), 5.0, tol=-1.0)
    assert run_identity("prop1", model, lo=0.5, hi=2.0, points=3, tol=0.0).tolerance == 0.0


def test_default_tolerance_follows_from_the_kind():
    by_kind = {"integral": TOL_INTEGRAL, "criterion": 0.0}
    for tag in IDENTITY_TAGS:
        rep = run_identity(tag, spherical_model(2), lo=0.5, hi=2.0, points=3)
        assert rep.tolerance == by_kind.get(REGISTRY[tag].kind, TOL_EXACT), tag


def test_criterion_of_a_qprime_zero_model_reads_no_qprime():
    # q' = 0 * 2/x^3 would overflow past x ~ 5.6e102; p' and q are still in range
    rep = run_identity("thm-main1-criterion", spherical_model(1), lo=1e103, hi=1e104, points=3)
    assert rep.passed and rep.max_abs_residual == 0.0


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


def _simpson_from_0(a, power, xs):
    from chebcrit.identities import _QUAD_REL_TOL
    from chebcrit.quadrature import cumulative_integrals
    from chebcrit.trigpoly import tp_eval_over_power

    return cumulative_integrals(lambda t: tp_eval_over_power(a, power, t), 0.0, xs,
                                rel_tol=_QUAD_REL_TOL)


@pytest.mark.parametrize("name", ["v", "V:f", "V:v"])
def test_series_then_simpson_column_matches_simpson_from_0(name):
    # the column is the exact series up to its reach (x ~ 21 at n = 4) and
    # Simpson from there on; Simpson from 0 agrees within its own error
    from chebcrit.identities import _SPHERICAL_INTEGRANDS, _cumulative

    model = spherical_model(4)
    a, power = _SPHERICAL_INTEGRANDS[name](4)
    xs = tuple(make_grid(0.01, 30.0, 80))
    got = _cumulative(model.family, model.param, name, xs)
    series = [tp_integral_over_power(a, power, x) for x in xs]
    head = series.index(None)
    assert 50 < head < len(xs) and got[:head] == tuple(series[:head])
    for x, g, w in zip(xs, got, _simpson_from_0(a, power, xs)):
        assert abs(g - w) <= 1e-12 * w, (x, g, w)


def test_grid_inside_the_series_reach_runs_no_simpson_node(monkeypatch):
    from chebcrit import identities

    def forbidden(*args):
        raise AssertionError("a Simpson node ran inside the series' reach")

    identities._cumulative.cache_clear()
    monkeypatch.setattr(identities, "tp_eval_over_power", forbidden)
    assert run_identity("integral-V", spherical_model(8), lo=0.01, hi=5.0).passed


def test_bessel_grid_runs_no_simpson_node_below_the_head_reach(monkeypatch):
    # the Bessel column is the series head up to its last certified point
    # (x ~ 15.79 on the default grid at nu = 1.5) and Simpson only past it
    from chebcrit import identities

    xs = make_grid(0.01, 30.0, 500)
    reach = max(x for x in xs if j_squared_integral(1.5, x) is not None)
    nodes = []

    def integrand_node(nu, t, tol):
        if t < reach:
            raise AssertionError(f"a Simpson node ran at t={t}, below the head's reach")
        nodes.append(t)
        return bessel_j(nu, t, tol)

    identities._cumulative.cache_clear()
    monkeypatch.setattr(identities, "bessel_j", integrand_node)
    assert run_identity("integral-v", bessel_model(1.5)).passed
    assert nodes and 15.7 < reach < 16.0
    identities._cumulative.cache_clear()


@pytest.mark.parametrize("n", [2, 4])
def test_bessel_and_spherical_integral_routes_agree(n):
    # J_{n+1/2}(t)^2 / t^2 = (2/pi) f_n(t)^2 / t^(2n+3): where both exact
    # series certify (x up to the Bessel head's reach, ~15.8, inside the
    # spherical reach, ~20-21) the two correctly rounded columns agree to
    # rounding, within 4 ulps; past it, within 1e-12 relative
    from chebcrit.identities import _SPHERICAL_INTEGRANDS, _cumulative

    xs = tuple(make_grid(0.01, 30.0, 500))
    bessel = _cumulative("bessel", n + 0.5, "v", xs)
    spherical = _cumulative("spherical", float(n), "v", xs)
    a, power = _SPHERICAL_INTEGRANDS["v"](n)
    both = 0
    for x, b, s in zip(xs, bessel, spherical):
        if (j_squared_integral(n + 0.5, x) is not None
                and tp_integral_over_power(a, power, x) is not None):
            assert abs(b - 2 / math.pi * s) <= 4 * math.ulp(b), (x, b, s)
            both += 1
        else:
            assert abs(b - 2 / math.pi * s) <= 1e-12 * abs(b), (x, b, s)
    assert both > 450


def test_column_past_the_series_reach_is_simpson_from_0():
    # a grid that starts where the series first gives up on the default
    # grid (x ~ 21 for V:v at n = 4) is Simpson from 0 at every point
    from chebcrit.identities import _SPHERICAL_INTEGRANDS, _cumulative

    model = spherical_model(4)
    a, power = _SPHERICAL_INTEGRANDS["V:v"](4)
    lo = next(x for x in make_grid(0.01, 30.0, 500) if tp_integral_over_power(a, power, x) is None)
    xs = tuple(make_grid(lo, 30.0, 20))
    assert xs[0] == lo > 20.0
    got = _cumulative(model.family, model.param, "V:v", xs)
    assert got == tuple(_simpson_from_0(a, power, xs))


@pytest.mark.parametrize("tag", ["integral-v", "integral-vfn", "integral-V", "eq-Vpositive"])
def test_integral_grid_outside_the_domain_is_refused_before_quadrature(monkeypatch, tag):
    from chebcrit import identities

    def forbidden(*args, **kwargs):
        raise AssertionError("quadrature ran on a grid outside the domain")

    identities._cumulative.cache_clear()
    monkeypatch.setattr(identities, "cumulative_integrals", forbidden)
    with pytest.raises(UsageError, match="x=0.0 outside the domain"):
        run_identity(tag, spherical_model(4), lo=0.0, hi=30.0, points=500, spacing="linear")


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


@pytest.mark.parametrize("spec", ["spherical:2", "bessel:2.7"])
def test_run_all_builds_one_stack_per_abscissa(monkeypatch, spec):
    # every row reads the cached stack of its x whole: one DerivStack per
    # distinct grid point and zero of f, and two more for the criterion's
    # endpoint slices (builtin_stack at depth 2), not one per row
    from chebcrit import identities

    built = []
    post_init = DerivStack.__post_init__

    def counted(self):
        built.append(self.x)
        post_init(self)

    identities._stack_values.cache_clear()
    monkeypatch.setattr(DerivStack, "__post_init__", counted)
    model = parse_model(spec)
    reports = run_all(model, points=40)
    assert all(r.passed for r in reports)
    abscissae = {*make_grid(1e-2, 30.0, 40), *identities._first_zeros(model, 30.0)}
    assert len(built) == len(abscissae) + 2
    assert sorted(set(built)) == sorted(abscissae)


def test_stack_grid_through_the_origin_is_refused_before_any_stack(monkeypatch):
    # the grid's domain is checked before the first row, so a Bessel stack
    # check names x = 0 as outside the domain rather than failing in J_nu
    from chebcrit import identities

    def forbidden(*args, **kwargs):
        raise AssertionError("a stack was built on a grid outside the domain")

    identities._stack_values.cache_clear()
    monkeypatch.setattr(identities, "bessel_stack_values", forbidden)
    with pytest.raises(UsageError, match="x=0.0 outside the domain"):
        run_identity("prop1", bessel_model(2.0), lo=0.0, hi=1.0, points=3, spacing="linear")


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


def test_integral_check_at_zero_tolerance():
    # the quadrature's tolerance is one fixed policy, not derived from the
    # report's tol, which would make it 0 here, a value the quadrature refuses
    rep = integral_check("integral-vfn", spherical_model(1), 5.0, tol=0.0)
    assert rep.tolerance == 0.0
    assert rep.passed, rep


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
