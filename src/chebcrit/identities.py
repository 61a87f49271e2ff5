"""Registry of residual checks, one per displayed identity of the theory.

Each identity relates determinants of a solution f of f'' + p f' + q f = 0
to the coefficient data (p, q) and their derivatives.  Everything the
module knows about an identity is one IdentityInfo row of REGISTRY: its
kind (which fixes its default tolerance), the stack depth it reads, its
hypotheses (bounds on the model parameter as (family, bound, reason)
data) and, for the grid kinds, its residual function and the cumulative
integrals it reads.  The rows are listed in payload order (IDENTITY_TAGS
is the tuple of their tags).  A residual function returns, from the stack
and the integrals' values at x, the signed terms of the identity's two
sides, (lhs_terms, rhs_terms), and nothing else; residual_parts derives
|LHS - RHS| and the scale from them, so each identity is written once.
Every check but the positivity criterion yields (x, |LHS - RHS|, scale)
rows (the coefficient check builds its own) that one reduction turns
into a VerificationReport, and every check reads its stacks from one
cache per (family, parameter, x) and its integrals from one per (family,
parameter, integral, grid).  Each stack is built and validated once per
abscissa, and each identity's hypotheses (q' = 0, the grid's domain) are
checked once per grid, before its first row.
Residuals are normalized by the summed magnitude of the terms entering
the identity (with an absolute fallback when that scale is below 1),
since the raw sides grow like powers of f.

Identity tags, in payload order, and their requirements:

  prop1               v' + p v = p'f'f + q'f^2                    (m >= 3)
  integral-v          the integral representation of v (f(a)=f'(a)=0)
  integral-vfn        v(f_n) = (n/x^2) f_n^2 + 2n(n+1) x^(2n) I_n
  integral-vJnu       v(J_nu) integral identity, nu > 1
  thm-main1-criterion the positivity criterion q - (p/p')q' >= 0
  prop2               second-order equation for v; divides by p'  (m >= 4)
  cor2-ode            v'' - (2(n-1)/x) v' = (4n/x^2) f'^2, spherical
  vfprime             v(f') = p'f'^2 + q'f'f + q v(f)             (m >= 3)
  thm-main2           w = (p'f'+q'f)^2 f - A v                    (m >= 4)
  remark-zero         w(x0) = -[p''-p'p+2q'] f'(x0)^3 at zeros of f
  cubic-coeffs        w = a0 f^3 + a1 f'f^2 + a2 f'^2 f + a3 f'^3
  cor5                the spherical specialization of the cubic form
  thm-main3           w' + p w identity, q' = 0 form              (m >= 5)
  thm-main4           w' + (3/2)(p - p''/p') w = p' f' V          (m >= 5)
  thm-main6           first-derivative form of a1 f'^2+a2 f'f+a3 v, q'=0
  a23-coeffs          closed forms of the A2/A3 coefficients, spherical
  eq-newAA            V' + p V = A2 f'f + A3 v, q' = 0
  integral-V          the integral representation of V, q' = 0
  eq-Vpositive        V(f_n)/(6n(n-1)) as a sum of positive integrals

The q' = 0 identities reject models with qprime_is_zero = False.  The
integrals of the integral checks are built in for the built-in families;
for a stack of another solution, residual_parts takes their values from
the caller.  Each spherical integral is a ring quotient a(t)/t^p, data in
_SPHERICAL_INTEGRANDS, and the Bessel integral is J_nu^2/t^2.  Both fill
their cumulative column with one loop: the family's exact series head,
correctly rounded, at every grid point from the first for as long as it
certifies, and adaptive Simpson on the integrand from the last certified
point on.  The spherical head is the Maclaurin series of
trigpoly.tp_integral_over_power, a form of 128 terms (x up to about
20-21), Simpson's integrand tp_eval_over_power(a, p, t); the Bessel head is the product-formula series of
bessel.j_squared_integral (x below 16 for nu = 1.5 to 3.4), Simpson's
integrand J_nu(t)^2/t^2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from functools import lru_cache, partial, reduce
from typing import Callable, Iterable, Sequence

from .bessel import bessel_j, bessel_stack_values, bessel_zero, fn_zero, j_squared_integral
from .determinants import (
    DerivStack,
    stack_from_spherical,
    v_det,
    w_det,
    w_prime_det,
    symbolic_v,
)
from .errors import NumericalFailure, SingularPointError, UsageError
from .models import CoeffModel
from .quadrature import cumulative_integrals
# nothing here calls tp_eval: the binding stays for perfbench's per-layer
# trace, which patches identities.tp_eval and fails where it is gone
from .trigpoly import (
    TrigPoly,
    spherical_fn,
    tp_eval,
    tp_eval_over_power,
    tp_integral_over_power,
    tp_mul,
)

#: residual budget per check class: identities evaluated from exact stacks
#: and integral identities.
TOL_EXACT = 1e-9
TOL_INTEGRAL = 1e-8

#: the default tolerance of a registry row, by its kind; every other kind
#: takes TOL_EXACT, and the criterion passes on no violation at all
_KIND_TOL = {"integral": TOL_INTEGRAL, "criterion": 0.0}

_BESSEL_STACK_TOL = 1e-15

#: relative tolerance of every cumulative quadrature an integral identity runs
_QUAD_REL_TOL = 1e-13

#: a zero-point identity is checked at the first this many zeros of f
_ZERO_POINTS = 3

#: one grid row: (x, |LHS - RHS|, magnitude scale)
Row = tuple[float, float, float]


# ----------------------------------------------------------------------
# coefficient combinations
# ----------------------------------------------------------------------

def cubic_coeffs(model: CoeffModel, x: float) -> tuple[float, float, float, float]:
    """Coefficients of w = a0 f^3 + a1 f'f^2 + a2 f'^2 f + a3 f'^3."""
    model.check_domain(x)
    p, dp, d2p = model.p(x), model.dp(x), model.d2p(x)
    q, dq, d2q = model.q(x), model.dq(x), model.d2q(x)
    a0 = 2 * dp * q * q - p * q * dq + dq * dq - d2q * q
    a1 = 3 * dp * p * q - d2p * q - 2 * q * dq - p * p * dq + 2 * dp * dq - p * d2q
    a2 = dp * dp + p * p * dp - p * d2p + 2 * dp * q - 3 * p * dq - d2q
    a3 = p * dp - d2p - 2 * dq
    return a0, a1, a2, a3


def a23_coeffs(model: CoeffModel, x: float) -> tuple[float, float]:
    """The coefficients A2, A3 of V' + pV = A2 f'f + A3 v (q' = 0 only).

    A2 = (3/2)(p'^2 - p''' + p''^2/p')
    A3 = (3/2)(p'' - p'p) - p''''/p' + 4 p''p'''/p'^2 - 3 p''^3/p'^3
    """
    model.require_qprime_zero("a23_coeffs")
    model.check_domain(x)
    dp = model.dp(x)
    if dp == 0.0:
        raise SingularPointError(f"p'({x}) = 0; A2/A3 are singular there")
    p, d2p, d3p, d4p = model.p(x), model.d2p(x), model.d3p(x), model.d4p(x)
    a2 = 1.5 * (dp * dp - d3p + d2p * d2p / dp)
    a3 = (1.5 * (d2p - dp * p) - d4p / dp
          + 4.0 * d2p * d3p / dp ** 2 - 3.0 * d2p ** 3 / dp ** 3)
    return a2, a3


def _big_b(model: CoeffModel, x: float) -> float:
    # B = p^2/2 - p' - 2q + p'''/p' - (3/2) p''^2/p'^2
    p, dp, d2p, d3p = model.p(x), model.dp(x), model.d2p(x), model.d3p(x)
    q = model.q(x)
    if dp == 0.0:
        raise SingularPointError(f"p'({x}) = 0; B is singular there")
    return 0.5 * p * p - dp - 2 * q + d3p / dp - 1.5 * d2p * d2p / (dp * dp)


def _big_b_prime(model: CoeffModel, x: float) -> float:
    # dB/dx for q' = 0: p p' - p'' + p''''/p' - 4 p''p'''/p'^2 + 3 p''^3/p'^3
    p, dp, d2p, d3p, d4p = (model.p(x), model.dp(x), model.d2p(x),
                            model.d3p(x), model.d4p(x))
    return (p * dp - d2p + d4p / dp
            - 4.0 * d2p * d3p / dp ** 2 + 3.0 * d2p ** 3 / dp ** 3)


def v_aux(model: CoeffModel, s: DerivStack) -> float:
    """V = (p'p - p'')/2 * f'f + p' f'^2 - B v, the auxiliary determinant
    combination driving the monotonicity of w (q' = 0 models)."""
    model.require_qprime_zero("V")
    x = s.x
    f, f1 = s.values[0], s.values[1]
    p, dp, d2p = model.p(x), model.dp(x), model.d2p(x)
    return (dp * f1 * f1 + 0.5 * (dp * p - d2p) * f1 * f
            - _big_b(model, x) * v_det(s))


# ----------------------------------------------------------------------
# residuals (stack, zero-point and integral kinds)
# ----------------------------------------------------------------------

def _res_prop1(model, s):
    x = s.x
    f, f1, f2, f3 = s.values[:4]
    p, dp, dq = model.p(x), model.dp(x), model.dq(x)
    vp = f1 * f2 - f3 * f
    return (vp, p * v_det(s)), (dp * f1 * f, dq * f * f)


def _res_prop2(model, s):
    x = s.x
    f, f1, f2, f3, f4 = s.values[:5]
    p, dp, d2p = model.p(x), model.dp(x), model.d2p(x)
    q, dq, d2q = model.q(x), model.dq(x), model.d2q(x)
    if dp == 0.0:
        raise SingularPointError(f"p'({x}) = 0 in prop2")
    vp = f1 * f2 - f3 * f
    vpp = f2 * f2 - f4 * f
    c1 = p - d2p / dp
    c0 = 2 * dp - d2p * p / dp
    dq_over_dp_prime = (d2q * dp - dq * d2p) / (dp * dp)
    return ((vpp, c1 * vp, c0 * v_det(s)),
            (2 * dp * f1 * f1, f * f * dp * dq_over_dp_prime, 2 * dq * f1 * f))


def _res_cor2_ode(model, s):
    # spherical reduction of prop2: v'' - (2(n-1)/x) v' = (4n/x^2) f'^2.
    # (The 4n follows from the 2p' in prop2 and is confirmed by the closed
    # form v(f_1): v'' = 2 - 2cos2x = (4/x^2)(x sin x)^2.)
    n = model.param
    x = s.x
    f, f1, f2, f3, f4 = s.values[:5]
    vp = f1 * f2 - f3 * f
    vpp = f2 * f2 - f4 * f
    return (vpp, -(2 * (n - 1) / x) * vp), ((4 * n / x ** 2) * f1 * f1,)


def _res_vfprime(model, s):
    # v(f') = p' f'^2 + q' f'f + q v(f); the proof's final line (the
    # displayed statement carries a typo, p' f^2, which fails numerically)
    x = s.x
    f, f1, f2, f3 = s.values[:4]
    dp, dq, q = model.dp(x), model.dq(x), model.q(x)
    return (f2 * f2 - f3 * f1,), (dp * f1 * f1, dq * f1 * f, q * v_det(s))


def _coef_a_form2(model, x):
    # A = (p'' - p'p + 2q') f' + (-2p'q + q'' + pq') f, as two scalars
    p, dp, d2p = model.p(x), model.dp(x), model.d2p(x)
    q, dq, d2q = model.q(x), model.dq(x), model.d2q(x)
    return d2p - dp * p + 2 * dq, -2 * dp * q + d2q + p * dq


def _res_thm_main2(model, s):
    x = s.x
    f, f1 = s.values[0], s.values[1]
    dp, dq = model.dp(x), model.dq(x)
    g = dp * f1 + dq * f
    ca, cb = _coef_a_form2(model, x)
    return (w_det(s),), (g * g * f, -(ca * f1 + cb * f) * v_det(s))


def _res_remark_zero(model, s):
    # at a zero x0 of f:  w(x0) = -[p'' - p'p + 2q'] f'(x0)^3
    ca, _ = _coef_a_form2(model, s.x)
    return (w_det(s),), (-ca * s.values[1] ** 3,)


def _cubic_terms(coeffs, f, f1):
    """The terms a0 f^3, a1 f'f^2, a2 f'^2 f, a3 f'^3 of the cubic form of w."""
    a0, a1, a2, a3 = coeffs
    return a0 * f ** 3, a1 * f1 * f * f, a2 * f1 * f1 * f, a3 * f1 ** 3


def _res_cubic_coeffs(model, s):
    return (w_det(s),), _cubic_terms(cubic_coeffs(model, s.x), *s.values[:2])


def _res_cor5(model, s):
    # the spherical closed forms of a0..a3: (4n/x^2) (1, -(3n-1)/x,
    # (2n^2-n+x^2)/x^2, -(n-1)/x)
    n = model.param
    x = s.x
    c = 4 * n / x ** 2
    coeffs = (c, -c * (3 * n - 1) / x, c * (2 * n * n - n + x * x) / x ** 2,
              -c * (n - 1) / x)
    return (w_det(s),), _cubic_terms(coeffs, *s.values[:2])


def _res_thm_main3(model, s):
    # q' = 0 simplification: w' + pw = p'f'^2 (p''f + p'f') - A'v
    x = s.x
    f, f1, f2 = s.values[:3]
    p, dp, d2p, d3p = model.p(x), model.dp(x), model.d2p(x), model.d3p(x)
    q = model.q(x)
    a_prime = ((d3p - d2p * p - dp * dp) * f1 + (d2p - dp * p) * f2
               - 2 * d2p * q * f - 2 * dp * q * f1)
    return ((w_prime_det(s), p * w_det(s)),
            (dp * f1 * f1 * (d2p * f + dp * f1), -a_prime * v_det(s)))


def _res_thm_main4(model, s):
    x = s.x
    p, dp, d2p = model.p(x), model.dp(x), model.d2p(x)
    if dp == 0.0:
        raise SingularPointError(f"p'({x}) = 0 in thm-main4")
    return ((w_prime_det(s), 1.5 * (p - d2p / dp) * w_det(s)),
            (dp * s.values[1] * v_aux(model, s),))


def _res_thm_main6(model, s):
    # generic-coefficient statement exercised with (a1, a2, a3) = (1, x, x^2)
    x = s.x
    f, f1, f2, f3 = s.values[:4]
    p, dp, q = model.p(x), model.dp(x), model.q(x)
    v = v_det(s)
    vp = f1 * f2 - f3 * f
    big_f = f1 * f1 + x * f1 * f + x * x * v
    big_f_prime = (2 * f1 * f2 + (f1 * f + x * (f1 * f1 + f2 * f))
                   + 2 * x * v + x * x * vp)
    a_1 = -p + 2 * x
    a_2 = 1 - 2 * q + p * x + x * x * dp
    return (big_f_prime, p * big_f), (a_1 * f1 * f1, a_2 * f1 * f, x * v)


def _res_eq_newaa(model, s):
    # V' + pV = A2 f'f + A3 v with the closed-form A2, A3
    x = s.x
    f, f1, f2, f3 = s.values[:4]
    p, dp, d2p, d3p = model.p(x), model.dp(x), model.d2p(x), model.d3p(x)
    if dp == 0.0:
        raise SingularPointError(f"p'({x}) = 0 in eq-newAA")
    v = v_det(s)
    vp = f1 * f2 - f3 * f
    a2c = 0.5 * (dp * p - d2p)
    a2c_prime = 0.5 * (d2p * p + dp * dp - d3p)
    b = _big_b(model, x)
    big_v_prime = (d2p * f1 * f1 + 2 * dp * f1 * f2
                   + a2c_prime * f1 * f + a2c * (f1 * f1 + f2 * f)
                   - _big_b_prime(model, x) * v - b * vp)
    cap2, cap3 = a23_coeffs(model, x)
    return (big_v_prime, p * v_aux(model, s)), (cap2 * f1 * f, cap3 * v)


def _res_integral_vjnu(model, s, inte):
    # v(J_nu) = -J^2/(2x^2) + (4nu^2 - 1)/(2x) Int_0^x J^2/t^2
    x, nu, jx = s.x, model.param, s.values[0]
    return (v_det(s),), (-jx * jx / (2.0 * x * x), (4.0 * nu * nu - 1.0) / (2.0 * x) * inte)


def _res_integral_v(model, s, inte):
    # v = f^2 p'/2 - e^-P/2 * Int f^2 (p''+p'p-2q') e^P; the integral-vJnu
    # formula on bessel models
    if model.family == "bessel":
        return _res_integral_vjnu(model, s, inte)
    n, x, fx = int(model.param), s.x, s.values[0]
    return (v_det(s),), (0.5 * fx * fx * model.dp(x), 2.0 * n * (n + 1) * x ** (2 * n) * inte)


def _res_integral_vfn(model, s, inte):
    n, x, fx = int(model.param), s.x, s.values[0]
    return (v_det(s),), (n / x ** 2 * fx * fx, 2.0 * n * (n + 1) * x ** (2 * n) * inte)


def _sum_left_to_right(terms) -> float:
    """The terms summed left to right from int 0, one rounding per addition,
    as ``sum`` summed floats before Python 3.12 compensated them, so that
    every payload is the same on every Python."""
    return reduce(operator.add, terms, 0)


def _v_terms(model, s, int_f, int_v):
    """The three terms of V(f_n)/(6n(n-1)), each >= 0."""
    n, x, fx = int(model.param), s.x, s.values[0]
    return fx * fx / (2.0 * x ** 4), (n + 2.0) * x ** (2 * n) * int_f, x ** (2 * n) * int_v


def _res_integral_big_v(model, s, int_f, int_v):
    # one right-hand term, whose magnitude is 6n(n-1) times the summed
    # magnitudes of the terms, since they are >= 0
    n = int(model.param)
    terms = _v_terms(model, s, int_f, int_v)
    return (v_aux(model, s),), (6.0 * n * (n - 1) * _sum_left_to_right(terms),)


def _res_eq_vpositive(model, s, int_f, int_v):
    n = int(model.param)
    if n < 2:
        raise SingularPointError(f"the prefactor 6n(n-1) vanishes for n = {n}")
    return (v_aux(model, s) / (6.0 * n * (n - 1)),), _v_terms(model, s, int_f, int_v)


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityInfo:
    tag: str
    kind: str                      # "stack" | "coeff" | "criterion" | "zero-point" | "integral"
    min_depth: int
    needs_qprime_zero: bool
    families: tuple[str, ...] | None  # None = any family
    residual: Callable | None = None  # (model, stack, *integrals) -> (lhs_terms, rhs_terms)
    integrals: tuple[str, ...] = ()  # the _cumulative names the residual reads, in order
    # (family, bound, reason): a model of that family needs param > bound
    param_above: tuple[tuple[str, float, str], ...] = ()


_DP_NONZERO = (("spherical", 0, "p' vanishes identically for the n = 0 model"),)
_F_ORDER_3 = ("spherical", 0, "needs f vanishing to order >= 3 at 0 (n >= 1)")


REGISTRY: dict[str, IdentityInfo] = {i.tag: i for i in (
    IdentityInfo("prop1", "stack", 3, False, None, residual=_res_prop1),
    IdentityInfo("integral-v", "integral", 2, False, ("spherical", "bessel"),
                 residual=_res_integral_v, integrals=("v",), param_above=(
                     _F_ORDER_3, ("bessel", 1, "needs J_nu(0) = J_nu'(0) = 0 (nu > 1)"))),
    IdentityInfo("integral-vfn", "integral", 2, False, ("spherical",),
                 residual=_res_integral_vfn, integrals=("v",), param_above=(_F_ORDER_3,)),
    IdentityInfo("integral-vJnu", "integral", 2, False, ("bessel",),
                 residual=_res_integral_vjnu, integrals=("v",),
                 param_above=(("bessel", 1, "stated for nu > 1 only"),)),
    IdentityInfo("thm-main1-criterion", "criterion", 0, False, None, param_above=_DP_NONZERO),
    IdentityInfo("prop2", "stack", 4, False, None, residual=_res_prop2,
                 param_above=_DP_NONZERO),
    IdentityInfo("cor2-ode", "stack", 4, False, ("spherical",), residual=_res_cor2_ode),
    IdentityInfo("vfprime", "stack", 3, False, None, residual=_res_vfprime),
    IdentityInfo("thm-main2", "stack", 4, False, None, residual=_res_thm_main2),
    IdentityInfo("remark-zero", "zero-point", 4, False, ("spherical", "bessel"),
                 residual=_res_remark_zero),
    IdentityInfo("cubic-coeffs", "stack", 4, False, None, residual=_res_cubic_coeffs),
    IdentityInfo("cor5", "stack", 4, False, ("spherical",), residual=_res_cor5),
    IdentityInfo("thm-main3", "stack", 5, True, None, residual=_res_thm_main3),
    IdentityInfo("thm-main4", "stack", 5, True, None, residual=_res_thm_main4,
                 param_above=_DP_NONZERO),
    IdentityInfo("thm-main6", "stack", 3, True, None, residual=_res_thm_main6),
    IdentityInfo("a23-coeffs", "coeff", 0, True, ("spherical",), param_above=_DP_NONZERO),
    IdentityInfo("eq-newAA", "stack", 3, True, None, residual=_res_eq_newaa,
                 param_above=_DP_NONZERO),
    IdentityInfo("integral-V", "integral", 2, True, ("spherical",),
                 residual=_res_integral_big_v, integrals=("V:f", "V:v"), param_above=(
                     ("spherical", 1,
                      "the boundary term e^P V does not vanish at 0 for n < 2"),)),
    IdentityInfo("eq-Vpositive", "integral", 2, False, ("spherical",),
                 residual=_res_eq_vpositive, integrals=("V:f", "V:v")),
)}

IDENTITY_TAGS = tuple(REGISTRY)


@dataclass
class VerificationReport:
    identity: str
    model: str
    grid: dict
    max_abs_residual: float
    max_rel_residual: float
    tolerance: float
    passed: bool
    worst_x: float
    note: str = ""
    skipped: bool = False

    def as_dict(self) -> dict:
        """The fields in order, ``passed`` under its payload key "pass"."""
        return {"pass" if k == "passed" else k: v for k, v in asdict(self).items()}


def _info(tag: str) -> IdentityInfo:
    info = REGISTRY.get(tag)
    if info is None:
        raise UsageError(f"unknown identity tag {tag!r}; known: {', '.join(IDENTITY_TAGS)}")
    return info


def applicability(tag: str, model: CoeffModel) -> tuple[bool, str]:
    """Whether the identity's hypotheses hold for this model; reason if not."""
    info = _info(tag)
    if info.needs_qprime_zero and not model.qprime_is_zero:
        return False, "requires q' = 0"
    if info.families is not None and model.family not in info.families:
        return False, f"defined for families {'/'.join(info.families)}"
    for family, bound, reason in info.param_above:
        if model.family == family and model.param <= bound:
            return False, reason
    return True, ""


def residual(tag: str, model: CoeffModel, stack: DerivStack, *integrals: float) -> float:
    """|LHS - RHS| of the identity at stack.x (absolute, unnormalized)."""
    return residual_parts(tag, model, stack, *integrals)[0]


def residual_parts(tag: str, model: CoeffModel, stack: DerivStack,
                   *integrals: float) -> tuple[float, float]:
    """(absolute residual, magnitude scale) of the identity at stack.x.

    integrals are the values at stack.x of the row's integrals, in order.
    The residual function returns the signed terms of the identity's two
    sides; the residual is |sum(lhs) - sum(rhs)| and the scale the sum of
    the terms' magnitudes, lhs then rhs, each summed left to right
    (``_sum_left_to_right``, the same on every Python).

    Each call checks the identity's hypotheses at its one point; a grid
    run checks them once per grid and reduces every row with the same
    ``_parts``.
    """
    info = _info(tag)
    if info.residual is None:
        raise UsageError(f"identity {tag!r} has no pointwise residual")
    if len(integrals) != len(info.integrals):
        raise UsageError(f"{tag} takes the integrals {info.integrals}, got {len(integrals)}")
    if info.needs_qprime_zero:
        model.require_qprime_zero(tag)
    stack.require(info.min_depth, tag)
    model.check_domain(stack.x)
    return _parts(info, model, stack, integrals)


def _parts(info: IdentityInfo, model: CoeffModel, stack: DerivStack,
           integrals: Sequence[float]) -> tuple[float, float]:
    """residual_parts once the identity's hypotheses hold at stack.x."""
    lhs, rhs = info.residual(model, stack, *integrals)
    return (abs(_sum_left_to_right(lhs) - _sum_left_to_right(rhs)),
            _sum_left_to_right(map(abs, lhs + rhs)))


# ----------------------------------------------------------------------
# stacks for the built-in families
# ----------------------------------------------------------------------

def builtin_stack(model: CoeffModel, x: float, m: int) -> DerivStack:
    """Derivative stack of the model's defining solution (f_n or J_nu).

    Every check on a model reads one cached stack per x, built and
    validated once, as deep as the deepest check that applies to it
    (thm-main3/4 read f^(5) and need q' = 0); this returns it sliced to
    depth m.  Each order's value does not depend on the depth of the stack
    it comes from, so the slice is exact.
    """
    x = float(x)
    stack = _stack_values(model.family, model.param, x, _stack_depth(model, m))
    return DerivStack(x, stack.values[:m + 1])


def _stack_depth(model: CoeffModel, m: int) -> int:
    """The depth of the model's cached stacks that serve depth m."""
    return max(m, 5 if model.qprime_is_zero else 4)


@lru_cache(maxsize=262144)
def _stack_values(family: str, param: float, x: float, m: int) -> DerivStack:
    """The family's solution's stack at x, depth m, built and validated once."""
    if family == "spherical":
        return stack_from_spherical(int(param), x, m)
    if family == "bessel":
        return DerivStack(float(x), bessel_stack_values(param, x, m, _BESSEL_STACK_TOL))
    raise UsageError(
        f"no built-in solution for family {family!r}; supply stacks directly")


# ----------------------------------------------------------------------
# grids and runners
# ----------------------------------------------------------------------

def make_grid(lo: float, hi: float, points: int, spacing: str = "log") -> list[float]:
    """``points`` abscissae from lo to hi; the last is hi itself, not its
    rounded reconstruction."""
    if not (0 <= lo < hi) or points < 2:
        raise UsageError("grid needs 0 <= lo < hi and points >= 2")
    if spacing == "linear":
        xs = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
    elif spacing == "log":
        if lo <= 0:
            raise UsageError("log spacing needs lo > 0")
        ratio = math.log(hi / lo)
        xs = [lo * math.exp(ratio * i / (points - 1)) for i in range(points)]
    else:
        raise UsageError(f"unknown spacing {spacing!r}")
    xs[-1] = hi
    return xs


def positivity_criterion(model: CoeffModel, lo: float, hi: float,
                         points: int, spacing: str = "log") -> VerificationReport:
    """Evaluate q - (p/p') q' on a grid; pass iff it is >= 0 everywhere.

    This is the hypothesis of the general positivity theorem for v; p'
    must not vanish at any sample (singular-point error otherwise).  For
    the built-in families the theorem's endpoint conditions v(lo) >= 0 and
    v(hi) >= 0 are evaluated as well (the conclusion v >= 0 in between is
    a separate empirical scan, not part of this check).  A sample whose
    doubles leave their range raises NumericalFailure naming its x.
    """
    xs = make_grid(lo, hi, points, spacing)
    worst_x = xs[0]
    worst = math.inf
    for x in xs:
        model.check_domain(x)
        try:
            dp = model.dp(x)
            if dp == 0.0:
                raise SingularPointError(f"p'({x}) = 0 while scanning the criterion")
            g = model.q(x)
            if not model.qprime_is_zero:  # the term is 0, but its x^3 overflows past ~5.6e102
                g -= model.p(x) / dp * model.dq(x)
        except (ZeroDivisionError, OverflowError) as exc:
            raise _out_of_range("thm-main1-criterion", model, exc, f" at x={x!r}") from exc
        if g < worst:
            worst, worst_x = g, x
    violation = max(0.0, -worst)
    note = f"min of q - (p/p')q' on the grid: {worst:.6g}"
    endpoints_ok = True
    if model.family in ("spherical", "bessel"):
        v_lo = v_det(builtin_stack(model, lo, 2))
        v_hi = v_det(builtin_stack(model, hi, 2))
        endpoints_ok = (v_lo >= -1e-12 * max(1.0, abs(v_lo))
                        and v_hi >= -1e-12 * max(1.0, abs(v_hi)))
        note += f"; v at the boundaries: {v_lo:.6g}, {v_hi:.6g}"
    return VerificationReport(
        identity="thm-main1-criterion",
        model=model.name,
        grid={"lo": lo, "hi": hi, "points": points, "spacing": spacing},
        max_abs_residual=violation,
        max_rel_residual=violation / max(1.0, abs(worst)),
        tolerance=0.0,
        passed=violation == 0.0 and endpoints_ok,
        worst_x=worst_x,
        note=note,
    )


def _j_sq_over_t2(nu: float) -> Callable[[float], float]:
    """t -> J_nu(t)^2 / t^2, 0 at the origin."""

    def g(t: float) -> float:
        if t == 0.0:
            return 0.0
        j = bessel_j(nu, t, _BESSEL_STACK_TOL)
        return j * j / (t * t)

    return g


@lru_cache(maxsize=None)
def _fn_squared(n: int) -> TrigPoly:
    return tp_mul(spherical_fn(n), spherical_fn(n))


#: each spherical integral as the ring quotient (a, p), a(t)/t^p, from n:
#: "v" is the integral of v's representation, f_n^2 / t^(2n+3); "V:f" and
#: "V:v" are the two of V(f_n), f_n^2 / t^(2n+5) and v(f_n) / t^(2n+3)
_SPHERICAL_INTEGRANDS: dict[str, Callable[[int], tuple[TrigPoly, int]]] = {
    "v": lambda n: (_fn_squared(n), 2 * n + 3),
    "V:f": lambda n: (_fn_squared(n), 2 * n + 5),
    "V:v": lambda n: (symbolic_v(n), 2 * n + 3),
}


@lru_cache(maxsize=64)
def _cumulative(family: str, param: float, name: str,
                xs: tuple[float, ...]) -> tuple[float, ...]:
    """The named integral from 0 to each x of xs.

    Both families run one loop: the family's exact series head, correctly
    rounded, at each x from the first for as long as it certifies, and
    adaptive Simpson on the integrand from the last such x on.  The head
    of J_nu^2 / t^2 ("v" of a Bessel model) is ``j_squared_integral``, and
    that of a spherical quotient a(t)/t^p is ``tp_integral_over_power``.
    """
    if family == "bessel":
        head, integrand = partial(j_squared_integral, param), _j_sq_over_t2(param)
    else:
        a, p = _SPHERICAL_INTEGRANDS[name](int(param))
        head, integrand = (partial(tp_integral_over_power, a, p),
                           lambda t: tp_eval_over_power(a, p, t))
    values = []
    for x in xs:
        value = head(x)
        if value is None:
            break
        values.append(value)
    start, at = (xs[len(values) - 1], values[-1]) if values else (0.0, 0.0)
    return (*values, *cumulative_integrals(integrand, start, xs[len(values):],
                                           rel_tol=_QUAD_REL_TOL, start=at))


def _a23_parts(model: CoeffModel, x: float) -> tuple[float, float]:
    """A2, A3 against their spherical closed forms 6n(n-1)/x^4, 6n(n-1)/x^3."""
    n = model.param
    cap2, cap3 = a23_coeffs(model, x)
    want2 = 6.0 * n * (n - 1) / x ** 4
    want3 = 6.0 * n * (n - 1) / x ** 3
    # scale from the formulas' term magnitudes: A2/A3 cancel exactly
    # at n = 1 while their terms grow like 1/x^4
    p, dp, d2p = model.p(x), model.dp(x), model.d2p(x)
    d3p, d4p = model.d3p(x), model.d4p(x)
    scale = (1.5 * (dp * dp + abs(d3p) + d2p * d2p / abs(dp))
             + 1.5 * (abs(d2p) + abs(dp * p)) + abs(d4p / dp)
             + abs(4 * d2p * d3p / dp ** 2) + abs(3 * d2p ** 3 / dp ** 3)
             + abs(want2) + abs(want3))
    return abs(cap2 - want2) + abs(cap3 - want3), scale


def _rows(info: IdentityInfo, model: CoeffModel, xs: Sequence[float]) -> Iterable[Row]:
    """The identity's rows over xs, in grid order, each computed when it is
    read, so that the first row to fail raises first.  The hypotheses are
    checked once, before the first row: the grid's domain before any
    quadrature or stack."""
    if info.kind == "coeff":
        row, columns = partial(_a23_parts, model), ()
    else:
        if info.needs_qprime_zero:
            model.require_qprime_zero(info.tag)
        for x in xs:
            model.check_domain(x)
        columns = [_cumulative(model.family, model.param, name, tuple(xs))
                   for name in info.integrals]
        family, param, depth = model.family, model.param, _stack_depth(model, info.min_depth)

        def row(x, *at_x):  # the cached stack whole: residuals read orders by index
            return _parts(info, model, _stack_values(family, param, x, depth), at_x)

    for x, *at_x in zip(xs, *columns):
        try:
            yield x, *row(x, *at_x)
        except (ZeroDivisionError, OverflowError) as exc:
            raise _out_of_range(info.tag, model, exc, f" at x={x!r}") from exc


def _report(info: IdentityInfo, model: CoeffModel, grid: dict, xs: Sequence[float],
            tol: float, note: str = "") -> VerificationReport:
    """The identity's rows over xs reduced to the row of largest relative
    residual (the earliest such row on ties).  A row whose residual or
    scale is not finite raises NumericalFailure: a NaN compares false with
    every row, so no order can rank it."""
    if info.tag == "eq-Vpositive" and model.param < 2:
        return VerificationReport(info.tag, model.name, grid, 0.0, 0.0, tol, True,
                                  math.nan,
                                  note="trivial: the prefactor 6n(n-1) vanishes")
    worst_abs = worst_rel = 0.0
    worst_x = None
    for x, res, scale in _rows(info, model, xs):
        if not (math.isfinite(res) and math.isfinite(scale)):
            raise NumericalFailure(f"{info.tag} on {model.name}: the residual at x={x!r} "
                                   f"is not finite ({res!r} over the scale {scale!r})")
        rel = res / max(1.0, scale)
        if worst_x is None or rel > worst_rel:
            worst_rel, worst_abs, worst_x = rel, res, x
    return VerificationReport(info.tag, model.name, grid, worst_abs, worst_rel,
                              tol, worst_rel <= tol, worst_x, note=note)


def _check_tol(tol: float) -> None:
    if not tol >= 0:
        raise UsageError(f"tol must be >= 0, got {tol}")


def run_identity(tag: str, model: CoeffModel, *, lo: float = 1e-2, hi: float = 30.0,
                 points: int = 500, tol: float | None = None,
                 spacing: str = "log") -> VerificationReport:
    """Evaluate one identity on a grid and aggregate into a report.

    The default tolerance follows from the row's kind (_KIND_TOL).
    Inapplicable (tag, model) combinations produce a skipped report that
    counts as passing; explicitly asking for an impossible single check is
    the caller's signal to inspect report.note.  A grid where a power of x
    underflows to 0 or overflows, so that a coefficient or residual cannot
    be formed in doubles, raises NumericalFailure.
    """
    info = _info(tag)
    if tol is None:
        tol = _KIND_TOL.get(info.kind, TOL_EXACT)
    _check_tol(tol)
    ok, reason = applicability(tag, model)
    grid_desc = {"lo": lo, "hi": hi, "points": points, "spacing": spacing}
    if not ok:
        return VerificationReport(tag, model.name, grid_desc, 0.0, 0.0, tol, True,
                                  math.nan, note=f"skipped: {reason}", skipped=True)
    try:
        if info.kind == "criterion":
            return positivity_criterion(model, lo, hi, points, spacing)
        xs = make_grid(lo, hi, points, spacing)  # checked for the zero-point kind too
        if info.kind != "zero-point":
            return _report(info, model, grid_desc, xs, tol)
        zeros = _first_zeros(model, hi)
        if not zeros:
            return VerificationReport(tag, model.name, grid_desc, 0.0, 0.0, tol, True,
                                      math.nan, note="no zeros of f below the grid cap",
                                      skipped=True)
        return _report(info, model, {"kind": "zeros-of-f", "count": len(zeros), "cap": hi},
                       zeros, tol, note=f"evaluated at {len(zeros)} zero(s) of f")
    except (ZeroDivisionError, OverflowError) as exc:
        raise _out_of_range(tag, model, exc) from exc


def _out_of_range(tag: str, model: CoeffModel, exc: ArithmeticError,
                  where: str = "") -> NumericalFailure:
    """The failure of a check whose doubles left their range; an overflow
    of ``**`` carries (errno, text), of which the message keeps the text."""
    reason = exc.args[-1] if exc.args else type(exc).__name__
    return NumericalFailure(f"{tag} on {model.name} leaves the double range{where}: {reason}")


def _first_zeros(model: CoeffModel, cap: float) -> list[float]:
    """The first _ZERO_POINTS zeros of the model's f, up to the first one
    past ``cap`` or not found."""
    out = []
    for k in range(1, _ZERO_POINTS + 1):
        try:
            if model.family == "spherical":
                z = fn_zero(int(model.param), k).value
            else:
                z = bessel_zero(model.param, k).value
        except NumericalFailure:
            break
        if z > cap:
            break
        out.append(z)
    return out


def integral_check(tag: str, model: CoeffModel, x: float,
                   tol: float = TOL_INTEGRAL) -> VerificationReport:
    """Single-point integral identity check on the model's defining solution
    (f_n or J_nu); see run_identity for grids."""
    info = _info(tag)
    if info.kind != "integral":
        raise UsageError(f"{tag!r} is not an integral identity")
    _check_tol(tol)
    ok, reason = applicability(tag, model)
    if not ok:
        raise UsageError(f"{tag} not applicable to {model.name}: {reason}")
    if not (math.isfinite(x) and x > 0):
        raise UsageError("integral checks need finite x > 0")
    return _report(info, model, {"x": x}, [x], tol)


def run_all(model: CoeffModel, *, lo: float = 1e-2, hi: float = 30.0,
            points: int = 500, tol: float | None = None,
            spacing: str = "log") -> list[VerificationReport]:
    """Run every identity tag against one model (inapplicable ones skip)."""
    return [run_identity(tag, model, lo=lo, hi=hi, points=points, tol=tol,
                         spacing=spacing)
            for tag in IDENTITY_TAGS]
