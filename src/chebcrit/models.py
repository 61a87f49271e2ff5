"""ODE coefficient models: the data (p, q) of f'' + p f' + q f = 0.

Every identity in the registry is parameterized by such a model together
with derivatives of p up to the fourth and of q up to the second.
Derivatives are supplied analytically, not by differences: the identities
involve quotients in p' where difference noise would dominate the residual
budget.

Both built-ins are the one inverse-power form p = a/x, q = 1 - b/x^2:
  spherical n:  a = -2n, b = 0      (solved by f_n; q' = 0)
  bessel nu:    a = 1,   b = nu^2   (solved by J_nu; q' = 0 iff nu = 0)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import UsageError

Fn = Callable[[float], float]


@dataclass(frozen=True)
class CoeffModel:
    name: str
    p: Fn
    dp: Fn
    d2p: Fn
    d3p: Fn
    d4p: Fn
    q: Fn
    dq: Fn
    d2q: Fn
    domain: tuple[float, float]
    qprime_is_zero: bool
    family: str = "custom"      # "spherical" | "bessel" | "custom"
    param: float = float("nan")  # n or nu for the built-in families

    def require_qprime_zero(self, what: str) -> None:
        if not self.qprime_is_zero:
            raise UsageError(f"{what} requires a model with q' = 0 "
                             f"(model {self.name} has q' != 0)")

    def check_domain(self, x: float) -> None:
        a, b = self.domain
        if not (a < x < b):
            raise UsageError(f"x={x} outside the domain ({a}, {b}) of {self.name}")


def _inverse_power_model(name: str, family: str, param: float, a: float, b: float,
                         qprime_is_zero: bool) -> CoeffModel:
    """p = a/x, q = 1 - b/x^2 on (0, inf), with its derivatives in closed form.

    qprime_is_zero is the caller's, not b == 0: b = nu^2 underflows to 0
    for nu below about 1.5e-162, where q' is still not identically 0.
    """
    return CoeffModel(
        name=name,
        p=lambda x: a / x,
        dp=lambda x: -a / x ** 2,
        d2p=lambda x: 2.0 * a / x ** 3,
        d3p=lambda x: -6.0 * a / x ** 4,
        d4p=lambda x: 24.0 * a / x ** 5,
        q=lambda x: 1.0 - b / x ** 2,
        dq=lambda x: 2.0 * b / x ** 3,
        d2q=lambda x: -6.0 * b / x ** 4,
        domain=(0.0, math.inf),
        qprime_is_zero=qprime_is_zero,
        family=family,
        param=param,
    )


def spherical_model(n: int) -> CoeffModel:
    """p = -2n/x, q = 1 on (0, inf); f_n solves the equation."""
    if not isinstance(n, int) or n < 0:
        raise UsageError("spherical model needs integer n >= 0")
    return _inverse_power_model(f"spherical:{n}", "spherical", float(n), -2.0 * n, 0.0, True)


def bessel_model(nu: float) -> CoeffModel:
    """p = 1/x, q = 1 - nu^2/x^2 on (0, inf); J_nu solves the equation."""
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0:
        raise UsageError("bessel model needs finite nu >= 0")
    return _inverse_power_model(f"bessel:{nu:g}", "bessel", nu, 1.0, nu * nu, nu == 0.0)


def parse_model(text: str) -> CoeffModel:
    """Parse 'spherical:<n>' or 'bessel:<nu>' (the CLI model syntax)."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise UsageError(f"model must look like spherical:<n> or bessel:<nu>, got {text!r}")
    if head == "spherical":
        try:
            n = int(tail)
        except ValueError as exc:
            raise UsageError(f"bad spherical index {tail!r}") from exc
        return spherical_model(n)
    if head == "bessel":
        try:
            nu = float(tail)
        except ValueError as exc:
            raise UsageError(f"bad bessel order {tail!r}") from exc
        return bessel_model(nu)
    raise UsageError(f"unknown model family {head!r}")


def check_model_consistency(model: CoeffModel, xs, rtol: float = 1e-6) -> None:
    """Spot-check a model's analytic derivatives against central differences.

    Raises UsageError on the first inconsistency.  The test suite runs it
    on the built-in models.
    """
    pairs = [
        (model.p, model.dp, "p'"),
        (model.dp, model.d2p, "p''"),
        (model.d2p, model.d3p, "p'''"),
        (model.d3p, model.d4p, "p''''"),
        (model.q, model.dq, "q'"),
        (model.dq, model.d2q, "q''"),
    ]
    for x in xs:
        model.check_domain(x)
        h = 1e-5 * max(abs(x), 1.0)
        for f, df, label in pairs:
            approx = (f(x + h) - f(x - h)) / (2.0 * h)
            want = df(x)
            scale = max(abs(want), abs(f(x)) / max(abs(x), 1e-3), 1e-9)
            if abs(approx - want) > rtol * scale:
                raise UsageError(
                    f"{model.name}: {label}({x}) = {want} disagrees with the "
                    f"central difference {approx}")
