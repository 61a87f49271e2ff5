"""No value depends on mpmath's global precision context.

Every multiprecision kernel takes its precision as an argument, so the
public evaluators return the same bits whatever precision the caller has
set, and leave that precision as they found it.  Gamma(nu + 1) is the one
value the package takes from mpmath.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from mpmath import mp

from chebcrit import bessel
from chebcrit.bessel import bessel_j, bessel_stack_values
from chebcrit.determinants import minor_values
from chebcrit.trigpoly import TrigPoly, fn_derivatives, tp_eval, tp_eval_mp, tp_eval_over_power

_NS = (2, 6)
_XS = (1e-3, 0.005, 0.5, 7.5)      # both sides of the Maclaurin radius
_NUS = (0.0, 1.5, 3.4)
_BESSEL_XS = (0.3, 5.0, 29.0)      # 29 escalates the series precision


def _results() -> list:
    """Dyadic pairs and float.hex strings of every value under test.

    Ring elements are fresh copies, so their tables are compiled under the
    caller's context, and the Gamma cache is emptied for the same reason.
    """
    bessel._gamma_plus_one.cache_clear()
    out = []
    for n in _NS:
        derivs = fn_derivatives(n, 2 * n)
        for x in _XS:
            out += tp_eval_mp([TrigPoly(d.terms, d.den) for d in derivs], x)
            out += [tp_eval(TrigPoly(d.terms, d.den), x).hex() for d in derivs]
            out.append(tp_eval_over_power(TrigPoly(derivs[0].terms, derivs[0].den), 2 * n + 1, x).hex())
            out += [(j, v.hex()) for j, v in minor_values(n, x).items()]
    for nu in _NUS:
        for x in _BESSEL_XS:
            out.append(bessel_j(nu, x).hex())
            out += [v.hex() for v in bessel_stack_values(nu, x, 5)]
    return out


@pytest.mark.parametrize("dps", [5, 300])
def test_values_do_not_depend_on_the_global_precision(dps):
    want = _results()
    with mp.workdps(dps):
        prec = mp.prec
        got = _results()
        assert mp.prec == prec
    assert got == want


def _imported_modules(name: str) -> dict[str, set[str]]:
    """{module: names} of every import statement in chebcrit/<name>.py,
    at any depth; a plain ``import m`` maps m to the empty set."""
    path = Path(bessel.__file__).with_name(name + ".py")
    out: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.setdefault(alias.name, set())
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.setdefault(node.module, set()).update(a.name for a in node.names)
    return out


def test_mpmath_is_imported_for_gamma_alone():
    # trigpoly, determinants and fixedpoint pass values as integers and
    # import nothing from mpmath; bessel imports only what Gamma(nu + 1) needs
    for name in ("trigpoly", "determinants", "fixedpoint"):
        assert not [m for m in _imported_modules(name) if m.split(".")[0] == "mpmath"], name
    mp_imports = {m: names for m, names in _imported_modules("bessel").items()
                  if m.split(".")[0] == "mpmath"}
    assert mp_imports == {"mpmath.libmp": {"fone", "from_float", "mpf_add", "mpf_gamma",
                                           "round_nearest"}}
