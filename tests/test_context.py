"""No value depends on mpmath's global precision context.

Every multiprecision kernel takes its precision as an argument, so the
public evaluators return the same bits whatever precision the caller has
set, and leave that precision as they found it.
"""

from __future__ import annotations

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
    """Raw mpf tuples and float.hex strings of every value under test.

    Ring elements are fresh copies, so their tables are compiled under the
    caller's context, and the Gamma cache is emptied for the same reason.
    """
    bessel._gamma_plus_one.cache_clear()
    out = []
    for n in _NS:
        derivs = fn_derivatives(n, 2 * n)
        for x in _XS:
            out += [tp_eval_mp(TrigPoly(d.terms, d.den), x)._mpf_ for d in derivs]
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
