"""chebcrit: critical-length machinery for trig-polynomial Chebyshev spaces.

Exact arithmetic for the spherical functions f_n, real-order Bessel
functions by series, Wronskian determinants (v, w, Hankel and the general
minors of the canonical basis), a registry of verified differential and
integral identities, and critical-length estimation.
"""

__version__ = "0.1.0"

from .bessel import (
    bessel_deriv_zero,
    bessel_deriv_zeros,
    bessel_j,
    bessel_j_deriv,
    bessel_stack_values,
    bessel_zero,
    bessel_zeros,
    fn_deriv_zero,
    fn_zero,
)
from .critlen import CritLenReport, PerJResult, conjecture_scan, estimate_critical_length
from .determinants import (
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
from .errors import ChebcritError, NumericalFailure, SingularPointError, UsageError
from .identities import (
    IDENTITY_TAGS,
    VerificationReport,
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
from .models import CoeffModel, bessel_model, parse_model, spherical_model
from .rootfind import ZeroResult
from .trigpoly import (
    TrigPoly,
    format_trigpoly,
    from_json_dict,
    maclaurin,
    spherical_fn,
    to_json_dict,
    tp_add,
    tp_diff,
    tp_dot,
    tp_eval,
    tp_eval_over_power,
    tp_mul,
    tp_sub,
    vanishing_order,
)

__all__ = [name for name in dir() if not name.startswith("_")]
