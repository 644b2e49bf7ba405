"""Gamma-ratio complete monotonicity certification and inequality auditing.

The library has three layers.  ``specfun`` supplies the gamma-family
special functions (log-gamma, digamma, polygamma, log-beta, reflection
product) built on shift-up recurrences and an asymptotic series.
``kernels`` + ``quad`` + ``cm_certify`` certify complete monotonicity of
four ratio families by evaluating the derivatives of ``log f`` along two
independent routes, a Laplace-kernel quadrature and a polygamma sum, and
cross-checking them.
``inequalities`` is a registry of gamma-function inequalities with
domain guards, log-space margins, grid sweeps, and tightness
comparisons; ``cli`` drives all of it from the command line.
"""

from .cm_certify import (
    CertConfig,
    CertReport,
    certify_cm_finite_diff,
    certify_log_cm,
    check_weak_submajorization,
    kernel_nonneg_scan,
    weak_submajorization_failure,
)
from .errors import ConvergenceError, DomainError, UsageError
from .inequalities import (
    HOLDS_TOL,
    InequalityCase,
    SweepResult,
    TightnessResult,
    get_case,
    margin,
    registry_list,
    sweep,
    tightness_compare,
    tightness_sweep,
)
from .kernels import (
    LogDerivResult,
    Majorized,
    MultiParam,
    Symmetric,
    TwoParam,
    domain_lower_bound,
    kernel_value,
    log_deriv_polygamma,
    log_deriv_quadrature,
    log_f,
)
from .quad import QuadResult, integrate_half_line
from .specfun import (
    digamma,
    log_beta,
    log_gamma,
    polygamma,
    reflection_product,
)

__version__ = "0.1.0"

__all__ = [
    "CertConfig",
    "CertReport",
    "ConvergenceError",
    "DomainError",
    "HOLDS_TOL",
    "InequalityCase",
    "LogDerivResult",
    "Majorized",
    "MultiParam",
    "QuadResult",
    "SweepResult",
    "Symmetric",
    "TightnessResult",
    "TwoParam",
    "UsageError",
    "certify_cm_finite_diff",
    "certify_log_cm",
    "check_weak_submajorization",
    "digamma",
    "domain_lower_bound",
    "get_case",
    "integrate_half_line",
    "kernel_nonneg_scan",
    "kernel_value",
    "log_beta",
    "log_deriv_polygamma",
    "log_deriv_quadrature",
    "log_f",
    "log_gamma",
    "margin",
    "polygamma",
    "reflection_product",
    "registry_list",
    "sweep",
    "tightness_compare",
    "tightness_sweep",
]
