"""Numerical certification of complete monotonicity for ratio families.

A positive function f is completely monotone when (-1)^n f^(n) >= 0 for
all n; it is log-completely monotone when the same alternating-sign
property holds for every derivative of ln f from order one upward.  The
log variant implies the plain one, and for the gamma-ratio families in
:mod:`cmgamma.kernels` each alternating log-derivative has both a Laplace
integral form and a polygamma series form.  Certification here means:

* evaluate both forms on a (z, n) grid and require every value to clear
  ``-tol`` with the two routes agreeing within their combined accuracy;
* independently check the plain definition with forward differences of f
  itself, which is a necessary condition not derived from either route.
  A difference is a violation only when it falls below its rounding
  budget, which grows with the size of the lnG terms behind each f
  value rather than with f (see :func:`certify_cm_finite_diff`).

Verdicts are ``certified``, ``violated``, or ``inconclusive`` (the routes
disagree beyond what their error estimates allow, so neither is trusted).
A report keeps its values as columns: the log-cm route one
:class:`LogCmRow` per (z, n) pair, the finite-difference route a (z, n)
array of margins.

Every family's kernel is sum e^(a_i t) - sum e^(b_i t) over its numerator
exponents a and denominator exponents b, which is nonnegative for every
t > 0 when b is weakly submajorized by a, i.e. when every
decreasing-order partial sum of b is at most the corresponding partial
sum of a (Tomic-Weyl).  Certification requires that precondition of every
family and checks it exactly, on the integer exponents of the family's
term list, with no slack.  A log-cm report also carries a scan of the
kernel on a log-spaced t grid (``kernel_scan``): a diagnostic that decides
no verdict and runs on any family, so it can exhibit the failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, UsageError
from .kernels import (RatioFamily, domain_lower_bound, kernel_value,
                      log_deriv_polygamma, log_deriv_quadrature, log_f)

__all__ = [
    "CertConfig",
    "CertReport",
    "LogCmRow",
    "check_weak_submajorization",
    "weak_submajorization_failure",
    "certify_log_cm",
    "certify_cm_finite_diff",
    "kernel_nonneg_scan",
]

_SCAN_T_MIN = 1e-6
_SCAN_T_MAX = 50.0
# The routes agree at a pair when they differ by at most
# max(_AGREE_RTOL * |polygamma|, _AGREE_ATOL).
_AGREE_RTOL = 1e-8
_AGREE_ATOL = 1e-9
# Unit roundoff of double precision.
_U = 2.0 ** -53
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class CertConfig:
    """Grid and tolerances driving a certification run."""

    z_grid: tuple
    n_max: int = 8
    tol: float = 1e-9
    fd_step: float = 1e-2

    def __post_init__(self):
        object.__setattr__(self, "z_grid", tuple(float(z) for z in self.z_grid))

    def validate(self, fam: RatioFamily) -> None:
        if not self.z_grid:
            raise UsageError("z_grid must be nonempty")
        if any(not math.isfinite(z) for z in self.z_grid):
            raise UsageError("z_grid entries must be finite")
        if list(self.z_grid) != sorted(self.z_grid):
            raise UsageError("z_grid must be sorted ascending")
        bound = domain_lower_bound(fam)
        if self.z_grid[0] <= bound:
            raise UsageError(
                f"z_grid must lie strictly above the domain lower bound "
                f"{bound!r}, got {self.z_grid[0]!r}")
        if self.n_max < 1:
            raise UsageError(f"n_max must be >= 1, got {self.n_max!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise UsageError(f"tol must be positive, got {self.tol!r}")
        if not (math.isfinite(self.fd_step) and self.fd_step > 0):
            raise UsageError(f"fd_step must be positive, got {self.fd_step!r}")


class LogCmRow(NamedTuple):
    """Dual-route values of (-1)^n (ln f)^(n) at one grid point."""

    z: float
    n: int
    quadrature: float
    polygamma: float
    quad_err: float
    poly_err: float
    agrees: bool


@dataclass(frozen=True)
class CertReport:
    """Outcome of one certification run.

    ``worst`` is the (z, n, value) triple with the smallest margin seen,
    regardless of verdict.  The log-cm route keeps one :class:`LogCmRow`
    per (z, n) pair in ``rows``, z-major; the finite-difference route keeps
    its margins as a (z, n) array in ``fd_margins``.
    """

    family: RatioFamily
    method: str
    verdict: str
    tol: float
    worst: tuple
    z_grid: tuple = ()
    rows: tuple = ()
    fd_margins: np.ndarray | None = None
    fd_step: float | None = None
    fd_scale: float | None = None
    kernel_min: float | None = None
    kernel_argmin: float | None = None

    def to_dict(self) -> dict:
        """The report as JSON-ready data.  Its ``rows`` are columns: each
        row field maps to one value per (z, n) pair, z-major."""
        out = {
            "family": {"kind": self.family.kind, **self.family.params_dict()},
            "method": self.method,
            "verdict": self.verdict,
            "tol": self.tol,
            "worst": {"z": self.worst[0], "n": self.worst[1],
                      "value": self.worst[2]},
        }
        if self.method == "log-cm":
            out["kernel_scan"] = {"min": self.kernel_min,
                                  "argmin_t": self.kernel_argmin}
            out["rows"] = dict(zip(LogCmRow._fields, zip(*self.rows)))
        else:
            out["fd_step"] = self.fd_step
            out["fd_scale"] = self.fd_scale
            n_max = self.fd_margins.shape[1]
            out["rows"] = {
                "z": np.repeat(self.z_grid, n_max).tolist(),
                "n": list(range(1, n_max + 1)) * len(self.z_grid),
                "margin": self.fd_margins.ravel().tolist()}
        return out


def _sorted_desc_partials(values) -> list:
    vals = sorted((float(v) for v in values), reverse=True)
    out = []
    acc = 0.0
    for v in vals:
        acc += v
        out.append(acc)
    return out


def weak_submajorization_failure(a, b):
    """First failing decreasing-order partial sum, or None if b is weakly
    submajorized by a.

    Returns (k, sum_b_top_k, sum_a_top_k) for the smallest 1-based k with
    sum of the k largest entries of b exceeding that of a (beyond a small
    relative slack for float accumulation).
    """
    pa = _sorted_desc_partials(a)
    pb = _sorted_desc_partials(b)
    if len(pa) != len(pb):
        raise UsageError(
            f"entry lists must have equal length, got {len(pa)} and {len(pb)}")
    for k, (sa, sb) in enumerate(zip(pa, pb), start=1):
        if sb > sa + 1e-12 * max(1.0, abs(sa)):
            return (k, sb, sa)
    return None


def check_weak_submajorization(a, b) -> bool:
    """True when every decreasing-order partial sum of b is <= that of a."""
    return weak_submajorization_failure(a, b) is None


def _require_certifiable(fam: RatioFamily) -> None:
    """Refuse a family unless its denominator kernel exponents b are
    weakly submajorized by its numerator exponents a, each repeated by its
    multiplicity.  The partial sums are exact integers from the family's
    term list, compared with no slack, so an accepted family has K >= 0
    for every t > 0."""
    den, _, terms = fam.terms
    a = sorted((x for x, c in terms for _ in range(c)), reverse=True)
    b = sorted((x for x, c in terms for _ in range(-c)), reverse=True)
    for k, (sa, sb) in enumerate(zip(accumulate(a), accumulate(b)), start=1):
        if sb > sa:
            raise UsageError(
                f"{fam.kind} family not certifiable: weak submajorization "
                f"fails at k={k} (top-{k} sum of b is {sb / den!r}, exceeds "
                f"top-{k} sum of a which is {sa / den!r})")


def kernel_nonneg_scan(fam: RatioFamily, t_points: int = 200):
    """Minimum kernel value over a log-spaced t grid, with its location.

    Runs on any family, including ones that fail the weak
    submajorization precondition; a clearly negative minimum is the
    diagnostic signature of such a violation.

    Returns
    -------
    (min_value, argmin_t) : tuple of float
    """
    if t_points < 2:
        raise UsageError(f"t_points must be >= 2, got {t_points!r}")
    ts = np.geomspace(_SCAN_T_MIN, _SCAN_T_MAX, int(t_points))
    vals = np.asarray(kernel_value(fam, ts), dtype=float)
    idx = int(np.nanargmin(vals))
    return float(vals[idx]), float(ts[idx])


def _worst(z_grid, values) -> tuple:
    """(z, n, value) of the first pair, z-major, with the strictly smallest
    value below +inf in a (z, n) array; (nan, 0, inf) when there is none."""
    cand = np.where(values < math.inf, values, math.inf).ravel()
    if not (cand < math.inf).any():
        return (math.nan, 0, math.inf)
    k = int(np.argmin(cand))
    return (z_grid[k // values.shape[1]], k % values.shape[1] + 1,
            float(cand[k]))


def certify_log_cm(fam: RatioFamily, config: CertConfig) -> CertReport:
    """Certify log-complete monotonicity through both evaluation routes.

    Every grid pair (z, n) is evaluated by the Laplace quadrature route and
    the polygamma series route, each called once for the whole grid: the
    quadrature integrates every pair in one lockstep pass on shared nodes,
    and the series makes one specfun call per order.  The verdict is
    ``certified`` when all values clear ``-tol`` and the routes agree
    within ``max(1e-8 * |polygamma|, 1e-9)``; an agreed value below
    ``-tol`` gives ``violated``; disagreement beyond the allowance, or a
    quadrature that did not converge, gives ``inconclusive``.  The kernel
    scan in the report is a diagnostic: the exact certifiability gate
    already proves K >= 0.

    Raises
    ------
    UsageError
        Invalid grid, or a family failing its weak submajorization
        precondition (the message cites the failing partial sum).
    DomainError
        A grid point where a polygamma argument reaches a pole or a value
        overflows; the series route runs first, so no quadrature runs then.
    """
    config.validate(fam)
    _require_certifiable(fam)

    zs = np.array(config.z_grid)
    orders = np.arange(1, config.n_max + 1)
    shape = (zs.size, orders.size)
    p = log_deriv_polygamma(fam, zs, orders)
    try:
        q = log_deriv_quadrature(fam, zs, orders)
        q_val, q_err = q.signed_value, q.err_estimate
    except ConvergenceError as exc:
        q_val = exc.value
        q_err = np.where(exc.converged, exc.err_estimate, math.inf)
    q_val, q_err, p_val, p_err = (
        np.broadcast_to(np.asarray(v, dtype=float), shape)
        for v in (q_val, q_err, p.signed_value, p.err_estimate))
    allowance = np.maximum(_AGREE_RTOL * np.abs(p_val), _AGREE_ATOL)
    agrees = np.isfinite(q_err) & (np.abs(q_val - p_val) <= allowance)
    lo = np.where(p_val < q_val, p_val, q_val)  # min(q, p); NaN q stays

    columns = (np.repeat(zs, orders.size), np.tile(orders, zs.size),
               q_val, p_val, q_err, p_err, agrees)
    rows = tuple(map(LogCmRow._make,
                     zip(*(np.ravel(c).tolist() for c in columns))))

    kmin, kargmin = kernel_nonneg_scan(fam)
    if np.any(agrees & (lo < -config.tol)):
        verdict = "violated"
    elif not agrees.all():
        verdict = "inconclusive"
    else:
        verdict = "certified"
    return CertReport(family=fam, method="log-cm", verdict=verdict,
                      tol=config.tol, worst=_worst(config.z_grid, lo),
                      z_grid=config.z_grid, rows=rows, kernel_min=kmin,
                      kernel_argmin=kargmin)


def _f_error_bound(fam: RatioFamily, z) -> np.ndarray:
    """A bound on the relative error of ``exp(log_f(fam, z))``, elementwise.

    ``log_f`` sums terms c_j lnG(x_j), so its error scales with their size
    M = sum_j |c_j lnG(x_j)|, not with the often tiny sum.  Per term, in
    units of u = 2^-53 and to first order: ``log_gamma`` errs by at most
    10 |lnG(x)| (its series rounds six terms no larger than
    x ln x <= 1.8 |lnG(x)|), plus 800 below x = 10, where its recurrence
    handles values up to 80; summing m terms adds m |lnG(x)|; forming x_j
    from z and k offsets (and z itself as z_0 + i h) moves it by at most
    (k + 2)(|z| + sum |o_i|), and lnG by that times
    |psi(x_j)| < |ln x_j| + 1/x_j.  ``exp`` adds 4.  |lnG(x)| is bounded
    by Stirling's formula and its remainder, below 1/(12x) (DLMF 5.6.1),
    so no lnG is evaluated.
    """
    z = np.asarray(z, dtype=float)
    bound = np.full(z.shape, 4.0)
    for (coef, offsets), (_, x) in zip(fam.rows, fam.shifted_args(z)):
        ln_x = np.log(x)
        lg = np.abs((x - 0.5) * ln_x - x + _HALF_LN_2PI) + 1.0 / (12.0 * x)
        shift = (len(offsets) + 2) * (np.abs(z) + sum(map(abs, offsets)))
        bound += abs(coef) * ((10.0 + len(fam.rows)) * lg
                              + np.where(x < 10.0, 800.0, 0.0)
                              + shift * (np.abs(ln_x) + 1.0 / x))
    return _U * bound


def certify_cm_finite_diff(fam: RatioFamily, config: CertConfig) -> CertReport:
    """Check (-1)^n Delta_h^n f >= 0 with forward differences of f itself.

    This is a necessary condition for complete monotonicity evaluated
    without either log-derivative route: f is reconstructed as
    ``exp(log_f)`` and differenced directly.  The verdict is ``violated``
    only when a margin falls below its budget -(tol + 2^n delta) scale:
    scale is the largest f on the grid's stencils, and delta bounds the
    relative error of each f value on the stencil of that z
    (:func:`_f_error_bound`, plus (n + 1) u for the sum of n + 1 terms).
    The alternating sum of n + 1 values with binomial weights, 2^n in
    all, magnifies that error by at most 2^n, so a margin below the budget
    is a violation that roundoff cannot explain; the verdict is
    ``certified`` otherwise.
    """
    config.validate(fam)
    _require_certifiable(fam)

    zs = np.asarray(config.z_grid, dtype=float)
    h = config.fd_step
    orders = np.arange(1, config.n_max + 1)
    stencil = zs[:, None] + np.arange(config.n_max + 1) * h
    with np.errstate(over="ignore"):
        fvals = np.exp(log_f(fam, stencil))
    if not np.all(np.isfinite(fvals)):
        raise DomainError(
            "f overflows double precision on the difference stencil; "
            "move the grid away from the domain boundary")
    scale = float(fvals.max())

    # column n - 1 holds the stencil weights (-1)^j C(n, j), 0 past j = n
    weights = np.array([[(-1.0) ** j * math.comb(n, j) for n in orders]
                        for j in range(config.n_max + 1)])
    margins = fvals @ weights
    delta = _f_error_bound(fam, stencil).max(axis=1)[:, None] \
        + (orders + 1) * _U
    ok = bool(np.all(margins >= -(config.tol + 2.0 ** orders * delta) * scale))
    return CertReport(family=fam, method="finite-diff",
                      verdict="certified" if ok else "violated",
                      tol=config.tol, worst=_worst(config.z_grid, margins),
                      z_grid=config.z_grid, fd_margins=margins, fd_step=h,
                      fd_scale=scale)
