"""Numerical certification of complete monotonicity for ratio families.

A positive function f is completely monotone when (-1)^n f^(n) >= 0 for
all n; it is log-completely monotone when the same alternating-sign
property holds for every derivative of ln f from order one upward.  The
log variant implies the plain one, and for the gamma-ratio families in
:mod:`cmgamma.kernels` each alternating log-derivative has both a Laplace
integral form and a polygamma series form.  Certification here means:

* evaluate both forms on a (z, n) grid and require every value to clear
  ``-tol`` with the two routes agreeing within max(1e-8 |polygamma|,
  1e-9), a fixed allowance that reads neither route's error estimate;
* independently check the plain definition with forward differences of f
  itself, which is a necessary condition not derived from either route.
  A difference is a violation only when it falls below its rounding
  budget, which follows the error bound of each ln f value
  (see :func:`certify_cm_finite_diff`).

Verdicts are ``certified``, ``violated``, or ``inconclusive`` (the routes
disagree beyond that allowance, so neither is trusted).
A report's ``rows`` hold the log-cm route's :class:`LogCmRow` tuples, one
per (z, n) pair, and the finite-difference route keeps a (z, n) array of
margins; :meth:`CertReport.to_dict` turns either into columns.

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

import functools
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
    ts = _scan_grid(int(t_points))
    vals = np.asarray(kernel_value(fam, ts), dtype=float)
    idx = int(np.nanargmin(vals))
    return float(vals[idx]), float(ts[idx])


@functools.cache
def _scan_grid(t_points: int) -> np.ndarray:
    """The scan's log-spaced t grid, built once per size; read-only."""
    ts = np.geomspace(_SCAN_T_MIN, _SCAN_T_MAX, t_points)
    ts.flags.writeable = False
    return ts


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
    quadrature integrates every pair in one vector-valued pass of its
    fixed rule, and the series makes at most one ``digamma`` call and two
    ``polygamma`` calls for the whole grid when the table's coefficients
    sum to zero, as in the four families, and one more of each otherwise.
    The verdict is ``certified`` when all values clear ``-tol`` and the
    routes agree within ``max(1e-8 * |polygamma|, 1e-9)``; an agreed value
    below ``-tol`` gives ``violated``; disagreement beyond the allowance,
    or a quadrature that did not converge, gives ``inconclusive``.  The
    kernel scan in the report is a diagnostic: the exact certifiability
    gate already proves K >= 0.

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
    p = log_deriv_polygamma(fam, zs, orders)
    p_val, p_err = p.signed_value, p.err_estimate
    try:
        q = log_deriv_quadrature(fam, zs, orders)
        q_val, q_err = q.signed_value, q.err_estimate
    except ConvergenceError as exc:
        q_val = exc.value
        q_err = np.where(exc.converged, exc.err_estimate, math.inf)
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


def _fd_delta(fam: RatioFamily, stencil, g) -> np.ndarray:
    """Per row of a (z, j) stencil, a bound on the absolute error of every
    f - 1 = expm1(ln f) value g on it: f expm1(err) for the error bound err
    of ln f (:meth:`RatioFamily.psi_sum`), plus 2 u |g| for expm1."""
    err = fam.psi_sum(np.ravel(stencil), [0])[1].reshape(np.shape(stencil))
    return ((1.0 + g) * np.expm1(err) + 2.0 * _U * np.abs(g)).max(axis=1)


def certify_cm_finite_diff(fam: RatioFamily, config: CertConfig) -> CertReport:
    """Check (-1)^n Delta_h^n f >= 0 with forward differences of f itself.

    This is a necessary condition for complete monotonicity evaluated
    without either log-derivative route: the differences are taken of
    g = f - 1 = ``expm1(log_f)``, which for n >= 1 are those of f, and keep
    the digits of an f near 1.  The verdict is ``violated`` only when a
    margin falls below its budget -(tol scale + 2^n delta): scale is the
    largest f on the grid's stencils, and delta bounds the error of each g
    value on the stencil of that z (:func:`_fd_delta`), plus (n + 1) u of
    the largest |g| for the sum of n + 1 terms.  The alternating sum of
    n + 1 values with binomial weights, 2^n in all, magnifies that error by
    at most 2^n, so a margin below the budget is a violation that roundoff
    cannot explain; the verdict is ``certified`` otherwise.  delta is only
    formed when a margin falls below -tol scale.
    """
    config.validate(fam)
    _require_certifiable(fam)

    zs = np.asarray(config.z_grid, dtype=float)
    h = config.fd_step
    orders = np.arange(1, config.n_max + 1)
    stencil = zs[:, None] + np.arange(config.n_max + 1) * h
    with np.errstate(over="ignore"):
        g = np.expm1(log_f(fam, stencil))
    if not np.all(np.isfinite(g)):
        raise DomainError(
            "f overflows double precision on the difference stencil; "
            "move the grid away from the domain boundary")
    scale = float(1.0 + g.max())

    # column n - 1 holds the stencil weights (-1)^j C(n, j), 0 past j = n
    weights = np.array([[(-1.0) ** j * math.comb(n, j) for n in orders]
                        for j in range(config.n_max + 1)])
    margins = g @ weights
    budget = config.tol * scale
    if np.any(margins < -budget):
        delta = _fd_delta(fam, stencil, g)[:, None] \
            + (orders + 1) * _U * np.abs(g).max(axis=1)[:, None]
        budget = budget + 2.0 ** orders * delta
    ok = bool(np.all(margins >= -budget))
    return CertReport(family=fam, method="finite-diff",
                      verdict="certified" if ok else "violated",
                      tol=config.tol, worst=_worst(config.z_grid, margins),
                      z_grid=config.z_grid, fd_margins=margins, fd_step=h,
                      fd_scale=scale)
