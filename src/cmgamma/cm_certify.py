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
  itself, which is a necessary condition not derived from either route;
* scan the Laplace kernel for sign violations on a log-spaced t grid.

Verdicts are ``certified``, ``violated``, or ``inconclusive`` (the routes
disagree beyond what their error estimates allow, so neither is trusted).

Every family's kernel is sum e^(a_i t) - sum e^(b_i t) over its numerator
exponents a and denominator exponents b, which is nonnegative when b is
weakly submajorized by a, i.e. when every decreasing-order partial sum of
b is dominated by the corresponding partial sum of a.  Certification
requires that precondition of every family; the kernel scan deliberately
does not, so it can exhibit the failure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, UsageError
from .kernels import (RatioFamily, domain_lower_bound, kernel_value,
                      log_deriv_polygamma, log_deriv_quadrature, log_f)
from .quad import QuadOptions

__all__ = [
    "CertConfig",
    "CertReport",
    "LogCmRow",
    "FiniteDiffRow",
    "check_weak_submajorization",
    "weak_submajorization_failure",
    "certify_log_cm",
    "certify_cm_finite_diff",
    "kernel_nonneg_scan",
]

_SCAN_T_MIN = 1e-6
_SCAN_T_MAX = 50.0
# Relative slack for kernel sign: roundoff of the exponential sums is
# proportional to the local term magnitude.
_SCAN_REL_TOL = 1e-12


@dataclass(frozen=True)
class CertConfig:
    """Grid and tolerances driving a certification run."""

    z_grid: tuple
    n_max: int = 8
    tol: float = 1e-9
    fd_step: float = 1e-2
    t_points: int = 200
    agree_rtol: float = 1e-8
    agree_atol: float = 1e-9
    quad: QuadOptions = field(default_factory=QuadOptions)

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
        if self.t_points < 2:
            raise UsageError(f"t_points must be >= 2, got {self.t_points!r}")


@dataclass(frozen=True)
class LogCmRow:
    """Dual-route values of (-1)^n (ln f)^(n) at one grid point."""

    z: float
    n: int
    quadrature: float
    polygamma: float
    quad_err: float
    poly_err: float
    agrees: bool


@dataclass(frozen=True)
class FiniteDiffRow:
    """(-1)^n Delta_h^n f(z), a necessary complete-monotonicity margin."""

    z: float
    n: int
    margin: float


@dataclass(frozen=True)
class CertReport:
    """Outcome of one certification run.

    ``worst`` is the (z, n, value) triple with the smallest margin seen,
    regardless of verdict.
    """

    family: RatioFamily
    method: str
    verdict: str
    tol: float
    worst: tuple
    rows: tuple = ()
    fd_rows: tuple = ()
    fd_step: float | None = None
    fd_scale: float | None = None
    kernel_min: float | None = None
    kernel_argmin: float | None = None

    def to_dict(self) -> dict:
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
            out["rows"] = [
                {"z": r.z, "n": r.n, "quadrature": r.quadrature,
                 "polygamma": r.polygamma, "quad_err": r.quad_err,
                 "poly_err": r.poly_err, "agrees": r.agrees}
                for r in self.rows
            ]
        else:
            out["fd_step"] = self.fd_step
            out["fd_scale"] = self.fd_scale
            out["rows"] = [{"z": r.z, "n": r.n, "margin": r.margin}
                           for r in self.fd_rows]
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
    fail = weak_submajorization_failure(*fam.exponents())
    if fail is not None:
        k, sb, sa = fail
        raise UsageError(
            f"{fam.kind} family not certifiable: weak submajorization "
            f"fails at k={k} (top-{k} sum of b is {sb!r}, exceeds "
            f"top-{k} sum of a which is {sa!r})")


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


def _kernel_scan_ok(fam: RatioFamily, kmin: float, kargmin: float) -> bool:
    scale = float(fam.kernel_scale(kargmin))
    if not math.isfinite(scale):
        scale = abs(kmin)
    return kmin >= -_SCAN_REL_TOL * max(1.0, scale)


def certify_log_cm(fam: RatioFamily, config: CertConfig) -> CertReport:
    """Certify log-complete monotonicity through both evaluation routes.

    Every grid pair (z, n) is evaluated by the Laplace quadrature route and
    the polygamma series route, each called once for the whole grid: the
    quadrature integrates every pair in one lockstep pass on shared nodes,
    and the series makes one specfun call per order.  The verdict is
    ``certified`` when all values clear ``-tol`` and the routes agree
    within ``max(agree_rtol * |polygamma|, agree_atol)``; an agreed value
    below ``-tol`` (or a negative kernel scan) gives ``violated``;
    disagreement beyond the allowance, or a quadrature that did not
    converge, gives ``inconclusive``.

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
        q = log_deriv_quadrature(fam, zs, orders, config.quad)
        q_val, q_err = q.signed_value, q.err_estimate
    except ConvergenceError as exc:
        q_val = exc.value
        q_err = np.where(exc.converged, exc.err_estimate, math.inf)
    q_val, q_err, p_val, p_err = (
        np.broadcast_to(np.asarray(v, dtype=float), shape)
        for v in (q_val, q_err, p.signed_value, p.err_estimate))
    allowance = np.maximum(config.agree_rtol * np.abs(p_val),
                           config.agree_atol)
    agrees = np.isfinite(q_err) & (np.abs(q_val - p_val) <= allowance)
    lo = np.where(p_val < q_val, p_val, q_val)  # min(q, p); NaN q stays

    # the first pair, z-major, with the strictly smallest finite margin
    worst = (math.nan, 0, math.inf)
    cand = np.where(lo < math.inf, lo, math.inf).ravel()
    if (cand < math.inf).any():
        k = int(np.argmin(cand))
        worst = (config.z_grid[k // orders.size],
                 k % orders.size + 1, float(cand[k]))

    columns = (q_val, p_val, q_err, p_err, agrees)
    rows = tuple(LogCmRow(z, n, *values) for (z, n), values in zip(
        itertools.product(config.z_grid, range(1, config.n_max + 1)),
        zip(*(c.ravel().tolist() for c in columns))))

    kmin, kargmin = kernel_nonneg_scan(fam, config.t_points)
    kernel_bad = not _kernel_scan_ok(fam, kmin, kargmin)

    if kernel_bad or np.any(agrees & (lo < -config.tol)):
        verdict = "violated"
    elif not agrees.all():
        verdict = "inconclusive"
    else:
        verdict = "certified"
    return CertReport(family=fam, method="log-cm", verdict=verdict,
                      tol=config.tol, worst=worst, rows=rows,
                      kernel_min=kmin, kernel_argmin=kargmin)


def certify_cm_finite_diff(fam: RatioFamily, config: CertConfig) -> CertReport:
    """Check (-1)^n Delta_h^n f >= 0 with forward differences of f itself.

    This is a necessary condition for complete monotonicity evaluated
    without either log-derivative route: f is reconstructed as
    ``exp(log_f)`` and differenced directly.  Margins are compared against
    ``-tol * scale`` where scale is the largest |f| on the stencil, since
    the alternating sums lose that much to roundoff.
    """
    config.validate(fam)
    _require_certifiable(fam)

    zs = np.asarray(config.z_grid, dtype=float)
    h = config.fd_step
    offsets = np.arange(config.n_max + 1) * h
    stencil = zs[:, None] + offsets[None, :]
    with np.errstate(over="ignore"):
        fvals = np.exp(log_f(fam, stencil))
    if not np.all(np.isfinite(fvals)):
        raise DomainError(
            "f overflows double precision on the difference stencil; "
            "move the grid away from the domain boundary")
    scale = float(fvals.max())

    rows = []
    worst = (math.nan, 0, math.inf)
    for i, z in enumerate(config.z_grid):
        for n in range(1, config.n_max + 1):
            coef = [(-1.0) ** j * math.comb(n, j) for j in range(n + 1)]
            margin = float(np.dot(coef, fvals[i, :n + 1]))
            rows.append(FiniteDiffRow(z=z, n=n, margin=margin))
            if margin < worst[2]:
                worst = (z, n, margin)

    ok = all(r.margin >= -config.tol * scale for r in rows)
    return CertReport(family=fam, method="finite-diff",
                      verdict="certified" if ok else "violated",
                      tol=config.tol, worst=worst, fd_rows=tuple(rows),
                      fd_step=h, fd_scale=scale)
