"""Gamma-ratio families and their Laplace kernel representations.

A family is one table of rows (c_j, offsets_j) standing for

    f(z) = prod_j G(z + o_j1 + o_j2 + ...)^c_j,

where G is the gamma function and each argument adds its offsets to z in
order, so it is formed by exactly the float operations of the family's
formula.  The coefficients sum to zero.  With the row exponents
d_j = -(o_j1 + o_j2 + ...) and a reference exponent r fixed per family,
every alternating-sign log-derivative is both a Laplace integral and a
short polygamma combination:

    (-1)^n (ln f)^(n)(z) = integral_0^inf t^(n-1) e^(-(z-r)t) K(t) / (1 - e^-t) dt
                         = (-1)^n sum_j c_j psi^(n-1)(z - d_j),
    K(t) = sum_j c_j e^((d_j - r) t).

The two routes share only the table and are otherwise computed by
independent machinery (adaptive quadrature versus recurrence-plus-series),
which is what makes cross-checking them meaningful.  The kernel is
described once, by the family's exact term list (:attr:`RatioFamily.terms`):
integer exponents over a power-of-two denominator, equal exponents merged
and zero coefficients dropped.  The kernel values, the quadrature
integrand and the certification gate all read that list.  K >= 0 whenever
the denominator exponents are weakly submajorized by the numerator
exponents (Tomic-Weyl: e^(xt) is increasing and convex in x for t >= 0).

Families (factories returning a :class:`RatioFamily`)
--------
TwoParam(a, b)        f(z) = G(z+1) G(z-a-b+1) / (G(z-a+1) G(z-b+1)),  z > a+b-1
MultiParam(a_1..a_k)  f(z) = G(z+1)^(k-1) G(z-A+1) / prod G(z-a_i+1),  z > A-1,
                      A = sum a_i
Majorized(a, b)       f(z) = prod G(z-a_i) / prod G(z-b_i),            z > max
Symmetric(a)          f(z) = G(z+a) G(z-a) / G(z)^2,                   z > a

Parameters are nonnegative reals.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import specfun
from .errors import ConvergenceError, DomainError, UsageError
from .quad import integrate_half_line

__all__ = [
    "TwoParam",
    "MultiParam",
    "Majorized",
    "Symmetric",
    "RatioFamily",
    "LogDerivResult",
    "N_MAX_ORDER",
    "domain_lower_bound",
    "kernel_value",
    "log_f",
    "log_deriv_quadrature",
    "log_deriv_polygamma",
]

# Highest supported log-derivative order.
N_MAX_ORDER = 12

# Relative scale assumed for roundoff of one polygamma term; feeds the
# error estimate of the series path.
_POLY_EPS = 1e-13


def _clean_params(values, name: str) -> tuple[float, ...]:
    try:
        tup = tuple(float(v) for v in values)
    except TypeError:
        raise UsageError(f"{name} must be a sequence of reals") from None
    if not tup:
        raise UsageError(f"{name} must be nonempty")
    if any(not math.isfinite(v) or v < 0.0 for v in tup):
        raise DomainError(f"{name} entries must be finite and >= 0, got {values!r}")
    return tup


def _clean_scalar(value, name: str) -> float:
    v = float(value)
    if not math.isfinite(v) or v < 0.0:
        raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
    return v


# Taylor terms of the kernel where every |x_j t| <= 1: the first omitted
# term is below 1/21! ~ 2e-20 of the term magnitudes.
_TAYLOR_TERMS = 20

_FACTORY_NAMES = {"two-param": "TwoParam", "multi-param": "MultiParam",
                  "majorized": "Majorized", "symmetric": "Symmetric"}


@dataclass(frozen=True, repr=False)
class RatioFamily:
    """A gamma ratio: its kind, the user's parameters and its table.

    ``rows`` holds one (integer coefficient, offsets) pair per gamma
    factor and ``ref`` the offsets of the reference exponent r.  Where an
    argument offset is a rounded sum, ``exact`` gives every row's offsets
    again with the summands, so that the kernel exponents stay exact.
    """

    kind: str
    params: tuple
    rows: tuple
    ref: tuple = ()
    exact: tuple = ()

    def __repr__(self):
        args = ", ".join(f"{name}={v!r}" for name, v in self.params)
        return f"{_FACTORY_NAMES[self.kind]}({args})"

    def params_dict(self):
        return {name: list(v) if isinstance(v, tuple) else v
                for name, v in self.params}

    def shifted_args(self, z):
        """(coefficient, argument) pairs at z, which may be a float, an
        array or an mpmath number."""
        return tuple((coef, reduce(operator.add, offsets, z))
                     for coef, offsets in self.rows)

    def lower_bound(self) -> float:
        """The largest row exponent: every argument is positive above it."""
        return max(reduce(operator.sub, offsets, 0.0)
                   for _, offsets in self.rows)

    @cached_property
    def terms(self):
        """(den, r, terms): the kernel K(t) = sum_j c_j e^(x_j t) as integer
        pairs (X_j, c_j), x_j = X_j / den exactly, with den a power of two.

        Rows with equal exponents are merged and zero coefficients dropped,
        so cancelling factors leave no trace; ``terms`` ascends in X.  The
        integer r is den times the reference exponent, so row j's own
        exponent is d_j = (X_j + r) / den.  Computed once per family: the
        kernel, the quadrature integrand and the certify gate all read it.
        """
        groups = self.exact or tuple(offsets for _, offsets in self.rows)
        den = max((o.as_integer_ratio()[1]
                   for g in (self.ref,) + groups for o in g), default=1)

        def scaled(offsets):  # -(o_1 + o_2 + ...) * den, exactly
            return -sum(n * (den // d)
                        for n, d in (o.as_integer_ratio() for o in offsets))

        r = scaled(self.ref)
        merged: dict[int, int] = {}
        for (coef, _), g in zip(self.rows, groups):
            x = scaled(g) - r
            merged[x] = merged.get(x, 0) + int(coef)
        return den, r, tuple(sorted((x, c) for x, c in merged.items() if c))

    def abel(self, t):
        """A(t) = e^(-x_m t) K(t), x_m the top exponent, for t >= 0 of any
        shape: over ascending x_1 < ... < x_m and the partial sums
        C_j = c_1 + ... + c_j, the Abel sum
        sum_j C_j expm1((x_j - x_(j+1)) t) e^((x_(j+1) - x_m) t).  It
        reproduces product forms such as (1 - e^-at)(1 - e^-bt), and each
        nearly equal pair of exponents cancels inside one expm1 of its
        exact gap.
        """
        den, _, terms = self.terms
        top, partial = terms[-1][0], 0
        out = np.zeros_like(t)
        for (x0, c0), (x1, _) in zip(terms, terms[1:]):
            partial += c0
            out += (partial * np.expm1((x0 - x1) / den * t)
                    * np.exp((x1 - top) / den * t))
        return out

    def kernel(self, t):
        """K(t) = sum_j c_j e^(x_j t) over the merged :attr:`terms`.

        Where every |x_j t| <= 1, K is its Taylor series with the moments
        sum_j c_j x_j^p computed exactly, so the cancellation at small t
        costs no digits.  Elsewhere K is e^(x_m t) times the Abel sum
        :meth:`abel`, which overflows to +-inf only when the kernel does.
        """
        den, _, terms = self.terms
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros_like(t)
        if terms:
            near = max(abs(x) for x, _ in terms) / den * t <= 1.0
            tn, tf = t[near], t[~near]
            series = np.zeros_like(tn)
            for p in range(_TAYLOR_TERMS, 0, -1):
                # exact integer moment; int / int rounds once
                mu = sum(c * x ** p for x, c in terms)
                series = (series + mu / (den ** p * math.factorial(p))) * tn
            out[near] = series
            with np.errstate(over="ignore"):
                out[~near] = np.exp(terms[-1][0] / den * tf) * self.abel(tf)
        return float(out[0]) if scalar else out


def TwoParam(a, b) -> RatioFamily:
    """f(z) = G(z+1) G(z-a-b+1) / (G(z-a+1) G(z-b+1)) for z > a+b-1."""
    a, b = _clean_scalar(a, "a"), _clean_scalar(b, "b")
    # r = a+b-1 gives K(t) = (1 - e^-at)(1 - e^-bt)
    return RatioFamily("two-param", (("a", a), ("b", b)),
                       ((1.0, (1.0,)), (1.0, (-a, -b, 1.0)),
                        (-1.0, (-a, 1.0)), (-1.0, (-b, 1.0))),
                       ref=(-a, -b, 1.0))


def MultiParam(a) -> RatioFamily:
    """f(z) = G(z+1)^(k-1) G(z-A+1) / prod_i G(z-a_i+1), A = sum a_i, z > A-1."""
    a = _clean_params(a, "a")
    abar = float(sum(a))
    rows = [(float(len(a) - 1), (1.0,)), (1.0, (-abar, 1.0))]
    rows.extend((-1.0, (-ai, 1.0)) for ai in a)
    # the G(z-A+1) argument uses the rounded A, its kernel exponent the
    # exact sum of the entries
    exact = (rows[0][1], tuple(-ai for ai in a) + (1.0,))
    exact += tuple(offsets for _, offsets in rows[2:])
    # r = -1 gives K(t) = (k-1) + e^(At) - sum e^(a_i t)
    return RatioFamily("multi-param", (("a", a),), tuple(rows), ref=(1.0,),
                       exact=exact)


def Majorized(a, b) -> RatioFamily:
    """f(z) = prod G(z-a_i) / prod G(z-b_i) for z > max(entries).

    The kernel is nonnegative when the b entries are weakly
    submajorized by the a entries (checked by the certification module,
    not at construction, so diagnostic scans can run on violating pairs).
    """
    a, b = _clean_params(a, "a"), _clean_params(b, "b")
    if len(a) != len(b):
        raise UsageError(
            f"a and b must have equal length, got {len(a)} and {len(b)}")
    rows = [(1.0, (-ai,)) for ai in a] + [(-1.0, (-bi,)) for bi in b]
    # r = 0 gives K(t) = sum e^(a_i t) - sum e^(b_i t)
    return RatioFamily("majorized", (("a", a), ("b", b)), tuple(rows))


def Symmetric(a) -> RatioFamily:
    """f(z) = G(z+a) G(z-a) / G(z)^2 for z > a."""
    a = _clean_scalar(a, "a")
    # r = 0 gives K(t) = e^(at) + e^(-at) - 2
    return RatioFamily("symmetric", (("a", a),),
                       ((1.0, (a,)), (1.0, (-a,)), (-2.0, ())))


def _check_family(fam) -> None:
    if not isinstance(fam, RatioFamily):
        raise UsageError(f"not a ratio family: {fam!r}")


def _check_z(fam, z) -> None:
    bound = fam.lower_bound()
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"z must be finite, got {z!r}")
    if np.any(arr <= bound):
        raise DomainError(
            f"z must exceed the domain lower bound {bound!r} for {fam!r}, got {z!r}")


@dataclass(frozen=True)
class LogDerivResult:
    """Evaluations of (-1)^n (ln f)^(n)(z) by a named route.

    For a scalar z and order the fields are numbers; otherwise
    ``signed_value`` and ``err_estimate`` are arrays shaped
    ``np.shape(z) + np.shape(order)``.
    """

    order: int | np.ndarray
    z: float | np.ndarray
    signed_value: float | np.ndarray
    path: str
    err_estimate: float | np.ndarray


def domain_lower_bound(fam: RatioFamily) -> float:
    """Infimum of the z-domain on which the family is defined."""
    _check_family(fam)
    return fam.lower_bound()


def kernel_value(fam: RatioFamily, t):
    """Kernel factor K(t) of the family's Laplace representation, t >= 0.

    Computed in a scaled form so that large arguments never overflow
    intermediates; a value of +inf means the kernel is genuinely unbounded
    there (it grows exponentially for the unbounded families).
    """
    _check_family(fam)
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise DomainError(f"t must be finite and >= 0, got {t!r}")
    return fam.kernel(t)


def log_f(fam: RatioFamily, z):
    """ln f(z) as a signed combination of log-gamma values; z above the bound."""
    _check_family(fam)
    _check_z(fam, z)
    res = None
    for coef, arg in fam.shifted_args(np.asarray(z, dtype=float) if np.ndim(z) else z):
        term = coef * specfun.log_gamma(arg)
        res = term if res is None else res + term
    return res


def _route_grid(fam, z, n):
    """Validate a route call: (z as a 1-d array, the orders as a list, and
    the result shape np.shape(z) + np.shape(n))."""
    _check_family(fam)
    items = np.asarray(n, dtype=object).ravel().tolist()
    if not items:
        raise UsageError("derivative orders must be nonempty")
    for order in items:
        _validate_order(order)
    _check_z(fam, z)
    return (np.ravel(np.asarray(z, dtype=float)), [int(v) for v in items],
            np.shape(z) + np.shape(n))


def _shaped(arr, shape):
    """A (z, n) result array in the caller's shape; a number for scalars."""
    return arr.reshape(shape) if shape else arr.item()


def _route_result(z, n, shape, value, err, path) -> LogDerivResult:
    return LogDerivResult(
        order=np.asarray(n) if np.ndim(n) else n,
        z=np.asarray(z, dtype=float) if np.ndim(z) else float(z),
        signed_value=_shaped(value, shape), path=path,
        err_estimate=_shaped(err, shape))


def log_deriv_polygamma(fam: RatioFamily, z, n) -> LogDerivResult:
    """(-1)^n (ln f)^(n)(z) via the polygamma series route.

    The value is the signed combination sum_j c_j psi^(n-1)(arg_j) times
    (-1)^n, evaluated with the recurrence-plus-series functions of
    :mod:`cmgamma.specfun`.  The error estimate is a conservative roundoff
    model proportional to the sum of term magnitudes, which is what limits
    accuracy when the combination cancels heavily.

    z may be an array of points and n an array of orders; the result then
    holds one value per (z, n) pair, shaped ``np.shape(z) + np.shape(n)``.
    Each order makes one specfun call over the arguments of every table
    row at every z.
    """
    zs, orders, shape = _route_grid(fam, z, n)
    rows = [(coef, arg) for coef, arg in fam.shifted_args(zs) if coef != 0.0]
    # z-major, so that a pole is reported at the first z that reaches one
    args = np.stack([arg for _, arg in rows], axis=1).ravel()
    value = np.empty((zs.size, len(orders)))
    err = np.empty_like(value)
    for j, order in enumerate(orders):
        vals = (specfun.digamma(args) if order == 1
                else specfun.polygamma(order - 1, args))
        acc = mag = 0.0
        for (coef, _), v in zip(rows, vals.reshape(zs.size, len(rows)).T):
            acc = acc + coef * v
            mag = mag + np.abs(coef * v)
        value[:, j] = (1.0 if order % 2 == 0 else -1.0) * acc
        err[:, j] = _POLY_EPS * mag
    return _route_result(z, n, shape, value, err, "polygamma")


def log_deriv_quadrature(fam: RatioFamily, z, n) -> LogDerivResult:
    """(-1)^n (ln f)^(n)(z) via the Laplace integral route.

    The integrand is e^(-(z - d_m) t) A(t) t^(n-1) / (1 - e^-t), where d_m
    is the top row exponent of the merged kernel terms and A(t) =
    e^(-x_m t) K(t) is the family's Abel sum (:meth:`RatioFamily.abel`).
    A is built from the exact kernel exponents, not from the rounded
    arguments z - d_j, so it keeps the cancellation of the kernel's first
    moment at any z and avoids any overflow at large t; a family whose
    terms all cancel gives 0.

    z may be an array of points and n an array of orders; the result then
    holds one value per (z, n) pair, shaped ``np.shape(z) + np.shape(n)``.
    All pairs are integrated in one vector-valued pass on shared nodes: at
    each node A is formed once and e^(-(z - d_m) t) A(t) once per z, then
    multiplied by t^(n-1) per order.  Each pair gets exactly the value and
    error estimate of its own scalar call.  Non-convergence of any pair
    propagates as :class:`~cmgamma.errors.ConvergenceError`, with the
    values, error estimates and ``converged`` flags of every pair.
    """
    zs, orders, shape = _route_grid(fam, z, n)
    n_ord = len(orders)
    den, r, terms = fam.terms
    if not terms:  # every factor cancels: f = 1
        return _route_result(z, n, shape, np.zeros((zs.size, n_ord)),
                             np.zeros((zs.size, n_ord)), "quadrature")
    shift = zs - (terms[-1][0] + r) / den

    def integrand(nodes):
        t, rows = nodes
        zi, oi = np.divmod(rows, n_ord)
        uz, first, inv = np.unique(zi, return_index=True, return_inverse=True)
        tz = t if t.ndim == 1 else t[first]
        base = np.exp(-shift[uz, None] * tz) * fam.abel(tz)
        denom = -np.expm1(-tz)
        out = np.empty((rows.size, tz.shape[-1]))
        for j in np.unique(oi).tolist():
            sel = oi == j
            num = base[inv[sel]]
            pol = orders[j] - 1
            if pol:
                tp = tz ** pol
                num = num * (tp if tz.ndim == 1 else tp[inv[sel]])
            out[sel] = num / (denom if tz.ndim == 1 else denom[inv[sel]])
        return out

    try:
        res = integrate_half_line(integrand,
                                  np.repeat(zs - fam.lower_bound(), n_ord))
    except ConvergenceError as exc:
        for name in ("value", "err_estimate", "converged"):
            setattr(exc, name, _shaped(getattr(exc, name), shape))
        raise
    return _route_result(z, n, shape, res.value, res.err_estimate,
                         "quadrature")


def _validate_order(n) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise UsageError(f"derivative order must be an integer, got {n!r}")
    if n < 1 or n > N_MAX_ORDER:
        raise UsageError(
            f"derivative order must be in [1, {N_MAX_ORDER}], got {n}")
