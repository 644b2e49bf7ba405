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


# Taylor terms of the kernel where every |x_j t| <= 1/16: the first
# omitted term is below 16^-11 / 11! ~ 1.4e-21 of the term magnitudes.
_TAYLOR_TERMS = 10

# A kernel whose Taylor coefficients are all below 2^-_LIFT is evaluated
# times 2^_LIFT, so that no intermediate of the integrand is subnormal.  An
# exponent gap below 2^-_LIFT stays in expm1's linear range for t < 2^546.
_LIFT = 600

_FACTORY_NAMES = {"two-param": "TwoParam", "multi-param": "MultiParam",
                  "majorized": "Majorized", "symmetric": "Symmetric"}

# B_0..B_13 times 30030, their denominators' lcm (B_1 = -1/2), and the
# nonzero (i, (-1)^(k+1) C(k+1, i) 30030 B_i) of the z^-k term of log_f's
# series; past z = 16 |d| its 13th term is below 1.2e-18 |d|.
_BERN = (30030, -15015, 5005, 0, -1001, 0, 715, 0, -1001, 0, 2275, 0, -7601, 0)
_BC = [[(i, (-1) ** (k + 1) * math.comb(k + 1, i) * b)
        for i, b in enumerate(_BERN[:k + 1]) if b] for k in range(13)]


def _dyadic(groups):
    """(den, sums): each group's floats summed exactly, over one den = 2^k."""
    den = max((o.as_integer_ratio()[1] for g in groups for o in g), default=1)
    return den, [sum(n * (den // d) for n, d in map(float.as_integer_ratio, g))
                 for g in groups]


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
        return f"{_FACTORY_NAMES.get(self.kind, 'RatioFamily')}({args})"

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
        den, (ref, *sums) = _dyadic(
            (self.ref,) + (self.exact or tuple(g for _, g in self.rows)))
        merged: dict[int, int] = {}
        for (coef, _), x in zip(self.rows, sums):
            merged[ref - x] = merged.get(ref - x, 0) + int(coef)
        return den, -ref, tuple(sorted((x, c) for x, c in merged.items() if c))

    @cached_property
    def _series(self):
        """z -> sum_j c_j lnG(z + d_j) = lead ln z + polyval(coefs, scale / z)
        at large z if the c_j sum to 0 (DLMF 5.11.8): d_j = D_j / den sums row
        j's offsets exactly, scale = 2^e >= every |d_j|, and lead = sum_j c_j
        d_j and each (-1)^(k+1) sum_j c_j B_(k+1)(d_j) / (k (k+1) scale^k)
        are rounded once from the integer moments mu_p."""
        den, num = _dyadic(tuple(g for _, g in self.rows))
        m, mu = den.bit_length() - 1, [0] * len(_BERN)  # sum_j c_j D_j^p
        for c, x in zip([int(c) for c, _ in self.rows], num):
            for p in range(len(mu)):
                mu[p], c = mu[p] + c, c * x
        e = max(0, max(map(abs, num)).bit_length() - m)
        coefs = [sum(b * mu[k + 1 - i] << m * i for i, b in _BC[k])
                 / (30030 * k * (k + 1) << m * (k + 1) + e * k)
                 for k in range(len(_BERN) - 2, 0, -1)] + [0.0]
        lead, scale = mu[1] / den, 2.0 ** e
        return lambda z: lead * np.log(z) + np.polyval(coefs, scale / z)

    @cached_property
    def _taylor(self):
        """(x_max, lift, coefs): every |x_j t| <= 1/16 where x_max t <= 1/16,
        and there 2^lift K(t) = polyval(coefs, t), each 2^lift mu_p / p!
        rounded once from the exact integer moment mu_p = sum_j c_j x_j^p.
        lift is _LIFT if every mu_p / p! is below 2^-_LIFT, else 0."""
        den, _, terms = self.terms
        moments = [(sum(c * x ** p for x, c in terms),
                     den ** p * math.factorial(p))
                    for p in range(_TAYLOR_TERMS + 1)]
        lift = _LIFT if all(abs(mu) << _LIFT < s for mu, s in moments) else 0
        coefs = [(mu << lift) / s for mu, s in reversed(moments)]
        return max((abs(x) for x, _ in terms), default=0) / den, lift, coefs

    def abel(self, t):
        """2^lift A(t), where A(t) = e^(-x_m t) K(t), x_m is the top exponent
        and lift is 0 unless K is tiny (:attr:`_taylor`), for t >= 0 of any
        shape (0 if all terms cancel).  Over ascending x_1 < ... < x_m and
        the partial sums C_j = c_1 + ... + c_j, A is the Abel sum
        sum_j C_j expm1((x_j - x_(j+1)) t) e^((x_(j+1) - x_m) t).  It
        reproduces product forms such as (1 - e^-at)(1 - e^-bt), and each
        nearly equal pair of exponents cancels inside one expm1 of its
        exact gap.  Where every |x_j t| <= 1/16 the pairs cancel against
        each other, so there A is e^(-x_m t) times K's Taylor series on
        the exact moments instead.
        """
        den, _, terms = self.terms
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        x_max, lift, coefs = self._taylor
        top, partial = (terms[-1][0] if terms else 0), 0
        for (x0, c0), (x1, _) in zip(terms, terms[1:]):
            partial += c0
            if (x1 - x0) << _LIFT < den:  # expm1 is linear: lift the gap
                rise = ((x0 - x1) << lift) / den * t * partial
            else:
                rise = np.expm1((x0 - x1) / den * t) * (partial * 2.0 ** lift)
            out += rise * np.exp((x1 - top) / den * t)
        near = x_max * t <= 0.0625
        if near.any():
            tn = t[near]
            out[near] = np.exp(-top / den * tn) * np.polyval(coefs, tn)
        return out

    def kernel(self, t):
        """K(t) = sum_j c_j e^(x_j t) = e^(x_m t) A(t), from :meth:`abel`;
        it overflows to +-inf only where the kernel does."""
        den, _, terms = self.terms
        t = np.asarray(t, dtype=float)
        top = terms[-1][0] / den if terms else 0.0
        with np.errstate(over="ignore"):
            out = np.exp(top * t) * np.ldexp(self.abel(t), -self._taylor[1])
        return float(out) if out.ndim == 0 else out


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
    """ln f(z) = sum_j c_j lnG(z + d_j), d_j the exact sum of row j's offsets,
    z above the bound: :attr:`RatioFamily._series`, free of z ln z terms, where
    z >= 16 max(1, |d_j|) and the c_j sum to 0, else the ``log_gamma`` sum at
    (z + hi_j) + lo_j, d_j = hi_j + lo_j, so no argument rounds onto a pole."""
    _check_family(fam)
    _check_z(fam, z)
    flat = np.ravel(np.asarray(z, dtype=float))
    hi = [math.fsum(g) for _, g in fam.rows]
    far = flat >= (math.inf if sum(c for c, _ in fam.rows)
                   else 16.0 * max(1.0, *map(abs, hi)))
    out = np.empty_like(flat)
    if not far.all():
        out[~far] = reduce(operator.add, (
            coef * specfun.log_gamma((flat[~far] + h) + math.fsum(g + (-h,)))
            for (coef, g), h in zip(fam.rows, hi)))
    if far.any():
        out[far] = fam._series(flat[far])
    return float(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


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
    The route makes one ``digamma`` call, if order 1 is asked for, and one
    ``polygamma`` call for every higher order at once, each over the
    arguments of every table row at every z.
    """
    zs, orders, shape = _route_grid(fam, z, n)
    rows = [(coef, arg) for coef, arg in fam.shifted_args(zs) if coef != 0.0]
    # z-major, so that a pole is reported at the first z that reaches one
    args = np.stack([arg for _, arg in rows], axis=1).ravel()
    order = np.array(orders)
    vals = np.empty((order.size, args.size))
    if (order == 1).any():
        vals[order == 1] = specfun.digamma(args)
    if (order > 1).any():
        vals[order > 1] = specfun.polygamma(order[order > 1] - 1, args)
    acc = mag = 0.0
    for (coef, _), v in zip(rows, vals.reshape(order.size, zs.size,
                                               len(rows)).T):
        acc = acc + coef * v
        mag = mag + np.abs(coef * v)
    value = np.where(order % 2 == 0, 1.0, -1.0) * acc
    err = _POLY_EPS * mag
    return _route_result(z, n, shape, value, err, "polygamma")


def log_deriv_quadrature(fam: RatioFamily, z, n) -> LogDerivResult:
    """(-1)^n (ln f)^(n)(z) via the Laplace integral route.

    The integrand is e^(-(z - d_m) t) A(t) t^(n-1) / (1 - e^-t), where d_m
    is the top row exponent of the merged kernel terms and A(t) =
    e^(-x_m t) K(t) comes from :meth:`RatioFamily.abel`, the evaluator the
    kernel values use too.  A is built from the exact kernel exponents, not
    from the rounded arguments z - d_j, so it keeps the cancellation of the
    kernel's first moments at any z, near t = 0 included, and avoids any
    overflow at large t; a family whose terms all cancel gives 0.  A tiny
    kernel stays lifted by 2^lift until the last product.

    z may be an array of points and n an array of orders; the result then
    holds one value per (z, n) pair, shaped ``np.shape(z) + np.shape(n)``.
    All pairs are integrated in one vector-valued pass: the pairs with
    z - bound >= 1 first try the integrator's fixed Gauss-Laguerre rule,
    on nodes shared by the orders of one z, and the rest refine on shared
    tanh-sinh nodes.  At each node A is formed once and e^(-(z - d_m) t)
    A(t) once per z, then multiplied by t^(n-1) / (1 - e^-t) per order.
    Each pair gets exactly the value and error estimate of its own scalar
    call.  Non-convergence
    of any pair propagates as :class:`~cmgamma.errors.ConvergenceError`,
    with the values, error estimates and ``converged`` flags of every pair.
    """
    zs, orders, shape = _route_grid(fam, z, n)
    n_ord = len(orders)
    den, r, terms = fam.terms
    if not terms:  # every factor cancels: f = 1
        return _route_result(z, n, shape, np.zeros((zs.size, n_ord)),
                             np.zeros((zs.size, n_ord)), "quadrature")
    shift = zs - (terms[-1][0] + r) / den
    lift = fam._taylor[1]

    def integrand(nodes):
        t, rows = nodes
        zi, oi = np.divmod(rows, n_ord)
        # rows ascend, so each z's pairs are adjacent
        new_z = np.diff(zi, prepend=-1) != 0
        first, inv = np.flatnonzero(new_z), np.cumsum(new_z) - 1
        tz = t if t.ndim == 1 else t[first]
        base = np.exp(-shift[zi[first], None] * tz) * fam.abel(tz)
        open_orders = np.zeros(n_ord, dtype=bool)
        open_orders[oi] = True
        uo = np.flatnonzero(open_orders)
        oinv = np.cumsum(open_orders)[oi] - 1
        # t^(n-1) / (1 - e^-t) once per open order; each power takes a
        # scalar exponent, as in a scalar call, so the bits agree
        powers = [tz ** (orders[j] - 1) for j in uo.tolist()]
        factor = np.stack(powers, axis=-2) / -np.expm1(-tz)[..., None, :]
        return np.ldexp(base[inv] * (factor[oinv] if tz.ndim == 1
                                     else factor[inv, oinv]), -lift)

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
