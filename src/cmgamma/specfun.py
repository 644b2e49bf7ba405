"""Gamma-family special functions on the positive real axis.

Everything here is evaluated with a shift-up recurrence into the asymptotic
regime followed by a Stirling-type series with Bernoulli-number
coefficients.  That gives uniform accuracy across the whole positive axis
without pulling in an external special-function library, and keeps this
module independent from the quadrature route used elsewhere in the package
(the two are cross-checked against each other, so they must not share
code).

The shift is a ladder: rows x, x + 1, (x + 1) + 1, ..., each made from the
row before by adding 1.0 (x + k would round differently), one column per
point.  A point's step terms (ln w, 1/w or w^-(n+1)) come from the rows
below its threshold, and its shifted argument is the first row at or above
it.  A call whose ladder, (steps + 1) x orders x points, holds at most
``_MAX_LADDER`` = 2^12 values forms it, its masks and its terms as whole
arrays in a fixed number of NumPy calls.  A larger call walks the same rows
one full-array step at a time, since the ladder's column-wise accumulates
cost more there than the steps' calls; the choice follows the input size
alone.  Either way a point's terms add in step order, a point past its
threshold adds +0.0, and every point gets the bits it would get alone.

All functions accept scalars or numpy arrays and are elementwise over
arrays.  Arguments at poles (nonpositive reals for ``log_gamma``,
``digamma``, ``polygamma``) raise :class:`~cmgamma.errors.DomainError`, and
so does a value that overflows double precision instead of becoming an
infinity: ``digamma`` or ``polygamma`` near a pole (``polygamma(119,
1e-3)``, ``digamma(1e-320)``), ``log_gamma`` above about 2.5e305.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "log_gamma",
    "digamma",
    "polygamma",
    "log_beta",
    "reflection_product",
]

# Bernoulli numbers B_2, B_4, ..., B_30.
_BERN = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
    -23749461029.0 / 870.0,
    8615841276005.0 / 14322.0,
)

# Series length: 12 Bernoulli terms leave the truncation error below
# 1e-20 once the argument has been shifted to >= 10.
_NTERMS = 12

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# log-gamma series coefficients B_2k / (2k (2k-1))
_LG_COEF = tuple(_BERN[k] / ((2 * k + 2) * (2 * k + 1)) for k in range(_NTERMS))
# digamma series coefficients B_2k / (2k)
_DG_COEF = tuple(_BERN[k] / (2 * k + 2) for k in range(_NTERMS))


def _as_positive_array(x, name: str):
    """Validate x > 0 elementwise; return (array, was_scalar).

    The error names x itself when it is a scalar, and the first offending
    entry (in C order) of an array.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    bad = ~(np.isfinite(arr) & (arr > 0.0))
    if bad.any():
        at = x if scalar else float(arr[bad].flat[0])
        if not math.isfinite(at):
            raise DomainError(f"{name} must be finite, got {at!r}")
        raise DomainError(
            f"{name} must be positive (poles at nonpositive reals), got {at!r}")
    return arr, scalar


def _maybe_scalar(arr, scalar: bool):
    return float(arr) if scalar else arr


# Most values a shift forms at once as a ladder, (steps + 1) x orders x
# points.  The ladder's two accumulates run along its columns one column at
# a time, so past about 4k values (some 370 points of log_gamma) a step at a
# time is faster.
_MAX_LADDER = 1 << 12


def _shift_up(w, limit, term):
    """Step the 1-d points w up by 1 until each is >= each threshold.

    ``limit`` is a (k, 1) column of thresholds and ``term`` maps points
    shaped (..., k or 1, points) to their step terms shaped (..., k,
    points).  Returns (work, acc), each (k, points): for each threshold the
    first ladder row at or above it, and the sum, in step order, of
    ``term`` over the rows below it.

    The smallest point takes the most steps, and Python floats round as
    NumPy's do, so the count below is exact; it is at most the largest
    threshold, which x + threshold reaches for any positive x.  That
    threshold is read as a Python float off the column's list, which
    costs less than a NumPy reduction on these few values.  A ladder
    within ``_MAX_LADDER`` is built and summed by ``np.add.accumulate``,
    which adds along its axis in order, r[i] = r[i-1] + a[i], as a step
    does; its sum starts at the first term rather than at 0.0 plus it,
    the same bits, as no term is -0.0.  Otherwise, and when no point
    steps, the rows are walked one full-array step at a time.
    """
    top, steps = max(limit.ravel().tolist()), 0
    lo = float(w.min(initial=top))
    while lo < top:
        lo, steps = lo + 1.0, steps + 1
    if 0 < steps and (steps + 1) * limit.size * w.size <= _MAX_LADDER:
        rungs = np.ones((steps + 1, w.size))
        rungs[0] = w
        np.add.accumulate(rungs, axis=0, out=rungs)
        below = rungs[:, None] < limit
        terms = np.where(below, term(rungs[:, None]), 0.0)
        acc = np.add.accumulate(terms, axis=0)[-1]
        return rungs[below.sum(axis=0), np.arange(w.size)], acc
    work = np.repeat(w[None], limit.size, axis=0)
    acc = np.zeros_like(work)
    for _ in range(steps):
        below = work < limit
        acc += np.where(below, term(work), 0.0)
        work += below
    return work, acc


# the one threshold of log_gamma and digamma, as a (1, 1) column; read-only
_TEN = np.full((1, 1), 10.0)
_TEN.flags.writeable = False


def _shift_to_ten(x, term):
    """Validate x > 0 and shift it up to 10: (work, acc, scalar) from
    :func:`_shift_up`, each 1-d, and whether x was a scalar."""
    arr, scalar = _as_positive_array(x, "x")
    with np.errstate(over="ignore"):
        work, acc = _shift_up(arr.ravel(), _TEN, term)
    return work[0], acc[0], scalar


def _shaped(out, x, scalar: bool):
    """Give a 1-d result the shape of the argument x, or a float for a scalar."""
    return float(out[0]) if scalar else out.reshape(np.shape(x))


def _finite(out, x, name: str):
    """out, unless an entry overflowed: then DomainError naming its x."""
    bad = ~np.isfinite(out)
    if bad.any():
        at = float(np.ravel(np.asarray(x, dtype=float))[np.ravel(bad)][0])
        raise DomainError(f"{name} overflows double precision at x={at!r}")
    return out


def _log_gamma_asymptotic(y):
    """Stirling-type series, valid for y >= 10."""
    u = 1.0 / (y * y)
    s = np.zeros_like(y)
    for c in reversed(_LG_COEF):
        s = s * u + c
    return (y - 0.5) * np.log(y) - y + _HALF_LOG_TWO_PI + s / y


def log_gamma(x):
    """Natural log of the gamma function for x > 0.

    The argument is shifted upward with ``Gamma(x+1) = x Gamma(x)`` until it
    reaches the asymptotic regime (x >= 10), where a Stirling-type series
    with Bernoulli coefficients converges far below double precision.

    Parameters
    ----------
    x : float or ndarray
        Point(s) at which to evaluate, all strictly positive.

    Returns
    -------
    float or ndarray
        ln Gamma(x), elementwise.  A value that overflows double precision
        (x above about 2.5e305) raises DomainError.
    """
    work, shift, scalar = _shift_to_ten(x, np.log)
    with np.errstate(over="ignore"):
        out = _log_gamma_asymptotic(work) - shift
    return _shaped(_finite(out, x, "log_gamma"), x, scalar)


def digamma(x):
    """Logarithmic derivative of the gamma function for x > 0.

    Same shift-plus-series scheme as :func:`log_gamma`, using
    ``psi(x) = psi(x+1) - 1/x`` to reach the asymptotic regime.
    """
    work, shift, scalar = _shift_to_ten(x, lambda w: 1.0 / w)
    with np.errstate(over="ignore"):
        u = 1.0 / (work * work)
        s = np.zeros_like(work)
        for k in reversed(range(_NTERMS)):
            s = s * u + _DG_COEF[k]
    out = _finite(np.log(work) - 0.5 / work - s * u - shift, x, "digamma")
    return _shaped(out, x, scalar)


def polygamma(n, x):
    """n-th derivative of digamma, n >= 1, for x > 0.

    The argument is shifted to ``x >= 10 + n`` (higher orders need a larger
    asymptotic threshold for the Bernoulli series to settle), then

        psi^(n)(y) = (-1)^(n-1) (n-1)!/y^n [1 + n/(2y)
                      + sum_k B_2k C(2k+n-1, 2k) y^(-2k)]

    Parameters
    ----------
    n : int or 1-d array of int
        Derivative order(s), each ``1 <= n <= 120``.
    x : float or ndarray
        Evaluation point(s), strictly positive.

    Returns
    -------
    float or ndarray
        For an integer n, psi^(n)(x) shaped like x.  For an array of k
        orders, an array of shape ``(k,) + np.shape(x)`` whose row i equals
        ``polygamma(n[i], x)`` bit for bit: the orders share one shift-up
        sequence x, x + 1, ..., and each order adds its own terms
        w^-(n+1) below its own threshold and runs its own series.  Up to
        ``_MAX_LADDER`` values, w^-(n+1) is formed for every (step, order,
        point) of the ladder in one power; past it, for every (order,
        point) once per step.  A pair past its threshold adds +0.0 and
        keeps its argument.

    The series coefficients of every order are computed once, on the first
    call.  A value that overflows double precision raises DomainError
    naming its order and x.
    """
    orders = _orders(n)
    arr, scalar = _as_positive_array(x, "x")
    col = np.array(orders, dtype=float)[:, None]
    table = _polygamma_coef()[np.array(orders) - 1]
    coef, fac = table[:, :-1], table[:, -1:]
    expo = -(col + 1.0)
    with np.errstate(over="ignore"):
        work, shift = _shift_up(arr.ravel(), 10.0 + col,
                                lambda w: w ** expo)
        u = 1.0 / (work * work)
        s = np.zeros_like(work)
        for k in reversed(range(_NTERMS)):
            s = s * u + coef[:, k:k + 1]
        bracket = 1.0 + 0.5 * col / work + s * u
        lead = work ** -col
        # a scalar exponent of -1 takes NumPy's reciprocal path, whose bits
        # an array exponent does not reproduce
        one = np.flatnonzero(col[:, 0] == 1.0)
        lead[one] = 1.0 / work[one]
        sign = np.where(col % 2.0 == 0.0, -1.0, 1.0)
        out = sign * (fac * lead * bracket + col * fac * shift)
    if not np.isfinite(out).all():
        for order, row in zip(orders, out):
            _finite(row, x, f"polygamma({order}, x)")
    if np.ndim(n) == 0:
        return _shaped(out[0], x, scalar)
    return out.reshape((len(orders),) + np.shape(x))


def _orders(n) -> list:
    """Validate a derivative order or a 1-d array of them; return a list."""
    if np.ndim(n) > 1 or not np.size(n):
        raise DomainError(f"order n must be an integer >= 1, got {n!r}")
    orders = np.asarray(n).ravel().tolist()
    for v in orders:
        if not isinstance(v, int) or isinstance(v, bool):
            raise DomainError(f"order n must be an integer >= 1, got {v!r}")
        if v < 1 or v > 120:
            raise DomainError(f"order n must be in [1, 120], got {v}")
    return orders


@functools.cache
def _polygamma_coef():
    """Row n - 1 for each order n in 1..120: the series coefficients
    B_2k C(2k+n-1, 2k) of order n, then (n-1)!; read-only."""
    table = np.array([[_BERN[k] * float(math.comb(2 * (k + 1) + n - 1,
                                                   2 * (k + 1)))
                       for k in range(_NTERMS)]
                      + [float(math.factorial(n - 1))]
                      for n in range(1, 121)])
    table.flags.writeable = False
    return table


def log_beta(a, b):
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b), for a, b > 0."""
    a_arr, sa = _as_positive_array(a, "a")
    b_arr, sb = _as_positive_array(b, "b")
    out = log_gamma(a_arr) + log_gamma(b_arr) - log_gamma(a_arr + b_arr)
    return _maybe_scalar(np.asarray(out), sa and sb)


def reflection_product(a):
    """Gamma(1-a) Gamma(1+a) = pi a / sin(pi a) on 0 < a < 1.

    Closed form of the reflection identity; used as the exact upper-bound
    constant in the symmetric sandwich inequalities.
    """
    arr = np.asarray(a, dtype=float)
    scalar = arr.ndim == 0
    if not np.all(np.isfinite(arr)):
        raise DomainError("a must be finite")
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise DomainError(f"requires 0 < a < 1, got {a!r}")
    out = math.pi * arr / np.sin(math.pi * arr)
    return _maybe_scalar(np.asarray(out), scalar)
