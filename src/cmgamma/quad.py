"""Quadrature on the open half line (0, inf).

The integrator targets Laplace-type integrands: finite at 0+, and e^(-r t)
times a function smooth on the scale of 1/r, where r is the integrand's own
decay rate.  It has one rule: Gauss-Laguerre in s = r t, whose nodes and
weights come from ``np.polynomial.laguerre.laggauss`` (Golub and Welsch
1969).  The 16-point and the 32-point rules run on their own nodes, 48 in
all whatever r is, and each component reports the 32-point value, with
error max(|Q_16 - Q_32|, eps |Q_32|) + D |Q_32|, floored at 1 + W / r
subnormal spacings, W the sum of the 32-point weights: samples below the
smallest normal double round by a fixed spacing, which no relative term
sees.  D is the 32-point rule's own moment defect, max over k < 32 of
|sum w s^k / k! - 1|, about 3.7e-14: ``laggauss`` normalises its weights
by their sum, so the rule misses even the polynomials that it should
integrate exactly.  A component whose error is above a relative 1e-10, or
above the smallest normal double, below which a value has no relative
precision, has not converged; there is no other rule to try.  The rule
never samples t = 0.

An integrand may be vector valued: one component per entry of an array of
decay rates of any shape, each evaluated on its own row of nodes.  Calls
split the array only between rows of its first axis.  Each component gets
exactly the value and error estimate that it would get alone.  Integrands
must accept numpy arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, UsageError

__all__ = ["QuadResult", "integrate_half_line"]

_EPS = float(np.finfo(float).eps)

# Relative tolerance of |Q_16 - Q_32|, and the smallest normal double: a
# component whose two rules differ by less has converged, since a subnormal
# value carries no relative precision.
_REL_TOL = 1e-10
_TINY = float(np.finfo(float).tiny)

# Point counts of the Gauss-Laguerre rules.
_GL_POINTS = (16, 32)

# Most integrand values requested in one call: a rate array asking for
# more is split between rows of its first axis, so each call's memory stays
# bounded unless one row alone holds more.
_MAX_VALUES = 1 << 16


@dataclass(frozen=True)
class QuadResult:
    """Value, error estimate, and evaluation count of one integration.

    For a vector integrand ``value`` and ``err_estimate`` are arrays shaped
    as the rates, one entry per component, and ``evaluations`` counts the
    nodes of one component.
    """

    value: float | np.ndarray
    err_estimate: float | np.ndarray
    evaluations: int


@functools.cache
def _gl_rule():
    """(nodes, weights, defect) of the rule, read-only: the Gauss-Laguerre
    nodes s of every point count in _GL_POINTS, concatenated; one row of
    weights per count, w e^s at its own nodes and 0 elsewhere, so that row
    i against the values of the integrand itself gives its rule; and the
    last rule's moment defect max_(k<m) |sum w s^k / k! - 1|, each moment
    summed exactly."""
    rules = [np.polynomial.laguerre.laggauss(m) for m in _GL_POINTS]
    nodes = np.concatenate([s for s, _ in rules])
    weights = np.zeros((len(rules), nodes.size))
    start = 0
    for row, (s, w) in zip(weights, rules):
        row[start:start + s.size] = w * np.exp(s)
        start += s.size
    nodes.flags.writeable = weights.flags.writeable = False
    s, w = rules[-1]
    defect = max(abs(math.fsum(w * s ** k) / math.factorial(k) - 1.0)
                 for k in range(s.size))
    return nodes, weights, defect


def _require_finite(vals, t) -> None:
    """Raise DomainError at the first non-finite value of the first
    component that has one; t holds the nodes, one row per component."""
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.flatnonzero(bad.any(axis=1))[0])
        raise DomainError(
            f"integrand not finite at node x={float(t[i][bad[i]][0])!r}")


def integrate_half_line(f: Callable, decay_rate) -> QuadResult:
    """Integrate f over (0, inf) for integrands with exponential decay.

    Every component takes the 16- and 32-point Gauss-Laguerre rules in
    s = r t, r its decay rate, and converges where they agree to a
    relative 1e-10, or to the smallest normal double (see the module
    notes).

    Parameters
    ----------
    f : callable
        Vectorized integrand; must be finite on (0, inf) including the
        limit t -> 0+.  It is never evaluated at t = 0.  For a scalar
        ``decay_rate``, ``f(t)`` maps a 1-d array of nodes to values.  For
        a rate array of shape S, each entry is one component and the
        integrand is called as ``f((t, rows))``: ``rows`` is a run of
        consecutive indices of the first axis, and t, of shape
        ``(len(rows),) + S[1:] + (48,)``, holds each listed component's
        nodes on its last axis.  It returns values of t's shape.  A call
        lists every row, unless that would ask for more than 2^16 values:
        then the rows are split over several calls, one row at least each.
    decay_rate : float or array
        Positive rate r, one per component: the integrand's own rate,
        ``f(t) = e^(-r t) g(t)`` with g smooth on the scale of 1/r.  It
        scales the rule's nodes, so a rate far below the true one leaves
        the nodes where the integrand has already vanished, and a rate far
        above it leaves the tail unsampled.

    Returns
    -------
    QuadResult
        value and err_estimate (floats, or arrays shaped as the rates), and
        the number of nodes per component, 48.

    Raises
    ------
    UsageError
        If a decay rate is not positive and finite.
    ConvergenceError
        If the two rules of some component disagree beyond the tolerance.
        The exception carries the 32-point values, error estimates and a
        ``converged`` flag, shaped as the rates; the components that
        converged keep their exact results.
    DomainError
        If the integrand returns a non-finite value at a node.
    """
    lam = np.asarray(decay_rate, dtype=float)
    if not lam.size or not (np.all(np.isfinite(lam)) and np.all(lam > 0.0)):
        raise UsageError(
            f"decay_rate must be positive and finite, got {decay_rate!r}")
    nodes, weights, defect = _gl_rule()
    grid = np.atleast_1d(lam)
    step = max(1, _MAX_VALUES // (nodes.size * (grid.size // len(grid))))
    quads = []
    for start in range(0, len(grid), step):
        t = nodes / grid[start:start + step, ..., None]
        vals = (f((t, np.arange(start, start + len(t)))) if lam.ndim
                else f(t[0]))
        vals = np.reshape(np.asarray(vals, dtype=float), (-1, nodes.size))
        _require_finite(vals, t.reshape(vals.shape))
        # one dot product per component, so a component's sums do not
        # depend on the batch around it
        quads.extend(np.dot(weights, row) for row in vals)
    quads = np.array(quads) / grid.reshape(-1, 1)
    value = quads[:, -1]
    err = (np.maximum(np.abs(quads[:, 0] - value), _EPS * np.abs(value))
           + defect * np.abs(value))
    # a sample or product below the smallest normal double errs by up to
    # half the subnormal spacing _EPS * _TINY: (W / 2 + 16) / r over the
    # 32-point rule's W = sum w and 32 products, and half for the division
    err = np.maximum(err, _EPS * _TINY * (1.0 + weights[-1].sum()
                                          / grid.reshape(-1)))
    ok = err <= np.maximum(_REL_TOL * np.abs(value), _TINY)

    def shaped(arr):
        return arr.reshape(lam.shape) if lam.ndim else arr[0].item()

    if not ok.all():
        k = lam.size
        what = (f"(32-point value {float(value[0])!r}, err estimate "
                f"{float(err[0])!r})" if k == 1
                else f"for {k - int(ok.sum())} of {k} components")
        raise ConvergenceError(
            f"16- and 32-point rules disagree beyond a relative "
            f"{_REL_TOL:g} {what}", value=shaped(value),
            err_estimate=shaped(err), evaluations=nodes.size,
            converged=shaped(ok))
    return QuadResult(value=shaped(value), err_estimate=shaped(err),
                      evaluations=nodes.size)
