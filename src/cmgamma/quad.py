"""Quadrature on the open half line (0, inf).

The integrator targets Laplace-type integrands: finite at 0+, and e^(-r t)
times a function smooth on the scale of 1/r, where r is the integrand's own
decay rate.  It has one rule: Gauss-Laguerre in s = r t, whose nodes s
and weights W = w e^s are written below as doubles, each rounded once
from 60 digits by ``tools/gl_rule.py``.  The 16-point and the 32-point
rules run on their own nodes, 48 in all whatever r is, and each component
reports the 32-point value Q_32 = sum W f(s / r) / r, with error

    |Q_16 - Q_32| + D |Q_32| + 40 u sum |W f(s / r)| / r,

floored at 1 + W / r subnormal spacings, W the sum of the 32-point
weights: samples below the smallest normal double round by a fixed
spacing, which no relative term sees.  D is the moment defect of the
stored 32-point rule, max over k < 32 of |sum W e^-s s^k / k! - 1|, taken
at 60 digits: 1.6e-16.  The last term allows each term of the sum 40
roundings of u = eps / 2: 32 in the sum itself, its product and up to 31
additions, and 8 in its sample, the node's division by r and the
integrand's own operations.  A component whose error is above a relative
1e-10, or above the smallest normal double, below which a value has no
relative precision, has not converged; there is no other rule to try.
The rule never samples t = 0.

An integrand may be vector valued: one component per entry of an array of
decay rates of any shape, each evaluated on its own row of nodes.  Calls
split the array only between rows of its first axis.  Each component gets
exactly the value and error estimate that it would get alone.  Integrands
must accept numpy arrays.
"""

from __future__ import annotations

import functools
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

# The rules, one (nodes, weights) pair per point count, each value rounded
# once from 60 digits; and the last rule's moment defect as stored.
# BEGIN constants written by tools/gl_rule.py
_GL_RULES = (
    (  # 16 points: nodes, then weights
        (0.08764941047892784, 0.46269632891508083, 1.141057774831227,
         2.1292836450983805, 3.4370866338932067, 5.078018614549768,
         7.070338535048234, 9.438314336391938, 12.21422336886616,
         15.441527368781617, 19.180156856753136, 23.515905693991908,
         28.57872974288214, 34.58339870228662, 41.94045264768833,
         51.70116033954332),
        (0.22503631486424724, 0.5258360527623425, 0.831961391687087,
         1.1460992409637516, 1.4717513169668086, 1.813134687381348,
         2.1755175196946075, 2.565762750165029, 2.993215086371375,
         3.4712344831020903, 4.020044086444669, 4.672516607732854,
         5.487420657986153, 6.5853612332892135, 8.276357984364234,
         11.824277551658435),
    ),
    (  # 32 points: nodes, then weights
        (0.04448936583326702, 0.23452610951961853, 0.5768846293018864,
         1.0724487538178176, 1.7224087764446454, 2.5283367064257947,
         3.4922132730219944, 4.616456769749767, 5.903958504174244,
         7.358126733186241, 8.982940924212595, 10.783018632539973,
         12.763697986742725, 14.931139755522556, 17.292454336715316,
         19.855860940336054, 22.630889013196775, 25.628636022459247,
         28.862101816323474, 32.346629153964734, 36.10049480575197,
         40.14571977153944, 44.509207995754934, 49.22439498730864,
         54.33372133339691, 59.89250916213402, 65.97537728793505,
         72.68762809066271, 80.18744697791352, 88.7353404178924,
         98.82954286828397, 111.7513980979377),
        (0.11418710576810485, 0.2660652168976152, 0.418793137324853,
         0.5725328464998047, 0.7276487883809714, 0.8845367193402497,
         1.043618875892077, 1.2053492741523526, 1.3702213385217812,
         1.5387772564686448, 1.7116193526864572, 1.889424063449484,
         2.0729593402465336, 2.2631066339969634, 2.460889072488236,
         2.667508126397117, 2.8843920929220417, 3.113261327039586,
         3.3562176925958025, 3.615869856484269, 3.8955130449485496,
         4.199394104711586, 4.533114978534361, 4.9042702876112445,
         5.323500972023666, 5.8063332142336215, 6.3766146741596526,
         7.0735265807072425, 7.9676935092959, 9.20504033127819,
         11.163013090767873, 15.390180415260643),
    ),
)
_GL_DEFECT = 1.6248553593129247e-16
# END constants written by tools/gl_rule.py

# Roundings of u = eps / 2 allowed per term of the 32-point sum (see the
# module notes).
_ROUNDINGS = 40

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
    """(nodes, weights, defect) of the rule, read-only: the nodes s of
    every rule in _GL_RULES, concatenated; one row of weights per rule,
    its W at its own nodes and 0 elsewhere, over the integrand's values
    followed by their magnitudes, so that row i against them gives rule i,
    and a last row the 32-point sum of the magnitudes; and the last rule's
    moment defect."""
    nodes = np.concatenate([s for s, _ in _GL_RULES])
    weights = np.zeros((len(_GL_RULES) + 1, 2 * nodes.size))
    start = 0
    for row, (s, w) in zip(weights, _GL_RULES):
        row[start:start + len(s)] = w
        start += len(s)
    weights[-1, nodes.size:] = weights[-2, :nodes.size]
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights, _GL_DEFECT


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
        quads.extend(np.dot(weights, row) for row in
                     np.concatenate((vals, np.abs(vals)), axis=1))
    quads = np.array(quads) / grid.reshape(-1, 1)
    value, mag = quads[:, 1], quads[:, 2]
    err = (np.abs(quads[:, 0] - value) + defect * np.abs(value)
           + _ROUNDINGS * _EPS / 2 * mag)
    # a sample or product below the smallest normal double errs by up to
    # half the subnormal spacing _EPS * _TINY: (W / 2 + 16) / r over the
    # 32-point rule's weight sum W and 32 products, and half for the division
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
