"""Quadrature on the open half line (0, inf).

The integrators here target Laplace-type integrands: finite at 0+,
eventually dominated by an exponential ``exp(-decay_rate * t)``.

A component whose decay rate r is at least 1 first tries a fixed rule:
Gauss-Laguerre in s = r t, whose nodes and weights come from
``np.polynomial.laguerre.laggauss`` (Golub and Welsch 1969).  Where the
integrand is e^(-r t) times a function smooth on the scale of 1/r, the
16-point and the 32-point rules agree far below the tolerance, at 48 nodes
whatever r is.  The component reports the 32-point value, with error
max(|Q_16 - Q_32|, eps |Q_32|); a component whose error is above the
tolerance below is integrated again, from scratch, by the adaptive rule.

The adaptive rule splits the half line at t = 1.  Each side uses a
tanh-sinh (double-exponential) rule whose nodes cluster toward, but never
touch, the interval endpoints, so integrands may be singular in a
removable way at 0 and are simply never sampled there.  The unbounded side
is first mapped to (0, 1] with ``u = exp(-decay_rate (t - 1))``; under that
substitution a pure exponential tail becomes a constant, and slower
polynomial factors turn into integrable logarithmic endpoint behavior that
the double-exponential rule absorbs.  Nodes past the point where the
mapped weight underflows contribute nothing, which truncates the tail
automatically at the tolerance scale.

An integrand may be vector valued: k components, each with its own decay
rate, evaluated in lockstep on shared nodes (Takahasi and Mori 1974;
Bailey, Jeyabalan and Li 2005).  Each component stops at the first rule
or level where its own stopping test passes, with exactly the value and
error estimate that it would get alone.  The first call of each side of
the adaptive rule fetches levels 0 to 4 (191 nodes) for every component
it refines, since most stop at level 3, 4 or 5, and keeps 96 values per
component: each node's value plus its mirror's, and the center's.  A
non-finite value in that block drops it, and levels 0 to 4 are fetched
one call per level instead, as every later level is, for the components
still open; so a value raises only where such a call reads it.  A scalar
integrand is a batch of one.  Integrands must accept numpy arrays.

The limits are fixed.  The fixed rule and each side of the adaptive rule
stop at a relative 1e-10, or at the smallest normal double, below which a
value has no relative precision; the adaptive rule fails after 12 levels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, UsageError

__all__ = ["QuadResult", "integrate_half_line"]

# Largest |tau| used by the double-exponential rule.  At this abscissa the
# endpoint offset is ~1e-262: still a normal double, never rounding a node
# onto the endpoint itself.
_TAU_MAX = 5.95

_EPS = float(np.finfo(float).eps)

# Relative stopping tolerance per side, the split point of the half line
# and the last refinement level.
_REL_TOL = 1e-10
_SPLIT = 1.0
_MAX_LEVELS = 12

# Last level fetched by the first integrand call of each side: levels 0 to
# 4 hold 11 + 12 + 24 + 48 + 96 = 191 nodes, and most components stop at
# level 3, 4 or 5.
_BLOCK_LEVELS = 4

# Smallest normal double: a side whose successive levels differ by less
# has converged, since a subnormal value carries no relative precision.
_TINY = float(np.finfo(float).tiny)

# Point counts of the fixed Gauss-Laguerre rule, and the smallest decay
# rate that tries it: below 1 the integrand's features at t ~ 1 crowd the
# origin of s = rate t.
_GL_POINTS = (16, 32)
_GL_MIN_RATE = 1.0

# Most integrand values requested in one call: a call for more components
# is split by component, so each call's memory stays bounded.
_MAX_VALUES = 1 << 16


@dataclass(frozen=True)
class QuadResult:
    """Value, error estimate, and evaluation count of one integration.

    For a vector integrand ``value`` and ``err_estimate`` are arrays with
    one entry per component, and ``evaluations`` counts the shared nodes.
    """

    value: float | np.ndarray
    err_estimate: float | np.ndarray
    evaluations: int


@functools.cache
def _de_nodes(level: int):
    """(delta, weight) of the double-exponential rule at one level.

    Level 0 has step h = 1 and every tau = h, 2h, ...; level l > 0 adds the
    odd multiples of h = 2^-l.  delta is the node's distance to the nearer
    endpoint expressed as a fraction of the half width; the weight factor
    is per unit half-width.  The arrays are cached and read-only.
    """
    h = 0.5 ** level
    taus = np.arange(1.0, _TAU_MAX / h, 2.0 if level else 1.0) * h
    g = 0.5 * math.pi * np.sinh(taus)
    q = np.exp(-2.0 * g)
    delta = 2.0 * q / (1.0 + q)
    weight = 0.5 * math.pi * np.cosh(taus) * 4.0 * q / (1.0 + q) ** 2
    delta.flags.writeable = weight.flags.writeable = False
    return delta, weight


@functools.cache
def _gl_rule():
    """(nodes, weights) of the fixed rule, read-only: the Gauss-Laguerre
    nodes s of every point count in _GL_POINTS, concatenated, and one row
    of weights per count, w e^s at its own nodes and 0 elsewhere, so that
    row i against the values of the integrand itself gives its rule."""
    rules = [np.polynomial.laguerre.laggauss(m) for m in _GL_POINTS]
    nodes = np.concatenate([s for s, _ in rules])
    weights = np.zeros((len(rules), nodes.size))
    start = 0
    for row, (s, w) in zip(weights, rules):
        row[start:start + s.size] = w * np.exp(s)
        start += s.size
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _require_finite(vals, x) -> None:
    """Raise DomainError at the first non-finite value of the first
    component that has one; x holds the nodes, shared (1-d) or per row."""
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.flatnonzero(bad.any(axis=1))[0])
        xi = x if x.ndim == 1 else x[i]
        raise DomainError(
            f"integrand not finite at node x={float(xi[bad[i]][0])!r}")


def _nodes(levels, d: float, b: float):
    """The nodes of some levels on (0, b), d = b / 2: the left nodes
    d delta of each level in turn, then their mirrors b - d delta in the
    same order, and with level 0 the center d last."""
    left = d * np.concatenate([_de_nodes(lv)[0] for lv in levels])
    x = np.concatenate((left, b - left))
    return np.append(x, d) if 0 in levels else x


def _fetch(f, x, rows):
    """f at the nodes x of _nodes for the components ``rows``, in one call
    per at most _MAX_VALUES values, each call checked as it is made.  Keeps
    one row per component: the sum of each left node's value and its
    mirror's, then the center's value where x has one."""
    m = x.size // 2
    step = max(1, _MAX_VALUES // x.size)
    held = np.empty((rows.size, x.size - m))
    for s in range(0, rows.size, step):
        vals = f(x, rows[s:s + step])
        _require_finite(vals, x)
        held[s:s + step, :m] = vals[:, :m] + vals[:, m:2 * m]
        held[s:s + step, m:] = vals[:, 2 * m:]
    return held


def _tanh_sinh_open(f: Callable, b: float, k: int):
    """Tanh-sinh rule on the open interval (0, b), never sampling 0 or b.

    ``f(x, rows)`` returns the values of the components ``rows`` at the
    shared nodes x, one row per component.  The first call fetches levels
    0 to _BLOCK_LEVELS for every component; if a value there is not finite,
    that block is dropped and those levels make one call each, like every
    later level, for the components still open.  Returns per-component
    value, error estimate and convergence flag, and the number of nodes
    evaluated.
    """
    d = 0.5 * b
    err = np.full(k, math.inf)
    done = np.zeros(k, dtype=bool)
    rows = np.arange(k)
    x = _nodes(range(_BLOCK_LEVELS + 1), d, b)
    evals = x.size
    try:
        block = _fetch(f, x, rows)  # its row i is component i
    except DomainError:
        block = None
    start = 0
    for level in range(_MAX_LEVELS + 1):
        delta, weight = _de_nodes(level)
        m = delta.size
        # the rows ``at`` of held are those of the open components
        if block is not None and level <= _BLOCK_LEVELS:
            held, at, start = block[:, start:], rows.tolist(), start + m
        else:
            x = _nodes((level,), d, b)
            evals += x.size
            held, at = _fetch(f, x, rows), range(rows.size)
        sums = held[:, :m]
        # one dot product per component: a matrix product would sum in a
        # different order
        dots = np.array([float(np.dot(weight, sums[i])) for i in at])
        if not level:
            value = d * (0.5 * math.pi * held[:, -1] + dots)
            continue
        prev = value[rows]
        new = 0.5 * prev + d * 0.5 ** level * dots
        new_err = np.abs(new - prev)
        value[rows], err[rows] = new, new_err
        tol = np.maximum(_REL_TOL * np.abs(new), _TINY)
        stop = (new_err <= tol) & ((level >= 2) | (new_err == 0.0))
        err[rows[stop]] = np.maximum(new_err[stop], _EPS * np.abs(new[stop]))
        done[rows[stop]] = True
        rows = rows[~stop]
        if not rows.size:
            break
    return value, err, done, evals


def _gauss_laguerre(f: Callable, rate, rows):
    """The fixed rule on the components ``rows`` with decay rates ``rate``.

    ``f(t, rows)`` returns the values of those components at one row of
    nodes each.  Returns per-component value, error estimate and whether
    the estimate passes the stopping test.
    """
    nodes, weights = _gl_rule()
    quads = []
    step = max(1, _MAX_VALUES // nodes.size)
    for start in range(0, rows.size, step):
        t = nodes / rate[start:start + step, None]
        vals = f(t, rows[start:start + step])
        _require_finite(vals, t)
        # one dot product per component, so a component's sums do not
        # depend on the batch around it
        quads.extend(np.dot(weights, row) for row in vals)
    quads = np.array(quads) / rate[:, None]
    value = quads[:, -1]
    err = np.maximum(np.abs(quads[:, 0] - value), _EPS * np.abs(value))
    return value, err, err <= np.maximum(_REL_TOL * np.abs(value), _TINY)


def integrate_half_line(f: Callable, decay_rate) -> QuadResult:
    """Integrate f over (0, inf) for integrands with exponential decay.

    A component with decay rate >= 1 first tries the fixed Gauss-Laguerre
    rule; it and every other component then go to the adaptive tanh-sinh
    rule, each side of which stops at a relative 1e-10, or at the smallest
    normal double, and fails after 12 levels (see the module notes).

    Parameters
    ----------
    f : callable
        Vectorized integrand; must be finite on (0, inf) including the
        limit t -> 0+.  It is never evaluated at t = 0.  For a scalar
        ``decay_rate``, ``f(t)`` maps a 1-d array of nodes to values.  For
        an array of k rates the integrand has k components and is called
        as ``f((t, rows))``: ``rows`` lists the components still open, in
        ascending order, and t is either a 1-d array of nodes shared by all
        of them or a 2-d array with one row of nodes per listed component.
        The fixed rule's calls list the components with rate >= 1.  The
        adaptive rule's first call on each side lists the rest and those
        the fixed rule left open, at the 191 nodes of its levels 0 to 4;
        if a value there is not finite, those levels are fetched again,
        one call per level.  Each later call lists only the components
        still open.  It returns one row of values per listed component.
    decay_rate : float or 1-d array
        Positive rate r, one per component, such that
        ``f(t) = O(exp(-r t))`` as t -> inf, possibly times a polynomial.
        Used to scale the fixed rule and to map the tail; a conservative
        (small) value is safe.

    Returns
    -------
    QuadResult
        value and err_estimate (floats, or arrays with one entry per
        component), and the number of nodes at which the integrand was
        evaluated, including the nodes of levels 0 to 4 that no component
        reached and those of a dropped first call.  Components refined in
        lockstep share their nodes, so a node counts once however many
        components it served; for a scalar integrand this is the number of
        integrand evaluations.

    Raises
    ------
    UsageError
        If a decay rate is not positive and finite.
    ConvergenceError
        If either side of some component fails to converge within 12
        levels.  The exception carries the best values, error
        estimates and a ``converged`` flag, per component for a vector
        integrand; the components that converged keep their exact results.
    DomainError
        If the integrand returns a non-finite value at a node.
    """
    lam = np.asarray(decay_rate, dtype=float)
    vector = lam.ndim == 1
    if lam.ndim > 1 or not lam.size or not (
            np.all(np.isfinite(lam)) and np.all(lam > 0.0)):
        raise UsageError(
            f"decay_rate must be positive and finite, got {decay_rate!r}")
    lam = np.atleast_1d(lam)
    k = lam.size

    def call(t, rows):
        if vector:
            return np.asarray(f((t, rows)), dtype=float)
        return np.asarray(f(np.ravel(t)), dtype=float).reshape(1, -1)

    def mapped_tail(u, rows):
        rate = lam[rows, None]
        t = _SPLIT - np.log(u) / rate
        vals = call(t, rows)
        _require_finite(vals, t)
        return vals / (rate * u)

    value, err = np.zeros(k), np.zeros(k)
    ok = np.ones(k, dtype=bool)
    evals = 0
    far = np.flatnonzero(lam >= _GL_MIN_RATE)
    if far.size:
        value[far], err[far], ok[far] = _gauss_laguerre(call, lam[far], far)
        evals += _gl_rule()[0].size
    rest = np.flatnonzero(~ok | (lam < _GL_MIN_RATE))
    if rest.size:
        val_a, err_a, ok_a, ev_a = _tanh_sinh_open(
            lambda t, rows: call(t, rest[rows]), _SPLIT, rest.size)
        val_b, err_b, ok_b, ev_b = _tanh_sinh_open(
            lambda u, rows: mapped_tail(u, rest[rows]), 1.0, rest.size)
        value[rest], err[rest] = val_a + val_b, err_a + err_b
        ok[rest] = ok_a & ok_b
        evals += ev_a + ev_b

    def shaped(arr):
        return arr if vector else arr[0].item()

    if not ok.all():
        what = (f"(best value {float(value[0])!r}, err estimate "
                f"{float(err[0])!r})" if k == 1
                else f"for {k - int(ok.sum())} of {k} components")
        raise ConvergenceError(
            f"no convergence within {_MAX_LEVELS} refinement levels "
            f"{what}", value=shaped(value), err_estimate=shaped(err),
            evaluations=evals, converged=shaped(ok))
    return QuadResult(value=shaped(value), err_estimate=shaped(err),
                      evaluations=evals)
