"""mpmath reference values for the benchmark's accuracy columns.

References are computed at 40 significant digits, independently of the
program's own special functions, and cached by input so that repeated
inputs cost nothing.  Every checked value is scored by its relative error
against the reference:

* ``min_digits`` is the minimum over checked values of -log10(rel error);
* ``ok`` counts the values within ``OK_REL``, the certifier's own
  route-agreement tolerance (``CertConfig.agree_rtol``).

A reference that is exactly zero (an equality point, such as B(1, 1) = 1
against 1/(ab)) has no relative error, so that value is not scored.
"""

from __future__ import annotations

import math

import mpmath

from cmgamma.inequalities import get_case
from cmgamma.kernels import Majorized, MultiParam, Symmetric, TwoParam

DPS = 40
OK_REL = 1e-8
_MAX_DIGITS = 17.0

_FAMILIES = {"two-param": TwoParam, "symmetric": Symmetric,
             "multi-param": MultiParam, "majorized": Majorized}


def family_from(spec: dict):
    """Family object from a workload's family spec (kind plus parameters)."""
    args = [spec[k] for k in ("a", "b") if k in spec]
    return _FAMILIES[spec["kind"]](*args)


class Oracle:
    def __init__(self):
        self.ctx = mpmath.MPContext()
        self.ctx.dps = DPS
        self._cache = {}
        self.checked = 0
        self.ok = 0
        self.min_digits = math.inf

    # -- cached special functions -------------------------------------------

    def _cached(self, key, fn):
        val = self._cache.get(key)
        if val is None:
            val = self._cache[key] = fn()
        return val

    def lg(self, x):
        x = self.ctx.mpf(x)
        return self._cached(("lg", x), lambda: self.ctx.loggamma(x))

    def psi(self, m, x):
        x = self.ctx.mpf(x)
        return self._cached(("psi", m, x), lambda: self.ctx.psi(m, x))

    def lg_combo(self, terms):
        return self.ctx.fsum(c * self.lg(arg) for c, arg in terms)

    def log_beta(self, a, b):
        return self.lg(a) + self.lg(b) - self.lg(self.ctx.mpf(a) + b)

    # -- references -----------------------------------------------------------

    def log_deriv(self, fam, z, n):
        """(-1)^n (ln f)^(n)(z) = (-1)^n sum_j c_j psi^(n-1)(arg_j)."""
        z = self.ctx.mpf(z)
        acc = self.ctx.fsum(c * self.psi(n - 1, arg)
                            for c, arg in fam.shifted_args(z) if c != 0.0)
        return acc if n % 2 == 0 else -acc

    def sides(self, case_id, params, point):
        """(lhs, rhs) of a registry case in log space, or None when the case
        has no reference here."""
        fn = _SIDES.get(case_id)
        if fn is None:
            return None
        mp = self.ctx.mpf
        return fn(self, [mp(v) for v in params], [mp(v) for v in point])

    def margin(self, case_id, lhs, rhs):
        return lhs - rhs if get_case(case_id).direction == "ge" else rhs - lhs

    def exp(self, x):
        return self.ctx.exp(x)

    # -- scoring --------------------------------------------------------------

    def score(self, value, ref):
        """Record one checked value; True when it is within OK_REL, None
        when the reference is exactly zero."""
        value = float(value)
        if ref == 0:
            return None
        if not math.isfinite(value):
            rel = math.inf
        else:
            rel = float(abs((self.ctx.mpf(value) - ref) / ref))
        digits = _MAX_DIGITS if rel <= 10.0 ** -_MAX_DIGITS else max(
            -_MAX_DIGITS, -math.log10(rel))
        self.checked += 1
        self.min_digits = min(self.min_digits, digits)
        good = rel <= OK_REL
        self.ok += good
        return good


def _sym(o, a, z):
    return o.lg_combo(Symmetric(float(a)).shifted_args(z))


def _sym_rhs(o, a, z):
    ln = o.ctx.log
    return 2 * ln(z) - ln(z - a) - ln(z + a)


def _half_rhs(o, z):
    ln = o.ctx.log
    return 2 * ln(2 * z) - ln(2 * z - 1) - ln(2 * z + 1)


def _binom_core(o, a, b, z):
    return o.lg(z - a - b + 1) - o.lg(z - a + 1) - o.lg(z - b + 1)


def _square(o, a, z):
    return o.lg(z) + o.lg(z - 2 * a) - 2 * o.lg(z - a)


def _flat(p):
    return [float(v) for v in p]


# (oracle, params, point) -> (lhs_log, rhs_log); params and point are mpf.
_SIDES = {
    "INQ1": lambda o, p, x: (
        o.lg_combo(TwoParam(*_flat(p)).shifted_args(x[0])), 0),
    "MULTI_GE1": lambda o, p, x: (
        o.lg_combo(MultiParam(_flat(p)).shifted_args(x[0])), 0),
    "MAJOR_GE1": lambda o, p, x: (
        o.lg_combo(Majorized(_flat(p[:len(p) // 2]),
                             _flat(p[len(p) // 2:])).shifted_args(x[0])), 0),
    "SYM_GE1": lambda o, p, x: (_sym(o, p[0], x[0]), 0),
    "SYM_SANDWICH_LB": lambda o, p, x: (_sym(o, p[0], x[0]),
                                        _sym_rhs(o, p[0], x[0])),
    "SYM_SANDWICH_UB": lambda o, p, x: (
        _sym(o, p[0], x[0]),
        o.ctx.log(o.ctx.pi * p[0] / o.ctx.sin(o.ctx.pi * p[0]))
        + _sym_rhs(o, p[0], x[0])),
    "HALF_SANDWICH_LB": lambda o, p, x: (_sym(o, 0.5, x[0]),
                                         _half_rhs(o, x[0])),
    "HALF_SANDWICH_UB": lambda o, p, x: (
        _sym(o, 0.5, x[0]),
        o.ctx.log(2 * o.ctx.pi) + 2 * o.ctx.log(x[0])
        - o.ctx.log(2 * x[0] - 1) - o.ctx.log(2 * x[0] + 1)),
    "WALLIS_LB": lambda o, p, x: (
        o.lg(x[0] + 0.5) - o.lg(x[0] + 1),
        (o.ctx.log(2) - o.ctx.log(2 * x[0] + 1)) / 2),
    "WALLIS_UB": lambda o, p, x: (
        o.lg(x[0] + 0.5) - o.lg(x[0] + 1),
        (o.ctx.log(o.ctx.pi) - o.ctx.log(2 * x[0] + 1)) / 2),
    "WALLIS_SHIFT_LB": lambda o, p, x: (
        o.lg(x[0] + 0.5) - o.lg(x[0]),
        (o.ctx.log(2) + 2 * o.ctx.log(x[0]) - o.ctx.log(2 * x[0] + 1)) / 2),
    "WALLIS_SHIFT_UB": lambda o, p, x: (
        o.lg(x[0] + 0.5) - o.lg(x[0]),
        (o.ctx.log(o.ctx.pi) + 2 * o.ctx.log(x[0])
         - o.ctx.log(2 * x[0] + 1)) / 2),
    "BETA_UB": lambda o, p, x: (
        o.log_beta(x[0], x[1]),
        o.ctx.log(x[0] + x[1]) - o.ctx.log(x[0]) - o.ctx.log(x[1])),
    "BETA_UB_SHIFT_A": lambda o, p, x: (o.log_beta(x[0] + 1, x[1]),
                                        -o.ctx.log(x[1])),
    "BETA_UB_SHIFT_B": lambda o, p, x: (o.log_beta(x[0], x[1] + 1),
                                        -o.ctx.log(x[0])),
    "BETA_UB_DRAGOMIR": lambda o, p, x: (
        o.log_beta(x[0], x[1]), -o.ctx.log(x[0]) - o.ctx.log(x[1])),
    "DUP_SANDWICH_LB": lambda o, p, x: (
        2 * o.lg(x[0]) - o.lg(2 * x[0]),
        o.ctx.log(2 - x[0]) - o.ctx.log(x[0])),
    "DUP_SANDWICH_UB": lambda o, p, x: (
        2 * o.lg(x[0]) - o.lg(2 * x[0]), o.ctx.log(2) - o.ctx.log(x[0])),
    "INQ56": lambda o, p, x: (_binom_core(o, p[0], p[1], x[0]),
                              -o.lg(x[0] + 1)),
    "INQ57_LB": lambda o, p, x: (_binom_core(o, p[0], p[1], x[0]),
                                 -o.lg(x[0] + 1)),
    "INQ58": lambda o, p, x: (
        _square(o, p[0], x[0]),
        2 * o.ctx.log(x[0] - p[0]) - o.ctx.log(x[0])
        - o.ctx.log(x[0] - 2 * p[0])),
    "INQ58_BASE_RATIO": lambda o, p, x: (
        _square(o, p[0], x[0]),
        o.ctx.log(p[0] * p[0] + x[0]) - o.ctx.log(x[0])),
    "INQ58_BASE_SHIFT": lambda o, p, x: (
        _square(o, p[0], x[0]),
        o.ctx.log1p(p[0] * p[0] * (x[0] - 2) / (x[0] - p[0] - 1) ** 2)),
}
