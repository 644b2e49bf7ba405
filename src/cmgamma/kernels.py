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

The two routes share the table, its exact gaps and integer moments, and
the recurrence lnG(x + 1) = lnG(x) + ln x, and nothing else: the polygamma
route reads :mod:`cmgamma.specfun`; the quadrature route reads the Abel sum
:meth:`RatioFamily.abel` and the recurrence's closed-form terms, and uses
only exp, expm1, log1p, products and powers, which is what makes
cross-checking them meaningful.  The kernel is described once, by the
family's exact term list (:attr:`RatioFamily.terms`): integer exponents
over a power-of-two denominator, equal exponents merged and zero
coefficients dropped.  The kernel values, the quadrature integrand, the
certification gate and the sums S_n(z) = sum_j c_j psi^(n-1)(z - d_j) of
``log_f`` (n = 0, psi^(-1) = lnG) and of the polygamma route
(:meth:`RatioFamily.psi_sum`) all read that list.  K >= 0 whenever
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
from itertools import accumulate

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
# nonzero (i, (-1)^(k+1) C(k+1, i) 30030 B_i) of the z^-k term of the
# large-z series, k = 0..13; the k = 13 term is left out and bounds the rest.
_BERN = (30030, -15015, 5005, 0, -1001, 0, 715, 0, -1001, 0, 2275, 0, -7601, 0)
_BC = [[(i, (-1) ** (k + 1) * math.comb(k + 1, i) * b)
        for i, b in enumerate(_BERN[:k + 1]) if b] for k in range(14)]
# (k)_n = k (k+1) ... (k+n-1) for k = 13..1: the n-th derivative of z^-k is
# (-1)^n (k)_n z^-(k+n); row n = 0 is all ones
_RISING = np.array([[math.perm(k + n - 1, n) for k in range(13, 0, -1)]
                    for n in range(N_MAX_ORDER + 1)], dtype=float)

# (n)_p = n (n+1) ... (n+p-1) for p = 1..13: the p-th term of the binomial
# series of (u + delta)^-n in delta / u
_POCH = np.array([[math.perm(n + p - 1, p) for p in range(1, 14)]
                  for n in range(N_MAX_ORDER + 1)], dtype=float)

# Terms of the near field's sums.  A spread of at most u / (4 (16 + n))
# makes each moment term at most (n + k) / (4 (k + 1)(16 + n)) of the one
# before, so those past k = 11 are below 2^-56 of the first, and a gap of at
# most u / (16 (16 + n)) leaves the Taylor terms past k = 8 below that.
_MOMENT_TERMS, _PAIR_TERMS = 11, 8
# Unit roundoff, and the roundings of the term magnitudes that bound a sum
# S_n's error: its polygamma values, their arguments and its additions.
_U, _SUM_ULPS = 2.0 ** -53, 16.0
# The smallest normal double.
_TINY = float(np.finfo(float).tiny)
# The smallest argument at which a near-field sum is taken: there the top
# order it can ask, psi^(m) with m = 12 + _MOMENT_TERMS - 1, is about
# m! x^-(m+1) <= DBL_MAX / e.  Below it a pair takes its plain difference.
_SERIES_MIN_X = math.exp(
    (math.lgamma(N_MAX_ORDER + _MOMENT_TERMS) + 1.0
     - math.log(np.finfo(float).max)) / (N_MAX_ORDER + _MOMENT_TERMS))


def _powers(pairs, count: int) -> list:
    """sum_j c_j x_j^p for p < count over integer pairs (x_j, c_j), exactly."""
    out = [0] * count
    for x, c in pairs:
        for p in range(count):
            out[p], c = out[p] + c, c * x
    return out


def _ratio(num: int, den: int) -> float:
    """num / den rounded once; an overflow is a DomainError."""
    try:
        return num / den
    except OverflowError:
        raise DomainError("an exact moment of the table overflows double "
                          "precision") from None


def _dyadic(groups):
    """(den, sums): each group's floats summed exactly, over one den = 2^k."""
    den = max((o.as_integer_ratio()[1] for g in groups for o in g), default=1)
    return den, [sum(n * (den // d) for n, d in map(float.as_integer_ratio, g))
                 for g in groups]


def _psi(orders, x):
    """Values and magnitudes of psi^(o-1)(x), lnG for o = 0, stacked and
    shaped orders.shape + x.shape, from one ``specfun`` call per function;
    a magnitude bounds, in roundings, what the value and its argument's
    rounding err by (lnG and psi have zeros, so add 16 + 1/x)."""
    o, inv = np.unique(orders, return_inverse=True)
    flat = np.ravel(x)
    out = np.zeros((2, o.size, flat.size))
    for sel, fn in ((o == 0, specfun.log_gamma), (o == 1, specfun.digamma)):
        if sel.any():
            out[:, sel] = np.stack([fn(flat), 16.0 + 1.0 / flat])[:, None]
    if (o > 1).any():
        out[0, o > 1] = specfun.polygamma(o[o > 1] - 1, flat)
    out[1] += (o[:, None] + 1.0) * np.abs(out[0])
    return out[:, inv.reshape(np.shape(orders))].reshape(
        2, *np.shape(orders), *np.shape(x))


@dataclass(frozen=True, repr=False)
class RatioFamily:
    """A gamma ratio: its kind, the user's parameters and its table.

    ``rows`` holds one (integer coefficient, offsets) pair per gamma
    factor and ``ref`` the offsets of the reference exponent r.
    """

    kind: str
    params: tuple
    rows: tuple
    ref: tuple = ()

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
        """The largest exact row exponent, rounded down to a float: every
        argument is positive at any float above it."""
        return self._exact[3]

    @cached_property
    def _exact(self):
        """(den, ref, sums, edge): the offsets of the reference and of each
        row summed exactly over one den = 2^k, and the domain's edge, the
        largest row exponent -min(sums) / den, rounded down to a float."""
        den, (ref, *sums) = _dyadic(
            (self.ref,) + tuple(g for _, g in self.rows))
        top = -min(sums)
        try:
            edge = top / den
        except OverflowError:  # the offsets' float sum overflows alike
            return den, ref, sums, math.inf
        num, scale = edge.as_integer_ratio()
        if num * den > top * scale:  # rounded up: take the float below
            edge = math.nextafter(edge, -math.inf)
        return den, ref, sums, edge

    @cached_property
    def terms(self):
        """(den, r, terms): the kernel K(t) = sum_j c_j e^(x_j t) as integer
        pairs (X_j, c_j), x_j = X_j / den exactly, with den a power of two.

        Rows with equal exponents are merged and zero coefficients dropped,
        so cancelling factors leave no trace; ``terms`` ascends in X.  The
        integer r is den times the reference exponent, so row j's own
        exponent is d_j = (X_j + r) / den.  Computed once per family: the
        kernel, the quadrature integrand, the certify gate and
        :meth:`psi_sum` all read it.
        """
        den, ref, sums, _ = self._exact
        merged: dict[int, int] = {}
        for (coef, _), x in zip(self.rows, sums):
            merged[ref - x] = merged.get(ref - x, 0) + int(coef)
        return den, -ref, tuple(sorted((x, c) for x, c in merged.items() if c))

    @cached_property
    def _moments(self):
        """The exact integer moments mu_p = sum_j c_j (X_m - X_j)^p below the
        top exponent X_m, p <= _MOMENT_TERMS + 2, built on first use: the
        kernel's Taylor series and the near field's moment sum read them."""
        _, _, terms = self.terms
        return _powers([(terms[-1][0] - x, c) for x, c in terms],
                       _MOMENT_TERMS + 3)

    @cached_property
    def _far_z(self):
        """16 max(1, |d_j|): the large-z series applies from there on, to a
        table of two terms or more (one term is its own sum)."""
        den, r, terms = self.terms
        if len(terms) < 2:
            return math.inf
        return 16.0 * max(1.0, _ratio(max(abs(x + r) for x, _ in terms), den))

    @cached_property
    def _series(self):
        """(lead, scale, coefs) of S_n at large z (DLMF 5.11.8), with the
        sum of the c_j taken out as (sum_j c_j) psi^(n-1) at the smallest
        argument.  With x = scale / z the rest is S_0 = lead ln z + x
        polyval(coefs[1:], x) and S_n = (-1)^n z^-n (x polyval((k)_n
        coefs[1:], x) - lead (n-1)!): scale = 2^e >= every |d_j|, lead =
        -sum_j c_j d_j and coefs[13 - k] the z^-k term, k = 13..1, each
        rounded once from the exact moments; coefs[0] is left out and bounds
        the truncation."""
        den, r, terms = self.terms
        # sum_j c_j D_j^p, D_j = -X_j - r, with D_1 = d given the coefficient
        # c_1 - sum_j c_j
        d, m = -terms[-1][0] - r, den.bit_length() - 1
        mu = _powers([(-x - r, c) for x, c in terms]
                     + [(d, -sum(c for _, c in terms))], len(_BERN) + 1)
        e = max(0, max(abs(x + r) for x, _ in terms).bit_length() - m)
        coefs = [_ratio(sum(b * mu[k + 1 - i] << m * i for i, b in _BC[k]),
                        30030 * k * (k + 1) << m * (k + 1) + e * k)
                 for k in range(len(_BERN) - 1, 0, -1)]
        return _ratio(mu[1], den), 2.0 ** e, np.array(coefs)

    @cached_property
    def _near(self):
        """(hi, lo, suffix, width) of S_n below the series, over the
        ascending arguments z + hi_j + lo_j = z - d_j (no in-domain one
        rounds onto a pole) and suffix sums S_j = c_j + ... + c_m.  A sum is
        taken where width (16 + n) <= its argument: width holds 4 times the
        spread d_1 - d_m for the moments, then 16 g for each exact gap g =
        d_j - d_(j+1), and inf where no sum is taken."""
        den, r, terms = self.terms
        offs = [-x - r for x, _ in reversed(terms)]
        hi = [_ratio(x, den) for x in offs]
        lo = [_ratio(x * d - n * den, den * d)
              for x, (n, d) in zip(offs, map(float.as_integer_ratio, hi))]
        suffix = list(accumulate(c for _, c in terms))[::-1]
        pairs = [(s, x1 - x0) for s, x0, x1 in zip(suffix[1:], offs, offs[1:])]
        # M_1 = sum_j S_j g_j: the pairs cancel where it is far below their
        # magnitudes, and only there do the moments pay
        cancel = 16 * abs(sum(s * g for s, g in pairs)) < sum(
            abs(s) * g for s, g in pairs)
        width = [4 * _ratio(offs[-1] - offs[0], den) if cancel else math.inf,
                 *(16 * _ratio(g, den) if s else math.inf for s, g in pairs)]
        return (np.array(hi), np.array(lo), np.array(suffix, dtype=float),
                np.array(width))

    @cached_property
    def _near_terms(self):
        """(coefs, last, tail) of the near field's sums, built once a z takes
        one: row 0 of coefs holds M_k / k! for the moments M_k = sum_j c_j
        (d_1 - d_j)^k, row j g^k / k! for gap j, each rounded once and
        stopping at the row's last term; tail holds the next two."""
        den, r, terms = self.terms
        offs = [-x - r for x, _ in reversed(terms)]
        facts = [den ** k * math.factorial(k)
                 for k in range(_MOMENT_TERMS + 3)]
        coefs = np.array([list(map(_ratio, row, facts)) for row in [
            self._moments, *(_powers([(x1 - x0, 1)], _PAIR_TERMS + 3)
                             + [0] * (_MOMENT_TERMS - _PAIR_TERMS)
                             for x0, x1 in zip(offs, offs[1:]))]])
        last = np.array([_MOMENT_TERMS] + [_PAIR_TERMS] * (len(offs) - 1))
        tail = coefs[np.arange(last.size)[:, None], last[:, None] + [1, 2]]
        coefs[1:, _PAIR_TERMS + 1:] = 0.0
        return coefs[:, :-2], last, tail

    @cached_property
    def _taylor(self):
        """(spread, lift, moments, delta, cols, weight, gap), built once for
        :meth:`abel` and :func:`_shift_sum`; (0.0, 0, [0.0]) if all terms
        cancel.  Every |(x_j - x_m) t| <= 1/16 where spread t <= 1/16, and
        there 2^lift A(t) = polyval(moments[_TAYLOR_TERMS::-1], t).
        moments[p] is 2^lift (-1)^p mu_p / (den^p p!), rounded once from
        the exact integer moment mu_p = sum_j c_j (x_j - x_m)^p about the
        top exponent x_m; lift is _LIFT if each of them to p = _TAYLOR_TERMS
        is below 2^-_LIFT, else 0.  delta holds the offsets x_m - x_j,
        descending in x_j; cols the Abel pairs whose suffix sum is not 0,
        weight those sums and gap their exact gaps times 2^lift."""
        den, _, terms = self.terms
        if not terms:
            return 0.0, 0, [0.0]
        moments = [((-1) ** p * mu, den ** p * math.factorial(p))
                   for p, mu in enumerate(self._moments)]
        lift = _LIFT if all(abs(mu) << _LIFT < s for mu, s in
                            moments[:_TAYLOR_TERMS + 1]) else 0
        # the shift sum reads the moments past the Taylor terms only where
        # spread < 1/34; from spread 1 on they may overflow, and stay NaN
        wide = terms[-1][0] - terms[0][0] >= den
        moments = np.array([
            math.nan if wide and p > _TAYLOR_TERMS else _ratio(mu << lift, s)
            for p, (mu, s) in enumerate(moments)])
        xs = [x for x, _ in reversed(terms)]
        cols = np.flatnonzero(self._near[2][1:])
        return ((xs[0] - xs[-1]) / den, lift, moments,
                np.array([_ratio(xs[0] - x, den) for x in xs]), cols,
                self._near[2][cols + 1],
                np.array([_ratio(xs[j] - xs[j + 1] << lift, den)
                          for j in cols]))

    def abel(self, t):
        """2^lift A(t), where A(t) = e^(-x_m t) K(t), x_m is the top exponent
        and lift is 0 unless K is tiny (:attr:`_taylor`), for t >= 0 of any
        shape (0 if all terms cancel).  Over ascending x_1 < ... < x_m and
        the partial sums C_j = c_1 + ... + c_j, A is the Abel sum
        sum_j C_j expm1((x_j - x_(j+1)) t) e^((x_(j+1) - x_m) t).  It
        reproduces product forms such as (1 - e^-at)(1 - e^-bt), and each
        nearly equal pair of exponents cancels inside one expm1 of its
        exact gap.  Where every |(x_j - x_m) t| <= 1/16 the pairs cancel
        against each other, so there A is its Taylor series on the exact
        moments about x_m instead.  A depends on the exponent gaps only,
        not on the reference exponent.
        """
        den, _, terms = self.terms
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        spread, lift, moments = self._taylor[:3]
        top, partial = (terms[-1][0] if terms else 0), 0
        for (x0, c0), (x1, _) in zip(terms, terms[1:]):
            partial += c0
            if (x1 - x0) << _LIFT < den:  # expm1 is linear: lift the gap
                rise = ((x0 - x1) << lift) / den * t * partial
            else:
                rise = np.expm1((x0 - x1) / den * t) * (partial * 2.0 ** lift)
            out += rise * np.exp((x1 - top) / den * t)
        near = spread * t <= 0.0625
        if near.any():
            out[near] = np.polyval(moments[_TAYLOR_TERMS::-1], t[near])
        return out

    def kernel(self, t):
        """K(t) = sum_j c_j e^(x_j t) = e^(x_m t) A(t), from :meth:`abel`;
        it overflows to +-inf only where the kernel does."""
        den, _, terms = self.terms
        t = np.asarray(t, dtype=float)
        top = _ratio(terms[-1][0], den) if terms else 0.0
        with np.errstate(over="ignore"):
            out = np.exp(top * t) * np.ldexp(self.abel(t), -self._taylor[1])
        return float(out) if out.ndim == 0 else out

    def psi_sum(self, z, n):
        """(S, err) stacked: S_n(z) = sum_j c_j psi^(n-1)(z - d_j), psi^(-1)
        = lnG, over the exact terms, and a bound on its error, at 1-d z and
        orders n in 0..12, shaped (z, n).  Each (z, n) takes its branch from
        its own z and n, and every sum runs in a fixed order, so a batch
        equals its scalar calls bit for bit:

        * far field, z >= 16 max(1, |d_j|) where the term :attr:`_series`
          leaves out is inside its rounding bound: the series or its
          term-wise derivative;
        * moments, where the pairs below cancel and the arguments spread at
          most u / (4 (16 + n)), u the smallest: sum_k M_k / k! F_(n+k)(u);
        * Abel pairs elsewhere: S_1 F_n(a_1) + sum_j S_j (F_n(a_j) -
          F_n(a_(j-1))) over the ascending arguments a_j and suffix sums S_j,
          a difference being its Taylor sum sum_k g^k / k! F_(n+k)(a_(j-1))
          in its exact gap g where g <= a_(j-1) / (16 (16 + n)).

        Here F_n = psi^(n-1).  err is _SUM_ULPS roundings of the term
        magnitudes plus twice the terms a sum leaves out, bounded from the
        last one kept by |psi^(m+1)(x)| <= (m+1) |psi^(m)(x)| / x, and no
        less than _SUM_ULPS roundings of a subnormal.
        """
        z, n = np.asarray(z, dtype=float), np.asarray(n)
        den, r, terms = self.terms
        out = np.zeros((2, z.size, n.size))
        if not terms:
            return out
        near = np.ones(out.shape[1:], dtype=bool)
        far = z >= self._far_z
        if far.any():
            lead, scale, coefs = self._series
            zf, total = z[far, None], sum(c for _, c in terms)
            x, c = scale / zf, coefs * _RISING[n]
            y = c[:, 1]
            for k in range(2, c.shape[1]):
                y = y * x + c[:, k]
            # trunc, the x^13 term left out; as x <= 1/8, the terms kept are
            # at most x sum_k |c_k| 8^(1-k)
            x4 = (x * x) * (x * x)
            trunc = np.abs(c[:, 0]) * (x4 * x4 * x4 * x)
            mag = x * (np.abs(c[:, 1:]) * 8.0 ** np.arange(-11, 1)).sum(axis=1)
            # z^-n by repeated division: a power ufunc's bits may depend on
            # the length of its array
            inv = [np.ones_like(zf)]
            for _ in range(n.max()):
                inv.append(inv[-1] / zf)
            inv = np.hstack(inv)[:, n]
            # d^n ln z / dz^n = (-1)^(n-1) (n-1)! z^-n, (n-1)! = (1)_(n-1)
            last = lead * np.where(n == 0, np.log(zf), -_RISING[n - 1, -1])
            near[far] = trunc > _SUM_ULPS * _U * (mag + np.abs(last))
            out[0, far] = (-1.0) ** n * inv * (y * x + last)
            out[1, far] = inv * (_U * (_SUM_ULPS * mag + 2.0 * np.abs(last))
                                 + 2.0 * trunc)
            if total:
                hi, lo = self._near[0][0], self._near[1][0]
                f = _psi(n, (z[far] + hi) + lo).swapaxes(1, 2)
                out[:, far] += [[[total]], [[_SUM_ULPS * _U * abs(total)]]] * f
        rows = near.any(axis=1)
        if rows.any():
            out[:, rows] = np.where(near[rows], self._near_sum(z[rows], n),
                                    out[:, rows])
        # below the smallest normal double a rounding errs by up to half
        # the subnormal spacing, _U * _TINY, whatever the magnitudes
        out[1] = np.maximum(out[1], _SUM_ULPS * _U * _TINY)
        return out

    def _near_sum(self, z, n):
        """:meth:`psi_sum` by moments or Abel pairs, stacked as there; the
        work runs over (value or magnitude, order, z, table row)."""
        hi, lo, suffix, width = self._near
        a = (z[:, None] + hi) + lo
        # row 0 of coefs expands about a_1, row j about a_(j-1)
        x = a[:, np.maximum(np.arange(a.shape[1]) - 1, 0)]
        series = (width * (16.0 + n)[:, None, None] <= x) & (
            x >= _SERIES_MIN_X)
        # the Taylor and moment sums only where some order takes one
        need = series.any(axis=0)
        tay, trunc = np.zeros((2,) + series.shape), np.zeros(series.shape)
        if need.any():
            coefs, last, tail = self._near_terms
            K = last[0] if need[:, 0].any() else _PAIR_TERMS
            s = _psi(n[:, None] + np.arange(1, K + 1), x[need])
            row = np.nonzero(need)[1]
            c, k_last = coefs[row], last[row]
            tay[:, :, need] = sum(np.stack([c[:, k], np.abs(c[:, k])])[:, None]
                                  * s[:, :, k - 1] for k in range(1, K + 1))
            ratio = (n[:, None] + k_last + 1) / x[need]
            trunc[:, need] = (np.abs(tail[row, 0]) + np.abs(tail[row, 1])
                              * ratio) * ratio * 2 * np.abs(
                s[0][:, k_last - 1, np.arange(row.size)])
        f, w = _psi(n, a), np.stack([suffix, np.abs(suffix)])[:, None, None]
        acc = base = w[..., 0] * f[..., 0]
        atrunc = 0.0
        for j in range(1, a.shape[1]):
            d = f[..., j] + [[[-1.0]], [[1.0]]] * f[..., j - 1]
            if need[:, j].any():
                d = np.where(series[..., j], tay[..., j], d)
                atrunc = atrunc + abs(suffix[j]) * np.where(
                    series[..., j], trunc[..., j], 0.0)
            acc = acc + w[..., j] * d
        if need[:, 0].any():
            acc = np.where(series[..., 0], base + tay[..., 0], acc)
            atrunc = np.where(series[..., 0], trunc[..., 0], atrunc)
        acc[1] = _SUM_ULPS * _U * acc[1] + atrunc
        return acc.swapaxes(1, 2)


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
    rows = [(float(len(a) - 1), (1.0,)),
            (1.0, tuple(-ai for ai in a) + (1.0,))]
    rows.extend((-1.0, (-ai, 1.0)) for ai in a)
    # r = -1 gives K(t) = (k-1) + e^(At) - sum e^(a_i t)
    return RatioFamily("multi-param", (("a", a),), tuple(rows), ref=(1.0,))


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
    """A DomainError naming the first offending z, as a float, when some z
    is not finite or not above the family's lower bound."""
    bound = fam.lower_bound()
    arr = np.ravel(np.asarray(z, dtype=float))
    bad = ~np.isfinite(arr)
    if bad.any():
        raise DomainError(f"z must be finite, got {float(arr[bad][0])!r}")
    bad = arr <= bound
    if bad.any():
        raise DomainError(
            f"z must exceed the domain lower bound {bound!r} for {fam!r}, "
            f"got {float(arr[bad][0])!r}")


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
    """ln f(z) = S_0(z) = sum_j c_j lnG(z - d_j) (:meth:`RatioFamily.psi_sum`),
    d_j the exact row exponents, for z above the bound."""
    _check_family(fam)
    _check_z(fam, z)
    out = fam.psi_sum(np.ravel(np.asarray(z, dtype=float)), [0])[0][:, 0]
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
    """(-1)^n (ln f)^(n)(z) via the polygamma series route: (-1)^n S_n(z)
    from :meth:`RatioFamily.psi_sum`, whose error bound is the estimate.

    z may be an array of points and n an array of orders; the result then
    holds one value per (z, n) pair, shaped ``np.shape(z) + np.shape(n)``,
    from at most one ``digamma`` and two ``polygamma`` calls when the
    table's coefficients sum to zero, as in the four families; otherwise
    the far field's total term adds one call of each.
    """
    zs, orders, shape = _route_grid(fam, z, n)
    value, err = fam.psi_sum(zs, orders)
    sign = np.where(np.array(orders) % 2 == 0, 1.0, -1.0)
    return _route_result(z, n, shape, sign * value, err, "polygamma")


# Recurrence steps a z takes one by one; the rest of its k steps are summed
# by Euler-Maclaurin, whose terms past B_16 are then below 1e-18 of the
# tail's value at every order up to 12.
_HEAD = 32
# (n)_(2m-1) B_2m / (2m)! for m = 1..9, row n the order: the Euler-Maclaurin
# coefficient of the derivative of order 2m - 1 of u^-n; m = 9 is left out
# and bounds the rest.
_EM = np.array([[math.perm(n + 2 * m - 2, 2 * m - 1) * num
                 / (den * math.factorial(2 * m))
                 for m, (num, den) in enumerate(
                     ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66),
                      (-691, 2730), (7, 6), (-3617, 510), (43867, 798)), 1)]
                for n in range(N_MAX_ORDER + 1)])


def log_deriv_quadrature(fam: RatioFamily, z, n) -> LogDerivResult:
    """(-1)^n (ln f)^(n)(z) via the Laplace integral route.

    With y = z - d_m, d_m the top exponent of the merged kernel terms (the
    integrand's own decay rate), and spread = x_m - x_1, a pair first moves
    up k = max(0, ceil(max(2, 2 spread) - y)) steps of lnG(x + 1) = lnG(x)
    + ln x, however many:

        (-1)^n (ln f)^(n)(z) = (-1)^n (ln f)^(n)(z + k)
                               + (n-1)! sum_(i<k) sum_j c_j (z - d_j + i)^-n.

    The k terms are closed form (:func:`_shift_sum`): at most _HEAD of them
    one by one, and the rest by an Euler-Maclaurin sum whose first omitted
    term bounds its remainder, so their work does not grow with k.  The
    integrand e^(-(y + k) t) A(t) t^(n-1) / (1 - e^-t), with A(t) =
    e^(-x_m t) K(t) from :meth:`RatioFamily.abel`, then takes the
    integrator's Gauss-Laguerre rule at rate y + k.  Both parts read the
    table's exact gaps and integer moments, never the rounded arguments z -
    d_j, and use only exp, expm1, log1p, products and powers, never
    :mod:`cmgamma.specfun`.
    y is (z + hi) + lo over the two parts of the exact d_m, as in
    :meth:`RatioFamily.psi_sum`.  A family whose terms all cancel gives 0;
    a tiny kernel stays lifted by 2^lift until the last product.

    z may be an array of points and n an array of orders; the result then
    holds one value per (z, n) pair, shaped ``np.shape(z) + np.shape(n)``,
    from one vector-valued pass over the (z, n) grid of rates, whose rows
    are the z: at each z's nodes e^(-(y + k) t) A(t) is formed once, then
    multiplied by t^(n-1) / (1 - e^-t) per order.  Each pair gets exactly
    the value and error estimate of its own scalar call.
    A pair whose two rules disagree raises
    :class:`~cmgamma.errors.ConvergenceError`, with the values (recurrence
    terms included), error estimates and ``converged`` flags of every pair.
    """
    zs, orders, shape = _route_grid(fam, z, n)
    if not fam.terms[2]:  # every factor cancels: f = 1
        value, err = np.zeros((2, zs.size, len(orders)))
        return _route_result(z, n, shape, value, err, "quadrature")
    spread, lift = fam._taylor[:2]
    hi, lo = fam._near[0][0], fam._near[1][0]
    y = (zs + hi) + lo
    k = np.maximum(np.ceil(max(2.0, 2.0 * spread) - y), 0.0)
    rate = y + k
    steps, steps_err = _shift_sum(fam, y, k, orders)

    def integrand(nodes):
        t, rows = nodes
        tz = t[:, 0]  # a z's orders share its rate, so its nodes
        base = np.exp(-rate[rows, None] * tz) * fam.abel(tz)
        # t^(n-1) / (1 - e^-t) once per order; each power takes a scalar
        # exponent, as in a scalar call, so the bits agree
        factor = np.stack([tz ** (v - 1) for v in orders], axis=-2)
        factor = factor / -np.expm1(-tz)[..., None, :]
        return np.ldexp(base[:, None] * factor, -lift)

    grid = np.broadcast_to(rate[:, None], (zs.size, len(orders)))
    try:
        res = integrate_half_line(integrand, grid)
    except ConvergenceError as exc:
        exc.value = _shaped(exc.value + steps, shape)
        exc.err_estimate = _shaped(exc.err_estimate + steps_err, shape)
        exc.converged = _shaped(exc.converged, shape)
        raise
    return _route_result(z, n, shape, res.value + steps,
                         res.err_estimate + steps_err, "quadrature")


def _shift_sum(fam, y, k, orders):
    """(value, err), each shaped (z, n): the recurrence terms (n-1)!
    sum_(i<k) T_n(y + i) of :func:`log_deriv_quadrature`, T_n(u) = sum_j
    c_j (u + delta_j)^-n over the offsets delta_j = x_m - x_j, and a bound
    on their error.  A z takes its first min(k, _HEAD) terms one by one, per
    argument u and order n:

    * where spread > u / (4 (16 + n)), Abel pairs: T_n(u) = sum_j S_j
      (b_j^n - b_(j-1)^n) over the reciprocals b_j of the ascending
      arguments and the suffix sums S_j, each difference -g b_j b_(j-1)
      sum_(i<n) b_j^i b_(j-1)^(n-1-i) on its exact gap g: a sum of
      positive terms, linear in g;
    * elsewhere the binomial series sum_p (-1)^p (n)_p / p! mu_p u^-(n+p)
      on the exact moments mu_p about x_m, p = 1..12, whose term p = 13,
      doubled, bounds the rest.

    Past the head, sum_(_HEAD<=i<k) is E(y + _HEAD) - E(y + k), E(u) =
    sum_(i>=0) T_n(u + i), by :func:`_pair_tail` on each Abel pair.  Every
    term runs over all orders and pairs at once, each term carries 2^lift,
    from its gap or its moment, until the end, and each z adds its tail
    first and then its head terms from i = min(k, _HEAD) - 1 down to 0, so
    that the small ones add up first and a batch equals its scalar calls
    bit for bit.
    """
    spread, lift, moments, delta, cols, weight, gap = fam._taylor
    n = np.array(orders)
    # value, magnitude and truncation per z
    sums = np.zeros((y.size, 3, n.size))
    tail = k > _HEAD
    if tail.any():
        sums[tail] = _pair_tail(np.stack([y[tail] + _HEAD, y[tail] + k[tail]]),
                                delta, cols, gap, weight, n, lift)
    head = np.minimum(k, _HEAD)
    # pair number q runs over every (z, i) of the heads, z after z, i
    # descending
    ends, total = np.cumsum(head.astype(np.int64)), int(head.sum())
    if total:
        q = np.arange(total)
        own = np.searchsorted(ends, q, side="right")
        b = 1.0 / ((y[own] + (ends[own] - 1 - q))[:, None] + delta)
        x, lower, upper = b[:, 0], b[:, cols], b[:, cols + 1]
        slope = -gap * lower * upper
        # h = sum_(i<n) upper^i lower^(n-1-i) and pw = x^n, per order
        h = _pair_powers(lower, upper, n.max())[n - 1]
        pw = np.cumprod(np.broadcast_to(x, (n.max(),) + x.shape), axis=0)[
            n - 1]
        val = mag = np.zeros_like(pw)
        for j in range(cols.size):
            term = weight[j] * (slope[:, j] * h[..., j])
            val, mag = val + term, mag + np.abs(term)
        trunc = np.zeros_like(pw)
        moment = 4.0 * (16 + n[:, None]) * spread * x <= 1.0
        if moment.any():
            # (-1)^p (n)_p mu_p / p!, p = 1..13, lifted
            c = moments[1:] * _POCH[n]
            poly, pabs = c[:, -2:-1], abs(c[:, -2:-1])
            for p in range(c.shape[1] - 3, -1, -1):
                cp = c[:, p:p + 1]
                poly, pabs = poly * x + cp, pabs * x + abs(cp)
            x4 = (x * x) * (x * x)
            val = np.where(moment, poly * x * pw, val)
            mag = np.where(moment, pabs * x * pw, mag)
            trunc = np.where(moment, 2.0 * abs(c[:, -1:])
                             * (x4 * x4 * x4 * x * pw), 0.0)
        np.add.at(sums, own, np.stack([val, mag, trunc], axis=1).swapaxes(
            0, 2))
    facts = np.array([math.factorial(v - 1) for v in orders], dtype=float)
    value, mag, trunc = sums.swapaxes(0, 1) * facts
    # a head alone makes k additions; a tail adds fewer than _HEAD roundings
    # to those of its head
    err = _U * (_SUM_ULPS + n + np.minimum(k, 2 * _HEAD)[:, None]) * mag \
        + trunc
    return np.ldexp(value, -lift), np.ldexp(err, -lift)


def _pair_powers(lower, upper, count):
    """h_p = sum_(i<p) upper^i lower^(p-1-i) for p = 1..count, stacked on a
    new first axis: upper^p - lower^p = (upper - lower) h_p."""
    out = np.empty((count,) + lower.shape)
    h, low = np.zeros_like(lower), np.ones_like(lower)
    for p in range(count):
        h, low = upper * h + low, low * lower
        out[p] = h
    return out


def _pair_tail(u, delta, cols, gap, weight, n, lift):
    """(value, magnitude, truncation) of E(u[0]) - E(u[1]), shaped (z, 3,
    n), where E(u) = sum_(i>=0) sum_j S_j ((a_j + g_j + i)^-n - (a_j +
    i)^-n) over the Abel pairs of :func:`_shift_sum`, a_j = u + delta_j and
    g_j the pair's exact gap.  Per pair, with D_p = a^-p - (a + g)^-p =
    g b b' h_p as in the head (b, b' the reciprocals of a and a + g),
    Euler-Maclaurin (DLMF 2.10.1) gives

        sum_(i>=0) ((a + i)^-n - (a + g + i)^-n) = I + D_n / 2
            + sum_(m=1..8) (n)_(2m-1) B_2m / (2m)! D_(n+2m-1),

    I = log1p(g / a) for n = 1 and D_(n-1) / (n - 1) above, each piece a
    sum of positive terms linear in g.  Every derivative of the pair is of
    one sign, so the term m = 9 bounds the remainder; it is doubled.  a >=
    _HEAD >= 32 keeps that term below 1e-18 of the sum.  The tail runs
    only where 2 spread > _HEAD, far above the moments' range."""
    b = 1.0 / (u[..., None] + delta)
    lower, upper = b[..., cols], b[..., cols + 1]
    # -D_p for p = 1..n + 17, stacked (p, end, z, pair)
    d = -gap * lower * upper * _pair_powers(lower, upper, n.max() + 17)
    gl = gap * lower
    first = -(gl if lift else np.log1p(gl))
    whole = np.where((n == 1)[:, None, None, None], first,
                     d[np.maximum(n - 2, 0)]
                     / np.maximum(n - 1, 1)[:, None, None, None])
    em = _EM[n][:, :, None, None, None] * d[
        n[:, None] + 2 * np.arange(1, 10) - 2]
    pieces = np.concatenate([whole[:, None], d[n - 1][:, None] / 2.0,
                             em[:, :8]], axis=1)
    # (value, magnitude, truncation) per (order, end, z), pairs summed
    w = np.stack([weight, abs(weight), abs(weight)])[:, None, None, None]
    out = (np.stack([pieces.sum(axis=1), abs(pieces).sum(axis=1),
                     2.0 * abs(em[:, 8])]) * w).sum(axis=-1)
    # the value at the first end less that at the second; bounds add
    out = out[:, :, 0] + [[[-1.0]], [[1.0]], [[1.0]]] * out[:, :, 1]
    return out.transpose(2, 0, 1)


def _validate_order(n) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise UsageError(f"derivative order must be an integer, got {n!r}")
    if n < 1 or n > N_MAX_ORDER:
        raise UsageError(
            f"derivative order must be in [1, {N_MAX_ORDER}], got {n}")
