"""Registry of gamma-function inequalities with log-space margins.

Each registered case turns one inequality into a margin function:

* claims of the form LHS >= RHS report ``margin = ln LHS - ln RHS``;
* claims of the form LHS <= RHS report ``margin = ln RHS - ln LHS``;

so a nonnegative margin always means "holds", and two-sided statements
appear as separate ``_LB`` / ``_UB`` cases.  Each side sum_j c_j lnG(t + d_j)
is a row table read by ``log_f``; a non-finite side or margin raises.  A
record "holds" when its margin clears ``-HOLDS_TOL``, a slack that absorbs
roundoff on equality boundaries.

Cases carry ``kind="claim"`` or ``kind="baseline"``: baselines are known
reference bounds registered for tightness comparison and are only
meaningful on their own stated domains.

The registry is data.  The LHS table maps each ``lhs_key`` to its
parameter names, point names and ln LHS, each written once; a case is one
row of id, ``lhs_key``, direction, parameter check, domain rules, ln RHS
and plain-text statement.  A domain rule is a row (text, coordinate
index, comparison, bound), and one field of them yields the domain mask,
the first violated constraint and, unless the case brings its own
sampler, the random points: each coordinate in turn is drawn a
log-uniform offset above its largest lower bound.  An asserted point
outside a domain is refused by one helper, ``_require_point``, with one
text: ``ID: violation (params=[...], point=(...))``.

Drivers: :func:`margin` (one point), :func:`sweep` (a point grid, with
out-of-domain points skipped), and :func:`tightness_compare` /
:func:`tightness_sweep` (rank the right-hand sides of bounds sharing one
left-hand expression at one point / over a grid).  Both return columns,
not one object per point, so a report is written a column at a time:
:func:`sweep` a :class:`SweepResult` (the kept points, their sides and
their margins as arrays), the tightness drivers a
:class:`TightnessResult` (the kept points, ``lhs_log``, an ids x points
``rhs_log`` matrix and the ranking at every point).

Parameters are passed as a flat sequence of reals.  Cases whose
parameters are entry lists (``MULTI_GE1``, ``MAJOR_GE1``) read the flat
sequence as the concatenated lists; for ``MAJOR_GE1`` the two lists must
have equal length, so the flat vector splits evenly in half.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .cm_certify import weak_submajorization_failure
from .errors import DomainError, UsageError
from .kernels import (Majorized, MultiParam, RatioFamily, Symmetric, TwoParam,
                      log_f)
from .specfun import log_beta, log_gamma as _lg, reflection_product

__all__ = [
    "HOLDS_TOL",
    "InequalityCase",
    "SweepResult",
    "TightnessResult",
    "registry_list",
    "get_case",
    "margin",
    "sweep",
    "tightness_sweep",
    "tightness_compare",
]

HOLDS_TOL = 1e-9

# Rows of point columns evaluated at once here, and of report rows written at
# once by the command line: a sweep's or a report's peak memory is set by one
# chunk, not by the grid
_CHUNK = 4096

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)
_LN2PI = math.log(2.0 * math.pi)

_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def _bound(rule, split, cols):
    bound = rule[3]
    return bound(split, cols) if callable(bound) else bound


def _holds(rule, split, cols) -> np.ndarray:
    """Mask of the points whose coordinate satisfies one domain rule."""
    _, j, op, _ = rule
    with np.errstate(all="ignore"):
        return np.asarray(_COMPARE[op](cols[j], _bound(rule, split, cols)),
                          dtype=bool)


def _spread(rng, n):
    # log-uniform offsets: dense near a boundary, sparse far from it
    return 10.0 ** rng.uniform(-3.0, 2.0, size=n)


@dataclass(frozen=True)
class InequalityCase:
    """One inequality: identity, domain, and log-space margin.

    ``direction`` is the claim as written ("ge": LHS >= RHS, "le":
    LHS <= RHS); the margin is oriented so nonnegative always means the
    claim holds.  ``lhs_key`` names the left-hand expression, which also
    fixes the parameter and point names; cases sharing a key (and
    direction) can be ranked by :func:`tightness_compare`.  ``source``
    states the inequality in plain text.
    """

    id: str
    lhs_key: str
    direction: str
    _check_params: object = field(repr=False)
    _point_rules: tuple = field(repr=False)
    _rhs_fn: object = field(repr=False)
    source: str
    _sampler_fn: object = field(default=None, repr=False)
    kind: str = "claim"
    _margin_fn: object = field(default=None, repr=False)

    # -- parameter plumbing ------------------------------------------------

    @property
    def param_names(self) -> tuple:
        return _LHS[self.lhs_key][0]

    @property
    def point_names(self) -> tuple:
        return _LHS[self.lhs_key][1]

    @property
    def param_kinds(self) -> tuple:
        """Per parameter, "v" for an entry list (a name ending in "[]")
        and "s" for a scalar."""
        return tuple("v" if name.endswith("[]") else "s"
                     for name in self.param_names)

    def split_params(self, params) -> tuple:
        """Flat parameter sequence -> per-name values (lists kept whole)."""
        if isinstance(params, (str, bytes)):
            raise UsageError(f"{self.id}: params must be a sequence of reals")
        try:
            flat = tuple(float(v) for v in params)
        except (TypeError, ValueError) as exc:
            raise UsageError(
                f"{self.id}: params must be a flat sequence of reals") from exc
        kinds = self.param_kinds
        if "v" not in kinds:
            if len(flat) != len(kinds):
                raise UsageError(
                    f"{self.id} takes {len(kinds)} parameter(s) "
                    f"{'/'.join(self.param_names)}, got {len(flat)}")
            return flat
        if kinds == ("v",):
            if not flat:
                raise UsageError(f"{self.id} needs at least one entry")
            return (flat,)
        # two entry lists, flattened back to back
        if not flat or len(flat) % 2:
            raise UsageError(
                f"{self.id} takes two equal-length entry lists flattened "
                f"together, got {len(flat)} value(s)")
        half = len(flat) // 2
        return (flat[:half], flat[half:])

    def params_ok(self, params):
        """None when the parameters are admissible, else the reason."""
        return self._check_params(self.split_params(params))

    # -- domain ------------------------------------------------------------

    def _columns(self, pts):
        arr = np.asarray(pts, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None] if len(self.point_names) == 1 else arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != len(self.point_names):
            raise UsageError(
                f"{self.id} points have {len(self.point_names)} "
                f"coordinate(s) {'/'.join(self.point_names)}")
        return tuple(arr[:, j] for j in range(arr.shape[1]))

    def _conditions(self, split, cols):
        """(text, mask) per domain condition, in order: finite coordinates,
        then each rule; a point is in the domain where every mask holds."""
        yield ("point coordinates must be finite",
               functools.reduce(operator.and_, map(np.isfinite, cols)))
        for rule in self._point_rules:
            yield f"requires {rule[0]}", _holds(rule, split, cols)

    def domain_mask(self, params, pts) -> np.ndarray:
        """Vectorized domain predicate; never errors on point values."""
        split = self.split_params(params)
        reason = self._check_params(split)
        if reason is not None:
            raise DomainError(f"{self.id}: {reason}")
        return functools.reduce(operator.and_, (
            ok for _, ok in self._conditions(split, self._columns(pts))))

    def domain_violation(self, params, point):
        """None when (params, point) is in the domain, else the first
        violated constraint, stated."""
        split = self.split_params(params)
        reason = self._check_params(split)
        if reason is not None:
            return reason
        return next((text for text, ok in self._conditions(
            split, self._columns([point])) if not ok[0]), None)

    # -- evaluation ---------------------------------------------------------

    def sides(self, params, pts):
        """(lhs_log, rhs_log) arrays at in-domain points (not re-checked)."""
        return self._values(params, pts, lhs_log=_LHS[self.lhs_key][2],
                            rhs_log=self._rhs_fn)

    def rhs(self, params, pts) -> np.ndarray:
        """rhs_log alone, for bounds that share an already evaluated LHS."""
        return self._values(params, pts, rhs_log=self._rhs_fn)[0]

    def margin_values(self, params, pts, sides=None) -> np.ndarray:
        """Margins at in-domain points: from ``sides`` (as :meth:`sides`
        gives them) or, where the sides share z ln z terms, one table."""
        if self._margin_fn is not None:
            return self._values(params, pts, margin=self._margin_fn)[0]
        lhs, rhs = sides or self.sides(params, pts)
        return lhs - rhs if self.direction == "ge" else rhs - lhs

    def _values(self, params, pts, **fns) -> list:
        """fn(split params, point columns) per named fn, as float arrays
        filled _CHUNK rows at a time (every fn is elementwise); a value that
        is not finite is a DomainError naming it and its point."""
        split, cols = self.split_params(params), self._columns(pts)
        out = [np.empty(len(cols[0])) for _ in fns]
        with np.errstate(all="ignore"):
            for v, f in zip(out, fns.values()):
                for lo in range(0, len(v), _CHUNK):
                    v[lo:lo + _CHUNK] = f(split, tuple(
                        c[lo:lo + _CHUNK] for c in cols))
        for name, v in zip(fns, out):
            if not np.isfinite(v).all():
                k = np.flatnonzero(~np.isfinite(v))[0]
                raise DomainError(
                    f"{self.id}: {name} {float(v[k])!r} is not finite at "
                    f"point {tuple(float(c[k]) for c in cols)!r}")
        return out

    def sample_points(self, rng, params, n: int) -> np.ndarray:
        """Draw n in-domain points, shape (n, len(point_names))."""
        split = self.split_params(params)
        reason = self._check_params(split)
        if reason is not None:
            raise DomainError(f"{self.id}: {reason}")
        if n < 1:
            raise UsageError(f"sample count must be >= 1, got {n!r}")
        pts = (self._sampler_fn or self._draw_above)(rng, split, int(n))
        return np.asarray(pts, dtype=float).reshape(n, len(self.point_names))

    def _draw_above(self, rng, split, n):
        # each coordinate in turn: its largest lower bound plus a spread
        # offset; "<=" rules are not drawn from, so a case with an upper
        # bound brings its own sampler
        cols = []
        for j, name in enumerate(self.point_names):
            lower = [rule for rule in self._point_rules
                     if rule[1] == j and rule[2] != "<="]
            lo = functools.reduce(
                np.maximum, [_bound(rule, split, cols) for rule in lower])
            step = np.nextafter(lo, np.inf)
            if not np.all(np.isfinite(step)):
                raise DomainError(
                    f"{self.id}: no finite {name} lies above its lower bound")
            col = lo + _spread(rng, n)
            # past a large bound the offset can round away, leaving the
            # point on a strict bound: step just past it
            ok = np.logical_and.reduce([_holds(rule, split, cols + [col])
                                        for rule in lower])
            cols.append(np.where(ok, col, step))
        return np.column_stack(cols)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Margins of one case over the kept points of a grid, as columns.

    ``points`` holds one kept point per row, sorted by point; ``lhs_log``,
    ``rhs_log`` and ``margin`` hold one value per point, and ``len`` counts
    the points.
    """

    id: str
    params: tuple
    points: np.ndarray
    lhs_log: np.ndarray
    rhs_log: np.ndarray
    margin: np.ndarray

    def __len__(self) -> int:
        return len(self.margin)


@dataclass(frozen=True, eq=False)
class TightnessResult:
    """Bounds sharing one LHS, ranked at the kept points of a grid, as
    columns: ``points`` and ``lhs_log`` as in :class:`SweepResult`,
    ``rhs_log[i, k]`` for bound ``ids[i]`` at point k, and ``order[:, k]``,
    the indices into ``ids`` tightest first at point k."""

    ids: tuple
    lhs_key: str
    direction: str
    params: tuple
    points: np.ndarray
    lhs_log: np.ndarray
    rhs_log: np.ndarray
    order: np.ndarray

    def __len__(self) -> int:
        return len(self.lhs_log)


# -- parameter checks ---------------------------------------------------------

def _finite(*vals) -> bool:
    return all(math.isfinite(v) for v in vals)


def _scalars(*rules):
    """Combine (text, pred(values...)) rules into one params checker."""
    def check(split):
        if not _finite(*split):
            return "parameters must be finite"
        for text, pred in rules:
            if not pred(*split):
                return f"requires {text}"
        return None
    return check


def _entry_list_check(split):
    (a,) = split
    if not _finite(*a):
        return "entries must be finite"
    if any(v < 0 for v in a):
        return "requires every entry >= 0"
    return None


def _major_check(split):
    a, b = split
    if not (_finite(*a) and _finite(*b)):
        return "entries must be finite"
    if any(v < 0 for v in a) or any(v < 0 for v in b):
        return "requires every entry >= 0"
    fail = weak_submajorization_failure(a, b)
    if fail is not None:
        k, sb, sa = fail
        return (f"requires decreasing-order partial sums of b to stay "
                f"within those of a; top-{k} sums are {sb!r} > {sa!r}")
    ta, tb = math.fsum(a), math.fsum(b)
    if abs(ta - tb) > 1e-12 * max(1.0, abs(ta)):
        return f"requires equal totals, got sum(a)={ta!r}, sum(b)={tb!r}"
    return None


_NO_PARAMS = _scalars()
_A_NONNEG = _scalars(("a >= 0", lambda a: a >= 0))
_A_POS = _scalars(("a > 0", lambda a: a > 0))
_A_UNIT = _scalars(("0 <= a < 1", lambda a: 0 <= a < 1))
_A_UNIT_OPEN = _scalars(("0 < a < 1", lambda a: 0 < a < 1))
_AB_POS = _scalars(("a > 0 and b > 0", lambda a, b: a > 0 and b > 0))


# -- shared domain rules: (text, coordinate index, comparison, bound) ---------

def _in_unit(text, j):
    # 0 < coordinate <= 1, as two rows with one text
    return ((text, j, ">", 0.0), (text, j, "<=", 1.0))


_Z_NONNEG = (("z >= 0", 0, ">=", 0.0),)
_Z_POS = (("z > 0", 0, ">", 0.0),)
_Z_ABOVE_HALF = (("z > 1/2", 0, ">", 0.5),)
_Z_ABOVE_A = (("z > a", 0, ">", lambda s, c: s[0]),)
_Z_ABOVE_AB = (("z >= a+b", 0, ">=", lambda s, c: s[0] + s[1]),)
_Z_ABOVE_2A = (("z > 2a", 0, ">", lambda s, c: 2.0 * s[0]),)
_AB_POS_POINT = (("a > 0", 0, ">", 0.0), ("b > 0", 1, ">", 0.0))


# -- explicit samplers, for domains not drawn above their lower bounds --------

def _boxed(lo, hi, dim):
    def sampler(rng, s, n):
        return 10.0 ** rng.uniform(lo, hi, size=(n, dim))
    return sampler


_MEAN_BOX = _boxed(-2.0, 1.5, 2)
_BETA_BOX = _boxed(-2.0, 1.0, 2)
_UNIT_BOX = _boxed(-3.0, 0.0, 1)


def _near_diagonal(rng, s, n):
    # x above a+b and y above x, with 15% of the points on y = x
    x = s[0] + s[1] + _spread(rng, n)
    gap = _spread(rng, n)
    gap[rng.random(n) < 0.15] = 0.0
    return np.column_stack([x, x + gap])


def _unit_window(rng, s, n):
    # z between a+b and 1: only z = 1 when a+b = 1, empty when a+b > 1
    lo = s[0] + s[1]
    if lo > 1.0:
        raise DomainError(
            f"INQ56: domain is empty unless a+b <= 1, got a+b={lo!r}")
    return rng.uniform(lo, 1.0, (n, 1))


def _zero(s, c):
    return np.zeros_like(c[0])


def _table(*rows):
    """prod_j Gamma(t + o_j1 + o_j2 + ...)^c_j from rows (c_j, offsets_j)."""
    return RatioFamily("rows", (("rows", rows),), rows)


def _side(table):
    """ln side: log_f of table(*params) (or table) at z, or at x minus y."""
    def side(s, c):
        v = log_f(table(*s) if callable(table) else table, np.stack(c))
        return v[0] if len(c) == 1 else v[0] - v[1]
    return side


_two_param = _side(TwoParam)
_recip_gamma = _side(_table((-1.0, (1.0,))))


# -- left-hand sides: lhs_key -> (parameter names, point names, ln LHS) -------
# "[]" marks an entry-list parameter.  In every function s holds the split
# parameters and c the point columns.

_LHS = {
    "two-param-ratio": (("a", "b"), ("z",), _two_param),
    "multi-ratio": (("a[]",), ("z",), _side(MultiParam)),
    "major-ratio": (("a[]", "b[]"), ("z",), _side(Majorized)),
    "mean2-shift-ratio": (
        (), ("x", "y"),
        lambda s, c: (_lg(c[0] + 1.0) + _lg(c[1] + 1.0)
                      - 2.0 * _lg((c[0] + c[1]) / 2.0 + 1.0))),
    "mean2-ratio": (
        (), ("x", "y"),
        lambda s, c: (_lg(c[0]) + _lg(c[1])
                      - 2.0 * _lg((c[0] + c[1]) / 2.0))),
    "sym-ratio": (("a",), ("z",), _side(Symmetric)),
    "sym-shift1-ratio": (("a",), ("z",), _side(lambda a: _table(
        (1.0, (a, 1.0)), (1.0, (-a, 1.0)), (-2.0, (1.0,))))),
    "half-ratio": ((), ("z",), _side(Symmetric(0.5))),
    "wallis-ratio": (
        (), ("z",), _side(_table((1.0, (0.5,)), (-1.0, (1.0,))))),
    "wallis-shift-ratio": (
        (), ("z",), _side(_table((1.0, (0.5,)), (-1.0, ())))),
    "h-product": (("a", "b"), ("x", "y"), _two_param),
    "two-param-recip": (("a", "b"), ("z",), lambda s, c: -_two_param(s, c)),
    "psi-ratio": (("a",), ("x", "y"), _side(
        lambda a: _table((1.0, (1.0,)), (-1.0, (-a, 1.0))))),
    "psi-sum-ratio": (("a", "b"), ("x", "y"), _side(
        lambda a, b: _table((1.0, (1.0,)), (-1.0, (-a, -b, 1.0))))),
    "binom-central": (
        (), ("a", "b"),
        lambda s, c: (_lg(c[0] + c[1] + 1.0) - _lg(c[0] + 1.0)
                      - _lg(c[1] + 1.0))),
    "inv-beta": ((), ("a", "b"), lambda s, c: -log_beta(c[0], c[1])),
    "beta": ((), ("a", "b"), lambda s, c: log_beta(c[0], c[1])),
    "beta-ashift": ((), ("a", "b"), lambda s, c: log_beta(c[0] + 1.0, c[1])),
    "beta-bshift": ((), ("a", "b"), lambda s, c: log_beta(c[0], c[1] + 1.0)),
    "central-binom": (
        (), ("a",),
        lambda s, c: _lg(2.0 * c[0] + 1.0) - 2.0 * _lg(c[0] + 1.0)),
    "dup-recip": (
        (), ("a",), lambda s, c: _lg(2.0 * c[0]) - 2.0 * _lg(c[0])),
    "dup-ratio": (
        (), ("a",), lambda s, c: 2.0 * _lg(c[0]) - _lg(2.0 * c[0])),
    "binom-core": (("a", "b"), ("z",), _side(lambda a, b: _table(
        (1.0, (-a, -b, 1.0)), (-1.0, (-a, 1.0)), (-1.0, (-b, 1.0))))),
    "recip-gamma": ((), ("z",), _recip_gamma),
    "gamma-square-ratio": (("a",), ("z",), _side(lambda a: _table(
        (1.0, ()), (1.0, (-2.0 * a,)), (-2.0, (-a,))))),
}


# -- the cases, one row each: id, lhs_key, direction, parameter check, domain
# rules, ln RHS, statement, then optionally a sampler and a kind ------------

_CASES = tuple(InequalityCase(*row) for row in (
    # ---- ratio families are >= 1 on their domains --------------------------
    ("INQ1", "two-param-ratio", "ge",
     _scalars(("a >= 0 and b >= 0", lambda a, b: a >= 0 and b >= 0)),
     (("z > a+b-1", 0, ">", lambda s, c: s[0] + s[1] - 1.0),), _zero,
     "Gamma(z+1)Gamma(z-a-b+1) / (Gamma(z-a+1)Gamma(z-b+1)) >= 1 "
     "for z > a+b-1, a,b >= 0"),
    ("MULTI_GE1", "multi-ratio", "ge", _entry_list_check,
     (("z > abar-1", 0, ">", lambda s, c: math.fsum(s[0]) - 1.0),), _zero,
     "Gamma(z+1)^(k-1) Gamma(z-abar+1) / prod Gamma(z-a_i+1) >= 1 "
     "for z > abar-1, entries a_i >= 0, abar = sum a_i"),
    ("MAJOR_GE1", "major-ratio", "ge", _major_check,
     (("z > max(a, b)", 0, ">", lambda s, c: max(max(s[0]), max(s[1]))),),
     _zero,
     "prod Gamma(z-a_i) / prod Gamma(z-b_i) >= 1 for "
     "z > max(entries), when the decreasing-order partial sums "
     "of b never exceed those of a and the totals are equal"),

    # ---- two-variable mean comparisons -------------------------------------
    ("MEAN2", "mean2-shift-ratio", "ge", _NO_PARAMS,
     (("x >= 0", 0, ">=", 0.0), ("y >= 0", 1, ">=", 0.0)), _zero,
     "Gamma(x+1)Gamma(y+1) / Gamma((x+y)/2+1)^2 >= 1 for x,y >= 0",
     _MEAN_BOX),
    ("MEAN2_RATIO", "mean2-ratio", "ge", _NO_PARAMS,
     (("x > 0", 0, ">", 0.0), ("y > 0", 1, ">", 0.0)),
     lambda s, c: (2.0 * np.log(0.5 * (c[0] + c[1]))
                   - np.log(c[0]) - np.log(c[1])),
     "Gamma(x)Gamma(y) / Gamma((x+y)/2)^2 >= (x+y)^2 / (4xy) for x,y > 0",
     _MEAN_BOX),

    # ---- symmetric-shift family and its sandwiches --------------------------
    ("SYM_GE1", "sym-ratio", "ge", _A_NONNEG, _Z_ABOVE_A, _zero,
     "Gamma(z+a)Gamma(z-a) / Gamma(z)^2 >= 1 for z > a >= 0"),
    ("INQ3_LB", "sym-shift1-ratio", "ge", _A_UNIT, _Z_NONNEG, _zero,
     "Gamma(z+a+1)Gamma(z-a+1) / Gamma(z+1)^2 >= 1 "
     "for z >= 0, 0 <= a < 1"),
    ("INQ3_UB", "sym-shift1-ratio", "le", _A_UNIT, _Z_NONNEG,
     lambda s, c: np.full_like(c[0], _lg(1.0 - s[0]) + _lg(1.0 + s[0])),
     "Gamma(z+a+1)Gamma(z-a+1) / Gamma(z+1)^2 <= "
     "Gamma(1-a)Gamma(1+a) for z >= 0, 0 <= a < 1 (equality at z = 0)"),
    ("SYM_SANDWICH_LB", "sym-ratio", "ge", _A_UNIT_OPEN, _Z_ABOVE_A,
     lambda s, c: (2.0 * np.log(c[0]) - np.log(c[0] - s[0])
                   - np.log(c[0] + s[0])),
     "Gamma(z+a)Gamma(z-a) / Gamma(z)^2 >= z^2 / (z^2 - a^2) "
     "for z > a, 0 < a < 1"),
    ("SYM_SANDWICH_UB", "sym-ratio", "le", _A_UNIT_OPEN, _Z_ABOVE_A,
     lambda s, c: (np.log(reflection_product(s[0])) + 2.0 * np.log(c[0])
                   - np.log(c[0] - s[0]) - np.log(c[0] + s[0])),
     "Gamma(z+a)Gamma(z-a) / Gamma(z)^2 <= "
     "pi a z^2 / (sin(pi a) (z^2 - a^2)) for z > a, 0 < a < 1"),
    ("HALF_SANDWICH_LB", "half-ratio", "ge", _NO_PARAMS, _Z_ABOVE_HALF,
     lambda s, c: (2.0 * np.log(2.0 * c[0]) - np.log(2.0 * c[0] - 1.0)
                   - np.log(2.0 * c[0] + 1.0)),
     "Gamma(z+1/2)Gamma(z-1/2) / Gamma(z)^2 >= 4z^2 / (4z^2 - 1) "
     "for z > 1/2"),
    ("HALF_SANDWICH_UB", "half-ratio", "le", _NO_PARAMS, _Z_ABOVE_HALF,
     lambda s, c: (_LN2PI + 2.0 * np.log(c[0]) - np.log(2.0 * c[0] - 1.0)
                   - np.log(2.0 * c[0] + 1.0)),
     "Gamma(z+1/2)Gamma(z-1/2) / Gamma(z)^2 <= "
     "2 pi z^2 / (4z^2 - 1) for z > 1/2"),
    ("WALLIS_LB", "wallis-ratio", "ge", _NO_PARAMS, _Z_NONNEG,
     lambda s, c: 0.5 * (_LN2 - np.log(2.0 * c[0] + 1.0)),
     "Gamma(z+1/2) / Gamma(z+1) >= sqrt(2 / (2z+1)) for z >= 0"),
    ("WALLIS_UB", "wallis-ratio", "le", _NO_PARAMS, _Z_NONNEG,
     lambda s, c: 0.5 * (_LNPI - np.log(2.0 * c[0] + 1.0)),
     "Gamma(z+1/2) / Gamma(z+1) <= sqrt(pi / (2z+1)) for z >= 0"),
    ("WALLIS_SHIFT_LB", "wallis-shift-ratio", "ge", _NO_PARAMS, _Z_POS,
     lambda s, c: 0.5 * (_LN2 + 2.0 * np.log(c[0])
                         - np.log(2.0 * c[0] + 1.0)),
     "Gamma(z+1/2) / Gamma(z) >= sqrt(2 z^2 / (2z+1)) for z > 0"),
    ("WALLIS_SHIFT_UB", "wallis-shift-ratio", "le", _NO_PARAMS, _Z_POS,
     lambda s, c: 0.5 * (_LNPI + 2.0 * np.log(c[0])
                         - np.log(2.0 * c[0] + 1.0)),
     "Gamma(z+1/2) / Gamma(z) <= sqrt(pi z^2 / (2z+1)) for z > 0"),

    # ---- the two-variable product bound and its consequences ----------------
    ("H_OMEGA", "h-product", "ge", _AB_POS,
     (("x >= a+b", 0, ">=", lambda s, c: s[0] + s[1]),
      ("y >= x", 1, ">=", lambda s, c: c[0])), _zero,
     "f(x)/f(y) >= 1 where "
     "f(t) = Gamma(t+1)Gamma(t-a-b+1) / (Gamma(t-a+1)Gamma(t-b+1)), "
     "on 0 < a <= b < a+b <= x <= y (equality on the diagonal)",
     _near_diagonal),
    ("G_LE1", "two-param-recip", "le", _AB_POS, _Z_ABOVE_AB, _zero,
     "Gamma(z-a+1)Gamma(z-b+1) / (Gamma(z+1)Gamma(z-a-b+1)) <= 1 "
     "for z >= a+b, a,b > 0"),
    ("PSI_XY", "psi-ratio", "le", _A_POS,
     (("x > a", 0, ">", lambda s, c: s[0]),
      ("y > x", 1, ">", lambda s, c: c[0])), _zero,
     "Gamma(x+1)Gamma(y-a+1) / (Gamma(y+1)Gamma(x-a+1)) <= 1 "
     "for y > x > a > 0"),
    ("PSI_XY_AB", "psi-sum-ratio", "le", _AB_POS,
     (("x > a+b", 0, ">", lambda s, c: s[0] + s[1]),
      ("y > x", 1, ">", lambda s, c: c[0])), _zero,
     "Gamma(x+1)Gamma(y-a-b+1) / (Gamma(y+1)Gamma(x-a-b+1)) <= 1 "
     "for y > x > a+b, a,b > 0"),

    # ---- binomial / beta-function consequences ------------------------------
    ("INQ51", "binom-central", "ge", _NO_PARAMS,
     (("a >= 0", 0, ">=", 0.0), ("b >= 0", 1, ">=", 0.0)), _zero,
     "Gamma(a+b+1) / (Gamma(a+1)Gamma(b+1)) >= 1 for a,b >= 0",
     lambda rng, s, n: rng.uniform(0.0, 10.0, size=(n, 2))),
    ("INQ53", "inv-beta", "ge", _NO_PARAMS, _AB_POS_POINT,
     lambda s, c: np.log(c[0]) + np.log(c[1]) - np.log(c[0] + c[1]),
     "Gamma(a+b) / (Gamma(a)Gamma(b)) >= ab / (a+b) for a,b > 0",
     _BETA_BOX),
    ("BETA_UB", "beta", "le", _NO_PARAMS, _AB_POS_POINT,
     lambda s, c: np.log(c[0] + c[1]) - np.log(c[0]) - np.log(c[1]),
     "B(a,b) <= (a+b) / (ab) for a,b > 0", _BETA_BOX),
    ("BETA_UB_SHIFT_A", "beta-ashift", "le", _NO_PARAMS, _AB_POS_POINT,
     lambda s, c: -np.log(c[1]), "B(a+1,b) <= 1/b for a,b > 0", _BETA_BOX),
    ("BETA_UB_SHIFT_B", "beta-bshift", "le", _NO_PARAMS, _AB_POS_POINT,
     lambda s, c: -np.log(c[0]), "B(a,b+1) <= 1/a for a,b > 0", _BETA_BOX),
    ("BETA_UB_DRAGOMIR", "beta", "le", _NO_PARAMS,
     _in_unit("0 < a <= 1", 0) + _in_unit("0 < b <= 1", 1),
     lambda s, c: -np.log(c[0]) - np.log(c[1]),
     "B(a,b) <= 1 / (ab) for 0 < a,b <= 1 (reference bound)",
     _boxed(-3.0, 0.0, 2), "baseline"),

    # ---- duplication-type consequences --------------------------------------
    ("INQ54", "central-binom", "ge", _NO_PARAMS,
     (("a >= 0", 0, ">=", 0.0),), _zero,
     "Gamma(2a+1) / Gamma(a+1)^2 >= 1 for a >= 0"),
    ("INQ55", "dup-recip", "ge", _NO_PARAMS,
     (("a > 0", 0, ">", 0.0),), lambda s, c: np.log(c[0]) - _LN2,
     "Gamma(2a) / Gamma(a)^2 >= a/2 for a > 0"),
    ("DUP_SANDWICH_LB", "dup-ratio", "ge", _NO_PARAMS,
     _in_unit("0 < a <= 1", 0),
     lambda s, c: np.log(2.0 - c[0]) - np.log(c[0]),
     "Gamma(a)^2 / Gamma(2a) >= (2a - a^2) / a^2 for 0 < a <= 1",
     _UNIT_BOX),
    ("DUP_SANDWICH_UB", "dup-ratio", "le", _NO_PARAMS,
     _in_unit("0 < a <= 1", 0), lambda s, c: _LN2 - np.log(c[0]),
     "Gamma(a)^2 / Gamma(2a) <= 2/a for 0 < a <= 1", _UNIT_BOX),

    # ---- binomial-coefficient core on the unit interval and beyond ----------
    ("INQ56", "binom-core", "ge", _AB_POS,
     _Z_ABOVE_AB + (("z <= 1", 0, "<=", 1.0),), _recip_gamma,
     "Gamma(z-a-b+1) / (Gamma(z-a+1)Gamma(z-b+1)) >= 1/Gamma(z+1) "
     "for a,b > 0 and a+b <= z <= 1", _unit_window, "claim", _two_param),
    ("INQ56_RECIP", "recip-gamma", "ge", _NO_PARAMS,
     _in_unit("0 < z <= 1", 0), _zero, "1/Gamma(z+1) >= 1 for 0 < z <= 1",
     lambda rng, s, n: rng.uniform(1e-9, 1.0, (n, 1))),
    ("INQ57_LB", "binom-core", "ge", _AB_POS, _Z_ABOVE_AB, _recip_gamma,
     "Gamma(z-a-b+1) / (Gamma(z-a+1)Gamma(z-b+1)) >= 1/Gamma(z+1) "
     "for z >= a+b, a,b > 0", None, "claim", _two_param),
    ("INQ57_UB", "binom-core", "le", _AB_POS, _Z_ABOVE_AB,
     lambda s, c: (_recip_gamma(s, c) + _lg(s[0] + s[1] + 1.0)
                   - _lg(s[0] + 1.0) - _lg(s[1] + 1.0)),
     "Gamma(z-a-b+1) / (Gamma(z-a+1)Gamma(z-b+1)) <= "
     "Gamma(a+b+1) / (Gamma(a+1)Gamma(b+1)Gamma(z+1)) "
     "for z >= a+b, a,b > 0 (equality at z = a+b)"),

    # ---- the squared-shift ratio and reference lower bounds -----------------
    ("INQ58", "gamma-square-ratio", "ge", _A_NONNEG, _Z_ABOVE_2A + _Z_POS,
     lambda s, c: (2.0 * np.log(c[0] - s[0]) - np.log(c[0])
                   - np.log(c[0] - 2.0 * s[0])),
     "Gamma(z)Gamma(z-2a) / Gamma(z-a)^2 >= 1 + a^2 / (z(z-2a)) "
     "for z > 2a, z > 0, a >= 0"),
    ("INQ58_BASE_RATIO", "gamma-square-ratio", "ge", _A_NONNEG,
     _Z_ABOVE_2A + _Z_POS,
     lambda s, c: np.log(s[0] * s[0] + c[0]) - np.log(c[0]),
     "Gamma(z)Gamma(z-2a) / Gamma(z-a)^2 >= (a^2 + z) / z "
     "for z > 2a, z > 0 (reference bound)", None, "baseline"),
    ("INQ58_BASE_SHIFT", "gamma-square-ratio", "ge", _A_POS,
     (("z > 2", 0, ">", 2.0),) + _Z_ABOVE_2A,
     lambda s, c: np.log1p(s[0] * s[0] * (c[0] - 2.0)
                           / (c[0] - s[0] - 1.0) ** 2),
     "Gamma(z)Gamma(z-2a) / Gamma(z-a)^2 >= "
     "1 + a^2 (z-2) / (z-a-1)^2 for z > 2, z > 2a, a > 0 "
     "(reference bound)", None, "baseline"),
))

_BY_ID = MappingProxyType({case.id: case for case in _CASES})


def registry_list() -> tuple:
    """All registered cases in stable order."""
    return _CASES


def get_case(case_id: str) -> InequalityCase:
    try:
        return _BY_ID[case_id]
    except KeyError:
        raise UsageError(f"unknown inequality id {case_id!r}") from None


def margin(case_id: str, params, point) -> float:
    """Oriented log-space margin of one case at one point.

    Raises a domain error naming the violated constraint when the point
    (or parameter set) falls outside the case's stated domain.
    """
    case = get_case(case_id)
    _require_point([case], params, point)
    return float(case.margin_values(params, [point])[0])


def _require_point(cases, params, point) -> None:
    """Refuse an asserted point: a DomainError naming the first case whose
    domain the parameters or the point fall outside, and the violated
    constraint."""
    for case in cases:
        violation = case.domain_violation(params, point)
        if violation is not None:
            raise DomainError(
                f"{case.id}: {violation} (params="
                f"{list(map(float, params))!r}, point={point!r})")


def _domain_points(cases, params, grid) -> np.ndarray:
    """The points of a grid (one per row; flat for one coordinate) that
    lie in every case's domain, sorted by point."""
    names = cases[0].point_names
    try:
        arr = np.asarray(grid, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is not None and arr.ndim == 1 and (len(names) == 1 or not arr.size):
        arr = arr.reshape(-1, len(names))
    if arr is None or arr.ndim != 2 or arr.shape[1] != len(names):
        raise UsageError(f"{cases[0].id} points have {len(names)} "
                         f"coordinate(s) {'/'.join(names)}, one point per row")
    if not len(arr):
        return arr
    mask = np.ones(len(arr), dtype=bool)
    for case in cases:
        mask &= case.domain_mask(params, arr)
    kept = arr[mask]
    return kept[np.lexsort(kept.T[::-1])]


def sweep(case_id: str, params, grid) -> SweepResult:
    """Evaluate one case over a grid of points.

    Points outside the domain are skipped; the skipped count is
    ``len(grid) - len(result)``.  The result holds the kept points,
    sorted by point, and their sides and margins as arrays.
    """
    case = get_case(case_id)
    flat_params = tuple(float(v) for v in params)
    kept = _domain_points([case], flat_params, grid)
    lhs = rhs = margins = np.empty(0)
    if len(kept):
        lhs, rhs = case.sides(flat_params, kept)
        margins = case.margin_values(flat_params, kept, (lhs, rhs))
    return SweepResult(case.id, flat_params, kept, lhs, rhs, margins)


def tightness_sweep(ids, params, grid) -> TightnessResult:
    """Rank bounds that share one LHS expression at every point of a grid.

    All ids must agree on ``lhs_key`` (which fixes the parameter layout)
    and direction.
    As in :func:`sweep`, points outside any case's domain are skipped and
    results are sorted by point.  The shared left-hand side is evaluated
    once over the kept points, and each case's RHS once.  The tightest
    bound comes first: the largest RHS of >= claims, the smallest of <=
    claims.
    """
    ids = tuple(ids)
    if len(ids) < 2:
        raise UsageError("tightness comparison needs at least two ids")
    cases = [get_case(i) for i in ids]
    head = cases[0]
    for case in cases[1:]:
        if case.lhs_key != head.lhs_key:
            raise UsageError(
                f"{case.id} and {head.id} bound different expressions "
                f"({case.lhs_key!r} vs {head.lhs_key!r})")
        if case.direction != head.direction:
            raise UsageError(
                f"{case.id} and {head.id} bound in opposite directions")
    flat_params = tuple(float(v) for v in params)
    kept = _domain_points(cases, flat_params, grid)
    lhs, rhs_logs = np.empty(0), np.empty((len(ids), 0))
    if len(kept):
        lhs, head_rhs = head.sides(flat_params, kept)
        rhs_logs = np.array([head_rhs] + [case.rhs(flat_params, kept)
                                          for case in cases[1:]])
    return TightnessResult(ids, head.lhs_key, head.direction, flat_params,
                           kept, lhs, rhs_logs,
                           _ranking(rhs_logs, head.direction))


def _ranking(rhs_logs, direction) -> np.ndarray:
    """``order``: per column of ``rhs_logs``, the row indices tightest
    first, as ``sorted(rows, key=rhs, reverse=direction == "ge")`` gives
    them.  One stable argsort over the rows, of the negated RHS for "ge",
    keeps tied rows in row order, as that ``sorted`` does.  A column that
    holds NaN, which no real run makes (``_values`` refuses it), is ranked
    by ``sorted`` itself, whose order for NaN is the ranking's."""
    ge = direction == "ge"
    order = np.argsort(-rhs_logs if ge else rhs_logs, axis=0, kind="stable")
    for k in np.flatnonzero(np.isnan(rhs_logs).any(axis=0)).tolist():
        col = rhs_logs[:, k].tolist()
        order[:, k] = sorted(range(len(col)), key=col.__getitem__,
                             reverse=ge)
    return order


def tightness_compare(ids, params, point) -> TightnessResult:
    """:func:`tightness_sweep` at a single point, which must lie in every
    case's domain."""
    ranked = tightness_sweep(ids, params, [point])
    if not len(ranked):
        _require_point(map(get_case, ids), params, point)
    return ranked
