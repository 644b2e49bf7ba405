"""Half-line quadrature: closed-form integrals, error honesty, failure path."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from cmgamma.errors import ConvergenceError, DomainError, UsageError
from cmgamma.kernels import TwoParam, log_deriv_quadrature
import cmgamma.quad as quad_mod
from cmgamma.quad import QuadResult, integrate_half_line
from cmgamma.specfun import digamma


class TestClosedForms:
    def test_unit_exponential(self):
        res = integrate_half_line(lambda t: np.exp(-t), decay_rate=1.0)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.err_estimate < 1e-8
        assert res.evaluations > 0

    def test_first_moment(self):
        # integral of t e^-t = 1
        res = integrate_half_line(lambda t: t * np.exp(-t), decay_rate=1.0)
        assert res.value == pytest.approx(1.0, abs=1e-11)

    def test_fourth_moment_is_factorial(self):
        # integral of t^4 e^-t = 4! = 24
        res = integrate_half_line(lambda t: t ** 4 * np.exp(-t),
                                  decay_rate=1.0)
        assert res.value == pytest.approx(24.0, rel=1e-11)

    def test_fast_decay(self):
        res = integrate_half_line(lambda t: np.exp(-3.0 * t), decay_rate=3.0)
        assert res.value == pytest.approx(1.0 / 3.0, rel=1e-11)

    def test_slow_decay(self):
        res = integrate_half_line(lambda t: np.exp(-0.05 * t),
                                  decay_rate=0.05)
        assert res.value == pytest.approx(20.0, rel=1e-10)

    def test_bose_integral(self):
        # integral of t e^-t/(1 - e^-t) = pi^2/6
        def f(t):
            return t * np.exp(-t) / (-np.expm1(-t))
        res = integrate_half_line(f, decay_rate=1.0)
        assert res.value == pytest.approx(math.pi ** 2 / 6.0, rel=1e-11)

    def test_gaussian_like_tail(self):
        # integral of e^-t / (1 + t^2) has no elementary form; reference
        # computed once at 30 digits: 0.62144962423581335764
        res = integrate_half_line(lambda t: np.exp(-t) / (1.0 + t * t),
                                  decay_rate=1.0)
        assert res.value == pytest.approx(0.6214496242358134, rel=1e-12)


class TestDigammaRepresentation:
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 7.3])
    def test_integral_form(self, z):
        # psi(z) = -gamma + integral of (e^-t - e^-zt) / (1 - e^-t)
        def f(t):
            return (np.expm1(-t) - np.expm1(-z * t)) / (-np.expm1(-t))
        res = integrate_half_line(f, decay_rate=min(1.0, z))
        assert -np.euler_gamma + res.value == pytest.approx(digamma(z),
                                                            abs=1e-9)


class TestErrorEstimate:
    def test_estimate_bounds_true_error(self):
        res = integrate_half_line(lambda t: t * np.exp(-2.0 * t),
                                  decay_rate=2.0)
        true_err = abs(res.value - 0.25)
        assert true_err <= max(10.0 * res.err_estimate, 1e-12)

    def test_tighter_tolerance_smaller_error(self, monkeypatch):
        def f(t):
            return np.exp(-t) * np.cos(t)
        monkeypatch.setattr(quad_mod, "_REL_TOL", 1e-6)
        loose = integrate_half_line(f, decay_rate=1.0)
        monkeypatch.setattr(quad_mod, "_REL_TOL", 1e-12)
        tight = integrate_half_line(f, decay_rate=1.0)
        assert abs(tight.value - 0.5) <= abs(loose.value - 0.5) + 1e-14
        assert tight.value == pytest.approx(0.5, rel=1e-10)


class TestFailurePaths:
    def test_convergence_error_carries_partial_value(self):
        # the integral is 1 + 0.5e4 / (1 + 1e8); the oscillation is too
        # fast for 12 levels to resolve
        with pytest.raises(ConvergenceError) as exc_info:
            integrate_half_line(
                lambda t: np.exp(-t) * (1.0 + 0.5 * np.sin(1e4 * t)),
                decay_rate=1.0)
        err = exc_info.value
        assert "within 12 refinement levels" in str(err)
        assert math.isfinite(err.value)
        assert err.value == pytest.approx(1.0, rel=1e-2)
        assert err.err_estimate >= 0.0
        assert err.evaluations > 0

    def test_non_finite_integrand_rejected(self):
        with np.errstate(divide="ignore"), pytest.raises(DomainError):
            integrate_half_line(lambda t: 1.0 / (t - 0.5), decay_rate=1.0)

    def test_decay_rate_validation(self):
        with pytest.raises(UsageError):
            integrate_half_line(lambda t: np.exp(-t), decay_rate=0.0)
        with pytest.raises(UsageError):
            integrate_half_line(lambda t: np.exp(-t), decay_rate=-1.0)
        with pytest.raises(UsageError):
            integrate_half_line(lambda t: np.exp(-t), decay_rate=math.nan)


class TestResultShape:
    def test_result_type(self):
        res = integrate_half_line(lambda t: np.exp(-t), decay_rate=1.0)
        assert isinstance(res, QuadResult)
        assert isinstance(res.value, float)
        assert isinstance(res.err_estimate, float)
        assert isinstance(res.evaluations, int)


def _scalar_parts(f, rate):
    """(value, err_estimate, converged, evaluations) of a call; converged is
    per component where a vector integrand failed."""
    try:
        res = integrate_half_line(f, rate)
        return res.value, res.err_estimate, True, res.evaluations
    except ConvergenceError as exc:
        return exc.value, exc.err_estimate, exc.converged, exc.evaluations


def _stacked(fs):
    """Vector integrand whose component i is the scalar integrand fs[i]."""
    def f(nodes):
        t, rows = nodes
        t = np.broadcast_to(t, (rows.size, np.shape(t)[-1]))
        return np.array([fs[r](t[i]) for i, r in enumerate(rows.tolist())])
    return f


class TestVectorIntegrand:
    FS = (lambda t: np.exp(-t),
          lambda t: t ** 4 * np.exp(-3.0 * t),
          lambda t: np.exp(-0.05 * t),
          lambda t: t * np.exp(-t) / (-np.expm1(-t)),
          lambda t: np.exp(-t) / np.sqrt(t))
    RATES = (1.0, 3.0, 0.05, 1.0, 1.0)

    # at other module limits too, each component keeps its scalar bits
    @pytest.mark.parametrize("opts", [None, {"_REL_TOL": 1e-6},
                                      {"_SPLIT": 2.5}])
    def test_components_equal_scalar_calls(self, opts, monkeypatch):
        for name, value in (opts or {}).items():
            monkeypatch.setattr(quad_mod, name, value)
        res = integrate_half_line(_stacked(self.FS), np.array(self.RATES))
        scalar = [_scalar_parts(f, r) for f, r in zip(self.FS, self.RATES)]
        assert res.value.shape == res.err_estimate.shape == (len(self.FS),)
        for i, (value, err, ok, _) in enumerate(scalar):
            assert ok
            assert res.value[i] == value
            assert res.err_estimate[i] == err
        # shared nodes count once: at least the busiest component's count
        evals = [s[3] for s in scalar]
        assert max(evals) <= res.evaluations <= sum(evals)

    def test_batch_of_one_is_the_scalar_call(self):
        f = self.FS[3]
        vec = integrate_half_line(_stacked([f]), np.array([1.0]))
        one = integrate_half_line(f, 1.0)
        assert vec.value[0] == one.value
        assert vec.err_estimate[0] == one.err_estimate
        assert vec.evaluations == one.evaluations

    def test_open_components_only_are_evaluated(self):
        seen = []

        def f(nodes):
            t, rows = nodes
            seen.append(rows.tolist())
            return _stacked(self.FS)(nodes)

        integrate_half_line(f, np.array(self.RATES))
        # the fixed rule's call lists every component with rate >= 1; the
        # adaptive rule starts with the rest and the fixed rule's fallback,
        # e^-t / sqrt(t); converged ones drop out
        assert seen[0] == [i for i, r in enumerate(self.RATES) if r >= 1.0]
        assert seen[1] == [2, 4]
        assert all(rows == sorted(rows) for rows in seen)
        assert min(map(len, seen)) < len(self.FS)

    def test_fixed_rule_fallback_keeps_adaptive_bits(self, monkeypatch):
        # e^-t / sqrt(t) is singular at 0, so its 16- and 32-point
        # Gauss-Laguerre values disagree and it goes to tanh-sinh, with the
        # bits of a scalar call and of the adaptive rule alone
        res = integrate_half_line(_stacked(self.FS), np.array(self.RATES))
        scalar = _scalar_parts(self.FS[4], 1.0)
        assert (res.value[4], res.err_estimate[4]) == scalar[:2]
        assert scalar[3] > quad_mod._gl_rule()[0].size
        monkeypatch.setattr(quad_mod, "_GL_MIN_RATE", math.inf)
        adaptive = _scalar_parts(self.FS[4], 1.0)
        assert adaptive[:2] == scalar[:2]
        assert adaptive[3] + quad_mod._gl_rule()[0].size == scalar[3]

    def test_fixed_rule_takes_far_field_components(self):
        # a smooth far-field integrand stops at the fixed rule's 48 nodes
        res = integrate_half_line(lambda t: t ** 3 * np.exp(-40.0 * t),
                                  decay_rate=40.0)
        assert res.evaluations == 48
        assert res.value == pytest.approx(6.0 / 40.0 ** 4, rel=1e-14)
        assert res.err_estimate <= 1e-10 * res.value

    def test_large_batches_split_by_component(self, monkeypatch):
        monkeypatch.setattr(quad_mod, "_MAX_VALUES", 100)
        sizes = []

        def f(nodes):
            t, rows = nodes
            sizes.append((rows.size, np.shape(t)[-1]))
            return _stacked(self.FS)(nodes)

        res = integrate_half_line(f, np.array(self.RATES))
        assert all(k * m <= 100 or k == 1 for k, m in sizes)
        assert max(k for k, _ in sizes) > 1
        for i, (fi, rate) in enumerate(zip(self.FS, self.RATES)):
            value, err, _, _ = _scalar_parts(fi, rate)
            assert (res.value[i], res.err_estimate[i]) == (value, err)

    def test_failing_component_flagged_others_intact(self):
        bad = lambda t: np.exp(-t) * (1.0 + 0.5 * np.sin(1e4 * t))  # noqa: E731
        fs = (self.FS[0], bad, self.FS[3])
        with pytest.raises(ConvergenceError) as exc_info:
            integrate_half_line(_stacked(fs), np.array([1.0, 1.0, 1.0]))
        exc = exc_info.value
        assert exc.converged.tolist() == [True, False, True]
        assert "1 of 3 components" in str(exc)
        for i, f in enumerate(fs):
            value, err, ok, _ = _scalar_parts(f, 1.0)
            assert ok == bool(exc.converged[i])
            assert exc.value[i] == value
            assert exc.err_estimate[i] == err

    def test_rates_validated(self):
        f = _stacked(self.FS[:2])
        for rates in ([1.0, 0.0], [1.0, math.inf], [[1.0, 1.0]], []):
            with pytest.raises(UsageError):
                integrate_half_line(f, np.array(rates))

    def test_non_finite_component_rejected(self):
        fs = (self.FS[0], lambda t: 1.0 / (t - 0.5))
        with np.errstate(divide="ignore"), pytest.raises(DomainError):
            integrate_half_line(_stacked(fs), np.array([1.0, 1.0]))


def _per_level_tanh_sinh_open(f, b, k):
    """Reference rule: one integrand call per level, every call checked in
    full before its level's sums.  The rule in quad fetches levels 0-4 in
    one call and must keep these bits."""
    d = 0.5 * b
    err = np.full(k, math.inf)
    done = np.zeros(k, dtype=bool)
    rows = np.arange(k)
    evals = 0
    for level in range(quad_mod._MAX_LEVELS + 1):
        delta, weight = quad_mod._de_nodes(level)
        x = np.concatenate((d * delta, b - d * delta))
        if not level:
            x = np.append(x, d)
        m = delta.size
        dots, center = [], []
        step = max(1, quad_mod._MAX_VALUES // x.size)
        for start in range(0, rows.size, step):
            vals = f(x, rows[start:start + step])
            quad_mod._require_finite(vals, x)
            pair = vals[:, :m] + vals[:, m:2 * m]
            dots.extend(float(np.dot(weight, row)) for row in pair)
            if not level:
                center.extend(vals[:, -1].tolist())
        evals += x.size
        dots = np.array(dots)
        if not level:
            value = d * (0.5 * math.pi * np.array(center) + dots)
            continue
        prev = value[rows]
        new = 0.5 * prev + d * 0.5 ** level * dots
        new_err = np.abs(new - prev)
        value[rows], err[rows] = new, new_err
        tol = np.maximum(quad_mod._REL_TOL * np.abs(new), quad_mod._TINY)
        stop = (new_err <= tol) & ((level >= 2) | (new_err == 0.0))
        err[rows[stop]] = np.maximum(new_err[stop],
                                     quad_mod._EPS * np.abs(new[stop]))
        done[rows[stop]] = True
        rows = rows[~stop]
        if not rows.size:
            break
    return value, err, done, evals


def _exact(res):
    """(value, err_estimate, converged) of _scalar_parts, as exact bits."""
    return tuple(np.asarray(v, dtype=float).tobytes() for v in res[:2]) + (
        np.asarray(res[2]).tolist(),)


def _head_level(f):
    """Level at which the reference's (0, 1) side of f stops, or None."""
    _, _, ok, evals = _per_level_tanh_sinh_open(
        lambda t, rows: f(t)[None, :], 1.0, 1)
    sizes = [quad_mod._nodes((lv,), 0.5, 1.0).size
             for lv in range(quad_mod._MAX_LEVELS + 1)]
    return int(np.searchsorted(np.cumsum(sizes), evals)) if ok[0] else None


class TestFusedFirstBlock:
    """Levels 0-4 of each tanh-sinh side come from one integrand call; the
    per-level sums, stopping tests and checks keep the reference's bits."""

    # (relative tolerance, integrand) by the level at which the (0, 1) side
    # stops; the fixed rule is switched off, so tanh-sinh runs every time
    CASES = {
        1: (1e-10, lambda t: 0.0 * t),
        2: (1e-4, lambda t: np.exp(-t)),
        3: (1e-10, lambda t: np.exp(-t)),
        4: (1e-10, lambda t: np.exp(-t) / (1.0 + t * t)),
        5: (1e-10, lambda t: np.exp(-t) / ((t - 0.5) ** 2 + 0.1)),
        6: (1e-10, lambda t: np.exp(-t) * (1.0 + 0.5 * np.sin(100.0 * t))),
        None: (1e-10, lambda t: np.exp(-t) / ((t - 0.5) ** 2 + 1e-6)),
    }

    @pytest.fixture(autouse=True)
    def _adaptive_only(self, monkeypatch):
        monkeypatch.setattr(quad_mod, "_GL_MIN_RATE", math.inf)

    def _reference(self, monkeypatch, f, rate):
        with monkeypatch.context() as m:
            m.setattr(quad_mod, "_tanh_sinh_open", _per_level_tanh_sinh_open)
            return _scalar_parts(f, rate)

    @pytest.mark.parametrize("level", list(CASES), ids=str)
    def test_scalar_keeps_reference_bits(self, level, monkeypatch):
        tol, f = self.CASES[level]
        monkeypatch.setattr(quad_mod, "_REL_TOL", tol)
        assert _head_level(f) == level
        ref = self._reference(monkeypatch, f, 1.0)
        got = _scalar_parts(f, 1.0)
        assert _exact(got) == _exact(ref)
        assert got[3] >= ref[3]

    @pytest.mark.parametrize("opts", [{}, {"_REL_TOL": 1e-4},
                                      {"_MAX_VALUES": 500}])
    def test_vector_keeps_reference_bits(self, opts, monkeypatch):
        for name, value in opts.items():
            monkeypatch.setattr(quad_mod, name, value)
        fs = [f for _, f in self.CASES.values()]
        rates = np.array([1.0, 0.5, 1.0, 2.0, 1.0, 1.0, 0.7])
        ref = self._reference(monkeypatch, _stacked(fs), rates)
        got = _scalar_parts(_stacked(fs), rates)
        if "_REL_TOL" not in opts:
            assert ref[2].tolist() == [True] * 6 + [False]
        assert _exact(got) == _exact(ref)

    @staticmethod
    def _nan_at(f, node):
        """f, but NaN at the node (to a relative 1e-12)."""
        def g(t):
            return np.where(np.abs(t - node) <= 1e-12 * node, math.nan, f(t))
        return g

    @pytest.mark.parametrize("side", ["head", "tail"])
    def test_nan_at_unused_level_four_node_raises_nothing(self, side,
                                                          monkeypatch):
        # e^-t stops at level 3 on both sides, so a call per level never
        # asks for a level-4 node; the side with the NaN drops its first
        # block and makes one call per level instead
        u = quad_mod._nodes((4,), 0.5, 1.0)[0]
        node = u if side == "head" else 1.0 - math.log(u)
        f = self._nan_at(self.CASES[3][1], node)
        counted, calls = self._counted(f)
        got = _scalar_parts(counted, 1.0)
        assert _exact(got) == _exact(self._reference(monkeypatch, f, 1.0))
        assert got[2]
        fallback = [191, 11, 12, 24, 48]
        assert calls == (fallback + [191] if side == "head"
                         else [191] + fallback)
        assert got[3] == sum(calls)

    @pytest.mark.parametrize("side", ["head", "tail"])
    def test_nan_at_used_level_four_node_raises_as_before(self, side,
                                                          monkeypatch):
        # e^-t / (1 + t^2) reaches level 4 on both sides
        u = quad_mod._nodes((4,), 0.5, 1.0)[0]
        node = u if side == "head" else 1.0 - math.log(u)
        f = self._nan_at(self.CASES[4][1], node)
        with monkeypatch.context() as m, pytest.raises(DomainError) as ref:
            m.setattr(quad_mod, "_tanh_sinh_open", _per_level_tanh_sinh_open)
            integrate_half_line(f, 1.0)
        with pytest.raises(DomainError) as got:
            integrate_half_line(f, 1.0)
        assert str(got.value) == str(ref.value)
        assert "integrand not finite at node x=" in str(got.value)

    # 191 values per call: one component per call of the first block
    @pytest.mark.parametrize("max_values", [None, 191])
    def test_nan_in_open_component_only_raises(self, max_values,
                                               monkeypatch):
        # one row stops at level 3 past its NaN; the other reaches its own
        if max_values:
            monkeypatch.setattr(quad_mod, "_MAX_VALUES", max_values)
        u = quad_mod._nodes((4,), 0.5, 1.0)[0]
        fs = [self._nan_at(self.CASES[3][1], u), self.CASES[4][1]]
        assert _scalar_parts(_stacked(fs), np.ones(2))[2] is True
        fs = fs[::-1] + [self._nan_at(self.CASES[4][1], u)]
        with pytest.raises(DomainError, match=re.escape(f"x={float(u)!r}")):
            integrate_half_line(_stacked(fs), np.ones(3))

    def _counted(self, f):
        calls = []

        def g(t):
            calls.append(np.size(t))
            return f(t)
        return g, calls

    def test_level_four_stop_is_one_call_per_side(self):
        f, calls = self._counted(self.CASES[4][1])
        res = integrate_half_line(f, 1.0)
        assert calls == [191, 191]
        assert res.evaluations == 2 * 191

    def test_block_keeps_pair_sums_and_center(self):
        # 12,000 near-field pairs: the first block holds 96 values per pair,
        # below what its 191 raw values would take alone
        tracemalloc.start()
        try:
            log_deriv_quadrature(TwoParam(0.5, 0.7),
                                 np.linspace(0.21, 1.19, 1000),
                                 np.arange(1, 13))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 191 * 8 * 12_000

    @pytest.mark.parametrize("level", [1, 3, 5, 6])
    def test_evaluations_count_every_node(self, level, monkeypatch):
        tol, f = self.CASES[level]
        monkeypatch.setattr(quad_mod, "_REL_TOL", tol)
        f, calls = self._counted(f)
        res = integrate_half_line(f, 1.0)
        assert res.evaluations == sum(calls)
        assert calls[0] == 191
