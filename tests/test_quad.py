"""Half-line quadrature: closed-form integrals, error honesty, failure path."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cmgamma.errors import ConvergenceError, DomainError, UsageError
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


class TestDigammaRepresentation:
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 7.3])
    def test_integral_form(self, z):
        # Binet's form (DLMF 5.9.13) after k steps of psi(x + 1) = psi(x)
        # + 1/x up to w = z + k >= 2: psi(z) = ln w - 1/(2w) - sum_(i<k)
        # 1/(z+i) - integral of (1/(e^t - 1) - 1/t + 1/2) e^-wt
        k = max(0, math.ceil(2.0 - z))
        w = z + k

        def f(t):
            return (1.0 / np.expm1(t) - 1.0 / t + 0.5) * np.exp(-w * t)
        res = integrate_half_line(f, decay_rate=w)
        psi = (math.log(w) - 0.5 / w - res.value
               - math.fsum(1.0 / (z + i) for i in range(k)))
        assert psi == pytest.approx(digamma(z), abs=1e-9)


class TestErrorEstimate:
    def test_estimate_bounds_true_error(self):
        res = integrate_half_line(lambda t: t * np.exp(-2.0 * t),
                                  decay_rate=2.0)
        true_err = abs(res.value - 0.25)
        assert true_err <= max(10.0 * res.err_estimate, 1e-12)


class TestFailurePaths:
    def test_convergence_error_carries_partial_value(self):
        # the integral is 1 + 0.005e4 / (1 + 1e8); the oscillation is too
        # fast for the 16- and 32-point rules to agree, and each rule's
        # weights sum to 1, so either value is within 0.005 of 1
        with pytest.raises(ConvergenceError) as exc_info:
            integrate_half_line(
                lambda t: np.exp(-t) * (1.0 + 0.005 * np.sin(1e4 * t)),
                decay_rate=1.0)
        err = exc_info.value
        assert "16- and 32-point rules disagree" in str(err)
        assert math.isfinite(err.value)
        assert err.value == pytest.approx(1.0, rel=1e-2)
        assert err.err_estimate >= 0.0
        assert err.evaluations > 0

    def test_non_finite_integrand_rejected(self):
        # a pole at the rule's first node
        node = float(quad_mod._gl_rule()[0][0])
        with np.errstate(divide="ignore"), pytest.raises(DomainError):
            integrate_half_line(lambda t: 1.0 / (t - node), decay_rate=1.0)

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
          lambda t: np.exp(-2.0 * t) * np.cos(t))
    RATES = (1.0, 3.0, 0.05, 1.0, 2.0)

    # at another tolerance too, each component keeps its scalar bits
    @pytest.mark.parametrize("opts", [None, {"_REL_TOL": 1e-6}])
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
        for rates in ([1.0, 0.0], [1.0, math.inf], []):
            with pytest.raises(UsageError):
                integrate_half_line(f, np.array(rates))

    def test_rate_grid_components_equal_scalar_calls(self):
        # a (k, p) grid of rates: component (i, j) is FS[(i + j) % 5] at
        # its own rate, and gets its scalar call's bits
        picks = [[(i + j) % len(self.FS) for j in range(3)] for i in range(2)]
        rates = np.array(self.RATES)[picks]
        calls = []

        def f(nodes):
            t, rows = nodes
            calls.append((t.shape, rows.tolist()))
            return np.array([[self.FS[picks[r][j]](t[i, j]) for j in range(3)]
                             for i, r in enumerate(rows.tolist())])

        res = integrate_half_line(f, rates)
        assert calls == [((2, 3, 48), [0, 1])]
        assert res.value.shape == res.err_estimate.shape == (2, 3)
        assert res.evaluations == 48
        for i in range(2):
            for j in range(3):
                value, err, ok, _ = _scalar_parts(self.FS[picks[i][j]],
                                                  rates[i, j])
                assert ok
                assert (res.value[i, j], res.err_estimate[i, j]) == (value,
                                                                     err)

    def test_rate_grid_failure_fields_take_its_shape(self):
        bad = lambda t: np.exp(-t) * (1.0 + 0.5 * np.sin(1e4 * t))  # noqa: E731

        def f(nodes):
            t, rows = nodes
            out = np.exp(-t)
            out[:, 1] = bad(t[:, 1])
            return out

        with pytest.raises(ConvergenceError) as exc_info:
            integrate_half_line(f, np.ones((3, 2)))
        exc = exc_info.value
        assert exc.value.shape == exc.err_estimate.shape == (3, 2)
        assert exc.converged.tolist() == [[True, False]] * 3
        assert "3 of 6 components" in str(exc)

    @pytest.mark.parametrize("max_values", [100, 300, 1 << 16])
    def test_rate_grid_splits_only_between_rows(self, max_values,
                                                monkeypatch):
        # a row holds 3 x 48 = 144 values: below 2^16 values a call takes
        # whole rows, and one row alone when it alone holds more
        rates = np.array([[1.0, 3.0, 0.05]] * 5) * np.arange(1, 6)[:, None]
        calls = []

        def f(nodes):
            t, rows = nodes
            calls.append((t.shape, rows.tolist()))
            return np.exp(-rates[rows, :, None] * t)

        whole = integrate_half_line(f, rates)
        monkeypatch.setattr(quad_mod, "_MAX_VALUES", max_values)
        calls.clear()

        res = integrate_half_line(f, rates)
        per_call = max(1, max_values // 144)
        assert [rows for _, rows in calls] == [
            list(range(s, min(s + per_call, 5))) for s in range(0, 5, per_call)]
        assert all(shape == (len(rows), 3, 48) for shape, rows in calls)
        assert all(np.prod(shape) <= max_values or shape[0] == 1
                   for shape, _ in calls)
        assert np.array_equal(res.value, whole.value)
        assert np.array_equal(res.err_estimate, whole.err_estimate)

    def test_non_finite_component_rejected(self):
        node = float(quad_mod._gl_rule()[0][0])
        fs = (self.FS[0], lambda t: 1.0 / (t - node))
        with np.errstate(divide="ignore"), pytest.raises(DomainError):
            integrate_half_line(_stacked(fs), np.array([1.0, 1.0]))


class TestStoredRule:
    """The rule's constants are written in quad.py, not computed."""

    ROOT = Path(__file__).resolve().parents[1]

    def test_generator_gives_the_stored_bits(self):
        sys.path.insert(0, str(self.ROOT / "tools"))
        try:
            import gl_rule
        finally:
            sys.path.pop(0)
        # every literal is the shortest repr of its double, so equal text
        # is equal bits
        assert gl_rule.source() in Path(quad_mod.__file__).read_text()

    def test_certify_does_not_import_numpy_polynomial(self):
        env = dict(os.environ)
        src = str(Path(quad_mod.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import sys\n"
                "from cmgamma import cli\n"
                "cli.main(['certify', '--family', 'two-param', '--params',"
                " 'a=0.5,b=0.7', '--grid', '1:8:8', '--n-max', '6'])\n"
                "print('numpy.polynomial' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"
