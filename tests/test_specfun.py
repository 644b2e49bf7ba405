"""Special-function layer: frozen values, identities, and oracle sweeps."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmgamma.specfun as specfun
from cmgamma.errors import DomainError
from cmgamma.specfun import (
    digamma,
    log_beta,
    log_gamma,
    polygamma,
    reflection_product,
)

from conftest import mp_digamma, mp_log_beta, mp_log_gamma, mp_polygamma


# -- frozen closed-form values -------------------------------------------------

class TestFrozenValues:
    def test_log_gamma_integers(self):
        # Gamma(1) = Gamma(2) = 1, Gamma(5) = 24
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(5.0) == pytest.approx(3.1780538303479458, abs=1e-14)

    def test_log_gamma_half(self):
        # Gamma(1/2) = sqrt(pi); shift-up recurrence costs a few ulps
        assert log_gamma(0.5) == pytest.approx(0.5723649429247001, abs=2e-14)

    def test_log_gamma_generic(self):
        assert log_gamma(10.3) == pytest.approx(13.482036786138359,
                                                rel=1e-15)

    def test_digamma_one_is_minus_euler_gamma(self):
        assert digamma(1.0) == pytest.approx(-np.euler_gamma, abs=1e-15)

    def test_digamma_half(self):
        # psi(1/2) = -gamma - 2 ln 2
        assert digamma(0.5) == pytest.approx(-1.9635100260214235, abs=1e-14)

    def test_digamma_two(self):
        # psi(2) = 1 - gamma
        assert digamma(2.0) == pytest.approx(0.42278433509846713, abs=1e-15)

    def test_polygamma_trigamma_one(self):
        # psi'(1) = pi^2 / 6
        assert polygamma(1, 1.0) == pytest.approx(1.6449340668482264,
                                                  rel=1e-14)

    def test_polygamma_tetragamma_one(self):
        # psi''(1) = -2 zeta(3)
        assert polygamma(2, 1.0) == pytest.approx(-2.4041138063191885,
                                                  rel=1e-14)

    def test_polygamma_trigamma_half(self):
        # psi'(1/2) = pi^2 / 2
        assert polygamma(1, 0.5) == pytest.approx(4.934802200544679,
                                                  rel=1e-14)

    def test_polygamma_high_order(self):
        assert polygamma(5, 2.25) == pytest.approx(1.0564876812920458,
                                                   rel=1e-13)

    def test_log_beta_value(self):
        assert log_beta(2.5, 3.5) == pytest.approx(-3.301835269962053,
                                                   rel=1e-14)

    def test_reflection_product_half(self):
        # Gamma(1/2)Gamma(3/2) = pi/2
        assert reflection_product(0.5) == pytest.approx(math.pi / 2.0,
                                                        rel=1e-15)


# -- oracle sweeps -------------------------------------------------------------

class TestOracleSweeps:
    XS = np.geomspace(1e-3, 1e4, 160)

    def test_log_gamma_sweep(self):
        ours = log_gamma(self.XS)
        for x, v in zip(self.XS, ours):
            ref = mp_log_gamma(x)
            assert v == pytest.approx(ref, rel=2e-14, abs=2e-13), x

    def test_digamma_sweep(self):
        ours = digamma(self.XS)
        for x, v in zip(self.XS, ours):
            ref = mp_digamma(x)
            assert v == pytest.approx(ref, rel=2e-13, abs=2e-13), x

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 11])
    def test_polygamma_sweep(self, n):
        xs = np.geomspace(1e-2, 500.0, 60)
        ours = polygamma(n, xs)
        for x, v in zip(xs, ours):
            ref = mp_polygamma(n, x)
            assert v == pytest.approx(ref, rel=5e-13), (n, x)

    def test_log_beta_sweep(self):
        pts = [(0.1, 0.2), (1.0, 1.0), (2.5, 3.5), (40.0, 0.003),
               (123.0, 456.0)]
        for a, b in pts:
            assert log_beta(a, b) == pytest.approx(mp_log_beta(a, b),
                                                   rel=1e-13, abs=1e-13)


# -- identities ----------------------------------------------------------------

class TestIdentities:
    def test_log_gamma_recurrence(self):
        xs = np.geomspace(1e-3, 300.0, 120)
        lhs = log_gamma(xs + 1.0)
        rhs = log_gamma(xs) + np.log(xs)
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)

    def test_digamma_recurrence(self):
        xs = np.geomspace(1e-2, 300.0, 120)
        assert np.allclose(digamma(xs + 1.0), digamma(xs) + 1.0 / xs,
                           rtol=1e-12, atol=1e-13)

    def test_trigamma_recurrence(self):
        xs = np.geomspace(1e-2, 100.0, 80)
        assert np.allclose(polygamma(1, xs + 1.0),
                           polygamma(1, xs) - xs ** -2.0,
                           rtol=1e-12, atol=1e-13)

    def test_reflection_matches_gamma_product(self):
        a = np.linspace(0.01, 0.99, 50)
        prod = np.exp(log_gamma(1.0 - a) + log_gamma(1.0 + a))
        assert np.allclose(reflection_product(a), prod, rtol=1e-13)

    def test_log_beta_symmetry(self):
        assert log_beta(0.3, 4.5) == log_beta(4.5, 0.3)

    def test_digamma_is_log_gamma_derivative(self):
        # centered difference of log_gamma matches digamma
        for x in (0.7, 3.2, 25.0):
            h = 1e-6 * max(1.0, x)
            approx = (log_gamma(x + h) - log_gamma(x - h)) / (2.0 * h)
            assert approx == pytest.approx(digamma(x), rel=1e-8)


# -- array and scalar behavior -------------------------------------------------

class TestShapes:
    def test_scalar_in_float_out(self):
        assert isinstance(log_gamma(2.5), float)
        assert isinstance(digamma(2.5), float)
        assert isinstance(polygamma(1, 2.5), float)

    def test_array_matches_scalars(self):
        xs = np.array([[0.5, 1.5], [2.5, 7.0]])
        arr = log_gamma(xs)
        assert arr.shape == xs.shape
        for idx in np.ndindex(xs.shape):
            assert arr[idx] == log_gamma(float(xs[idx]))

    def test_polygamma_array(self):
        xs = np.array([0.5, 5.0, 50.0])
        arr = polygamma(3, xs)
        assert arr.shape == xs.shape
        for x, v in zip(xs, arr):
            assert v == polygamma(3, float(x))

    @pytest.mark.parametrize("xs", [
        np.geomspace(1e-3, 60.0, 400),
        np.array([[0.25, 3.5], [10.0, 21.0]]),
        np.array([1.5]),
        0.75,
    ], ids=["grid", "2-d", "one", "scalar"])
    def test_order_array_rows_equal_scalar_orders(self, xs):
        # one shared shift-up for every order, yet each row keeps the bits
        # of its own call, order 1 (a reciprocal, not a power) included
        orders = np.arange(1, 13)
        rows = polygamma(orders, xs)
        assert rows.shape == (12,) + np.shape(xs)
        for i, n in enumerate(orders.tolist()):
            one = np.asarray(polygamma(n, xs))
            assert rows[i].tobytes() == one.tobytes(), n

    def test_order_array_any_order_and_repeats(self):
        xs = np.array([0.5, 2.0, 30.0])
        orders = [7, 1, 120, 1, 2]
        rows = polygamma(np.array(orders), xs)
        for row, n in zip(rows, orders):
            assert row.tobytes() == polygamma(n, xs).tobytes()


# -- the ladder against the per-step loop -------------------------------------

def loop_shift(w, limit, term):
    """The reference shift: one full-array step at a time, a point past a
    threshold adding +0.0 and keeping its argument, until none is below."""
    work = np.repeat(w[None, :], len(limit), axis=0)
    acc = np.zeros_like(work)
    for _ in range(int(limit.max())):
        m = w < limit
        if not m.any():
            break
        acc += np.where(m, term(w), 0.0)
        work += m
        w = w + 1.0
    return work, acc


def outcome(call):
    """A call's bytes, or the text of the DomainError it raises."""
    try:
        return np.asarray(call()).tobytes()
    except DomainError as exc:
        return str(exc)


def _draws(size, lo, hi, seed=7):
    return 10.0 ** np.random.default_rng(seed).uniform(lo, hi, size)


# the largest ladders within _MAX_LADDER values, and one point more: from
# x = 1e-3, log_gamma and digamma take 10 steps, orders 1..23 take 33
_LADDER = specfun._MAX_LADDER
_SIDES = [(_LADDER // 11, None), (_LADDER // 11 + 1, None),
          (_LADDER // (34 * 23), 23), (_LADDER // (34 * 23) + 1, 23)]


class TestLadderMatchesLoop:
    """Every value, and every overflow's message, equals that of the same
    call with the reference loop in place of :func:`specfun._shift_up`."""

    @staticmethod
    def check(monkeypatch, calls):
        new = [outcome(c) for c in calls]
        with monkeypatch.context() as m:
            m.setattr(specfun, "_shift_up", loop_shift)
            ref = [outcome(c) for c in calls]
        assert new == ref

    @pytest.mark.parametrize("size", [1, 5, 52, 455, 4096])
    @pytest.mark.parametrize("lo,hi", [(-300.0, 300.0),
                                       (-3.0, math.log10(30.0))])
    def test_log_uniform_draws(self, monkeypatch, size, lo, hi):
        x = _draws(size, lo, hi)
        orders = [np.arange(1, 24), np.array([5, 1, 5, 12, 1, 23]),
                  np.array([120]), 3]
        self.check(monkeypatch, [lambda: log_gamma(x), lambda: digamma(x)]
                   + [lambda n=n: polygamma(n, x) for n in orders])

    @pytest.mark.parametrize("size,orders", _SIDES,
                             ids=["log-ladder", "log-loop", "poly-ladder",
                                  "poly-loop"])
    def test_both_sides_of_the_size_rule(self, monkeypatch, size, orders):
        x = _draws(size, -3.0, 1.5, seed=size)
        x[0] = 1e-3
        calls = ([lambda: log_gamma(x), lambda: digamma(x)] if orders is None
                 else [lambda: polygamma(np.arange(1, orders + 1), x)])
        self.check(monkeypatch, calls)

    @pytest.mark.parametrize("cap", [0, 1 << 30], ids=["loop", "ladder"])
    @pytest.mark.parametrize("size", [1, 5, 455])
    def test_either_path_alone(self, monkeypatch, cap, size):
        monkeypatch.setattr(specfun, "_MAX_LADDER", cap)
        x = _draws(size, -3.0, 1.5, seed=size)
        n = np.array([2, 23, 2, 1])
        self.check(monkeypatch, [lambda: log_gamma(x), lambda: digamma(x),
                                 lambda: polygamma(n, x)])

    @pytest.mark.parametrize("call", [
        lambda: polygamma(119, 1e-3),
        lambda: polygamma(np.array([1, 2, 119, 120]), np.array([5.0, 1e-3])),
        lambda: digamma(1e-320),
        lambda: digamma(np.full((2, 2), 1e-320)),
        lambda: log_gamma(np.array([2.0, 1e308])),
    ], ids=["psi119", "orders", "digamma", "digamma-2d", "log_gamma"])
    def test_overflow_names_the_same_x(self, monkeypatch, call):
        self.check(monkeypatch, [call])


# -- domain rejection ----------------------------------------------------------

class TestDomain:
    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf])
    def test_log_gamma_rejects(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)

    def test_array_with_one_bad_entry_rejects(self):
        with pytest.raises(DomainError):
            digamma(np.array([1.0, -2.0]))

    def test_polygamma_order_validation(self):
        with pytest.raises(DomainError):
            polygamma(0, 1.0)
        with pytest.raises(DomainError):
            polygamma(121, 1.0)
        with pytest.raises(DomainError):
            polygamma(1.5, 1.0)
        for bad in ([1, 0], [[1, 2]], [], [1.0, 2.0], [True], ["1"]):
            with pytest.raises(DomainError, match="order n must"):
                polygamma(np.array(bad), 1.0)

    @pytest.mark.parametrize("call", [
        lambda: polygamma(119, 1e-3),
        lambda: polygamma(12, 1e-30),
        lambda: digamma(1e-320),
        lambda: polygamma(3, np.array([2.0, 1e-120])),
    ], ids=["psi119", "psi12", "digamma", "array"])
    def test_overflow_raises(self, call):
        with np.errstate(over="raise"), pytest.raises(
                DomainError, match="overflows double precision"):
            call()

    def test_overflow_in_order_array_names_its_order(self):
        with pytest.raises(DomainError, match=r"^polygamma\(119, x\) "
                           r"overflows double precision at x=0\.001$"):
            polygamma(np.array([1, 2, 119, 120]), np.array([5.0, 1e-3]))

    @pytest.mark.parametrize("x", [1e306, np.array([2.0, 1e308])])
    def test_log_gamma_overflow_raises(self, x):
        with np.errstate(over="raise"), pytest.raises(
                DomainError, match="^log_gamma overflows double precision"):
            log_gamma(x)

    @pytest.mark.parametrize("call,at", [
        (lambda: log_gamma(np.full((2, 2), 1e306)), "log_gamma.*x=1e\\+306"),
        (lambda: digamma(np.full((2, 2), 1e-320)), "digamma.*x=1e-320"),
    ], ids=["log_gamma", "digamma"])
    def test_overflow_in_2d_array_names_its_x(self, call, at):
        # the overflow mask has the array's shape; its x is found all the same
        with pytest.raises(DomainError, match=f"^{at}$"):
            call()

    def test_digamma_of_huge_x_warns_nothing(self):
        # 1 / x^2 underflows quietly to 0, as it did with a warning before
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert digamma(1e160) == 368.4136148790473
            assert digamma(np.array([1e160, 3e200]))[1] == digamma(3e200)

    def test_largest_finite_values_pass(self):
        assert math.isfinite(polygamma(11, 1e-25))
        assert digamma(1e-300) == pytest.approx(-1e300, rel=1e-12)
        assert math.isfinite(log_gamma(2e305))

    def test_log_beta_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            log_beta(0.0, 1.0)
        with pytest.raises(DomainError):
            log_beta(1.0, -3.0)

    def test_array_error_names_first_bad_entry(self):
        with pytest.raises(DomainError, match=r"reals\), got -2\.0$"):
            log_gamma(np.array([[1.0, 2.0], [-2.0, 0.0]]))
        with pytest.raises(DomainError, match=r"finite, got inf$"):
            digamma([1.0, math.inf, -1.0])
        with pytest.raises(DomainError, match=r"reals\), got 0$"):
            polygamma(2, 0)

    def test_reflection_product_rejects_endpoints(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                reflection_product(bad)


# -- randomized properties -----------------------------------------------------

class TestProperties:
    @given(st.floats(min_value=1e-3, max_value=200.0,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=80, deadline=None)
    def test_recurrence_random(self, x):
        assert log_gamma(x + 1.0) == pytest.approx(
            log_gamma(x) + math.log(x), rel=1e-12, abs=1e-12)

    @given(st.floats(min_value=0.01, max_value=50.0),
           st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_log_beta_vs_oracle_random(self, a, b):
        assert log_beta(a, b) == pytest.approx(mp_log_beta(a, b),
                                               rel=1e-12, abs=1e-12)

    @given(st.floats(min_value=0.05, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_digamma_monotone_under_shift(self, x):
        # digamma is strictly increasing on (0, inf)
        assert digamma(x + 0.5) > digamma(x)
