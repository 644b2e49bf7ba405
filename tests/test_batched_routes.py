"""Both log-derivative routes over a z array and an order array equal their
scalar calls bit for bit, and certification calls each route once."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmgamma.cm_certify as cmc
from cmgamma.cm_certify import CertConfig, certify_log_cm
from cmgamma.errors import ConvergenceError, DomainError, UsageError
from cmgamma.kernels import (Majorized, MultiParam, Symmetric, TwoParam,
                             domain_lower_bound, log_deriv_polygamma,
                             log_deriv_quadrature)

FIXTURES = [
    (TwoParam(0.5, 0.7), 0.25, 10.2),
    (MultiParam((1.0, 2.0, 3.0)), 5.3, 20.0),
    (Majorized((3.0, 1.0), (2.0, 2.0)), 3.3, 18.0),
    (Symmetric(0.5), 0.8, 15.0),
]
ORDERS = np.arange(1, 13)
ROUTES = (log_deriv_quadrature, log_deriv_polygamma)


def _parts(route, fam, z, n):
    """(values, error estimates, converged flags) of one route call."""
    try:
        res = route(fam, z, n)
        return (res.signed_value, res.err_estimate,
                np.ones(np.shape(res.signed_value), dtype=bool))
    except ConvergenceError as exc:
        return exc.value, exc.err_estimate, exc.converged


def _bits(x) -> str:
    return float(x).hex()


def assert_batch_is_scalar(route, fam, zs):
    vals, errs, oks = _parts(route, fam, zs, ORDERS)
    assert np.shape(vals) == (len(zs), len(ORDERS))
    for i, z in enumerate(zs):
        for j, n in enumerate(ORDERS.tolist()):
            val, err, ok = _parts(route, fam, float(z), n)
            assert (_bits(vals[i, j]), _bits(errs[i, j]), bool(oks[i, j])) \
                == (_bits(val), _bits(err), ok), (route.__name__, z, n)


@pytest.mark.parametrize("route", ROUTES, ids=lambda r: r.__name__)
@pytest.mark.parametrize("fam,lo,hi", FIXTURES,
                         ids=lambda v: getattr(v, "kind", ""))
def test_fixture_batch_equals_scalar_calls(route, fam, lo, hi):
    assert_batch_is_scalar(route, fam, np.geomspace(lo, hi, 7))


@pytest.mark.parametrize("route", ROUTES, ids=lambda r: r.__name__)
def test_arguments_merging_at_some_z_only(route):
    # z - 0.5000000000001 and z - 0.5 round to one argument once the ulp
    # of z passes 1e-13: the series route then sees a ratio of 1, while
    # the quadrature route reads the exact kernel terms at every z
    fam = Majorized((2.0, 0.5000000000001), (2.0, 0.5))
    zs = np.geomspace(3.0, 1e6, 12)
    merged = [z - 0.5000000000001 == z - 0.5 for z in zs]
    assert any(merged) and not all(merged)
    assert_batch_is_scalar(route, fam, zs)


offsets = st.lists(st.floats(min_value=0.05, max_value=30.0), min_size=1,
                   max_size=4)


@given(st.floats(min_value=0.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=5.0), offsets)
@settings(max_examples=15, deadline=None)
def test_two_param_draws(a, b, offs):
    fam = TwoParam(a, b)
    zs = domain_lower_bound(fam) + np.sort(offs)
    for route in ROUTES:
        assert_batch_is_scalar(route, fam, zs)


entries = st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1,
                   max_size=3)


@given(entries, st.data(), offsets)
@settings(max_examples=15, deadline=None)
def test_majorized_draws(a, data, offs):
    b = data.draw(st.lists(st.floats(min_value=0.0, max_value=5.0),
                           min_size=len(a), max_size=len(a)))
    fam = Majorized(a, b)
    zs = domain_lower_bound(fam) + np.sort(offs)
    for route in ROUTES:
        assert_batch_is_scalar(route, fam, zs)


class TestShapes:
    def test_scalar_call_gives_numbers(self):
        for route in ROUTES:
            res = route(TwoParam(0.5, 0.7), 2.0, 3)
            assert isinstance(res.signed_value, float)
            assert isinstance(res.err_estimate, float)
            assert res.z == 2.0 and res.order == 3

    def test_shape_is_z_shape_then_order_shape(self):
        fam = Symmetric(0.5)
        for route in ROUTES:
            assert route(fam, [1.0, 2.0, 3.0], 2).signed_value.shape == (3,)
            assert route(fam, 2.0, [1, 2]).signed_value.shape == (2,)
            assert route(fam, [1.0, 2.0], [1, 2, 3]).err_estimate.shape \
                == (2, 3)

    @pytest.mark.parametrize("bad", [[], [0, 1], [1, 13], [1.0, 2.0],
                                     [True]])
    def test_orders_validated(self, bad):
        for route in ROUTES:
            with pytest.raises(UsageError):
                route(TwoParam(0.5, 0.7), 2.0, bad)


class TestCertifyCallsEachRouteOnce:
    def test_one_call_per_route(self, monkeypatch):
        calls = []

        def counted(route):
            def wrapper(*args, **kwargs):
                calls.append(route.__name__)
                return route(*args, **kwargs)
            return wrapper

        for route in ROUTES:
            monkeypatch.setattr(cmc, route.__name__, counted(route))
        report = certify_log_cm(TwoParam(0.5, 0.7), CertConfig(
            z_grid=tuple(np.geomspace(0.25, 1e3, 40)), n_max=12))
        assert sorted(calls) == sorted(r.__name__ for r in ROUTES)
        assert len(report.rows) == 40 * 12
        assert report.verdict == "certified"

    def test_unconverged_pairs_only_are_inconclusive(self, monkeypatch):
        # a quadrature batch where one pair did not converge: that row has
        # an infinite error estimate and does not agree; the others do
        def partial(fam, z, n):
            res = log_deriv_quadrature(fam, z, n)
            ok = np.ones(res.signed_value.shape, dtype=bool)
            ok[1, 0] = False
            raise ConvergenceError("no convergence", value=res.signed_value,
                                   err_estimate=res.err_estimate,
                                   converged=ok)

        monkeypatch.setattr(cmc, "log_deriv_quadrature", partial)
        report = certify_log_cm(TwoParam(0.5, 0.7), CertConfig(
            z_grid=(1.0, 2.0, 3.0), n_max=2))
        assert report.verdict == "inconclusive"
        bad = [(r.z, r.n) for r in report.rows if not r.agrees]
        assert bad == [(2.0, 1)]
        assert math.isinf(report.rows[2].quad_err)

    def test_pole_on_grid_raises_before_any_quadrature(self, monkeypatch):
        # the series route runs first and names the first argument, z-major,
        # that reaches a pole, as the old per-pair loop did
        def refused(*args, **kwargs):
            raise AssertionError("quadrature ran on a grid with a pole")

        monkeypatch.setattr(cmc, "log_deriv_quadrature", refused)
        with pytest.raises(DomainError, match=r"poles at nonpositive reals"
                                              r"\), got 0\.0$"):
            certify_log_cm(TwoParam(0.5, 0.5), CertConfig(
                z_grid=tuple(np.linspace(1e-30, 1.0, 5)), n_max=3))
