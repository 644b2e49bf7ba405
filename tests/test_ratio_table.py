"""Properties of the coefficient table every ratio family is built from."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cmgamma import specfun
from cmgamma.cm_certify import _require_certifiable
from cmgamma.kernels import (MultiParam, Symmetric, TwoParam,
                             domain_lower_bound, log_deriv_polygamma,
                             log_deriv_quadrature, log_f)

params = st.floats(min_value=0.0, max_value=50.0)


class TestCertifiability:
    @given(params, params)
    @settings(max_examples=200, deadline=None)
    def test_two_param_accepted(self, a, b):
        _require_certifiable(TwoParam(a, b))  # the exact gate of certify

    @given(st.lists(params, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_multi_param_accepted(self, a):
        _require_certifiable(MultiParam(a))  # the exact gate of certify

    @given(params)
    @settings(max_examples=100, deadline=None)
    def test_symmetric_accepted(self, a):
        _require_certifiable(Symmetric(a))  # the exact gate of certify


def _magnitude(fam, z, n):
    """Sum of |c_j F(w_j)| over the table, F = ln Gamma for n = 0 and
    psi^(n-1) otherwise: the size of what the signed combination cancels."""
    def fn(w):
        if n == 0:
            return specfun.log_gamma(w)
        return specfun.digamma(w) if n == 1 else specfun.polygamma(n - 1, w)
    return sum(abs(c * fn(w)) for c, w in fam.shifted_args(z))


class TestTwoEntryMultiParam:
    """MultiParam((a, b)) is the TwoParam(a, b) ratio.

    The tables form z - a - b + 1 and z - A + 1, which round differently,
    so the two agree to 1e-12 of the magnitudes their signed combinations
    cancel rather than to 1e-12 of the (possibly tiny) combined value.
    """

    @given(st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=0.05, max_value=30.0),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_two_param(self, a, b, offset, n):
        two, multi = TwoParam(a, b), MultiParam((a, b))
        z = domain_lower_bound(two) + offset
        assert domain_lower_bound(multi) == domain_lower_bound(two)
        assert abs(log_f(multi, z) - log_f(two, z)) <= \
            1e-12 * _magnitude(two, z, 0)
        for route in (log_deriv_polygamma, log_deriv_quadrature):
            diff = route(multi, z, n).signed_value \
                - route(two, z, n).signed_value
            assert abs(diff) <= 1e-12 * _magnitude(two, z, n), route
