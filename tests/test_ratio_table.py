"""Properties of the coefficient table every ratio family is built from."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

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


class TestTwoEntryMultiParam:
    """MultiParam((a, b)) is the TwoParam(a, b) ratio.

    Both tables hold the rows G(z+1), G(z-a-b+1), 1/G(z-a+1) and
    1/G(z-b+1), the second summed from the entries, so ``log_f`` and both
    routes read the same exact terms and agree bit for bit.
    """

    @given(st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=0.05, max_value=30.0),
           st.integers(min_value=1, max_value=8))
    # kernel exponents over 2^1075, whose largest is a subnormal
    @example(5e-324, 5e-324, 1.0, 1)
    @settings(max_examples=60, deadline=None)
    def test_matches_two_param(self, a, b, offset, n):
        two, multi = TwoParam(a, b), MultiParam((a, b))
        z = domain_lower_bound(two) + offset
        assert domain_lower_bound(multi) == domain_lower_bound(two)
        assert log_f(multi, z) == log_f(two, z)
        for route in (log_deriv_polygamma, log_deriv_quadrature):
            assert route(multi, z, n).signed_value \
                == route(two, z, n).signed_value, route
