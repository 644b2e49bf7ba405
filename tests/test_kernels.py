"""Ratio families: coefficient tables, kernels, and the two derivative routes."""

import math

import mpmath
import numpy as np
import pytest

from cmgamma.errors import DomainError, UsageError
from cmgamma.kernels import (
    N_MAX_ORDER,
    LogDerivResult,
    Majorized,
    MultiParam,
    Symmetric,
    TwoParam,
    domain_lower_bound,
    kernel_value,
    log_deriv_polygamma,
    log_deriv_quadrature,
    log_f,
)

from conftest import mp_log_gamma, mp_polygamma

FAMILIES = [
    TwoParam(0.5, 0.7),
    MultiParam((1.0, 2.0, 3.0)),
    Majorized((3.0, 1.0), (2.0, 2.0)),
    Symmetric(0.5),
]


def _z_inside(fam, offset=1.3):
    return domain_lower_bound(fam) + offset


class TestShiftedArgs:
    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.kind)
    def test_coefficients_sum_to_zero(self, fam):
        z = _z_inside(fam)
        pairs = fam.shifted_args(z)
        assert math.fsum(c for c, _ in pairs) == pytest.approx(0.0, abs=0.0)

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.kind)
    def test_log_f_matches_coefficient_table(self, fam):
        z = _z_inside(fam)
        pairs = fam.shifted_args(z)
        direct = math.fsum(c * mp_log_gamma(w) for c, w in pairs)
        assert log_f(fam, z) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.kind)
    def test_arguments_positive_inside_domain(self, fam):
        z = _z_inside(fam, offset=1e-6)
        assert all(w > 0.0 for _, w in fam.shifted_args(z))


class TestLogF:
    def test_two_param_closed_form(self):
        # a = b = 1: f(z) = z / (z - 1)
        fam = TwoParam(1.0, 1.0)
        for z in (1.5, 2.0, 4.0, 25.0):
            assert log_f(fam, z) == pytest.approx(
                math.log(z / (z - 1.0)), rel=1e-13, abs=1e-13)

    def test_symmetric_zero_is_identity(self):
        fam = Symmetric(0.0)
        zs = np.array([0.5, 1.0, 8.0])
        assert np.all(log_f(fam, zs) == 0.0)

    def test_trivial_two_param(self):
        fam = TwoParam(0.0, 0.0)
        assert log_f(fam, 3.7) == 0.0

    def test_vectorized(self):
        fam = TwoParam(0.5, 0.7)
        zs = np.linspace(1.0, 9.0, 7)
        arr = log_f(fam, zs)
        for z, v in zip(zs, arr):
            assert v == log_f(fam, float(z))

    def test_majorized_value(self):
        # a=(3,1), b=(2,2), z=4: G(1)G(3)/G(2)^2 = 2
        fam = Majorized((3.0, 1.0), (2.0, 2.0))
        assert log_f(fam, 4.0) == pytest.approx(math.log(2.0), rel=1e-13)


class TestKernel:
    TS = np.array([1e-6, 0.05, 0.3, 1.0, 3.0, 8.0, 40.0])

    def test_two_param_kernel_closed_form(self):
        fam = TwoParam(0.5, 0.7)
        ref = (1.0 - np.exp(-0.5 * self.TS)) * (1.0 - np.exp(-0.7 * self.TS))
        assert np.allclose(kernel_value(fam, self.TS), ref, rtol=1e-12)

    def test_symmetric_kernel_closed_form(self):
        fam = Symmetric(0.5)
        ref = np.exp(0.5 * self.TS) + np.exp(-0.5 * self.TS) - 2.0
        assert np.allclose(kernel_value(fam, self.TS), ref, rtol=1e-9)

    def test_multi_param_kernel_closed_form(self):
        fam = MultiParam((1.0, 2.0, 3.0))
        ts = self.TS[self.TS <= 8.0]  # direct form overflows above that
        ref = 2.0 + np.exp(6.0 * ts) - (np.exp(ts) + np.exp(2.0 * ts)
                                        + np.exp(3.0 * ts))
        assert np.allclose(kernel_value(fam, ts), ref, rtol=1e-9)

    def test_majorized_kernel_closed_form(self):
        fam = Majorized((3.0, 1.0), (2.0, 2.0))
        ts = self.TS[self.TS <= 40.0]
        ref = (np.exp(3.0 * ts) + np.exp(ts) - 2.0 * np.exp(2.0 * ts))
        assert np.allclose(kernel_value(fam, ts), ref, rtol=1e-9)

    def test_kernel_sum_identity(self):
        # for each family the weighted log-gamma arguments reproduce the
        # kernel up to one pure exponential factor: the ratio
        # sum_j c_j e^(-w_j t) / K(t) must be exp(-sigma t) for a single
        # constant sigma
        for fam in FAMILIES:
            z = _z_inside(fam)
            ts = np.array([0.1, 0.2, 0.5, 1.0, 2.0])
            pairs = fam.shifted_args(z)
            num = sum(c * np.exp(-w * ts) for c, w in pairs)
            ratio = num / kernel_value(fam, ts)
            sigma = -np.log(ratio) / ts
            assert np.allclose(sigma, sigma[0], rtol=1e-8), fam.kind

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.kind)
    def test_kernel_nonnegative_for_fixtures(self, fam):
        ts = np.geomspace(1e-6, 50.0, 300)
        vals = kernel_value(fam, ts)
        finite = vals[np.isfinite(vals)]
        assert np.all(finite >= -1e-12 * np.maximum(1.0, np.abs(finite)))

    def test_kernel_negative_for_bad_majorized(self):
        fam = Majorized((5.0, 5.0), (0.0, 9.0))
        ts = np.geomspace(1e-6, 50.0, 300)
        vals = kernel_value(fam, ts)
        assert np.min(vals[np.isfinite(vals)]) < 0.0

    def test_kernel_rejects_negative_t(self):
        with pytest.raises(DomainError):
            kernel_value(TwoParam(0.5, 0.7), -1.0)


class TestKernelOracle:
    TS = (1e-8, 1e-6, 1e-4, 1e-2, 0.3, 1.0, 8.0)

    @staticmethod
    def _mp_kernel(fam, t):
        # each family's closed-form kernel at 40 digits
        def ex(v):
            return mpmath.exp(mpmath.mpf(v) * t)

        p = fam.params_dict()
        if fam.kind == "two-param":
            return (1 - 1 / ex(p["a"])) * (1 - 1 / ex(p["b"]))
        if fam.kind == "symmetric":
            return ex(p["a"]) + 1 / ex(p["a"]) - 2
        if fam.kind == "multi-param":
            return (len(p["a"]) - 1 + ex(mpmath.fsum(p["a"]))
                    - mpmath.fsum(ex(v) for v in p["a"]))
        return (mpmath.fsum(ex(v) for v in p["a"])
                - mpmath.fsum(ex(v) for v in p["b"]))

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.kind)
    def test_kernel_vs_oracle(self, fam):
        vals = kernel_value(fam, np.array(self.TS))
        for t, v in zip(self.TS, vals):
            ref = float(self._mp_kernel(fam, t))
            assert v == pytest.approx(ref, rel=1e-12, abs=0.0), t


    @pytest.mark.parametrize("t", [1e-8, 1e-6, 1e-4, 1e-2, 1.0])
    def test_multi_param_inexact_sum(self, t):
        # A = sum(a) is not a double here; the kernel uses the exact sum
        a = (0.3, 0.05, 0.9, 0.41)
        with mpmath.workdps(60):
            ex = [mpmath.exp(mpmath.mpf(v) * t) for v in a]
            big = mpmath.exp(mpmath.fsum(mpmath.mpf(v) for v in a) * t)
            ref = float(len(a) - 1 + big - mpmath.fsum(ex))
        assert kernel_value(MultiParam(a), t) == pytest.approx(
            ref, rel=1e-12, abs=0.0)

class TestDerivativeRoutes:
    def test_two_param_11_closed_forms(self):
        # f(z) = z/(z-1): (-1)^n (ln f)^(n) = (n-1)! ((z-1)^-n - z^-n)
        fam = TwoParam(1.0, 1.0)
        z = 2.0
        for n, expected in ((1, 0.5), (2, 0.75), (3, 1.75)):
            p = log_deriv_polygamma(fam, z, n)
            q = log_deriv_quadrature(fam, z, n)
            assert p.signed_value == pytest.approx(expected, abs=1e-12)
            assert q.signed_value == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.kind)
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_polygamma_route_vs_oracle(self, fam, n):
        z = _z_inside(fam)
        pairs = fam.shifted_args(z)
        ref = (-1.0) ** n * math.fsum(
            c * mp_polygamma(n - 1, w) if n > 1 else c * _mp_digamma(w)
            for c, w in pairs)
        p = log_deriv_polygamma(fam, z, n)
        assert p.signed_value == pytest.approx(ref, rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.kind)
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_routes_agree(self, fam, n):
        z = _z_inside(fam)
        p = log_deriv_polygamma(fam, z, n)
        q = log_deriv_quadrature(fam, z, n)
        assert abs(q.signed_value - p.signed_value) <= max(
            1e-8 * abs(p.signed_value), 1e-9)

    def test_result_fields(self):
        fam = Symmetric(0.5)
        res = log_deriv_polygamma(fam, 2.0, 3)
        assert isinstance(res, LogDerivResult)
        assert res.order == 3
        assert res.z == 2.0
        assert res.path == "polygamma"
        q = log_deriv_quadrature(fam, 2.0, 3)
        assert q.path == "quadrature"
        assert q.err_estimate >= 0.0

    def test_quadrature_keeps_cancellation_at_large_z(self):
        # the rounded arguments z - a_i + 1 lose the offsets' low bits at
        # z ~ 1e6; the exact kernel terms do not
        a = (0.22022406367481134, 0.5899678003889793, 0.622488105747265)
        z = 955648.486428126
        with mpmath.workdps(60):
            zm = mpmath.mpf(z)
            ref = float(-(2 * mpmath.psi(0, zm + 1)
                          + mpmath.psi(0, zm + 1 - mpmath.fsum(a))
                          - mpmath.fsum(mpmath.psi(0, zm + 1 - v)
                                        for v in a)))
        q = log_deriv_quadrature(MultiParam(a), z, 1).signed_value
        assert abs(q - ref) <= 1e-8 * abs(ref)

    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_quadrature_decays_at_the_top_merged_exponent(self, n):
        # the top rows G(z-2) cancel: the integrand decays like
        # e^(-(z - 0.7) t), not like e^(-(z - lower_bound) t) = e^(-(z - 2) t)
        fam = Majorized((2.0, 0.5), (2.0, 0.7))
        for z in (2.5, 40.0):
            p = log_deriv_polygamma(fam, z, n)
            q = log_deriv_quadrature(fam, z, n)
            assert abs(q.signed_value - p.signed_value) <= max(
                1e-8 * abs(p.signed_value), 1e-9)

    def test_quadrature_sees_a_gap_below_the_ulp_of_z(self):
        # z - 0.5000000000001 and z - 0.5 round to one argument at z = 1e6,
        # but the kernel e^(0.5000000000001 t) - e^(0.5 t) is positive
        fam = Majorized((2.0, 0.5000000000001), (2.0, 0.5))
        assert log_deriv_quadrature(fam, 1e6, 1).signed_value > 0.0

    def test_symmetric_zero_derivatives_vanish(self):
        fam = Symmetric(0.0)
        for n in (1, 2, 5):
            assert log_deriv_polygamma(fam, 1.5, n).signed_value == 0.0
            assert log_deriv_quadrature(fam, 1.5, n).signed_value == 0.0


def _mp_digamma(w):
    from conftest import mp_digamma
    return mp_digamma(w)


class TestValidation:
    def test_order_cap(self):
        fam = TwoParam(0.5, 0.7)
        with pytest.raises(UsageError):
            log_deriv_polygamma(fam, 3.0, N_MAX_ORDER + 1)
        with pytest.raises(UsageError):
            log_deriv_quadrature(fam, 3.0, 0)

    def test_z_outside_domain(self):
        fam = TwoParam(0.5, 0.7)  # lower bound 0.2
        with pytest.raises(DomainError):
            log_deriv_polygamma(fam, 0.2, 1)
        with pytest.raises(DomainError):
            log_f(fam, 0.1)

    def test_family_param_validation(self):
        with pytest.raises(DomainError):
            TwoParam(-0.5, 1.0)
        with pytest.raises(DomainError):
            MultiParam((1.0, -2.0))
        with pytest.raises(DomainError):
            Symmetric(-0.1)
        with pytest.raises(DomainError):
            Majorized((1.0, math.nan), (1.0, 1.0))

    def test_majorized_length_mismatch(self):
        with pytest.raises((DomainError, UsageError)):
            Majorized((1.0, 2.0, 3.0), (1.0, 2.0))

    def test_domain_lower_bounds(self):
        assert domain_lower_bound(TwoParam(0.5, 0.7)) == pytest.approx(0.2)
        assert domain_lower_bound(MultiParam((1.0, 2.0, 3.0))) == \
            pytest.approx(5.0)
        assert domain_lower_bound(Majorized((3.0, 1.0), (2.0, 2.0))) == 3.0
        assert domain_lower_bound(Symmetric(0.5)) == 0.5
