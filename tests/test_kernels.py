"""Ratio families: coefficient tables, kernels, and the two derivative routes."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cmgamma.cm_certify import CertConfig, certify_log_cm
from cmgamma.errors import DomainError, UsageError
import cmgamma.kernels as kernels
from cmgamma.kernels import (
    N_MAX_ORDER,
    LogDerivResult,
    Majorized,
    MultiParam,
    RatioFamily,
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


def _mp_log_f(fam, z):
    """sum_j c_j lnG(z + d_j) at 60 digits, d_j the exact offset sums."""
    with mpmath.workdps(60):
        return mpmath.fsum(
            c * mpmath.loggamma(mpmath.fsum([z, *offsets]))
            for c, offsets in fam.rows)


class TestLargeZSeries:
    """From z = 16 max(1, |d_j|) on, log_f reads the large-z series; its
    z ln z terms cancel exactly, so it is good to a few ulps to z = 1e12,
    with parameters down to 1e-10."""

    FAMS = [TwoParam(0.5, 0.7), TwoParam(1e-10, 0.3),
            MultiParam((0.3, 0.05, 0.9, 0.41)), MultiParam((1e-10, 2.5)),
            Majorized((3.0, 1.0), (2.0, 2.0)),
            Majorized((1.0, 1e-10), (0.5, 0.5 + 1e-10)),
            Symmetric(0.4), Symmetric(1e-10)]

    @pytest.mark.parametrize("fam", FAMS, ids=repr)
    def test_matches_mpmath(self, fam):
        far = 16.0 * max(1.0, *(abs(math.fsum(g)) for _, g in fam.rows))
        zs = np.geomspace(far, 1e12, 40)
        for z, got in zip(zs.tolist(), log_f(fam, zs).tolist()):
            ref = _mp_log_f(fam, z)
            assert abs(got - ref) <= 1e-14 * abs(ref), (z, got, float(ref))

    def test_not_built_below_the_threshold(self):
        fam = TwoParam(0.5, 0.7)
        log_f(fam, np.linspace(0.3, 15.9, 50))
        assert "_series" not in vars(fam)
        log_f(fam, 16.0)
        assert "_series" in vars(fam)

    def test_argument_next_to_a_pole(self):
        # z = 0.2 lies above the bound a+b-1 = 0.19999999999999996, but the
        # rounded argument ((z-a)-b)+1 is 0.0, a pole of lnGamma
        fam = TwoParam(0.5, 0.7)
        ref = _mp_log_f(fam, 0.2)
        assert log_f(fam, 0.2) == pytest.approx(float(ref), rel=1e-14)


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

    @pytest.mark.parametrize("fam", [
        TwoParam(0.5, 0.7), MultiParam((1.0, 2.0, 3.0)), Symmetric(0.3),
        TwoParam(1e-13, 1.0), Symmetric(1e-3)], ids=repr)
    def test_lifted_moments_are_rounded_once(self, fam):
        # each 2^lift (-1)^p mu_p / (den^p p!) rounded once from the exact
        # moments; those past the Taylor terms exist below spread 1
        den, _, terms = fam.terms
        spread, lift, moments = fam._taylor[:3]
        want = [float(Fraction(sum(c * (terms[-1][0] - x) ** p
                                   for x, c in terms) * (-1) ** p << lift,
                               den ** p * math.factorial(p)))
                for p in range(len(moments))]
        count = len(moments) if spread < 1.0 else 11
        assert moments[:count].tolist() == want[:count]
        assert np.isnan(moments[count:]).all()

    def test_unread_moments_of_a_wide_spread_do_not_overflow(self):
        # mu_13 / 13! of a spread of 2e25 is past double precision, but
        # only a spread below 1/34 reads it
        fam = Symmetric(1e25)
        assert 0.0 < kernel_value(fam, 1e-30) < 1e-9


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


# ordinary, near-cancelling and tiny-parameter families
ORACLE_FAMILIES = [
    TwoParam(0.5, 0.7),
    MultiParam((0.2, 0.5, 0.9)),
    Majorized((2, 0.5), (1.5, 1)),
    Symmetric(0.4),
    Symmetric(1e-6),
    TwoParam(1.0, 1e-13),
]


# families whose exponents spread wider than the rate near the edge
SHIFT_FAMILIES = [
    TwoParam(3.0, 5.0),
    TwoParam(30.0, 50.0),
    TwoParam(1e3, 1e-6),
    Symmetric(4.0),
]


# the value families: mixed scales, tiny parameters and near cancellation
VALUE_FAMILIES = [
    TwoParam(1e3, 1e-6),
    TwoParam(1e6, 0.5),
    TwoParam(1e-8, 1e-9),
    Symmetric(1e-7),
    TwoParam(1.0, 1e-13),
    MultiParam((1e-10, 1e-10, 1e-10)),
    Majorized((7.5, 0.1, 3.0), (4.0, 3.3, 3.3)),
    TwoParam(0.5, 0.7),
]


# row tables of the inequality sides: binom-core, whose coefficients sum to
# -1, and INQ58's gamma-square table at a = 1
ROW_TABLES = [
    RatioFamily("rows", (("rows", "binom-core"),),
                ((1.0, (-0.5, -0.7, 1.0)), (-1.0, (-0.5, 1.0)),
                 (-1.0, (-0.7, 1.0)))),
    RatioFamily("rows", (("rows", "gamma-square"),),
                ((1.0, ()), (1.0, (-2.0,)), (-2.0, (-1.0,)))),
]


def _mp_terms(fam):
    """(c_j, x_j, d_j) of the family's exact kernel terms, in mpmath: K(t)
    = sum_j c_j e^(x_j t) and the route sums c_j psi^(n-1)(z - d_j)."""
    den, r, terms = fam.terms
    return [(c, mpmath.mpf(x) / den, mpmath.mpf(x + r) / den)
            for x, c in terms]


class TestExactTermOracle:
    @staticmethod
    def _check_quadrature(fam, zs, rel):
        """Every order up to the cap at every z within rel of mpmath, and
        within its own error estimate."""
        ns = list(range(1, N_MAX_ORDER + 1))
        res = log_deriv_quadrature(fam, zs, ns)
        q = res.signed_value
        with mpmath.workdps(60):
            terms = _mp_terms(fam)
            for i, z in enumerate(zs):
                for j, n in enumerate(ns):
                    ref = (-1) ** n * mpmath.fsum(
                        c * mpmath.psi(n - 1, mpmath.mpf(z) - d)
                        for c, _, d in terms)
                    err = abs(q[i, j] - ref)
                    assert err <= rel * abs(ref), (z, n)
                    assert err <= res.err_estimate[i, j], (z, n)

    @pytest.mark.parametrize("fam", ORACLE_FAMILIES, ids=repr)
    def test_quadrature_vs_mpmath(self, fam):
        # from the domain edge to z = 1e12
        zs = [domain_lower_bound(fam) + 1e-3, 100.0, 1e3, 1e6, 1e9, 1e12]
        self._check_quadrature(fam, zs, 1e-10)

    @pytest.mark.parametrize("fam", ORACLE_FAMILIES, ids=repr)
    def test_far_field_vs_mpmath(self, fam):
        # from z - bound >= 1 on, where few or no recurrence steps run
        zs = [domain_lower_bound(fam) + d
              for d in (1.0, 3.0, 10.0, 100.0, 1e3, 1e6, 1e9, 1e12)]
        self._check_quadrature(fam, zs, 1e-14)

    @pytest.mark.parametrize("fam", SHIFT_FAMILIES, ids=repr)
    def test_recurrence_steps_vs_mpmath(self, fam):
        # y = z - d_m from 1e-4 to 1e3, d_m the top merged exponent: below
        # max(2, 2 spread) the pairs move up by recurrence steps, up to
        # about 2,000 of them for TwoParam(1e3, 1e-6)
        den, r, terms = fam.terms
        zs = (terms[-1][0] + r) / den + np.geomspace(1e-4, 1e3, 15)
        self._check_quadrature(fam, zs, 1e-12)

    def test_mixed_scales_just_above_the_edge(self):
        # y = 1.999999, 1,998 recurrence steps, then the rule at rate 2000
        fam = TwoParam(1e3, 1e-6)
        q = log_deriv_quadrature(fam, 1001.0, 1)
        with mpmath.workdps(60):
            ref = -mpmath.fsum(c * mpmath.psi(0, mpmath.mpf(1001.0) - d)
                               for c, _, d in _mp_terms(fam))
        assert abs(q.signed_value - ref) <= 1e-12 * abs(ref)
        assert abs(q.signed_value - ref) <= q.err_estimate

    def test_estimate_covers_the_rules_weight_error(self):
        # weights that missed their moments by 3.7e-14 erred here by
        # 3.1e-14 relative, ten times |Q_16 - Q_32|; the stored rule errs
        # by 6.7e-16, which the estimate must cover as well
        fam, z, n = TwoParam(0.5, 0.7), 3.9275937203149383, 11
        q = log_deriv_quadrature(fam, z, n)
        with mpmath.workdps(60):
            ref = (-1) ** n * mpmath.fsum(
                c * mpmath.psi(n - 1, mpmath.mpf(z) - d)
                for c, _, d in _mp_terms(fam))
        assert abs(q.signed_value - ref) <= q.err_estimate

    def test_recurrence_steps_run_in_bounded_memory(self):
        # about 600,000 recurrence steps, of which each z forms its first
        # 32 one by one and sums the rest by Euler-Maclaurin
        fam = TwoParam(0.001, 1e5)
        zs = domain_lower_bound(fam) + np.array([1e-3, 0.1, 1.0])
        tracemalloc.start()
        try:
            log_deriv_quadrature(fam, zs, [1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 22

    def test_steps_per_z_are_uncapped(self, monkeypatch):
        # y = 0.5 takes all of its 2 spread + 1/2 recurrence steps, most of
        # them in the tail; y = 3e9 needs none
        seen = []
        real = kernels._shift_sum

        def counted(fam, y, k, orders):
            seen.append(k.tolist())
            return real(fam, y, k, orders)

        monkeypatch.setattr(kernels, "_shift_sum", counted)
        fam = TwoParam(1e9, 0.5)
        log_deriv_quadrature(fam, domain_lower_bound(fam)
                             + np.array([0.5, 3e9]), [1])
        assert seen == [[2e9 + 1.0, 0.0]]

    def test_wide_spread_past_the_former_cap(self):
        # 2e9 recurrence steps: with steps capped at 2^18 the rule ran
        # below its floor and read 5.0012500e-4 with an estimate of 1.5e-14
        fam = TwoParam(1e9, 0.5)
        z = domain_lower_bound(fam) + 1e3
        q = log_deriv_quadrature(fam, z, 1)
        with mpmath.workdps(60):
            ref = -mpmath.fsum(c * mpmath.psi(0, mpmath.mpf(z) - d)
                               for c, _, d in _mp_terms(fam))
        assert abs(q.signed_value - ref) <= 1e-12 * abs(ref)
        assert abs(q.signed_value - ref) <= q.err_estimate

    # exponent spreads from 2e-13 to 1e9: no steps, moments, a head of
    # steps alone, and head plus Euler-Maclaurin tail
    @pytest.mark.parametrize("fam", [
        TwoParam(1e-13, 1e-13), TwoParam(0.5, 1e-13), TwoParam(3.0, 5.0),
        TwoParam(8.0, 9.0), TwoParam(30.0, 50.0), Symmetric(2e3),
        TwoParam(0.001, 1e5), MultiParam((1e6, 0.5, 3.0)),
        TwoParam(1e9, 0.5)], ids=repr)
    def test_estimates_cover_at_every_spread(self, fam):
        den, r, terms = fam.terms
        zs = (terms[-1][0] + r) / den + np.geomspace(1e-4, 1e3, 8)
        ns = list(range(1, N_MAX_ORDER + 1))
        q = log_deriv_quadrature(fam, zs, ns)
        with mpmath.workdps(60):
            terms = _mp_terms(fam)
            for i, z in enumerate(zs):
                for j, n in enumerate(ns):
                    ref = (-1) ** n * mpmath.fsum(
                        c * mpmath.psi(n - 1, mpmath.mpf(z) - d)
                        for c, _, d in terms)
                    err = abs(q.signed_value[i, j] - ref)
                    assert err <= 1e-12 * abs(ref), (z, n)
                    assert err <= q.err_estimate[i, j], (z, n)

    # head only (y >= 2 spread - 32), head plus tail, and the moments of
    # a tiny spread, with unsorted and repeated orders
    @pytest.mark.parametrize("fam, offsets", [
        (TwoParam(30.0, 50.0), (1e-3, 0.7, 120.0, 150.0, 500.0)),
        (TwoParam(8.0, 9.0), (1e-4, 1.0, 2.5, 30.0)),
        (Symmetric(1e-6), (1e-5, 0.3, 3.0)),
    ], ids=["spread-80", "spread-17", "moments"])
    def test_order_lists_equal_scalar_calls(self, fam, offsets):
        zs = domain_lower_bound(fam) + np.array(offsets)
        orders = [5, 1, 5, 12]
        q = log_deriv_quadrature(fam, zs, orders)
        for i, z in enumerate(zs):
            for j, n in enumerate(orders):
                one = log_deriv_quadrature(fam, float(z), n)
                assert q.signed_value[i, j] == one.signed_value, (z, n)
                assert q.err_estimate[i, j] == one.err_estimate, (z, n)

    @pytest.mark.parametrize("fam", ORACLE_FAMILIES, ids=repr)
    def test_polygamma_vs_mpmath(self, fam):
        # every order from the domain edge to z = 1e12, with an error
        # estimate that covers the true error
        zs = domain_lower_bound(fam) + np.geomspace(1e-3, 1e12, 16)
        ns = list(range(1, N_MAX_ORDER + 1))
        p = log_deriv_polygamma(fam, zs, ns)
        with mpmath.workdps(60):
            terms = _mp_terms(fam)
            for i, z in enumerate(zs):
                for j, n in enumerate(ns):
                    ref = (-1) ** n * mpmath.fsum(
                        c * mpmath.psi(n - 1, mpmath.mpf(z) - d)
                        for c, _, d in terms)
                    err = abs(p.signed_value[i, j] - ref)
                    assert err <= 1e-11 * abs(ref), (z, n)
                    assert err <= p.err_estimate[i, j], (z, n)

    def test_taylor_order_that_would_overflow_takes_the_difference(self):
        # at x = 1e-15 the gap 1e-18 would take its Taylor sum, whose top
        # order psi^(19) overflows there, though the value is finite
        fam = TwoParam(1.0, 1e-18)
        z = domain_lower_bound(fam) + 1e-15
        p = log_deriv_polygamma(fam, z, 12)
        with mpmath.workdps(80):
            ref = mpmath.fsum(c * mpmath.psi(11, mpmath.mpf(z) - d)
                              for c, _, d in _mp_terms(fam))
        err = abs(p.signed_value - ref)
        assert err <= 1e-8 * abs(ref)
        assert err <= p.err_estimate

    @pytest.mark.parametrize("fam", VALUE_FAMILIES + ROW_TABLES, ids=repr)
    def test_log_f_vs_mpmath(self, fam):
        # n = 0 from the domain edge to past the large-z series threshold,
        # with an error bound that covers the true error
        den, r, terms = fam.terms
        top = max(abs(x + r) for x, _ in terms) / den
        zs = np.linspace(domain_lower_bound(fam) + 1e-3,
                         16.0 * max(1.0, top + 2.0), 30)
        bound = fam.psi_sum(zs, [0])[1][:, 0]
        with mpmath.workdps(60):
            terms = _mp_terms(fam)
            for z, got, b in zip(zs.tolist(), log_f(fam, zs).tolist(),
                                 bound.tolist()):
                ref = mpmath.fsum(c * mpmath.loggamma(mpmath.mpf(z) - d)
                                  for c, _, d in terms)
                err = abs(got - ref)
                assert err <= 1e-11 * abs(ref) and err <= b, z

    @pytest.mark.parametrize("fam", ORACLE_FAMILIES, ids=repr)
    def test_kernel_vs_mpmath(self, fam):
        ts = np.geomspace(1e-12, 50.0, 200)
        vals = kernel_value(fam, ts)
        with mpmath.workdps(60):
            terms = _mp_terms(fam)
            for t, v in zip(ts, vals):
                ref = mpmath.fsum(c * mpmath.exp(x * mpmath.mpf(t))
                                  for c, x, _ in terms)
                assert abs(v - ref) <= 1e-14 * abs(ref), t

    def test_subnormal_parameter_converges(self):
        # K is proportional to b and the value (5.3e-312) is subnormal: the
        # smallest normal double lets the rules agree at a subnormal's bits
        fam = TwoParam(1.0, 2.2250738585e-313)
        q = log_deriv_quadrature(fam, 1.0, 4).signed_value
        with mpmath.workdps(400):
            ref = mpmath.fsum(c * mpmath.psi(3, 1 - d)
                              for c, _, d in _mp_terms(fam))
        assert abs(q - ref) <= 1e-6 * abs(ref)

    @pytest.mark.parametrize("route", [log_deriv_quadrature,
                                       log_deriv_polygamma])
    @pytest.mark.parametrize("n", [7, 12])
    def test_subnormal_value_estimate_covers(self, route, n):
        # the values (5.4e-312, 3.8e-317) are subnormal, so their relative
        # roundings underflow; the estimate is floored at a few spacings
        fam = TwoParam(1e-300, 20.0)
        res = route(fam, 119.0, n)
        with mpmath.workdps(700):
            ref = (-1) ** n * mpmath.fsum(
                c * mpmath.psi(n - 1, 119 - d) for c, _, d in _mp_terms(fam))
        assert 0.0 < abs(res.signed_value) < 2.2250738585072014e-308
        assert abs(res.signed_value - ref) <= res.err_estimate <= 1e-321

    @pytest.mark.parametrize("fam,offset,n", [
        (TwoParam(1.0, 2.2250738585e-313), 0.05078125, 7),
        (TwoParam(0.5, 5e-324), 0.05, 10),
        (MultiParam((1.192092896e-07, 2.2250738585072014e-308)), 0.05, 7),
        (Symmetric(1e-160), 0.05, 12),
    ], ids=repr)
    def test_tiny_kernel_keeps_its_digits(self, fam, offset, n):
        # K is subnormal where the integrand's mass lies, but the value is
        # a normal double, so it must reach the relative tolerance
        z = domain_lower_bound(fam) + offset
        q = log_deriv_quadrature(fam, z, n).signed_value
        with mpmath.workdps(800):
            ref = (-1) ** n * mpmath.fsum(
                c * mpmath.psi(n - 1, mpmath.mpf(z) - d)
                for c, _, d in _mp_terms(fam))
        assert abs(ref) > 2.2250738585072014e-308
        assert abs(q - ref) <= 1e-10 * abs(ref)

    def test_fully_cancelling_family_gives_zeros(self):
        fam = Majorized((1.0,), (1.0,))
        t = np.array([0.0, 1e-3, 1.0, 50.0])
        assert fam.terms[2] == ()
        assert np.array_equal(fam.abel(t), np.zeros(4))
        assert np.array_equal(kernel_value(fam, t), np.zeros(4))


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
            log_deriv_polygamma(fam, 0.1, 1)
        with pytest.raises(DomainError):
            log_f(fam, 0.1)

    def test_domain_error_names_the_offending_z(self):
        # the first bad z with all its digits, whatever the shape of z
        fam = TwoParam(0.1556076294631497, 1.2105164495355636)
        edge = fam.lower_bound()
        for call, bad in (
                (lambda: log_f(fam, np.array([[1.0, edge, 0.1]])), edge),
                (lambda: log_deriv_polygamma(fam, [2.0, math.inf, math.nan],
                                             1), math.inf)):
            with pytest.raises(DomainError) as exc:
                call()
            assert str(exc.value).endswith(f", got {bad!r}")
            assert "array(" not in str(exc.value)

    def test_overflowing_exact_moment_is_a_domain_error(self):
        # the kernel's Taylor moments of gaps 5e305, and the Taylor terms of
        # a gap of one ulp of 1e300, are exact integers past double precision
        wide = Majorized((1e306, 0.0), (5e305, 5e305))
        ulp = Majorized((1e300,), (math.nextafter(1e300, 0.0),))
        # the top exponent 2e308 of MultiParam((1e308, 1e308)) as well
        top = MultiParam((1e308, 1e308))
        for call in (lambda: kernel_value(wide, 1.0),
                     lambda: log_f(ulp, 1e300 + 1e290),
                     lambda: kernel_value(top, 1.0)):
            with pytest.raises(DomainError, match="^an exact moment of the "
                                                  "table overflows"):
                call()

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

    # the float sums of the row offsets miss the exact edge by an ulp: above
    # it for the last family, on it for the first two
    @pytest.mark.parametrize("fam", [
        TwoParam(0.1556076294631497, 1.2105164495355636),
        MultiParam((0.9881262665225382, 0.9663079180335714)),
        MultiParam((0.3703977912619103, 0.6654455830074921,
                    0.3049868589359232, 0.09175533375487191))], ids=repr)
    def test_bound_is_the_exact_edge_rounded_down(self, fam):
        bound = domain_lower_bound(fam)
        z = math.nextafter(bound, math.inf)
        edge = max(-sum(map(Fraction, offsets)) for _, offsets in fam.rows)
        assert Fraction(bound) <= edge < Fraction(z)
        assert math.isfinite(log_f(fam, z))
        report = certify_log_cm(fam, CertConfig(z_grid=(z,)))
        assert report.verdict == "certified"
