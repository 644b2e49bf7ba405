"""Certification: fixtures, majorization precondition, verdict logic."""

import json
import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmgamma.cm_certify as cmc
from cmgamma.cm_certify import (
    CertConfig,
    certify_cm_finite_diff,
    certify_log_cm,
    check_weak_submajorization,
    kernel_nonneg_scan,
    weak_submajorization_failure,
)
from cmgamma.errors import ConvergenceError, DomainError, UsageError
from cmgamma.kernels import (
    LogDerivResult,
    Majorized,
    MultiParam,
    Symmetric,
    TwoParam,
    domain_lower_bound,
    kernel_value,
    log_f,
)
from cmgamma.specfun import log_gamma

from _samplers import _major_pair

FIXTURES = [
    (TwoParam(0.5, 0.7), 0.25, 10.2),
    (MultiParam((1.0, 2.0, 3.0)), 5.3, 20.0),
    (Majorized((3.0, 1.0), (2.0, 2.0)), 3.3, 18.0),
    (Symmetric(0.5), 0.8, 15.0),
]


def _config(lo, hi, **kw):
    kw.setdefault("n_max", 8)
    return CertConfig(z_grid=tuple(np.linspace(lo, hi, 30)), **kw)


class TestSubmajorization:
    def test_counterexample_rejected(self):
        fail = weak_submajorization_failure((5.0, 5.0), (0.0, 9.0))
        assert fail == (1, 9.0, 5.0)
        assert not check_weak_submajorization((5.0, 5.0), (0.0, 9.0))

    def test_good_pair_accepted(self):
        assert weak_submajorization_failure((3.0, 1.0), (2.0, 2.0)) is None
        assert check_weak_submajorization((3.0, 1.0), (2.0, 2.0))

    def test_order_independent(self):
        assert check_weak_submajorization((1.0, 3.0), (2.0, 2.0))
        assert not check_weak_submajorization((5.0, 5.0), (9.0, 0.0))

    def test_equal_vectors(self):
        assert check_weak_submajorization((2.0, 1.0), (1.0, 2.0))

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            weak_submajorization_failure((1.0, 2.0), (1.0,))

    def test_transfer_pairs_always_pass(self):
        rng = np.random.default_rng(20260818)
        for _ in range(1000):
            flat = _major_pair(rng)
            k = len(flat) // 2
            a, b = flat[:k], flat[k:]
            assert check_weak_submajorization(a, b), (a, b)

    def test_transfer_pairs_scan_nonnegative(self):
        rng = np.random.default_rng(77)
        refused = 0
        for _ in range(1000):
            flat = _major_pair(rng)
            k = len(flat) // 2
            fam = Majorized(flat[:k], flat[k:])
            # the float transfers can leave b's total an ulp above a's, and
            # then K < 0 near t = 0+: the exact gate refuses exactly those
            accepted = _gate_accepts(fam)
            assert accepted == _fraction_majorized(flat[:k], flat[k:]), flat
            refused += not accepted
            kmin, argmin = kernel_nonneg_scan(fam, t_points=120)
            # sum_j |c_j expm1(x_j t)|, the magnitude behind the roundoff
            with np.errstate(over="ignore"):
                scale = float(sum(abs(np.expm1(x * argmin))
                                  for x in flat))
            if not math.isfinite(scale):
                scale = abs(kmin)
            assert kmin >= -1e-12 * max(1.0, scale), (flat, kmin, argmin)
        assert 0 < refused < 1000


def _gate_accepts(fam) -> bool:
    try:
        cmc._require_certifiable(fam)
    except UsageError as exc:
        assert "not certifiable" in str(exc)
        return False
    return True


def _fraction_majorized(a, b) -> bool:
    """Weak submajorization of b by a, in exact rational arithmetic."""
    pa = accumulate(sorted(map(Fraction, a), reverse=True))
    pb = accumulate(sorted(map(Fraction, b), reverse=True))
    return all(sb <= sa for sa, sb in zip(pa, pb))


@st.composite
def _majorized_pairs(draw):
    """(a, b) near the gate's edge: b is a free draw, a permutation of a or
    a transfer between two entries of a, then one entry of b is moved by
    one ulp either way, or left alone."""
    entry = st.floats(min_value=0.0, max_value=5.0)
    a = draw(st.lists(entry, min_size=1, max_size=4))
    shape = draw(st.sampled_from(("free", "permuted", "transfer")))
    if shape == "free":
        b = draw(st.lists(entry, min_size=len(a), max_size=len(a)))
    else:
        b = list(draw(st.permutations(a)))
        if shape == "transfer" and len(b) > 1:
            lo, hi = b.index(min(b)), b.index(max(b))
            delta = draw(st.floats(0.0, 0.5)) * (b[hi] - b[lo])
            b[hi], b[lo] = b[hi] - delta, b[lo] + delta
    i = draw(st.integers(0, len(b) - 1))
    toward = draw(st.sampled_from((None, -math.inf, math.inf)))
    if toward is not None:
        b[i] = max(0.0, math.nextafter(b[i], toward))
    return a, b


class TestExactGate:
    def test_motivating_pair_refused(self):
        # K(t) = e^t - e^((1 + 1e-13) t) < 0 for every t > 0
        fam = Majorized((1.0, 2.0), (1.0000000000001, 2.0))
        with pytest.raises(UsageError, match="not certifiable"):
            certify_log_cm(fam, _config(3.0, 1e3))
        assert kernel_nonneg_scan(fam)[0] < 0.0

    def test_one_ulp_either_way(self):
        a = (1.0, 2.0)
        assert _gate_accepts(Majorized(a, (math.nextafter(1.0, 0.0), 2.0)))
        assert not _gate_accepts(
            Majorized(a, (math.nextafter(1.0, 2.0), 2.0)))
        assert _gate_accepts(Majorized(a, (2.0, 1.0)))

    @given(_majorized_pairs())
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_the_fraction_majorized(self, pair):
        a, b = pair
        assert _gate_accepts(Majorized(a, b)) == _fraction_majorized(a, b)


class TestKernelScan:
    def test_negative_for_counterexample(self):
        fam = Majorized((5.0, 5.0), (0.0, 9.0))
        kmin, argmin = kernel_nonneg_scan(fam)
        assert kmin < 0.0
        assert argmin > 0.0

    def test_nonnegative_for_fixtures(self):
        for fam, _, _ in FIXTURES:
            kmin, _ = kernel_nonneg_scan(fam)
            assert kmin >= -1e-12

    def test_point_count_validation(self):
        with pytest.raises(UsageError):
            kernel_nonneg_scan(TwoParam(0.5, 0.7), t_points=1)

    def test_grid_built_once_per_size(self):
        # the same read-only geomspace grid serves every scan of a size
        fam = Majorized((5.0, 5.0), (0.0, 9.0))
        for t_points in (200, 57):
            ts = np.geomspace(1e-6, 50.0, t_points)
            vals = kernel_value(fam, ts)
            k = int(np.nanargmin(vals))
            assert kernel_nonneg_scan(fam, t_points) == (vals[k], ts[k])
            grid = cmc._scan_grid(t_points)
            assert grid is cmc._scan_grid(t_points)
            assert grid.tobytes() == ts.tobytes()
            assert not grid.flags.writeable


class TestLogCmRoute:
    @pytest.mark.parametrize("fam,lo,hi", FIXTURES,
                             ids=lambda v: getattr(v, "kind", ""))
    def test_fixture_certified(self, fam, lo, hi):
        report = certify_log_cm(fam, _config(lo, hi))
        assert report.verdict == "certified"
        assert len(report.rows) == 30 * 8
        assert all(r.agrees for r in report.rows)
        assert report.worst[2] >= -1e-9

    @pytest.mark.parametrize("fam", [TwoParam(1.0, 1e-13),
                                     MultiParam((1.0, 1e-12))], ids=repr)
    def test_near_cancelling_family_certified(self, fam):
        # the tiny entry is a Taylor sum on its exact gap, so both routes
        # agree on all 2,400 rows from the edge on
        cfg = CertConfig(z_grid=tuple(domain_lower_bound(fam)
                                      + np.geomspace(0.05, 30, 200)),
                         n_max=12)
        report = certify_log_cm(fam, cfg)
        assert report.verdict == "certified"
        assert all(r.agrees for r in report.rows)

    def test_dual_path_allowance(self):
        fam, lo, hi = FIXTURES[0]
        report = certify_log_cm(fam, _config(lo, hi))
        for r in report.rows:
            assert abs(r.quadrature - r.polygamma) <= max(
                1e-8 * abs(r.polygamma), 1e-9)

    def test_trivial_family_is_exactly_zero(self):
        report = certify_log_cm(TwoParam(0.0, 0.0), _config(1.0, 5.0))
        assert report.verdict == "certified"
        assert report.worst[2] == 0.0
        assert all(r.quadrature == 0.0 and r.polygamma == 0.0
                   for r in report.rows)

    def test_counterexample_refused_with_sums(self):
        fam = Majorized((5.0, 5.0), (0.0, 9.0))
        with pytest.raises(UsageError, match=r"top-1 sum of b is 9\.0"):
            certify_log_cm(fam, _config(10.0, 20.0))

    def test_report_is_json_ready(self):
        fam, lo, hi = FIXTURES[3]
        report = certify_log_cm(fam, _config(lo, hi, n_max=2))
        text = json.dumps(report.to_dict())
        back = json.loads(text)
        assert back["verdict"] == "certified"
        assert back["method"] == "log-cm"
        assert back["kernel_scan"]["min"] >= 0.0

    def test_inconclusive_when_quadrature_fails(self, monkeypatch):
        def broken(fam, z, n):
            raise ConvergenceError("no convergence", value=math.nan,
                                   err_estimate=math.inf, evaluations=1)
        monkeypatch.setattr(cmc, "log_deriv_quadrature", broken)
        report = certify_log_cm(TwoParam(0.5, 0.7), _config(1.0, 5.0,
                                                            n_max=2))
        assert report.verdict == "inconclusive"

    def test_violated_when_both_routes_agree_negative(self, monkeypatch):
        def neg(path):
            def fake(fam, z, n, *a, **kw):
                shape = np.shape(z) + np.shape(n)
                return LogDerivResult(order=n, z=z,
                                      signed_value=np.full(shape, -1.0),
                                      path=path,
                                      err_estimate=np.full(shape, 0.0))
            return fake
        monkeypatch.setattr(cmc, "log_deriv_quadrature", neg("quadrature"))
        monkeypatch.setattr(cmc, "log_deriv_polygamma", neg("polygamma"))
        report = certify_log_cm(TwoParam(0.5, 0.7), _config(1.0, 5.0,
                                                            n_max=2))
        assert report.verdict == "violated"
        assert report.worst[2] == -1.0


class TestFiniteDiffRoute:
    @pytest.mark.parametrize("fam,lo,hi", FIXTURES,
                             ids=lambda v: getattr(v, "kind", ""))
    def test_fixture_certified(self, fam, lo, hi):
        report = certify_cm_finite_diff(fam, _config(lo, hi))
        assert report.verdict == "certified"
        assert report.fd_scale > 0.0
        assert report.fd_margins.shape == (30, 8)

    @pytest.mark.parametrize("fam,lo,hi", FIXTURES,
                             ids=lambda v: getattr(v, "kind", ""))
    def test_margins_match_the_per_order_sums(self, fam, lo, hi):
        # the reference: each alternating binomial sum, correctly rounded;
        # the route's one matrix product may round in any order, so allow
        # 2 (n + 1) u of the summed magnitudes
        config = _config(lo, hi, n_max=12)
        report = certify_cm_finite_diff(fam, config)
        h = config.fd_step
        for i, z in enumerate(config.z_grid):
            fvals = np.exp(log_f(fam, z + np.arange(13) * h))
            for n in range(1, 13):
                terms = [(-1.0) ** j * math.comb(n, j) * fvals[j]
                         for j in range(n + 1)]
                ref, mag = math.fsum(terms), math.fsum(map(abs, terms))
                assert abs(report.fd_margins[i, n - 1] - ref) \
                    <= 2 * (n + 1) * 2.0 ** -53 * mag, (z, n)

    @pytest.mark.parametrize("h", [1e-3, 1e-2, 1e-1])
    def test_step_sizes_concur(self, h):
        fam, lo, hi = FIXTURES[0]
        report = certify_cm_finite_diff(fam, _config(lo, hi, fd_step=h))
        assert report.verdict == "certified"

    def test_trivial_family_margins_zero(self):
        report = certify_cm_finite_diff(TwoParam(0.0, 0.0),
                                        _config(1.0, 5.0))
        assert report.verdict == "certified"
        assert np.all(report.fd_margins == 0.0)

    def test_counterexample_refused(self):
        fam = Majorized((5.0, 5.0), (0.0, 9.0))
        with pytest.raises(UsageError, match="weak submajorization"):
            certify_cm_finite_diff(fam, _config(10.0, 20.0))

    def test_overflowing_stencil_rejected(self):
        fam = Majorized((1200.0, 0.0), (600.0, 600.0))
        cfg = CertConfig(z_grid=(1201.0, 1205.0), n_max=4)
        with pytest.raises(DomainError, match="overflows"):
            certify_cm_finite_diff(fam, cfg)

    def test_report_is_json_ready(self):
        fam, lo, hi = FIXTURES[1]
        report = certify_cm_finite_diff(fam, _config(lo, hi, n_max=3))
        back = json.loads(json.dumps(report.to_dict()))
        assert back["method"] == "finite-diff"
        assert back["fd_step"] == 1e-2
        # the rows as columns, z-major
        assert back["rows"]["z"][:4] == [report.z_grid[0]] * 3 \
            + [report.z_grid[1]]
        assert back["rows"]["n"][:4] == [1, 2, 3, 1]
        assert back["rows"]["margin"] == report.fd_margins.ravel().tolist()

    def test_roundoff_at_large_z_is_not_a_violation(self):
        # below the series' 16 b each f value comes from moments and Abel
        # pairs on the exact gaps, and the margins are differences of
        # f - 1: their noise is below 1e-14 of f, where the per-row
        # lnGamma sum left about 1e-8
        fam = TwoParam(0.001, 1e5)
        cfg = CertConfig(z_grid=tuple(np.geomspace(2e5, 1.5e6, 20)))
        report = certify_cm_finite_diff(fam, cfg)
        assert report.verdict == "certified"
        assert report.worst[2] > -1e-14 * report.fd_scale

    @pytest.mark.parametrize("factor, verdict", [(2.0, "violated"),
                                                 (0.5, "certified")])
    def test_violation_beyond_the_budget(self, monkeypatch, factor, verdict):
        # raise f at the second stencil point of the first z so that its
        # first difference falls to -factor times its budget
        fam, lo, hi = FIXTURES[0]
        cfg = _config(lo, hi, n_max=1)
        true_log_f = cmc.log_f
        stencil = np.asarray(cfg.z_grid)[:, None] + np.arange(2) * cfg.fd_step
        g = np.expm1(true_log_f(fam, stencil))
        delta = cmc._fd_delta(fam, stencil[:1], g[:1])[0] \
            + 2 * cmc._U * np.abs(g[0]).max()
        budget = cfg.tol * (1.0 + g.max()) + 2.0 * delta
        rise = g[0, 0] - g[0, 1] + factor * budget
        monkeypatch.setattr(cmc, "log_f", lambda fam, z: true_log_f(fam, z)
                            + np.where(z == stencil[0, 1],
                                       math.log1p(rise / (1.0 + g[0, 1])),
                                       0.0))
        report = certify_cm_finite_diff(fam, cfg)
        assert report.verdict == verdict
        assert report.worst[:2] == (lo, 1)
        assert report.worst[2] == pytest.approx(-factor * budget, rel=1e-3)


class TestFiniteDiffErrorBound:
    """The FD budget's delta bounds the true error of every f - 1 value the
    route computes, up to z = 1e6."""

    @pytest.mark.parametrize("fam,lo,hi", FIXTURES,
                             ids=lambda v: getattr(v, "kind", ""))
    def test_log_f_error_within_delta(self, fam, lo, hi):
        mpmath = pytest.importorskip("mpmath")
        zs = np.concatenate([np.linspace(lo, hi, 40),
                             np.geomspace(hi, 1e6, 60)])
        g = np.expm1(log_f(fam, zs))
        bound = cmc._fd_delta(fam, zs[:, None], g[:, None])
        with mpmath.workdps(40):
            for z, v, d in zip(zs.tolist(), g.tolist(), bound.tolist()):
                true = mpmath.fsum(
                    coef * mpmath.loggamma(mpmath.fsum([z, *offsets]))
                    for coef, offsets in fam.rows)
                err = abs(mpmath.mpf(v) - mpmath.expm1(true))
                assert err <= d, (z, float(err), d)

    def test_delta_below_1e_14_at_large_z(self):
        # at z = 1e6 f - 1 ~ 3.5e-13 comes from the large-z series, whose
        # lnGamma terms cancel exactly; the per-row Stirling model that
        # delta once followed gave about 1e-7 here
        fam = TwoParam(0.5, 0.7)
        z = np.array([[1e6]])
        delta = cmc._fd_delta(fam, z, np.expm1(log_f(fam, z)))
        assert 0.0 < delta[0] < 1e-14


class TestConfigValidation:
    def test_grid_must_be_inside_domain(self):
        fam = TwoParam(0.5, 0.7)  # bound 0.2
        cfg = CertConfig(z_grid=(0.1, 1.0))
        with pytest.raises(UsageError):
            cfg.validate(fam)

    def test_grid_must_be_sorted(self):
        cfg = CertConfig(z_grid=(2.0, 1.0))
        with pytest.raises(UsageError):
            cfg.validate(TwoParam(0.5, 0.7))

    def test_grid_must_be_nonempty(self):
        with pytest.raises(UsageError):
            CertConfig(z_grid=()).validate(Symmetric(0.5))

    def test_n_max_positive(self):
        cfg = CertConfig(z_grid=(1.0, 2.0), n_max=0)
        with pytest.raises(UsageError):
            cfg.validate(TwoParam(0.5, 0.7))

    def test_bound_is_exposed(self):
        assert domain_lower_bound(TwoParam(0.5, 0.7)) == pytest.approx(0.2)
