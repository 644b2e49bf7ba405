"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and then asserts, so a red test always
names the criterion it belongs to.
"""

import math
import subprocess
import sys

import numpy as np

import cmgamma.inequalities as iq
from cmgamma.cm_certify import (CertConfig, certify_cm_finite_diff,
                                certify_log_cm, check_weak_submajorization,
                                kernel_nonneg_scan)
from cmgamma.kernels import (Majorized, MultiParam, Symmetric, TwoParam,
                             log_deriv_polygamma, log_deriv_quadrature)
from cmgamma.quad import integrate_half_line
from cmgamma.specfun import digamma, log_gamma

from _samplers import draw_params

FIXTURES = [
    (TwoParam(0.5, 0.7), 0.25, 10.2),
    (MultiParam((1.0, 2.0, 3.0)), 5.3, 20.0),
    (Majorized((3.0, 1.0), (2.0, 2.0)), 3.3, 18.0),
    (Symmetric(0.5), 0.8, 15.0),
]


def _report(num, ok, desc):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_01_unit_shift_first_derivative():
    fam = TwoParam(1.0, 1.0)
    q = log_deriv_quadrature(fam, 2.0, 1)
    p = log_deriv_polygamma(fam, 2.0, 1)
    ok = (abs(q.signed_value - 0.5) <= 1e-9
          and abs(q.signed_value - p.signed_value) <= 1e-10)
    _report(1, ok, "first log-derivative of the {1,1} ratio at z=2 is 0.5 "
                   "within 1e-9 and both routes agree to 1e-10")


def test_02_digamma_integral_representation():
    # Binet's form (DLMF 5.9.13) at w = z + k >= 2, then k steps down by
    # psi(x + 1) = psi(x) + 1/x
    def integrand(t, w):
        return (1.0 / np.expm1(t) - 1.0 / t + 0.5) * np.exp(-w * t)

    worst = 0.0
    for z in (0.5, 1.0, 2.0, 7.3):
        k = max(0, math.ceil(2.0 - z))
        w = z + k
        res = integrate_half_line(lambda t: integrand(t, w), decay_rate=w)
        psi = (math.log(w) - 0.5 / w - res.value
               - math.fsum(1.0 / (z + i) for i in range(k)))
        worst = max(worst, abs(psi - digamma(z)))
    ok = worst <= 1e-9
    _report(2, ok, "digamma(z) from Binet's half-line integral within 1e-9 "
                   f"at four points (worst abs error {worst:.3e})")


def test_03_asymptotic_ratio_normalization():
    a, b, z = 0.3, 0.7, 1.0e6
    log_ratio = (b - a) * math.log(z) + log_gamma(z + a) - log_gamma(z + b)
    dev = abs(math.expm1(log_ratio))
    ok = dev <= 1e-5
    _report(3, ok, "z^(b-a) G(z+a)/G(z+b) is 1 within 1e-5 at z=1e6 "
                   f"(deviation {dev:.3e})")


def test_04_fixture_families_certified():
    ok = True
    detail = []
    for fam, lo, hi in FIXTURES:
        cfg = CertConfig(z_grid=tuple(np.linspace(lo, hi, 30)), n_max=8)
        log_report = certify_log_cm(fam, cfg)
        routes_agree = all(r.agrees for r in log_report.rows)
        fd_verdicts = {
            certify_cm_finite_diff(
                fam, CertConfig(z_grid=cfg.z_grid, n_max=8,
                                fd_step=h)).verdict
            for h in (1e-3, 1e-2, 1e-1)}
        fam_ok = (log_report.verdict == "certified" and routes_agree
                  and fd_verdicts == {"certified"})
        ok = ok and fam_ok
        detail.append(f"{fam.kind}:"
                      f"{'ok' if fam_ok else 'FAIL'}")
    _report(4, ok, "four fixture families certified at n_max=8 on "
                   "30-point grids, dual routes agreeing, difference "
                   "verdicts stable over three step sizes "
                   f"({', '.join(detail)})")


def test_05_ordering_counterexample():
    a, b = (5.0, 5.0), (0.0, 9.0)
    # partial sums taken in increasing order, the uncorrected rule
    asc = bool(np.all(np.cumsum(np.sort(b)) <= np.cumsum(np.sort(a))
                      + 1e-12))
    rejected = not check_weak_submajorization(a, b)
    kmin, tmin = kernel_nonneg_scan(Majorized(a, b))
    ok = asc and rejected and kmin < 0
    _report(5, ok, "pair a=(5,5), b=(0,9) passes increasing-order partial "
                   "sums, fails the decreasing-order check, and its "
                   f"kernel dips to {kmin:.3e} at t={tmin:.3g}")


def test_06_all_claims_hold_on_random_points():
    rng = np.random.default_rng(20260818)
    worst_overall = math.inf
    worst_id = None
    for case in iq.registry_list():
        if case.kind != "claim":
            continue
        worst = math.inf
        for _ in range(20):
            params = draw_params(rng, case)
            pts = case.sample_points(rng, params, 500)
            worst = min(worst, float(np.min(case.margin_values(params,
                                                               pts))))
        if worst < worst_overall:
            worst_overall, worst_id = worst, case.id
        assert worst >= -1e-9, (case.id, worst)

    boundary_dev = max(
        abs(iq.margin("H_OMEGA", (0.3, 0.6), (t, t)))
        for t in (1.0, 5.0, 123.4))
    boundary_dev = max(boundary_dev, *(
        abs(iq.margin("INQ3_UB", (a,), (0.0,))) for a in (0.3, 0.7)))
    boundary_dev = max(boundary_dev, *(
        abs(iq.margin("INQ1", (0.0, 0.0), (z,))) for z in (0.5, 7.3)))

    ok = worst_overall >= -1e-9 and boundary_dev <= 1e-12
    _report(6, ok, "every claim holds on 10,000 seeded in-domain points "
                   f"(worst margin {worst_overall:.3e} at {worst_id}); "
                   f"equality boundaries exact to {boundary_dev:.1e}")


def test_07_product_ratio_boundary_monotonicity():
    a, b, big = 0.3, 0.6, 40.0
    xs = np.linspace(a + b, big, 50)
    top = [iq.margin("H_OMEGA", (a, b), (float(x), big)) for x in xs]
    left = [iq.margin("H_OMEGA", (a, b), (a + b, float(y))) for y in xs]
    ok = (bool(np.all(np.diff(top) <= 1e-12))
          and bool(np.all(np.diff(left) >= -1e-12)))
    _report(7, ok, "two-point product margin decreases along the top edge "
                   "and increases along the left edge (50-point grids)")


def test_08_tightness_rankings():
    rng = np.random.default_rng(8)
    total = rng.uniform(0.05, 1.0, size=200)
    frac = rng.uniform(0.05, 0.95, size=200)
    a, b = total * frac, total * (1.0 - frac)
    strict = bool(np.all((a + b) / (a * b) < 1.0 / (a * b)))

    tightest = []
    for aa in (0.25, 1.0, 2.0):
        base = max(2.0 * aa, 2.0)  # shifted baseline also needs z > 2
        for z in (base + 0.5, base + 4.0, 30.0):
            res = iq.tightness_compare(
                ("INQ58", "INQ58_BASE_RATIO", "INQ58_BASE_SHIFT"),
                (aa,), (z,))
            tightest.append(res.ids[res.order[0, 0]])
    counts = {i: tightest.count(i) for i in sorted(set(tightest))}
    # ranking is reported, not asserted: no bound dominates by fiat
    _report(8, strict, "(a+b)/(ab) < 1/(ab) on 200 sampled pairs with "
                       f"a+b <= 1; square-ratio tightest-bound counts "
                       f"over 9 points: {counts}")


def test_09_cli_byte_determinism(tmp_path):
    args = [sys.executable, "-m", "cmgamma", "audit", "--id", "INQ1",
            "--params", "a=1,b=1", "--grid", "1.001:50:100", "--seed",
            "42", "--format", "csv"]
    f1, f2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    r1 = subprocess.run(args + ["--out", str(f1)], capture_output=True)
    r2 = subprocess.run(args + ["--out", str(f2)], capture_output=True)
    ok = (r1.returncode == 0 and r2.returncode == 0
          and f1.read_bytes() == f2.read_bytes())
    _report(9, ok, "two audit runs with one seed exit 0 and emit "
                   "byte-identical CSV")
