"""Numerically certifying complete monotonicity of gamma-ratio families.

A function f is completely monotone when (-1)^n f^(n) >= 0 for all n.  For
the ratio families here that follows from log-complete monotonicity, which
has a checkable witness: every log-derivative is a half-line integral of a
nonnegative kernel.  The certifier evaluates those derivatives two
independent ways on a (z, n) grid and only certifies where the routes
agree; a finite-difference route on f itself cross-checks the verdict.

The majorized family carries a precondition: the b-entries must be weakly
submajorized by the a-entries with partial sums taken in DECREASING order.
Sorting the wrong way accepts pairs whose kernel goes negative; this
script shows one.

Run:  python3 demos/03_certification.py
"""

import numpy as np

from cmgamma import (CertConfig, Majorized, MultiParam, Symmetric, TwoParam,
                     certify_cm_finite_diff, certify_log_cm,
                     check_weak_submajorization, kernel_nonneg_scan)
from cmgamma.errors import UsageError


def section(title):
    print(f"\n=== {title} ===")


def show(fam, lo, hi):
    cfg = CertConfig(z_grid=tuple(np.linspace(lo, hi, 30)), n_max=8)
    log_rep = certify_log_cm(fam, cfg)
    fd_rep = certify_cm_finite_diff(fam, cfg)
    z, n, worst = log_rep.worst
    print(f"  {fam.kind:<11} log-route {log_rep.verdict:<10} "
          f"(worst {worst:.3e} at z={z:.3g}, n={n}); "
          f"difference route {fd_rep.verdict}")


section("four families, two independent routes each")
show(TwoParam(0.5, 0.7), 0.25, 10.2)
show(MultiParam((1.0, 2.0, 3.0)), 5.3, 20.0)
show(Majorized((3.0, 1.0), (2.0, 2.0)), 3.3, 18.0)
show(Symmetric(0.5), 0.8, 15.0)

section("kernel scans: the integrand really is nonnegative")
for fam in (TwoParam(0.5, 0.7), Majorized((3.0, 1.0), (2.0, 2.0))):
    kmin, tmin = kernel_nonneg_scan(fam)
    print(f"  {fam.kind:<11} min kernel {kmin: .3e} "
          f"at t = {tmin:.3g}")

section("ordering matters in the majorization precondition")
a, b = (5.0, 5.0), (0.0, 9.0)
print(f"  candidate pair: a = {a}, b = {b} (equal totals)")
asc = bool(np.all(np.cumsum(np.sort(b)) <= np.cumsum(np.sort(a))))
print(f"  increasing-order partial sums of b within those of a? {asc}")
print(f"  decreasing-order check (the correct one) accepts?      "
      f"{check_weak_submajorization(a, b)}")
kmin, tmin = kernel_nonneg_scan(Majorized(a, b))
print(f"  and indeed the kernel goes negative: min {kmin:.3e} "
      f"at t = {tmin:.3g}")
try:
    certify_log_cm(Majorized(a, b),
                   CertConfig(z_grid=(10.0, 12.0), n_max=2))
except UsageError as exc:
    print(f"  certifier refuses it up front:\n    {exc}")

section("a trivial family certifies with margin exactly zero")
rep = certify_log_cm(Symmetric(0.0),
                     CertConfig(z_grid=tuple(np.linspace(1, 5, 10))))
print(f"  Symmetric(0) is constant 1: verdict {rep.verdict}, "
      f"worst value {rep.worst[2]:.1f}")
