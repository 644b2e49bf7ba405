"""Half-line quadrature and the two log-derivative evaluation routes.

The central objects of this package are ratios of gamma functions.  Their
log-derivatives have two independent evaluations:

* a Laplace-type integral of t^(n-1) e^(-z t) against a family kernel,
  computed by a fixed Gauss-Laguerre rule on the half line, and
* a finite sum of polygamma values at shifted arguments.

Agreement between the two is what certification later leans on, so this
script exercises the quadrature engine on known integrals first, then
shows the routes agreeing on a concrete family.

Run:  python3 demos/02_integral_routes.py
"""

import math

import numpy as np

from cmgamma import (TwoParam, digamma, integrate_half_line,
                     log_deriv_polygamma, log_deriv_quadrature)


def section(title):
    print(f"\n=== {title} ===")


section("Gauss-Laguerre quadrature on [0, inf): known values")
cases = [
    ("int e^-t dt            = 1", lambda t: np.exp(-t), 1.0),
    ("int t^4 e^-t dt        = 24", lambda t: t ** 4 * np.exp(-t), 24.0),
    ("int t e^-t/(1-e^-t) dt = pi^2/6",
     lambda t: t * np.exp(-t) / (-np.expm1(-t)), math.pi ** 2 / 6),
]
for label, fn, want in cases:
    res = integrate_half_line(fn, decay_rate=1.0)
    print(f"  {label}")
    print(f"    value = {res.value:.15f}  (true {want:.15f}, "
          f"err est {res.err_estimate:.1e}, {res.evaluations} evals)")

section("digamma from its integral representation")
print("  Binet: psi(w) = ln w - 1/(2w) - int (1/(e^t-1) - 1/t + 1/2) e^-wt")
print("  at w = z + k >= 2, then psi(z) = psi(w) - sum_(i<k) 1/(z+i)")
for z in (0.5, 1.0, 2.0, 7.3):
    k = max(0, math.ceil(2.0 - z))
    w = z + k
    res = integrate_half_line(
        lambda t: (1.0 / np.expm1(t) - 1.0 / t + 0.5) * np.exp(-w * t),
        decay_rate=w)
    got = (math.log(w) - 0.5 / w - res.value
           - math.fsum(1.0 / (z + i) for i in range(k)))
    print(f"  z = {z:>4}: integral route {got: .12f}, "
          f"digamma {digamma(z): .12f}, diff {abs(got - digamma(z)):.1e}")

section("two routes to (-1)^n (ln f)^(n)(z)")
fam = TwoParam(1.0, 1.0)  # f(z) = z/(z-1); derivatives known in closed form
z = 2.0
print(f"  family: ratio with unit shifts, f(z) = z/(z-1), at z = {z}")
print(f"  {'n':>3} {'quadrature':>22} {'polygamma':>22} {'closed form':>22}")
for n in (1, 2, 3):
    q = log_deriv_quadrature(fam, z, n)
    p = log_deriv_polygamma(fam, z, n)
    exact = math.factorial(n - 1) * ((z - 1.0) ** -n - z ** -n)
    print(f"  {n:>3} {q.signed_value:>22.15f} {p.signed_value:>22.15f} "
          f"{exact:>22.15f}")

section("the same comparison on a generic family")
fam = TwoParam(0.5, 0.7)
print("  ratio family with shifts a=0.5, b=0.7; "
      "positive values = completely monotone so far")
for z in (0.5, 2.0, 8.0):
    q = log_deriv_quadrature(fam, z, 4)
    p = log_deriv_polygamma(fam, z, 4)
    print(f"  z = {z:>4}, n = 4: quad {q.signed_value:.12e} "
          f"(err {q.err_estimate:.1e}), poly {p.signed_value:.12e}, "
          f"rel diff {abs(q.signed_value - p.signed_value) / abs(p.signed_value):.1e}")
