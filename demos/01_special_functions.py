"""Tour of the real-argument gamma-family special functions.

Everything downstream (kernels, certification, inequality audits) is built
on these five functions, so this script shows the values they produce, the
identities that pin them down, and how they behave on arrays.

Run:  python3 demos/01_special_functions.py
"""

import math

import numpy as np

from cmgamma import (digamma, log_beta, log_gamma, polygamma,
                     reflection_product)


def section(title):
    print(f"\n=== {title} ===")


section("log_gamma: ln Gamma(x) for x > 0")
for x in (0.5, 1.0, 2.0, 5.0, 10.3):
    print(f"  ln G({x:>4}) = {log_gamma(x): .15f}")
print("  ln G(0.5) should be ln sqrt(pi) =", f"{0.5 * math.log(math.pi):.15f}")

section("recurrence ln G(x+1) = ln G(x) + ln x")
x = 7.25
lhs = log_gamma(x + 1.0)
rhs = log_gamma(x) + math.log(x)
print(f"  x = {x}: |lhs - rhs| = {abs(lhs - rhs):.2e}")

section("digamma and the Euler constant")
print(f"  psi(1)      = {digamma(1.0): .15f}")
print(f"  -gamma      = {-np.euler_gamma: .15f}")
print(f"  psi(0.5)    = {digamma(0.5): .15f}  (= -gamma - 2 ln 2)")

section("polygamma: psi^(n), here psi'(1) = pi^2/6")
print(f"  psi'(1)     = {polygamma(1, 1.0): .15f}")
print(f"  pi^2 / 6    = {math.pi ** 2 / 6: .15f}")
print(f"  psi''(1)    = {polygamma(2, 1.0): .15f}  (= -2 zeta(3))")

section("log_beta via log-gamma, symmetric in its arguments")
print(f"  ln B(2.5, 3.5) = {log_beta(2.5, 3.5): .15f}")
print(f"  ln B(3.5, 2.5) = {log_beta(3.5, 2.5): .15f}")

section("reflection product G(1-x) G(1+x) = pi x / sin(pi x)")
for x in (0.25, 0.5, 0.9):
    print(f"  x = {x}: product = {reflection_product(x):.12f}, "
          f"pi x/sin(pi x) = {math.pi * x / math.sin(math.pi * x):.12f}")

section("vectorized evaluation")
grid = np.linspace(0.5, 4.0, 8)
print("  x        :", np.array2string(grid, precision=3))
print("  ln G(x)  :", np.array2string(log_gamma(grid), precision=6))
print("  psi(x)   :", np.array2string(digamma(grid), precision=6))
