"""Generate the Gauss-Laguerre constants of ``cmgamma.quad``; print them.

Run from anywhere (mpmath is in the ``test`` extra)::

    python3 tools/gl_rule.py

For each point count m, 16 and 32, the nodes s are the roots of
the Laguerre polynomial L_m, found by Newton steps at 60 digits from
``np.polynomial.laguerre.laggauss``'s floats, and the weights are the
rule's own, W = w e^s with w = s / ((m+1)^2 L_(m+1)(s)^2), so that sum W
f(s) approximates the integral of f over (0, inf).  Each value is rounded
to the nearest double once.  The last line is the moment defect of the
last rule as stored: max over k < m of |sum W e^-s s^k / k! - 1|, taken
at 60 digits on the rounded nodes and weights and rounded up.  The output
is the block that ``quad.py`` holds between its two marker comments.
"""

from __future__ import annotations

import textwrap

import mpmath
import numpy as np

# point counts of the rules, and the working precision in digits
POINTS = (16, 32)
_DPS = 60

# the lines that enclose the block in quad.py
BEGIN = "# BEGIN constants written by tools/gl_rule.py"
END = "# END constants written by tools/gl_rule.py"


def _laguerre(m, x):
    """(L_m(x), L_(m-1)(x)) by the three-term recurrence."""
    prev, cur = mpmath.mpf(1), 1 - x
    for k in range(1, m):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return cur, prev


def _round(x, rounding="n"):
    """x rounded to a double, to nearest or (rounding "u") up."""
    return float(mpmath.mpf(x, prec=53, rounding=rounding))


def rule(m):
    """(nodes, weights) of the m-point rule, each a list of correctly
    rounded floats."""
    nodes, weights = [], []
    with mpmath.workdps(_DPS):
        for guess in np.polynomial.laguerre.laggauss(m)[0]:
            s = mpmath.mpf(float(guess))
            for _ in range(100):
                lm, lm1 = _laguerre(m, s)
                step = lm * s / (m * (lm - lm1))  # s L_m' = m (L_m - L_(m-1))
                s -= step
                if abs(step) <= s * mpmath.mpf(10) ** (8 - _DPS):
                    break
            top = _laguerre(m + 1, s)[0]
            nodes.append(_round(s))
            weights.append(_round(s / ((m + 1) * top) ** 2 * mpmath.exp(s)))
    return nodes, weights


def defect(nodes, weights):
    """max over k < m of |sum W e^-s s^k / k! - 1| on the stored doubles,
    at 60 digits, rounded up."""
    with mpmath.workdps(_DPS):
        terms = [mpmath.mpf(w) * mpmath.exp(-mpmath.mpf(s))
                 for s, w in zip(nodes, weights)]
        worst = max(abs(mpmath.fsum(t * mpmath.mpf(s) ** k
                                    for t, s in zip(terms, nodes))
                        / mpmath.factorial(k) - 1)
                    for k in range(len(nodes)))
        return _round(worst, "u")


def source() -> str:
    """The constants block of quad.py, between its marker comments."""
    lines = [BEGIN, "_GL_RULES = ("]
    for m in POINTS:
        nodes, weights = rule(m)
        lines.append(f"    (  # {m} points: nodes, then weights")
        for values in (nodes, weights):
            lines.extend(textwrap.wrap(
                ", ".join(map(repr, values)) + "),", 79,
                initial_indent="        (", subsequent_indent="         "))
        lines.append("    ),")
    lines += [")", f"_GL_DEFECT = {defect(nodes, weights)!r}", END]
    return "\n".join(lines)


if __name__ == "__main__":
    print(source())
