"""Time cmgamma layer by layer on fixed inputs; print one JSON line.

Run from anywhere, for this tree or another checkout's sources::

    python3 tools/layer_bench.py
    python3 tools/layer_bench.py --tree PARENT

``specfun`` reports values per second, each the median over 5 rounds:

``log_gamma``, ``digamma``   4,096 points log-uniform in [1e-3, 1e6]
                             (seed 21); a value is one point
``log_gamma_8``, ``_52``     the first 8 or 52 of those points, where a
(and ``digamma_*``)          call's fixed cost shows
``polygamma``                orders 1..23 on the first 64 of those points;
                             a value is one (order, point)
``polygamma_2_23x5``         orders 2..23 on the first 5 points, the size
                             of a certify call

``quad`` times ``log_deriv_quadrature`` on TwoParam(0.001, 1e5) at
lower_bound + geomspace(1e-4, 1e-1, 20) and orders 1..12, whose recurrence
shift spans up to 2e5 steps per z (median of 3 calls, in ms).  Beside each
timing, ``max_rel_err`` is the largest relative error against mpmath at 40
digits: on up to 64 of each row's points for ``specfun``, on all 240
values for ``quad``.  ``quad`` also reports ``rule_defect``, the moment
defect that its rule adds to every error estimate (``quad._gl_rule()``),
and ``far_field_max_rel_err``, the largest relative error of
``log_deriv_quadrature`` on TwoParam(0.5, 0.7), MultiParam((0.2, 0.5,
0.9)) and Symmetric(1e-6), each at lower_bound + (1, 10, 1e3, 1e6, 1e12)
and orders 1..12, against mpmath at 60 digits.

``polygamma_route`` times ``log_deriv_polygamma`` on TwoParam(0.5, 0.7),
MultiParam((0.2, 0.5, 0.9)) and Symmetric(1e-6), each at lower_bound +
geomspace(1e-3, 1e3, 6) and orders 1..12 in one call (microseconds per
call, median of 5 rounds), with the largest relative error of its 216
values against mpmath.  ``log_f_chunk`` times ``log_f`` on INQ58's
gamma-square table at a = 1 over 4,096 points lower_bound + 10^U(-3, 2)
(seed 22; points per second, median of 5 rounds), with the largest
relative error of 64 of them.

``inequalities`` times ``tightness_sweep`` of INQ58, INQ58_BASE_RATIO and
INQ58_BASE_SHIFT at a = 1 on geomspace(2.5, 1e4, 2000) (points per
second, median of 5 rounds), with the largest relative error of 64 of its
LHS values against mpmath.  ``cli`` times ``_parse_args`` over the argvs
of the compare workload at seed 1 (microseconds per command line, median
of 5 rounds; a negative control's usage error counts as parsed).
``serialize`` times ``cli.main``, output discarded, in microseconds per
command line (median of 5 rounds): ``certify`` on TwoParam(0.5, 0.7) at
8 z and n_max 6, its two routes patched to return reports made once, so
that parsing and the 48-row JSON report are timed; ``bounds`` for
``bounds wallis --params z=3 --format json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time

import mpmath
import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seconds(call, rounds):
    """Median seconds per call over ``rounds`` rounds of >= 0.05 s each."""
    loops, t = 1, 0.0
    while t < 0.05:
        start = time.perf_counter()
        for _ in range(loops):
            call()
        t, loops = time.perf_counter() - start, loops * 2
    loops //= 2
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(loops):
            call()
        times.append((time.perf_counter() - start) / loops)
    return statistics.median(times)


def _rel(got, want):
    return max(float(abs(g - w) / abs(w)) for g, w in zip(got, want))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", default=ROOT,
                        help="checkout whose src/ is imported (default: "
                             "this one)")
    tree = parser.parse_args(argv).tree
    sys.path.insert(0, os.path.join(os.path.abspath(tree), "src"))
    sys.path.insert(1, os.path.join(ROOT, "perfbench"))
    import workloads
    from cmgamma import cli, cm_certify, inequalities, kernels, quad, specfun
    from cmgamma.errors import UsageError

    mpmath.mp.dps = 40
    x = 10.0 ** np.random.default_rng(21).uniform(-3.0, 6.0, 4096)
    orders, few = np.arange(1, 24), x[:64]
    refs = {"log_gamma": [mpmath.loggamma(v) for v in few],
            "digamma": [mpmath.psi(0, v) for v in few]}
    out = {"tree": os.path.abspath(tree), "specfun": {}}
    for name in ("log_gamma", "digamma"):
        fn = getattr(specfun, name)
        for key, pts in ((name, x), (f"{name}_8", x[:8]),
                         (f"{name}_52", x[:52])):
            out["specfun"][key] = {
                "points_per_s": pts.size / _seconds(lambda: fn(pts), 5),
                "max_rel_err": _rel(fn(pts[:64]), refs[name])}
    for key, ns, pts in (("polygamma", orders, few),
                         ("polygamma_2_23x5", orders[1:], x[:5])):
        got = specfun.polygamma(ns, pts)
        out["specfun"][key] = {
            "points_per_s": got.size / _seconds(
                lambda: specfun.polygamma(ns, pts), 5),
            "max_rel_err": max(
                _rel(row, [mpmath.psi(int(n), v) for v in pts])
                for n, row in zip(ns, got))}

    def exact(fam, zs, n):
        """(-1)^n S_n at each z against the exact terms, n = 0 for ln f."""
        den, r, terms = fam.terms
        return [(-1) ** n * mpmath.fsum(
            c * (mpmath.loggamma(w) if n == 0 else mpmath.psi(n - 1, w))
            for x, c in terms
            for w in [mpmath.mpf(z) - mpmath.mpf(x + r) / den]) for z in zs]

    fam = kernels.TwoParam(0.001, 1e5)
    zs = fam.lower_bound() + np.geomspace(1e-4, 1e-1, 20)
    ns = list(range(1, 13))
    q = kernels.log_deriv_quadrature(fam, zs, ns).signed_value
    want = [v for row in zip(*(exact(fam, zs, n) for n in ns)) for v in row]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernels.log_deriv_quadrature(fam, zs, ns)
        times.append(time.perf_counter() - start)
    fams = (kernels.TwoParam(0.5, 0.7), kernels.MultiParam((0.2, 0.5, 0.9)),
            kernels.Symmetric(1e-6))
    far = []
    for fam in fams:
        zs = fam.lower_bound() + np.array([1.0, 10.0, 1e3, 1e6, 1e12])
        got = kernels.log_deriv_quadrature(fam, zs, ns).signed_value
        with mpmath.workdps(60):  # 30 digits cancel at 1e12
            far += [_rel(got[:, j], exact(fam, zs, n))
                    for j, n in enumerate(ns)]
    out["quad"] = {"wide_spread_ms": 1e3 * statistics.median(times),
                   "max_rel_err": _rel(q.ravel(), want),
                   "rule_defect": quad._gl_rule()[2],
                   "far_field_max_rel_err": max(far)}

    calls, errs = {}, []
    for fam in fams:
        zs = fam.lower_bound() + np.geomspace(1e-3, 1e3, 6)
        got = kernels.log_deriv_polygamma(fam, zs, ns).signed_value
        errs += [_rel(got[:, j], exact(fam, zs, n)) for j, n in enumerate(ns)]
        calls[repr(fam)] = 1e6 * _seconds(
            lambda: kernels.log_deriv_polygamma(fam, zs, ns), 5)
    out["polygamma_route"] = {"us_per_call": calls, "max_rel_err": max(errs)}

    square = kernels.RatioFamily("rows", (), ((1.0, ()), (1.0, (-2.0,)),
                                              (-2.0, (-1.0,))))
    zs = square.lower_bound() + 10.0 ** np.random.default_rng(22).uniform(
        -3.0, 2.0, 4096)
    got = kernels.log_f(square, zs)
    out["log_f_chunk"] = {
        "points_per_s": zs.size / _seconds(lambda: kernels.log_f(square, zs),
                                           5),
        "max_rel_err": _rel(got[:64], exact(square, zs[:64], 0))}

    ids = ("INQ58", "INQ58_BASE_RATIO", "INQ58_BASE_SHIFT")
    grid = np.geomspace(2.5, 1e4, 2000)
    res = inequalities.tightness_sweep(ids, (1.0,), grid)
    pick = np.linspace(0, len(res) - 1, 64).astype(int)
    want = exact(square, res.points[pick, 0].tolist(), 0)
    out["inequalities"] = {"tightness_sweep": {
        "points_per_s": len(grid) / _seconds(
            lambda: inequalities.tightness_sweep(ids, (1.0,), grid), 5),
        "max_rel_err": _rel(res.lhs_log[pick], want)}}

    argvs = [op["argv"] for op in workloads.generate("compare", 1)]

    def parse_all():
        for argv in argvs:
            try:
                cli._parse_args(argv)
            except UsageError:
                pass
    out["cli"] = {"parse_us": 1e6 * _seconds(parse_all, 5) / len(argvs),
                  "argvs": len(argvs)}

    fam = kernels.TwoParam(0.5, 0.7)
    cfg = cm_certify.CertConfig(z_grid=tuple(np.linspace(1.0, 8.0, 8)),
                                n_max=6)
    reports = (cm_certify.certify_log_cm(fam, cfg),
               cm_certify.certify_cm_finite_diff(fam, cfg))
    cli.certify_log_cm = lambda f, c: reports[0]
    cli.certify_cm_finite_diff = lambda f, c: reports[1]
    serialize = {
        "certify": ["certify", "--family", "two-param", "--params",
                    "a=0.5,b=0.7", "--grid", "1:8:8", "--n-max", "6"],
        "bounds": ["bounds", "wallis", "--params", "z=3", "--format", "json"]}
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), \
            contextlib.redirect_stderr(null):
        out["serialize"] = {
            f"{name}_us": 1e6 * _seconds(lambda: cli.main(argv), 5)
            for name, argv in serialize.items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
