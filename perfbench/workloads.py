"""Seeded workload generation and the expected-outcome table.

A workload is a *pass*: a fixed list of CLI invocations (ops), each an argv
for ``cmgamma.cli.main`` plus what the benchmark expects it to do.  The
seed decides every family parameter, grid, sample count and ``--seed``
value; the program only ever sees the generated argv.

Sizes are stratified rather than drawn freely: each pass holds the same
ladder of size strata (grid counts, derivative orders, z ranges, sample
counts, one rung per op), assigned to op positions by a fixed design, and
the seed draws every value within its rung.  That keeps the cost of one pass and
the spread of its op latencies comparable across seeds while every input
still changes with the seed.

Expected outcomes (``op["expect"]``):

``certified``  certify on a certifiable family: exit 0, verdict certified
``holds``      audit of a claim or baseline inside its own domain: exit 0,
               every record holds
``ranked``     compare inside the domains of all ranked bounds: exit 0
``bounded``    bounds at an in-domain point: exit 0, lower <= true <= upper
``error``      negative control: exit 1 with ``op["error_text"]`` in the
               message
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("certify", "audit", "compare")

# Work unit counted by each workload's throughput.
UNITS = {"certify": "rows", "audit": "records", "compare": "points"}

# certify: ops per pass, one negative control in every NEG_EVERY ops.
CERTIFY_OPS = 120
CERTIFY_NEG_EVERY = 12
CERTIFY_KINDS = ("two-param", "symmetric", "multi-param", "majorized")
N_MAX_CAP = 12

# audit: cycles over the registry per pass.
AUDIT_CYCLES = 3
AUDIT_SAMPLE_EXP = (2.0, 4.0)     # log10 range of ordinary --samples ops
AUDIT_SAMPLE_CAP = (90_000, 100_000)  # the single large --samples op
AUDIT_GRID1_COUNT_EXP = (1.0, 3.0)    # log10 range of 1-d grid lengths
AUDIT_GRID2_COUNT_EXP = (0.7, 1.7)    # log10 axis length of a 2-d square
AUDIT_HI_EXP = (7.0, 8.0)         # log10 range of 1-d grid upper ends

# compare: compare ops and bounds ops per pass.
COMPARE_OPS = 40
COMPARE_POINT_EXP = (1.6, 2.6)    # log10 of the grid size of a compare op
COMPARE_BIG_POINTS = (1500, 2500)  # the single large compare op of a pass
BOUNDS_PER_TARGET = 10
COMPARE_NEG = 3

COMPARE_GROUPS = (
    ("beta", ("BETA_UB", "BETA_UB_DRAGOMIR")),
    ("gamma-square-ratio", ("INQ58", "INQ58_BASE_RATIO", "INQ58_BASE_SHIFT")),
    ("sym-ratio", ("SYM_GE1", "SYM_SANDWICH_LB")),
    ("binom-core", ("INQ56", "INQ57_LB")),
)
BOUNDS_TARGETS = ("wallis", "wallis-shift", "sym", "half", "beta", "dup",
                  "inq58")

# Lower edge of each audit case's point domain, as a function of the flat
# parameter tuple, and the upper edge where the domain is bounded.
_DOMAIN_LO = {
    "INQ1": lambda p: p[0] + p[1] - 1.0,
    "MULTI_GE1": lambda p: math.fsum(p) - 1.0,
    "MAJOR_GE1": lambda p: max(p),
    "SYM_GE1": lambda p: p[0],
    "SYM_SANDWICH_LB": lambda p: p[0],
    "SYM_SANDWICH_UB": lambda p: p[0],
    "HALF_SANDWICH_LB": lambda p: 0.5,
    "HALF_SANDWICH_UB": lambda p: 0.5,
    "H_OMEGA": lambda p: p[0] + p[1],
    "G_LE1": lambda p: p[0] + p[1],
    "PSI_XY": lambda p: p[0],
    "PSI_XY_AB": lambda p: p[0] + p[1],
    "INQ56": lambda p: p[0] + p[1],
    "INQ57_LB": lambda p: p[0] + p[1],
    "INQ57_UB": lambda p: p[0] + p[1],
    "INQ58": lambda p: 2.0 * p[0],
    "INQ58_BASE_RATIO": lambda p: 2.0 * p[0],
    "INQ58_BASE_SHIFT": lambda p: max(2.0, 2.0 * p[0]),
}
_DESIGN_SEED = 20170606

_DOMAIN_HI = {"DUP_SANDWICH_LB": 1.0, "DUP_SANDWICH_UB": 1.0, "INQ56": 1.0,
              "INQ56_RECIP": 1.0, "BETA_UB_DRAGOMIR": 1.0}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _design(workload: str) -> np.random.Generator:
    """Seed-independent generator for the stratum design of a workload."""
    return np.random.default_rng([_DESIGN_SEED, WORKLOADS.index(workload)])


def _strata(design, n, k):
    """n stratum indices in [0, k), balanced, in the design's order."""
    return design.permutation(np.arange(n) % k)


def _log_uniform(rng, lo_exp, hi_exp, stratum, k):
    width = (hi_exp - lo_exp) / k
    return 10.0 ** (lo_exp + width * (stratum + rng.random()))


def _num(x) -> str:
    return repr(float(x))


def _list(vals) -> str:
    return ";".join(_num(v) for v in vals)


def _grid(lo, hi, count, log) -> str:
    return f"--grid={_num(lo)}:{_num(hi)}:{int(count)}" + (":log" if log else "")


def _seed_arg(rng) -> list:
    return ["--seed", str(int(rng.integers(0, 2**31 - 1)))]


def _majorizing_pair(rng, k, lo=0.05, hi=2.0, shrink=1.0):
    """(a, b) with b weakly submajorized by a: b is a convex mix of a with
    its mean (equal totals), optionally scaled down by ``shrink``."""
    a = rng.uniform(lo, hi, k)
    lam = rng.uniform(0.0, 0.9)
    b = (lam * a + (1.0 - lam) * a.mean()) * shrink
    return [float(v) for v in a], [float(v) for v in rng.permutation(b)]


# -- certify ------------------------------------------------------------------

def _certify_family(rng, kind, j):
    if kind == "two-param":
        a, b = rng.uniform(0.05, 2.0, 2)
        fam = {"kind": kind, "a": float(a), "b": float(b)}
        text, bound = f"a={_num(a)},b={_num(b)}", a + b - 1.0
    elif kind == "symmetric":
        a = rng.uniform(0.05, 2.0)
        fam = {"kind": kind, "a": float(a)}
        text, bound = f"a={_num(a)}", a
    elif kind == "multi-param":
        a = [float(v) for v in rng.uniform(0.05, 1.0, 2 + j % 3)]
        fam = {"kind": kind, "a": a}
        text, bound = f"a={_list(a)}", math.fsum(a) - 1.0
    else:
        a, b = _majorizing_pair(rng, 2 + j % 2,
                                shrink=float(rng.uniform(0.7, 1.0)))
        fam = {"kind": kind, "a": a, "b": b}
        text, bound = f"a={_list(a)},b={_list(b)}", max(a + b)
    return fam, text, bound


def certify_ops(seed: int) -> list:
    rng, design = rng_for("certify", seed), _design("certify")
    n_fam = CERTIFY_OPS - CERTIFY_OPS // CERTIFY_NEG_EVERY
    n_max = 1 + _strata(design, n_fam, N_MAX_CAP)
    counts = 2 + _strata(design, n_fam, 4)
    zdec = _strata(design, n_fam, n_fam)
    edec = _strata(design, n_fam, n_fam)
    ops, j = [], 0
    for i in range(CERTIFY_OPS):
        if i % CERTIFY_NEG_EVERY == CERTIFY_NEG_EVERY - 1:
            # top entry of b raised above a's: weak submajorization fails
            a = [float(v) for v in rng.uniform(0.05, 2.0, 2)]
            b = sorted(a)
            b[-1] += float(rng.uniform(0.1, 1.0))
            lo = max(a + b) + 0.5
            ops.append({
                "argv": ["certify", "--family", "majorized", "--params",
                         f"a={_list(a)},b={_list(b)}",
                         _grid(lo, lo * 10.0, 3, True)],
                "expect": "error", "error_text": "not certifiable"})
            continue
        kind = CERTIFY_KINDS[j % 4]
        fam, text, bound = _certify_family(rng, kind, j)
        eps = _log_uniform(rng, -3.0, 0.0, edec[j], n_fam)
        lo = max(bound, 0.0) + eps
        hi = _log_uniform(rng, 2.0, 6.0, zdec[j], n_fam)
        ops.append({
            "argv": ["certify", "--family", kind, "--params", text,
                     _grid(lo, hi, counts[j], True),
                     "--n-max", str(int(n_max[j]))],
            "expect": "certified", "family": fam})
        j += 1
    return ops


# -- audit --------------------------------------------------------------------

def _case_params(rng, case):
    """Seeded parameters from the case's admissible set (checked with
    ``params_ok``)."""
    names = case.param_names
    for _ in range(100):
        if names == ():
            flat, text = (), ""
        elif names == ("a",):
            a = rng.uniform(0.05, 0.95)
            flat, text = (float(a),), f"a={_num(a)}"
        elif names == ("a", "b"):
            top = 0.45 if case.id == "INQ56" else 1.5
            a, b = rng.uniform(0.05, top, 2)
            flat, text = (float(a), float(b)), f"a={_num(a)},b={_num(b)}"
        elif names == ("a[]",):
            a = [float(v) for v in rng.uniform(0.05, 1.0, int(rng.integers(2, 5)))]
            flat, text = tuple(a), f"a={_list(a)}"
        else:
            a, b = _majorizing_pair(rng, int(rng.integers(2, 4)), hi=1.5)
            flat, text = tuple(a + b), f"a={_list(a)},b={_list(b)}"
        if case.params_ok(flat) is None:
            return flat, text
    raise RuntimeError(f"no admissible parameters drawn for {case.id}")


def audit_ops(seed: int) -> list:
    from cmgamma.inequalities import registry_list

    cases = registry_list()
    rng, design = rng_for("audit", seed), _design("audit")
    n = AUDIT_CYCLES * len(cases)
    n_samples = (n + 1) // 2
    s_strata = _strata(design, n_samples, n_samples)
    g_strata = _strata(design, n - n_samples, n - n_samples)
    ops = []
    for j in range(n):
        case = cases[j % len(cases)]
        flat, text = _case_params(rng, case)
        argv = ["audit", "--id", case.id] + (["--params", text] if text else [])
        fmt = "csv" if (j // 2) % 2 == 0 else "json"
        op = {"case": case.id, "params": list(flat), "expect": "holds"}
        if j % 2 == 0:
            k = j // 2
            if k == 0:
                size = int(rng.integers(AUDIT_SAMPLE_CAP[0],
                                        AUDIT_SAMPLE_CAP[1] + 1))
            else:
                size = int(round(_log_uniform(rng, *AUDIT_SAMPLE_EXP,
                                              s_strata[k], n_samples)))
            argv += ["--samples", str(size)] + _seed_arg(rng)
        else:
            k = j // 2
            lo_fn = _DOMAIN_LO.get(case.id, lambda p: 0.0)
            bound = lo_fn(flat)
            upper = _DOMAIN_HI.get(case.id)
            if len(case.point_names) == 1:
                count = round(_log_uniform(rng, *AUDIT_GRID1_COUNT_EXP,
                                           g_strata[k], n - n_samples))
                # a third of the grids start exactly on a positive lower
                # edge, which exercises the CLI's boundary nudge
                on_edge = bound > 0.0 and k % 3 == 0
                lo = bound if on_edge else max(bound, 0.0) + 10.0 ** rng.uniform(-3, 0)
                hi = upper if upper is not None else 10.0 ** rng.uniform(
                    *AUDIT_HI_EXP)
            else:
                count = round(_log_uniform(rng, *AUDIT_GRID2_COUNT_EXP,
                                           g_strata[k], n - n_samples))
                lo = max(bound, 0.0) + 10.0 ** rng.uniform(-3, -1)
                hi = upper if upper is not None else lo + 10.0 ** rng.uniform(0.5, 2)
            argv.append(_grid(lo, hi, count, True))
        argv += ["--format", fmt]
        ops.append(dict(op, argv=argv, fmt=fmt))
        if j % len(cases) == len(cases) - 1:
            ops.extend(_audit_negatives(rng))
    return ops


def _audit_negatives(rng):
    a = [float(v) for v in rng.uniform(0.05, 1.5, 2)]
    b = sorted(a)
    b[-1] += float(rng.uniform(0.1, 1.0))    # top-1 sum of b exceeds a's
    pa, pb = rng.uniform(1.1, 3.0), rng.uniform(0.1, 1.0)
    return [
        {"argv": ["audit", "--id", "MAJOR_GE1", "--params",
                  f"a={_list(a)},b={_list(b)}", "--samples", "16"]
         + _seed_arg(rng),
         "expect": "error", "error_text": "partial sums"},
        {"argv": ["audit", "--id", "BETA_UB_DRAGOMIR", "--params",
                  f"a={_num(pa)},b={_num(pb)}"],
         "expect": "error", "error_text": "requires 0 < a <= 1"},
    ]


# -- compare ------------------------------------------------------------------

def _compare_op(rng, group, ids, size, fmt):
    argv = ["compare", "--id", ",".join(ids)]
    params = []
    if group == "beta":
        # the square stays inside (0, 1]^2, where both bounds apply
        count = max(2, int(round(math.sqrt(size))))
        argv.append(_grid(10.0 ** rng.uniform(-3, -1.5), 1.0, count, True))
    elif group == "binom-core":
        a, b = rng.uniform(0.05, 0.45, 2)
        params = [float(a), float(b)]
        argv += ["--params", f"a={_num(a)},b={_num(b)}",
                 _grid(a + b, 1.0, size, False)]
    else:
        a = rng.uniform(0.05, 0.95)
        params = [float(a)]
        lo = max(2.0, 2.0 * a) if group == "gamma-square-ratio" else a
        argv += ["--params", f"a={_num(a)}",
                 _grid(lo, lo + 10.0 ** rng.uniform(1.0, 6.0), size, True)]
    return {"argv": argv + ["--format", fmt], "expect": "ranked",
            "ids": list(ids), "params": params, "fmt": fmt}


def _bounds_op(rng, target, k):
    """The k-th bounds op on a target.  Its distance from the domain edge
    takes the k-th of ``BOUNDS_PER_TARGET`` strata; every other beta / inq58
    op puts the point outside the reference bound's domain, which must show
    as ``out_of_domain``."""
    outside = None
    off = _log_uniform(rng, -2.0, 3.0, k, BOUNDS_PER_TARGET)
    if target in ("wallis", "wallis-shift"):
        coords = {"z": off}
    elif target == "half":
        coords = {"z": 0.5 + off}
    elif target == "sym":
        a = rng.uniform(0.05, 0.95)
        coords = {"a": a, "z": a + off}
    elif target == "dup":
        coords = {"a": _log_uniform(rng, -3.0, 0.0, k, BOUNDS_PER_TARGET)}
    elif target == "beta":
        coords = {"a": rng.uniform(0.01, 1.0), "b": rng.uniform(0.01, 1.0)}
        if k % 2:
            coords["a"] = rng.uniform(1.1, 3.0)
            outside = "BETA_UB_DRAGOMIR"
    else:
        a = rng.uniform(0.05, 0.9)
        if k % 2:
            coords = {"a": a, "z": rng.uniform(2.0 * a + 0.01, 2.0)}
            outside = "INQ58_BASE_SHIFT"
        else:
            coords = {"a": a, "z": 2.0 + off}
    text = ",".join(f"{name}={_num(v)}" for name, v in coords.items())
    return {"argv": ["bounds", target, "--params", text, "--format", "json"],
            "expect": "bounded", "target": target, "outside": outside,
            "coords": {k: float(v) for k, v in coords.items()}}


def compare_ops(seed: int) -> list:
    rng, design = rng_for("compare", seed), _design("compare")
    p_strata = _strata(design, COMPARE_OPS, COMPARE_OPS)
    ops = []
    for j in range(COMPARE_OPS):
        group, ids = COMPARE_GROUPS[j % len(COMPARE_GROUPS)]
        if j == 0:
            size = int(rng.integers(*COMPARE_BIG_POINTS))
        else:
            size = int(round(_log_uniform(rng, *COMPARE_POINT_EXP,
                                          p_strata[j], COMPARE_OPS)))
        ops.append(_compare_op(rng, group, ids, size,
                               "csv" if (j // 4) % 2 == 0 else "json"))
    bounds = [_bounds_op(rng, target, k)
              for k in range(BOUNDS_PER_TARGET) for target in BOUNDS_TARGETS]
    # interleave: bounds calls are spread between the compare calls
    mixed = []
    per = len(bounds) / len(ops)
    for j, op in enumerate(ops):
        mixed.append(op)
        mixed.extend(bounds[round(j * per):round((j + 1) * per)])
    for _ in range(COMPARE_NEG):
        a = rng.uniform(0.05, 0.9)
        z = rng.uniform(2.0 * a + 0.01, 2.0)
        mixed.append({
            "argv": ["compare", "--id", "INQ58,INQ58_BASE_SHIFT", "--params",
                     f"a={_num(a)},z={_num(z)}"],
            "expect": "error", "error_text": "requires z > 2"})
    return mixed


GENERATORS = {"certify": certify_ops, "audit": audit_ops,
              "compare": compare_ops}


def generate(workload: str, seed: int) -> list:
    return GENERATORS[workload](seed)
