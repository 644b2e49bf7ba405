"""Auditing a registry of gamma-function inequalities.

Every registered inequality is reduced to a log-space margin that is
nonnegative exactly when the claim holds, so "audit" means: evaluate the
margin over grids or random in-domain samples and report the minimum.
Bounds that share a left-hand side can additionally be ranked by
tightness at a point.  Both drivers return columns: one array per field,
one entry per kept point.

The same operations are exposed on the command line:

    python3 -m cmgamma audit --id INQ1 --params a=1,b=1 \
        --grid 1.001:50:100 --seed 42 --format csv
    python3 -m cmgamma bounds wallis --params z=0
    python3 -m cmgamma compare --id BETA_UB,BETA_UB_DRAGOMIR \
        --grid 0.1:0.9:5

Run:  python3 demos/04_inequality_audit.py
"""

import math

import numpy as np

from cmgamma import (HOLDS_TOL, get_case, margin, registry_list, sweep,
                     tightness_compare)


def section(title):
    print(f"\n=== {title} ===")


section("the registry")
cases = registry_list()
claims = [c for c in cases if c.kind == "claim"]
print(f"  {len(cases)} cases: {len(claims)} claims plus "
      f"{len(cases) - len(claims)} reference baselines")
for case in cases[:6]:
    print(f"  {case.id:<12} {case.source}")
print("  ...")

section("one margin, one point")
m = margin("INQ1", (1.0, 1.0), (2.0,))
print(f"  INQ1 with a=b=1 at z=2: margin = {m:.15f} (= ln 2; the ratio "
      f"is z/(z-1) = 2)")

section("sweeping a grid (out-of-domain points are skipped)")
res = sweep("SYM_GE1", (0.5,), [(z,) for z in (0.2, 1.0, 2.0, 5.0, 10.0)])
print("  SYM_GE1, a=0.5, z grid includes 0.2 which is out of domain:")
for (z,), m in zip(res.points.tolist(), res.margin.tolist()):
    print(f"    z = {z:>4}: margin {m:.12f}  holds={m >= -HOLDS_TOL}")
print(f"  kept points: {len(res)} of 5 grid points")

section("equality boundaries give margin exactly zero")
print(f"  H_OMEGA on its diagonal x=y: margin = "
      f"{margin('H_OMEGA', (0.3, 0.6), (5.0, 5.0))}")
print(f"  INQ3_UB at z=0:              margin = "
      f"{margin('INQ3_UB', (0.5,), (0.0,))}")

section("seeded random audit of one claim")
case = get_case("G_LE1")
rng = np.random.default_rng(42)
params = (0.7, 1.3)
pts = case.sample_points(rng, params, 2000)
margins = case.margin_values(params, pts)
print(f"  G_LE1 with a=0.7, b=1.3 on 2000 random in-domain points:")
print(f"    min margin {margins.min():.3e}, median {np.median(margins):.3e}")

def show_ranking(res):
    # order[:, 0] lists the bounds at the (only) point, tightest first
    for rank, i in enumerate(res.order[:, 0].tolist()):
        tag = "  <- tightest" if rank == 0 else ""
        print(f"    {res.ids[i]:<18} {math.exp(res.rhs_log[i, 0]):.6f}{tag}")


section("ranking bounds that share a left-hand side")
res = tightness_compare(("INQ58", "INQ58_BASE_RATIO", "INQ58_BASE_SHIFT"),
                        (1.0,), (4.0,))
print(f"  lower bounds for G(z) G(z-2a) / G(z-a)^2 at a=1, z=4 "
      f"(true value {math.exp(res.lhs_log[0]):.6f}):")
show_ranking(res)

res = tightness_compare(("BETA_UB", "BETA_UB_DRAGOMIR"), (), (0.4, 0.4))
print(f"  upper bounds for B(a,b) at a=b=0.4 "
      f"(true value {math.exp(res.lhs_log[0]):.6f}):")
show_ranking(res)
