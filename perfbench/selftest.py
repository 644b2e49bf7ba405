"""Self-test of the benchmark itself.  Run from the repository root::

    python3 perfbench/selftest.py

Checks that

1. workload generation is identical for the same seed and differs for
   another seed;
2. every negative control fails the outcome check when the program
   accepts it (exit 0), so a checker that accepts everything cannot pass;
3. report bytes are identical with tracing on and off, over a slice of
   every workload;
4. the tracer leaves no patched attribute behind.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import check  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import run_pass  # noqa: E402

# ops per workload replayed with tracing on and off (small ones only)
SLICE = 12
SMALL_SAMPLES = 2000


def _small(op):
    argv = op["argv"]
    return "--samples" not in argv or int(
        argv[argv.index("--samples") + 1]) <= SMALL_SAMPLES


def check_generation():
    for w in workloads.WORKLOADS:
        a, b = workloads.generate(w, 11), workloads.generate(w, 11)
        c = workloads.generate(w, 12)
        if json.dumps(a) != json.dumps(b):
            return f"{w}: seed 11 gave two different workloads"
        if [op["argv"] for op in a] == [op["argv"] for op in c]:
            return f"{w}: seeds 11 and 12 gave the same argv"
    return None


def check_negative_controls():
    orc = oracle.Oracle()
    for w in workloads.WORKLOADS:
        negs = [op for op in workloads.generate(w, 3) if op["expect"] == "error"]
        if not negs:
            return f"{w}: no negative control"
        for op in negs:
            if check.check_op(op, 0, "", "{}", orc, check.op_rng(3, 0)).ok:
                return f"{w}: exit 0 accepted for {op['argv']}"
    return None


def check_trace(tmp):
    from cmgamma import cli

    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _, _ in tracer._targets()]
    for w in workloads.WORKLOADS:
        ops = [op["argv"] for op in workloads.generate(w, 5)
               if _small(op)][:SLICE]
        out = os.path.join(tmp, "op.out")
        plain = run_pass(cli.main, ops, out)
        tr = tracer.Tracer()
        with tr:
            traced = run_pass(cli.main, ops, out, tracer=tr)
        if plain["hash"] != traced["hash"] or plain["rc"] != traced["rc"]:
            return f"{w}: report bytes differ with tracing on"
        if not tr.spans:
            return f"{w}: the traced pass recorded no spans"
    left = tracer.leftover_patches()
    moved = [f"{attr}" for owner, attr, orig in originals
             if owner.__dict__[attr] is not orig]
    if left or moved:
        return f"patched names left behind: {left or moved}"
    return None


def main() -> int:
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        results = [("generation is seeded", check_generation()),
                   ("negative controls reject exit 0",
                    check_negative_controls()),
                   ("trace leaves reports and names unchanged",
                    check_trace(tmp))]
    for name, problem in results:
        print(f"{'PASS' if problem is None else 'FAIL'}: {name}"
              + (f" ({problem})" if problem else ""))
    return 0 if all(p is None for _, p in results) else 1


if __name__ == "__main__":
    sys.exit(main())
