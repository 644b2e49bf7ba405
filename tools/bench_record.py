"""Fold paired benchmark results into one committed ``BENCH_*.json`` record.

Run the benchmark on the parent commit and on the change, each from its own
checkout and with the same seeds (``perfbench/run.py --trace 0`` writes
``.bench_out/result-<workload>-seed<N>-trace0.json``), then::

    python3 tools/bench_record.py PARENT/.bench_out CHANGE/.bench_out \\
        --out BENCH_6.json

For every workload that ``BENCHMARK.json`` declares, the record holds the
seeds run on both sides, the median and quartiles of every declared
end-to-end metric on each side, the ratio of the medians (change over
parent), and in how many seed pairs the change read better, by the
metric's direction.  Where traced results
(``result-<workload>-seed<N>-trace1.json``, from ``--trace 1``) exist on
both sides for a seed, the workload's ``per_layer`` entry holds those
seeds and the median of every declared per-layer metric on each side,
with the ratio of the medians.  The machine line comes from the results;
the script stops if a workload has no untraced seed pair, if the two
sides ran on different machines or if a result is not ``correct``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quartiles(values):
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _machine_line(info) -> str:
    return (f"nproc={info['nproc']} cpu={info['cpu']!r} "
            f"python={info['python']} numpy={info['numpy']}")


def load(directory, workload, trace=0) -> dict:
    """seed -> result record of one workload, untraced or traced."""
    out = {}
    pattern = os.path.join(directory,
                           f"result-{workload}-seed*-trace{trace}.json")
    for path in glob.glob(pattern):
        seed = int(re.search(r"-seed(\d+)-trace\d\.json$", path).group(1))
        with open(path, encoding="utf-8") as fh:
            out[seed] = json.load(fh)
    return out


def fold(parent_dir, change_dir, spec=None) -> dict:
    """The record of every workload of ``spec`` (default: BENCHMARK.json)."""
    if spec is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    layer_names = [m["name"] for m in spec.get("per_layer", ())]
    record = {"machine": None, "seconds": None, "workloads": {}}

    def pairs(wl, trace):
        """Seeds run on both sides, and each side's records of them."""
        sides = {"parent": load(parent_dir, wl, trace),
                 "change": load(change_dir, wl, trace)}
        use = sorted(set(sides["parent"]) & set(sides["change"]))
        runs = {side: [sides[side][s] for s in use] for side in sides}
        for side, recs in runs.items():
            for seed, rec in zip(use, recs):
                if not rec["correct"]:
                    raise SystemExit(f"{wl} seed {seed} ({side}) not correct")
                line = _machine_line(rec["machine"])
                if record["machine"] not in (None, line):
                    raise SystemExit(f"results from two machines: "
                                     f"{record['machine']} and {line}")
                record["machine"] = line
                if record["seconds"] not in (None, rec["seconds"]):
                    raise SystemExit("results with different run lengths")
                record["seconds"] = rec["seconds"]
        return use, runs

    for wl in [w["name"] for w in spec["workloads"]]:
        use, runs = pairs(wl, 0)
        if not use:
            raise SystemExit(f"{wl}: no seed run on both sides")
        entry = {"seeds": use}
        for side, recs in runs.items():
            entry[side] = {m: _quartiles([r["metrics"][m] for r in recs])
                           for m in better}
        entry["change_over_parent"] = {
            m: _ratio(entry["change"][m]["median"],
                      entry["parent"][m]["median"]) for m in better}
        wins = {}
        for m, direction in better.items():
            sign = 1.0 if direction == "higher" else -1.0
            won = sum(sign * (c["metrics"][m] - p["metrics"][m]) > 0
                      for p, c in zip(runs["parent"], runs["change"]))
            wins[m] = f"{won}/{len(use)}"
        entry["change_better_in_pairs"] = wins
        traced, runs = pairs(wl, 1)
        if traced:
            layers = {"seeds": traced}
            for side, recs in runs.items():
                layers[side] = {
                    m: statistics.median(r["metrics"][m] for r in recs)
                    for m in layer_names if m in recs[0]["metrics"]}
            layers["change_over_parent"] = {
                m: _ratio(layers["change"][m], layers["parent"][m])
                for m in layers["parent"] if m in layers["change"]}
            entry["per_layer"] = layers
        record["workloads"][wl] = entry
    return record


def _ratio(change, parent):
    return change / parent if parent else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    record = fold(args.parent_dir, args.change_dir)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for wl, entry in record["workloads"].items():
        ratio = entry["change_over_parent"]["throughput"]
        print(f"{wl}: seeds {entry['seeds']}, throughput x{ratio:.3g}, "
              f"better in {entry['change_better_in_pairs']['throughput']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
