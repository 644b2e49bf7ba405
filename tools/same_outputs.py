"""Check that two source trees give the same benchmark outputs, op by op.

For some workloads and seeds, every op of ``perfbench/workloads.generate``
runs in-process through ``cmgamma.cli.main(argv + ["--out", FILE])``, as
the benchmark's worker runs it: once against each tree, each tree in a
fresh interpreter that imports ``cmgamma`` from ``TREE/src`` alone.  The
ops of a tree run one after another in that one interpreter, so state
carried from one op to the next shows as well.  ``perfbench/`` is imported
read-only from this repository.  Run from anywhere::

    python3 tools/same_outputs.py PARENT CHANGE --workload audit --seeds 1 2 3
    python3 tools/same_outputs.py PARENT CHANGE \
        --workload audit compare certify --seeds 1 2 3 101

Every op whose exit code, standard output, standard error or report
sha256 differ is listed, and each workload ends in one summary line; the
exit status is 1 if any op of any workload differs, else 0.
Where the two reports of an op differ in their hashes, the values that
differ are then counted over all such ops.  In JSON reports they count by
JSON path, list items sharing their list's path plus ``[]``:
``routes.log_cm.rows[].quadrature: 463`` counts 463 differing values.  In
CSV reports they count by column header: ``csv:margin: 12`` counts 12
differing cells.  The workloads are those ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
FIELDS = ("rc", "stdout", "stderr", "sha256")

sys.path.insert(0, PERFBENCH)
import run as bench_run  # noqa: E402


def _sha256(path, keep):
    """sha256 of a report file (None when there is none), renamed to
    ``keep``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    os.replace(path, keep)
    return hashlib.sha256(data).hexdigest()


def _report_name(seed, i):
    return f"report-{seed}-{i}"


def run_ops(workload, seeds) -> dict:
    """Run the ops of every seed in this interpreter, in order, from the
    current directory, where the reports stay; seed -> one dict of argv
    and outputs per op."""
    import workloads
    from cmgamma.cli import main

    out = {}
    for seed in seeds:
        rows = out[seed] = []
        for i, op in enumerate(workloads.generate(workload, seed)):
            sink, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(err):
                rc = main(op["argv"] + ["--out", "op.out"])
            rows.append({"argv": op["argv"], "rc": rc,
                         "stdout": sink.getvalue(), "stderr": err.getvalue(),
                         "sha256": _sha256("op.out", _report_name(seed, i))})
    return out


def run_tree(tree, workload, seeds, cwd) -> dict:
    """``run_ops`` in a fresh interpreter that imports cmgamma from
    ``tree/src``, in the directory cwd."""
    src = os.path.join(os.path.abspath(tree), "src")
    if not os.path.isfile(os.path.join(src, "cmgamma", "cli.py")):
        raise SystemExit(f"no cmgamma sources under {src!r}")
    # the benchmark worker's environment, with this tree's sources alone
    env = bench_run._child_env(src)
    env["PYTHONPATH"] = src
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import same_outputs, cmgamma; "
            "print(json.dumps({'module': cmgamma.__file__, 'runs': "
            "same_outputs.run_ops(sys.argv[2], json.loads(sys.argv[3]))}))")
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "tools"), workload,
         json.dumps(list(seeds))],
        cwd=cwd, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"run against {tree!r} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    if not os.path.abspath(result["module"]).startswith(src + os.sep):
        raise SystemExit(f"cmgamma came from {result['module']!r}, "
                         f"not from {src!r}")
    return {int(seed): rows for seed, rows in result["runs"].items()}


def differences(left, right) -> list:
    """(seed, op index, argv, differing fields) of every op that differs."""
    out = []
    for seed in sorted(left):
        a_rows, b_rows = left[seed], right[seed]
        if [r["argv"] for r in a_rows] != [r["argv"] for r in b_rows]:
            out.append((seed, None, None, ["argv"]))
            continue
        for i, (a, b) in enumerate(zip(a_rows, b_rows)):
            fields = [f for f in FIELDS if a[f] != b[f]]
            if fields:
                out.append((seed, i, a["argv"], fields))
    return out


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)  # NaN reads back as NaN


def json_differences(a, b, counts, path="") -> None:
    """Add to ``counts[path]`` one per value of JSON document a that
    differs from b; a key present on one side only, or a list whose
    length differs, counts once at its own path."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            json_differences(a.get(key), b.get(key), counts,
                             f"{path}.{key}" if path else key)
    elif (isinstance(a, list) and isinstance(b, list)
          and len(a) == len(b)):
        for x, y in zip(a, b):
            json_differences(x, y, counts, path + "[]")
    elif type(a) is not type(b) or not _same(a, b):
        counts[path] += 1


def csv_differences(a, b, counts) -> None:
    """Add to ``counts["csv:NAME"]`` one per cell of CSV text a that
    differs from b, NAME its column's header; differing headers, row counts
    or row lengths count once at ``csv``."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(t))) for t in (a, b))
    if rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
        counts["csv"] += 1
        return
    for x, y in zip(rows_a[1:], rows_b[1:]):
        if len(x) != len(y):
            counts["csv"] += 1
            continue
        for name, u, v in zip(rows_a[0], x, y):
            if u != v:
                counts[f"csv:{name}"] += 1


def report_differences(dirs, diffs) -> collections.Counter:
    """Differing values by JSON path or CSV column, over the ops whose
    reports are both JSON or both CSV and differ in sha256; dirs holds
    each run's reports."""
    counts = collections.Counter()
    for seed, i, _, fields in diffs:
        if i is None or "sha256" not in fields:
            continue
        paths = [os.path.join(d, _report_name(seed, i)) for d in dirs]
        if not all(map(os.path.isfile, paths)):
            continue
        texts = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                texts.append(fh.read())
        kinds = {text.startswith("{") for text in texts}
        if kinds == {True}:
            json_differences(*map(json.loads, texts), counts)
        elif kinds == {False}:
            csv_differences(*texts, counts)
    return counts


def compare_workload(left, right, workload, seeds) -> bool:
    """Run one workload's ops against both trees and print what differs,
    then one summary line; True when every op is the same."""
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [os.path.join(tmp, side) for side in ("left", "right")]
        runs = []
        for tree, cwd in zip((left, right), dirs):
            os.mkdir(cwd)
            runs.append(run_tree(tree, workload, seeds, cwd))
        diffs = differences(*runs)
        counts = report_differences(dirs, diffs)
    n_ops = sum(len(rows) for rows in runs[0].values())
    for seed, i, op_argv, fields in diffs:
        where = "the generated ops" if i is None else f"op {i} {op_argv}"
        print(f"{workload} seed {seed}: {where} differ in "
              f"{', '.join(fields)}")
    for path, count in sorted(counts.items()):
        print(f"{path}: {count}")
    print(f"{workload} seeds {seeds}: {n_ops} ops, {len(diffs)} differ")
    return not diffs


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("left", help="first source tree (holds src/cmgamma)")
    ap.add_argument("right", help="second source tree")
    ap.add_argument("--workload", required=True, nargs="+", choices=names)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    same = [compare_workload(args.left, args.right, workload, args.seeds)
            for workload in args.workload]
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
