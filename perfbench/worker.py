"""Closed-loop runner: one caller, one process, no extra threads.

Started by ``run.py`` as a fresh interpreter so that its peak resident
memory belongs to the passes alone.  Usage::

    python3 perfbench/worker.py WORKDIR SECONDS TRACE

``WORKDIR/ops.json`` holds the argv list of every op of one pass.  Each op
calls ``cmgamma.cli.main(argv + ["--out", FILE])`` in-process and waits
for it before the next starts.  Pass 0 is the check pass: its outputs are
kept in ``WORKDIR/out`` for the accuracy checks and are not timed into the
metrics.  Timed passes follow until SECONDS have elapsed and at least
MIN_PASSES have run.  With TRACE=1 untraced and traced passes alternate
(at least one of each); the first
traced pass's spans go to ``WORKDIR/spans.json``.  The calibration kernel
of ``calib`` runs before every op, outside its timing.  Results, including
a hash of every op's report bytes in every pass, go to
``WORKDIR/result.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time

import calib

MIN_PASSES = 3


def _digest(path, keep):
    """sha1 and size of a report file (None, 0 when there is none); the
    file is removed unless kept."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None, 0
    if not keep:
        os.remove(path)
    return hashlib.sha1(data).hexdigest(), len(data)


def run_pass(main, ops, out_path, tracer=None, keep_dir=None):
    """One pass over every op; returns latencies (s), calibration kernel
    times (s, see ``calib``), exit codes, report hashes, report sizes and
    captured stderr."""
    lat, cal, codes, hashes, sizes, errs = [], [], [], [], [], []
    sink, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        for i, argv in enumerate(ops):
            path = os.path.join(keep_dir, str(i)) if keep_dir else out_path
            full = argv + ["--out", path]
            cal.append(calib.kernel())
            t0 = time.perf_counter()
            if tracer is None:
                rc = main(full)
            else:
                rc = tracer.call("cli.main", "cli", main, full)
            lat.append(time.perf_counter() - t0)
            codes.append(rc)
            digest, size = _digest(path, keep=bool(keep_dir))
            hashes.append(digest)
            sizes.append(size)
            errs.append(err.getvalue())
            for buf in (sink, err):
                buf.seek(0)
                buf.truncate()
    return {"lat": lat, "cal": cal, "rc": codes, "hash": hashes,
            "bytes": sizes, "stderr": errs}


def main_worker(workdir, seconds, trace):
    from cmgamma.cli import main

    with open(os.path.join(workdir, "ops.json"), encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]
    out_dir = os.path.join(workdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = os.path.join(workdir, "op.out")

    result = {"pass0": run_pass(main, ops, scratch, keep_dir=out_dir),
              "passes": [], "layers": [], "leftover": []}
    tracer_mod = None
    if trace:
        import tracer as tracer_mod
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        tr = tracer_mod.Tracer() if traced else None
        if tr is None:
            res = run_pass(main, ops, scratch)
        else:
            with tr:
                res = run_pass(main, ops, scratch, tracer=tr)
            result["leftover"].extend(tracer_mod.leftover_patches())
            layer_s, name_s = tr.self_seconds()
            result["layers"].append({"counts": dict(tr.counts),
                                     "self_s": layer_s, "span_s": name_s})
            if not os.path.exists(os.path.join(workdir, "spans.json")):
                tr.write_spans(os.path.join(workdir, "spans.json"))
        res["traced"] = traced
        del res["stderr"]
        result["passes"].append(res)
        k += 1
        if time.perf_counter() - start >= seconds and k >= MIN_PASSES:
            break
    with open(os.path.join(workdir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main_worker(sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1")
