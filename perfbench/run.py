"""Benchmark of the cmgamma command line: ``certify``, ``audit``, ``compare``.

Run from the repository root::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0
    python3 perfbench/selftest.py

Each run generates one pass of CLI invocations from ``--seed`` (see
``workloads.py``), then starts a fresh interpreter (``worker.py``) that
drives ``cmgamma.cli.main(argv)`` in-process as a closed loop: one caller,
one process, no extra threads, each op's report written through ``--out``
to a file.  Pass 0 is kept for checking; timed passes repeat it until
``--seconds`` have elapsed.  Every op is graded against the expected-outcome
table and its report values against mpmath (``check.py``, ``oracle.py``),
outside the timed region.

``--trace 0`` prints the end-to-end metrics:

``throughput``      work units per second of a pass (median over passes);
                    the unit is (z, n) rows for certify, margin records for
                    audit, compared points for compare
``latency_ms.p50``  median wall time of one CLI invocation: each op's
                    time is its median over the timed passes (>= 3)
``latency_ms.p90``  90th percentile of the same (every pass holds >= 100
                    ops, so at least ten lie beyond it)
``ok_frac``         ops whose outcome is the expected one, over ops
                    attempted (1 - fail_frac)
``oracle_ok_frac``  checked report values within 1e-8 relative of mpmath
``peak_rss_mb``     peak resident memory of the fresh worker process
``setup_s``         time for a fresh interpreter to ``import cmgamma``
                    (median of several spawns)

``--trace 1`` runs untraced and traced passes alternately and prints the
per-layer metrics of ``tracer.py`` plus ``fail_frac`` and
``oracle_digits``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the same numbers by name with their units, and the machine
they were measured on.  A fuller record goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SPAWNS = 7
WORKER_TIMEOUT_S = 170.0
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "throughput": "units/s", "latency_ms.p50": "ms", "latency_ms.p90": "ms",
    "ok_frac": "ratio", "oracle_ok_frac": "ratio", "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "specfun.log_gamma.calls": "count", "specfun.polygamma.calls": "count",
    "specfun.points": "count", "specfun.points_per_call": "points/call",
    "specfun.self_s": "s",
    "quad.calls": "count", "quad.evals": "count",
    "quad.evals_per_call": "evals/call", "quad.nonconverged": "count",
    "quad.self_s": "s",
    "kernels.calls": "count", "kernels.self_s": "s",
    "kernels.integrand.calls": "count", "kernels.integrand.s": "s",
    "cm_certify.rows": "count", "cm_certify.agree_frac": "ratio",
    "cm_certify.self_s": "s",
    "inequalities.points_in": "count", "inequalities.kept_frac": "ratio",
    "inequalities.domain_violation.calls": "count",
    "inequalities.self_s": "s",
    "cli.self_s": "s", "cli.bytes_out": "B",
    "trace.overhead_frac": "ratio",
    "fail_frac": "ratio", "oracle_digits": "digits",
}


def _child_env(src):
    env = {k: v for k, v in os.environ.items() if k != "CMGAMMA_SEED"}
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in _THREAD_VARS:
        env[var] = "1"
    return env


def measure_setup(env):
    """Median time for a fresh interpreter to import cmgamma, scaled by the
    calibration kernel run in the same interpreter right after (one warm-up
    run, then the median of three), and the raw median.  One unmeasured spawn first, so that byte-compilation is
    not counted."""
    code = ("import sys, time; t = time.perf_counter(); import cmgamma; "
            "dt = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); "
            "import calib, statistics; calib.kernel(); "
            "print(dt, statistics.median(calib.kernel() for _ in range(3)))")
    scaled, raw = [], []
    for k in range(SETUP_SPAWNS + 1):
        out = subprocess.run([sys.executable, "-c", code, HERE], env=env,
                             capture_output=True, text=True, timeout=60,
                             check=True)
        if k:
            dt, cal = (float(v) for v in out.stdout.split())
            raw.append(dt)
            scaled.append(dt * calib.REF_S / cal)
    return statistics.median(scaled), statistics.median(raw)


def run_worker(workdir, seconds, trace, env):
    """Run worker.py to completion; returns its result and peak RSS (MB)."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), workdir,
         repr(float(seconds)), "1" if trace else "0"],
        env=env, stdout=subprocess.DEVNULL)
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise RuntimeError("worker timed out")
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    return result, usage.ru_maxrss / 1024.0


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


def grade(ops, result, workdir, seed):
    """Outcome of every op of pass 0, plus the oracle tallies."""
    import check
    import oracle

    orc = oracle.Oracle()
    p0 = result["pass0"]
    outcomes = []
    for i, op in enumerate(ops):
        text = None
        if p0["hash"][i] is not None:
            with open(os.path.join(workdir, "out", str(i)),
                      encoding="utf-8") as fh:
                text = fh.read()
        try:
            outcome = check.check_op(op, p0["rc"][i], p0["stderr"][i], text,
                                     orc, check.op_rng(seed, i))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            outcome = check.Outcome(ok=False,
                                    problem=f"unreadable report: {exc!r}")
        outcomes.append(outcome)
    return outcomes, orc


def _median(vals):
    return statistics.median(vals) if vals else 0.0


def _percentile(vals, q):
    return float(np.percentile(vals, q))


def scaled_lat(p):
    """Calibration-scaled latencies of one pass (see ``calib``)."""
    return [t * f for t, f in zip(p["lat"], calib.factors(p["cal"]))]


def layer_metrics(result, units_bytes):
    """Per-layer metrics from the traced passes: counts per pass, times
    per pass scaled like the latencies."""
    layers = result["layers"]
    counts = layers[0]["counts"]
    traced_passes = [p for p in result["passes"] if p["traced"]]
    scale = [_median(calib.factors(p["cal"])) for p in traced_passes]

    def c(name):
        return counts.get(name, 0)

    def self_s(layer):
        return _median([rec["self_s"][layer] * f
                        for rec, f in zip(layers, scale)])

    spec_calls = sum(v for k, v in counts.items()
                     if k.startswith("specfun.") and k.endswith(".calls"))
    kern_calls = sum(v for k, v in counts.items()
                     if k.startswith("kernels.") and k.endswith(".calls")
                     and k != "kernels.integrand.calls")
    quad_calls = c("quad.integrate_half_line.calls")
    rows = c("cm_certify.rows")
    points_in = c("inequalities.points_in")
    plain = [sum(scaled_lat(p)) for p in result["passes"] if not p["traced"]]
    traced = [sum(scaled_lat(p)) for p in traced_passes]
    return {
        "specfun.log_gamma.calls": c("specfun.log_gamma.calls"),
        "specfun.polygamma.calls": c("specfun.polygamma.calls"),
        "specfun.points": c("specfun.points"),
        "specfun.points_per_call": (c("specfun.points") / spec_calls
                                    if spec_calls else 0.0),
        "specfun.self_s": self_s("specfun"),
        "quad.calls": quad_calls,
        "quad.evals": c("quad.evals"),
        "quad.evals_per_call": (c("quad.evals") / quad_calls
                                if quad_calls else 0.0),
        "quad.nonconverged": c("quad.nonconverged"),
        "quad.self_s": self_s("quad"),
        "kernels.calls": kern_calls,
        "kernels.self_s": self_s("kernels"),
        "kernels.integrand.calls": c("kernels.integrand.calls"),
        "kernels.integrand.s": _median(
            [rec["span_s"].get("kernels.integrand", 0.0) * f
             for rec, f in zip(layers, scale)]),
        "cm_certify.rows": rows,
        "cm_certify.agree_frac": c("cm_certify.agree") / rows if rows else 0.0,
        "cm_certify.self_s": self_s("cm_certify"),
        "inequalities.points_in": points_in,
        "inequalities.kept_frac": (c("inequalities.kept") / points_in
                                   if points_in else 0.0),
        "inequalities.domain_violation.calls":
            c("inequalities.domain_violation.calls"),
        "inequalities.self_s": self_s("inequalities"),
        "cli.self_s": self_s("cli"),
        "cli.bytes_out": units_bytes,
        "trace.overhead_frac": _median(traced) / _median(plain) - 1.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "audit", "compare"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cmgamma", "cli.py")):
        print(f"error: no cmgamma sources under {src!r}; run from the "
              "repository root", file=sys.stderr)
        return 2
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import workloads

    env = _child_env(src)
    out_root = os.path.join(root, ".bench_out")
    workdir = os.path.join(out_root, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = workloads.generate(args.workload, args.seed)
        setup_s, setup_raw = (None, None) if args.trace else measure_setup(env)
        with open(os.path.join(workdir, "ops.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"ops": [op["argv"] for op in ops]}, fh)
        result, rss_mb = run_worker(workdir, args.seconds, args.trace, env)
        outcomes, orc = grade(ops, result, workdir, args.seed)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            shutil.move(os.path.join(workdir, "spans.json"),
                        os.path.join(out_root, f"spans-{tag}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    p0 = result["pass0"]
    passes = result["passes"]
    n_ops = len(ops)
    failed_ops = sum(not o.ok for o in outcomes)
    known = {}
    for o in outcomes:
        if o.known:
            known[o.known] = known.get(o.known, 0) + 1
    problems = [(i, o.problem) for i, o in enumerate(outcomes) if o.problem]
    mismatched = [k for k, p in enumerate(passes, start=1)
                  if p["hash"] != p0["hash"] or p["rc"] != p0["rc"]]
    correct = not problems and not mismatched and not result["leftover"]
    units = sum(o.units for o in outcomes)
    fail_frac = failed_ops / n_ops
    oracle_digits = orc.min_digits if orc.checked else 0.0

    info = machine_info()
    lines = [
        f"cmgamma benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        f"machine: nproc={info['nproc']} cpu={info['cpu']!r} "
        f"python={info['python']} numpy={info['numpy']}",
        f"shape: closed loop, 1 caller, in-process cmgamma.cli.main; "
        f"{n_ops} ops per pass, {len(passes)} measured passes after the "
        f"check pass; {units} {workloads.UNITS[args.workload]} per pass",
        f"outcomes: {failed_ops} of {n_ops} ops failed "
        f"(known defects {known or 'none'}, unexplained {len(problems)}); "
        f"passes identical to pass 0: {not mismatched}",
    ]
    lines += [f"  unexplained op {i}: {ops[i]['argv']} -> {p}"
              for i, p in problems[:10]]

    if args.trace:
        metrics = layer_metrics(result, sum(p0["bytes"]))
        metrics["fail_frac"] = fail_frac
        metrics["oracle_digits"] = oracle_digits
        units_of = PER_LAYER_UNITS
        lines.append(f"tracer restored every patched name: "
                     f"{not result['leftover']}")
    else:
        lat_ms = 1e3 * np.median([scaled_lat(p) for p in passes], axis=0)
        raw_ms = 1e3 * np.median([p["lat"] for p in passes], axis=0)
        metrics = {
            "throughput": _median([units / sum(scaled_lat(p))
                                   for p in passes]),
            "latency_ms.p50": _percentile(lat_ms, 50),
            "latency_ms.p90": _percentile(lat_ms, 90),
            "ok_frac": 1.0 - fail_frac,
            "oracle_ok_frac": orc.ok / orc.checked if orc.checked else 0.0,
            "peak_rss_mb": rss_mb,
            "setup_s": setup_s,
        }
        units_of = dict(END_TO_END_UNITS)
        units_of["throughput"] = f"{workloads.UNITS[args.workload]}/s"
        lines += [
            f"latency samples: {len(lat_ms)} ops, each the median of "
            f"{len(passes)} passes; times below are scaled to the "
            f"calibration kernel (calib.py); raw wall clock: throughput "
            f"{_median([units / sum(p['lat']) for p in passes]):.6g} "
            f"{units_of['throughput']}, latency p50 "
            f"{_percentile(raw_ms, 50):.6g} ms, p90 "
            f"{_percentile(raw_ms, 90):.6g} ms, setup {setup_raw:.6g} s",
            f"also: fail_frac {fail_frac:.6g} ratio, oracle_digits "
            f"{oracle_digits:.4g} digits (min over {orc.checked} checked "
            f"values)"]
    for name, value in metrics.items():
        lines.append(f"  {name:38s} {value:14.6g} {units_of[name]}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": info,
              "correct": correct, "ops": n_ops, "failed_ops": failed_ops,
              "known_defects": known, "problems": problems,
              "fail_frac": fail_frac, "oracle_digits": oracle_digits,
              "oracle_checked": orc.checked, "metrics": metrics,
              "units_per_pass": units,
              "pass_latency_s": [sum(p["lat"]) for p in passes],
              "pass_scaled_s": [sum(scaled_lat(p)) for p in passes]}
    with open(os.path.join(out_root, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    total_passes = 1 + len(passes)
    unit_key = END_TO_END_UNITS if not args.trace else PER_LAYER_UNITS
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": n_ops * total_passes,
        "failed": failed_ops * total_passes,
        "metrics": {k: {"value": float(v), "unit": unit_key[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
