"""The audit writers give the bytes of the per-record writers.

``cmgamma audit`` formats its CSV and JSON reports a column at a time.
The reference below builds the same reports one record object at a
time: ``_fmt`` per CSV value, and ``json.dumps(payload, indent=2,
allow_nan=True)`` over ``to_dict()`` records, with the summary taken by
Python's ``all`` and ``min``.  Every report and summary line must match
it byte for byte.
"""

import json
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

import cmgamma.inequalities as iq
from cmgamma.cli import _fmt, _fmt_list, main

TOL = 1e-9
SEED = 7
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-5, 1e16,
           1.7976931348623157e308, -1e-5, -5e-324]


@dataclass(frozen=True)
class Record:
    """Margin of one case at one point, as sweep once returned it."""

    id: str
    params: tuple
    point: tuple
    lhs_log: float
    rhs_log: float
    margin: float
    holds: bool

    def to_dict(self) -> dict:
        return {"id": self.id, "params": list(self.params),
                "point": list(self.point), "lhs_log": self.lhs_log,
                "rhs_log": self.rhs_log, "margin": self.margin,
                "holds": self.holds}


def records_of(res):
    """The record list that a sweep result's columns stand for."""
    return [Record(id=res.id, params=res.params, point=tuple(p),
                   lhs_log=lh, rhs_log=rh, margin=m,
                   holds=m >= -iq.HOLDS_TOL)
            for p, lh, rh, m in zip(res.points.tolist(), res.lhs_log.tolist(),
                                    res.rhs_log.tolist(), res.margin.tolist())]


def old_sweep(case_id, params, grid):
    """The record list that sweep returned before it returned columns."""
    case = iq.get_case(case_id)
    flat = tuple(float(v) for v in params)
    kept = iq._domain_points([case], flat, grid)
    if not len(kept):
        return []
    lhs, rhs = case.sides(flat, kept)
    margins = lhs - rhs if case.direction == "ge" else rhs - lhs
    return [Record(id=case.id, params=flat, point=tuple(p),
                   lhs_log=float(lh), rhs_log=float(rh), margin=float(m),
                   holds=bool(m >= -iq.HOLDS_TOL))
            for p, lh, rh, m in zip(kept.tolist(), lhs, rhs, margins)]


def reference(records, case_id, params, n_points, nudged, fmt):
    """(report text, summary line) as the per-record writers made them."""
    skipped = n_points - len(records)
    all_hold = all(r.margin >= -TOL for r in records)
    worst = min(records, key=lambda r: r.margin) if records else None
    if fmt == "csv":
        lines = ["id,params,point,lhs_log,rhs_log,margin,holds"]
        for r in records:
            lines.append(",".join([
                r.id, _fmt_list(r.params), _fmt_list(r.point),
                _fmt(r.lhs_log), _fmt(r.rhs_log), _fmt(r.margin),
                "true" if r.margin >= -TOL else "false"]))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "command": "audit", "id": case_id, "params": list(params),
            "tol": TOL, "seed": SEED,
            "records": [{**r.to_dict(), "holds": bool(r.margin >= -TOL)}
                        for r in records],
            "summary": {
                "points": len(records), "skipped": skipped,
                "nudged": nudged, "all_hold": all_hold,
                "min_margin": worst.margin if worst else None,
                "worst_point": list(worst.point) if worst else None,
            },
        }
        text = json.dumps(payload, indent=2, allow_nan=True) + "\n"
    worst_text = (f" min_margin={_fmt(worst.margin)} "
                  f"worst_point={_fmt_list(worst.point)}") if worst else ""
    line = (f"audit id={case_id} points={len(records)} skipped={skipped}"
            f" nudged={nudged}{worst_text} "
            f"{'all hold' if all_hold else 'VIOLATION'}\n")
    return text, line


def assert_same_text(text, ref):
    # line by line, so that a failure names the first differing line
    # instead of diffing two long reports
    lines, ref_lines = text.split("\n"), ref.split("\n")
    for k, (line, ref_line) in enumerate(zip(lines, ref_lines)):
        assert line == ref_line, f"line {k}"
    assert len(lines) == len(ref_lines)


def run_audit(capsys, tmp_path, fmt, *argv):
    out = tmp_path / f"report.{fmt}"
    code = main(["audit", *argv, "--format", fmt, "--seed", str(SEED),
                 "--out", str(out)])
    cap = capsys.readouterr()
    assert cap.err == ""
    return code, out.read_text(encoding="utf-8"), cap.out


def columns(lhs, rhs, margin, points=None):
    """A crafted INQ1 sweep result with the given columns."""
    n = len(margin)
    if points is None:
        points = np.arange(2.0, 2.0 + n)
    return iq.SweepResult(
        "INQ1", (1.0, 1.0), np.asarray(points, dtype=float).reshape(n, -1),
        np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float),
        np.asarray(margin, dtype=float))


def roll(vals, k):
    return vals[k:] + vals[:k]


N = len(SPECIAL)
CRAFTED = {
    "special-values": columns(SPECIAL, roll(SPECIAL, 3), roll(SPECIAL, 5),
                              roll(SPECIAL, 1)),
    "zero-rhs": columns(SPECIAL, [0.0] * N, roll(SPECIAL, 2)),
    "negative-zero-rhs": columns(SPECIAL, [-0.0] * N, roll(SPECIAL, 4)),
    "signed-zeros": columns([0.0, -0.0, 0.0], [-0.0, 0.0, -0.0],
                            [-0.0, -0.0, 0.0]),
    "nan-rhs-all-fail": columns(SPECIAL, [math.nan] * N, [math.nan] * N),
    "all-hold": columns(SPECIAL, SPECIAL, [1.0] * N),
    "first-margin-nan": columns([1.0] * 3, [0.0] * 3, [math.nan, 1.0, -1.0]),
    "later-margin-nan": columns([1.0] * 3, [0.0] * 3, [1.0, math.nan, -1.0]),
    "later-nan-all-positive": columns([1.0] * 3, [0.0] * 3,
                                      [2.0, math.nan, 1.0]),
    "tie-of-signed-zeros": columns([1.0] * 3, [0.0] * 3, [0.0, -0.0, 0.0]),
    "single": columns([0.5], [0.25], [0.25]),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_crafted_columns_match_per_record_writers(capsys, tmp_path,
                                                  monkeypatch, name, fmt):
    res = CRAFTED[name]
    monkeypatch.setattr(iq, "sweep", lambda case_id, params, grid: res)
    n = len(res)
    code, text, line = run_audit(capsys, tmp_path, fmt, "--id", "INQ1",
                                 "--params", "a=1,b=1",
                                 "--grid", f"2:{1 + n}:{n}")
    ref_text, ref_line = reference(records_of(res), "INQ1", (1.0, 1.0), n,
                                   0, fmt)
    assert_same_text(text, ref_text)
    assert line == ref_line
    assert code == (0 if "all hold" in ref_line else 2)


@pytest.mark.parametrize("name, worst", [
    ("first-margin-nan", 0), ("later-margin-nan", 2),
    ("later-nan-all-positive", 2), ("tie-of-signed-zeros", 0)])
def test_summary_follows_python_min_and_all(capsys, tmp_path, monkeypatch,
                                            name, worst):
    # np.argmin would pick the NaN, or the later of two signed zeros
    res = CRAFTED[name]
    monkeypatch.setattr(iq, "sweep", lambda case_id, params, grid: res)
    _, text, _ = run_audit(capsys, tmp_path, "json", "--id", "INQ1",
                           "--params", "a=1,b=1", "--grid", "2:4:3")
    summary = json.loads(text)["summary"]
    records = records_of(res)
    expect = min(records, key=lambda r: r.margin)
    assert summary["worst_point"] == list(records[worst].point)
    assert summary["worst_point"] == list(expect.point)
    assert repr(summary["min_margin"]) == repr(expect.margin)
    assert summary["all_hold"] is all(r.margin >= -TOL for r in records)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case_id, params_text, params, source", [
    # 2-d points
    ("H_OMEGA", "a=0.3,b=0.6", (0.3, 0.6), ["--grid", "0.9:40:12:log"]),
    ("H_OMEGA", "a=0.3,b=0.6", (0.3, 0.6), ["--samples", "300"]),
    # no parameters, and a grid on the closed lower edge
    ("WALLIS_LB", "", (), ["--grid", "0:1e3:200"]),
    # entry-list parameters
    ("MULTI_GE1", "a=0.2;0.5;0.7", (0.2, 0.5, 0.7),
     ["--grid", "0.4:1e7:150:log"]),
    ("MULTI_GE1", "a=0.2;0.5;0.7", (0.2, 0.5, 0.7), ["--samples", "500"]),
    # a grid that starts on an open lower edge: nudged points
    ("INQ1", "a=0.5,b=1.5", (0.5, 1.5), ["--grid", "1:1e6:80:log"]),
    # one explicit point
    ("INQ1", "a=0.5,b=0.7,z=3.5", (0.5, 0.7), []),
    ("BETA_UB", "a=0.4,b=2.5", (), []),
])
def test_real_sweeps_match_per_record_writers(capsys, tmp_path, fmt, case_id,
                                              params_text, params, source):
    params_args = ["--params", params_text] if params_text else []
    code, text, line = run_audit(capsys, tmp_path, fmt, "--id", case_id,
                                 *params_args, *source)
    case = iq.get_case(case_id)
    if not source:
        coords = dict(kv.split("=") for kv in params_text.split(","))
        pts, nudged = [tuple(float(coords[n]) for n in case.point_names)], 0
    elif source[0] == "--samples":
        pts = case.sample_points(np.random.default_rng(SEED), params,
                                 int(source[1]))
        nudged = 0
    else:
        lo, hi, count, *log = source[1].split(":")
        axis = (np.geomspace if log else np.linspace)(float(lo), float(hi),
                                                      int(count))
        if len(case.point_names) == 2:
            pts = np.column_stack((np.repeat(axis, len(axis)),
                                   np.tile(axis, len(axis))))
            nudged = 0
        else:
            pts = axis[:, None]
            fix = ~case.domain_mask(params, pts) & case.domain_mask(
                params, pts + 1e-9)
            pts[fix] += 1e-9
            nudged = int(fix.sum())
    records = old_sweep(case_id, params, pts)
    ref_text, ref_line = reference(records, case_id, params, len(pts),
                                   nudged, fmt)
    assert_same_text(text, ref_text)
    assert line == ref_line
    assert code == 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_memory_is_set_by_a_chunk(capsys, tmp_path, fmt):
    # 100,000 records: the sweep and the writer hold one chunk at a time
    argv = ["audit", "--id", "INQ1", "--params", "a=0.3,b=0.6",
            "--format", fmt, "--out", str(tmp_path / "report")]
    assert main(argv + ["--samples", "10"]) == 0  # fills the caches
    tracemalloc.start()
    try:
        code = main(argv + ["--samples", "100000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 12 << 20
