"""The compare, certify and bounds writers give the bytes of per-row
writers.

``cmgamma compare`` and ``cmgamma certify`` write their reports a column
at a time.  The references below build the same reports one row at a
time, as the per-row writers did: ``_fmt`` per CSV value, and
``json.dumps(payload, indent=2, allow_nan=True)`` over one dict per row,
with ``sorted`` ranking the bounds at each point.  Crafted columns hold
the values whose text is easy to get wrong, and ties between bounds.
``cmgamma bounds`` has no row list; its JSON is checked against
``json.dumps`` of the same payload.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import cmgamma.cli as cli
import cmgamma.inequalities as iq
from cmgamma.cli import _fmt, _fmt_list, main
from cmgamma.cm_certify import (CertConfig, CertReport, LogCmRow,
                                certify_cm_finite_diff, certify_log_cm)
from cmgamma.kernels import Majorized, MultiParam, Symmetric, TwoParam

from test_audit_writers import assert_same_text

NAN, INF = math.nan, math.inf
BIG, TINY = 1.7976931348623157e308, 5e-324
# values that exp maps to a finite double: NaN, +-inf, signed zeros,
# subnormals, and -BIG, whose exp is 0.0
SPECIAL = [NAN, INF, -INF, -0.0, 0.0, TINY, -TINY, 1e-5, -BIG, 700.0, -1e16]


# -- compare ---------------------------------------------------------------

def compare_reference(res, fmt, n_points, nudged):
    """The compare report, one row at a time."""
    reverse = res.direction == "ge"
    rhs = np.exp(res.rhs_log)
    rows, lines = [], [",".join(["params", "point", "lhs", *res.ids,
                                 "tightest"])]
    for k, point in enumerate(res.points.tolist()):
        entries = sorted(zip(res.ids, res.rhs_log[:, k].tolist(),
                             rhs[:, k].tolist()),
                         key=lambda e: e[1], reverse=reverse)
        lhs_log = res.lhs_log.tolist()[k]
        rows.append({"lhs_key": res.lhs_key, "direction": res.direction,
                     "params": list(res.params), "point": point,
                     "lhs_log": lhs_log, "tightest": entries[0][0],
                     "entries": [{"id": i, "rhs_log": rl, "rhs": r}
                                 for i, rl, r in entries]})
        by_id = {i: r for i, _, r in entries}
        if fmt == "csv":
            lines.append(",".join(
                [_fmt_list(res.params), _fmt_list(point),
                 _fmt(math.exp(lhs_log))]
                + [_fmt(by_id[i]) for i in res.ids] + [entries[0][0]]))
    if fmt == "csv":
        return "\n".join(lines) + "\n"
    payload = {"command": "compare", "ids": list(res.ids),
               "params": list(res.params), "rows": rows,
               "summary": {"points": len(rows),
                           "skipped": n_points - len(rows),
                           "nudged": nudged}}
    return json.dumps(payload, indent=2, allow_nan=True) + "\n"


def roll(vals, k):
    return vals[k:] + vals[:k]


# ids, params text, points, lhs_log, one rhs_log row per id
GE = (("INQ58", "INQ58_BASE_RATIO", "INQ58_BASE_SHIFT"), "a=1")
LE = (("BETA_UB", "BETA_UB_DRAGOMIR"), "")
CRAFTED = {
    "special-values": (*GE, [[v] for v in roll(SPECIAL, 1)],
                       roll(SPECIAL, 2), [SPECIAL, roll(SPECIAL, 3),
                                          roll(SPECIAL, 5)]),
    "big-and-tiny-points": (*GE, [[BIG], [TINY], [-0.0]], [0.5, -BIG, TINY],
                            [[1.0, 2.0, 3.0], [-0.0, 0.0, NAN],
                             [INF, -INF, 0.0]]),
    "ties": (*GE, [[3.0], [4.0], [5.0], [6.0]], [0.0] * 4,
             [[1.0, 0.0, NAN, 2.0], [1.0, -0.0, NAN, NAN],
              [0.5, 0.0, 1.0, 2.0]]),
    "ties-two-coordinates": (*LE, [[0.5, 0.5], [TINY, BIG], [-0.0, NAN]],
                             [1.0, 2.0, 3.0],
                             [[1.0, NAN, -0.0], [1.0, 2.0, 0.0]]),
    "special-values-le": (*LE, [[v, -v] for v in SPECIAL], roll(SPECIAL, 4),
                          [roll(SPECIAL, 6), roll(SPECIAL, 7)]),
}


def crafted_compare(monkeypatch, ids, params, points, lhs, rhs):
    """Patch the library so that tightness_sweep ranks crafted columns;
    returns (result, argv)."""
    rhs_of = dict(zip(ids, np.array(rhs, dtype=float)))
    points = np.array(points, dtype=float)
    monkeypatch.setattr(iq, "_domain_points", lambda cases, p, grid: points)
    monkeypatch.setattr(iq.InequalityCase, "sides", lambda self, p, pts: (
        np.array(lhs, dtype=float), rhs_of[self.id]))
    monkeypatch.setattr(iq.InequalityCase, "rhs",
                        lambda self, p, pts: rhs_of[self.id])
    flat = (1.0,) if params else ()
    res = iq.tightness_sweep(ids, flat, [])
    argv = ["--id", ",".join(ids), "--grid", "3:4:5"]
    return res, argv + (["--params", params] if params else [])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_crafted_compare_matches_per_row_writer(capsys, tmp_path,
                                                monkeypatch, name, fmt):
    res, argv = crafted_compare(monkeypatch, *CRAFTED[name])
    out = tmp_path / f"report.{fmt}"
    code = main(["compare", *argv, "--format", fmt, "--out", str(out)])
    assert capsys.readouterr().err == ""
    n_points = 5 ** res.points.shape[1]
    assert code == 0
    assert_same_text(out.read_text(encoding="utf-8"),
                     compare_reference(res, fmt, n_points, 0))


@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_ranking_is_sorted_order(monkeypatch, name):
    # ties keep the order of the ids; NaN falls where sorted puts it
    res, _ = crafted_compare(monkeypatch, *CRAFTED[name])
    for k, col in enumerate(res.rhs_log.T.tolist()):
        expect = sorted(range(len(res.ids)), key=col.__getitem__,
                        reverse=res.direction == "ge")
        assert res.order[:, k].tolist() == expect


# values whose ranking is easy to get wrong: signed zeros, subnormals and
# infinities, beside ordinary values that often repeat
RANK_POOL = [-0.0, 0.0, TINY, -TINY, 2.5e-310, -2.5e-310, INF, -INF,
             1.0, -1.0, 1e300, -3.5]
RANK_BASE = iq.get_case("INQ58")


def rhs_draw(rng, m, n):
    """An m x n RHS matrix from RANK_POOL and normal draws, with ties
    forced: whole rows repeated and single values copied along columns."""
    rhs = np.where(rng.random((m, n)) < 0.6,
                   rng.choice(RANK_POOL, size=(m, n)),
                   rng.normal(size=(m, n)))
    for i in range(1, m):
        if rng.random() < 0.3:  # an equal row
            rhs[i] = rhs[rng.integers(i)]
    for k in range(n):
        if m > 1 and rng.random() < 0.5:  # a tie within one column
            i, j = rng.choice(m, size=2, replace=False)
            rhs[i, k] = rhs[j, k]
    return rhs


def ranked_crafted(monkeypatch, direction, rhs):
    """tightness_sweep's result over crafted RHS rows, one synthetic bound
    per row, all of one direction."""
    cases = {f"S{i}": dataclasses.replace(RANK_BASE, id=f"S{i}",
                                          direction=direction)
             for i in range(len(rhs))}
    monkeypatch.setattr(iq, "get_case", cases.__getitem__)
    n = np.shape(rhs)[1]
    points = [[3.0 + k] for k in range(n)] if n else np.empty((0, 1))
    return crafted_compare(monkeypatch, tuple(cases), "a=1", points,
                           [0.0] * n, rhs)[0]


def sorted_order(rhs, direction):
    return [sorted(range(len(col)), key=col.__getitem__,
                   reverse=direction == "ge")
            for col in np.asarray(rhs).T.tolist()]


@pytest.mark.parametrize("direction", ["ge", "le"])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_argsort_ranking_is_sorted_order(monkeypatch, direction, m):
    # one stable argsort over the ids axis ranks as sorted does per point,
    # ties in id order, on NaN-free columns of every kind
    rng = np.random.default_rng(100 * m + (direction == "ge"))
    for n in (0, 1, 7, 60, 400):
        rhs = rhs_draw(rng, m, n)
        res = ranked_crafted(monkeypatch, direction, rhs)
        assert res.order.shape == (m, n)
        assert res.order.T.tolist() == sorted_order(rhs, direction)


@pytest.mark.parametrize("direction", ["ge", "le"])
def test_nan_column_keeps_sorted_order(monkeypatch, direction):
    # NaN columns are ranked by sorted itself, beside argsort-ranked ones
    rng = np.random.default_rng(5)
    rhs = rhs_draw(rng, 4, 50)
    rhs[rng.random(rhs.shape) < 0.2] = NAN
    rhs[:, 0] = [NAN, 1.0, NAN, 0.5]
    res = ranked_crafted(monkeypatch, direction, rhs)
    assert np.isnan(rhs).any(axis=0).sum() > 10
    assert res.order.T.tolist() == sorted_order(rhs, direction)


def test_big_lhs_log_in_json(capsys, tmp_path, monkeypatch):
    # JSON writes ln LHS, never LHS, so a huge one is no overflow
    res, argv = crafted_compare(monkeypatch, *GE, [[3.0], [4.0]],
                                [BIG, -BIG],
                                [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    out = tmp_path / "report.json"
    assert main(["compare", *argv, "--format", "json",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert_same_text(out.read_text(encoding="utf-8"),
                     compare_reference(res, "json", 5, 0))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["--id", "INQ58,INQ58_BASE_RATIO,INQ58_BASE_SHIFT", "--params", "a=1",
     "--grid", "2.5:1e4:200:log"],
    ["--id", "BETA_UB,BETA_UB_DRAGOMIR", "--grid", "0.01:1:15"],
    ["--id", "SYM_SANDWICH_LB,SYM_GE1", "--params", "a=0.5",
     "--grid", "0.5:1e3:50:log"],
    ["--id", "INQ58,INQ58_BASE_RATIO", "--params", "a=0.5,z=3"],
])
def test_real_compare_matches_per_row_writer(capsys, tmp_path, fmt, argv):
    out = tmp_path / f"report.{fmt}"
    assert main(["compare", *argv, "--format", fmt, "--out", str(out)]) == 0
    capsys.readouterr()
    ids = argv[1].split(",")
    head = iq.get_case(ids[0])
    params = argv[argv.index("--params") + 1] if "--params" in argv else ""
    coords = dict(kv.split("=") for kv in params.split(",") if kv)
    flat = tuple(float(coords.pop(n)) for n in head.param_names)
    if "--grid" in argv:
        pts, nudged = cli._grid_points(head, flat,
                                       cli._parse_grid(argv[-1]))
    else:
        pts = [tuple(float(coords[n]) for n in head.point_names)]
        nudged = 0
    res = iq.tightness_sweep(ids, flat, pts)
    assert_same_text(out.read_text(encoding="utf-8"),
                     compare_reference(res, fmt, len(pts), nudged))


# fixed parts of a payload: row lists at two depths with "%" in the fixed
# text, and one row list beside every kind of scalar and empty container
HEADS = {
    "nested": lambda rows: {"top": rows(),
                            "deep": {"list": [1, {"rows": rows()}]},
                            "after": "%s"},
    "scalars": lambda rows: {"empty": [[], {}], "none": None,
                             "truths": [True, False],
                             "int": 123456789012345678901234567890,
                             "floats": [-0.0, NAN, INF, -INF, TINY, BIG],
                             "text": "é\n\"", "rows": rows()},
}


@pytest.mark.parametrize("n, head", [
    *(pytest.param(n, "nested", id=str(n)) for n in (0, 1, 3)),
    *(pytest.param(n, "scalars", id=f"scalars-{n}") for n in (0, 1, 3))])
def test_json_writer_fills_rows_at_any_depth(n, head):
    # row lists, empty or not, in each head
    xs, flags = SPECIAL[:n], [k % 2 == 0 for k in range(n)]
    payload = HEADS[head]

    def columns():
        return cli._Rows(lambda mark: {
            "x": mark(np.array(xs)), "pair": [mark(np.array(xs)), "%"],
            "flag": mark(np.array(flags, dtype=bool))})

    def dicts():
        return [{"x": x, "pair": [x, "%"], "flag": f}
                for x, f in zip(xs, flags)]

    assert "".join(cli._json_text(payload(columns))) == json.dumps(
        payload(dicts), indent=2, allow_nan=True) + "\n"


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7])
def test_json_writer_in_three_row_chunks(monkeypatch, n):
    # no row, part of a chunk, one whole chunk, and several chunks
    monkeypatch.setattr(iq, "_CHUNK", 3)
    for head in HEADS:
        test_json_writer_fills_rows_at_any_depth(n, head)


@pytest.mark.parametrize("last", [[False, True, True], ["A", "%s", "B"]],
                         ids=["truths", "ids"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7])
def test_csv_writer_in_three_row_chunks(monkeypatch, n, dim, last):
    monkeypatch.setattr(iq, "_CHUNK", 3)
    points = np.array((SPECIAL * 2)[:n * dim]).reshape(n, dim)
    cols = [np.array(roll(SPECIAL, k)[:n]) for k in (2, 5)]
    last = np.array((last * 3)[:n])
    chunks = list(cli._csv("h,%", "x%,", points, cols, last))
    texts = [json.dumps(v) if isinstance(v, bool) else v
             for v in last.tolist()]
    rows = [",".join(["x%", _fmt_list(p), *map(_fmt, vals), text])
            for p, *vals, text in zip(points.tolist(), *cols, texts)]
    assert len(chunks) == 1 + -(-n // 3)
    assert "".join(chunks) == "\n".join(["h,%", *rows]) + "\n"


# -- bounds ----------------------------------------------------------------

def bounds_reference(target, coords):
    """The bounds report as json.dumps writes it, its values taken from
    the registry: ln sides, exp'd as bounds prints them."""
    primary, reference = cli._BOUNDS_TARGETS[target]
    true, rows = None, []
    for case_id in primary + reference:
        case = iq.get_case(case_id)
        params = tuple(coords[n] for n in case.param_names)
        point = tuple(coords[n] for n in case.point_names)
        row = {"id": case_id,
               "side": {"ge": "lower", "le": "upper"}[case.direction]}
        violation = case.domain_violation(params, point)
        if violation is not None:
            rows.append({**row, "value": None, "out_of_domain": violation})
            continue
        lhs, rhs = case.sides(params, [point])
        true = math.exp(lhs[0]) if true is None else true
        rows.append({**row, "value": float(np.exp(rhs)[0])})
    payload = {"command": "bounds", "target": target, "params": coords,
               "true": true, "bounds": rows}
    return json.dumps(payload, indent=2, allow_nan=True) + "\n"


@pytest.mark.parametrize("target, params", [
    ("wallis", "z=3"), ("wallis", "z=0"), ("wallis-shift", "z=3"),
    ("sym", "a=0.5,z=2"), ("half", "z=2.5"), ("beta", "a=0.5,b=0.7"),
    ("beta", "a=2,b=3"), ("dup", "a=0.5"), ("inq58", "a=1,z=4"),
    ("inq58", "a=0.5,z=1.5")])
def test_bounds_json_matches_json_dumps(capsys, tmp_path, target, params):
    # beta at a > 1 and inq58 at z < 2 hold an out_of_domain reference
    out = tmp_path / "report.json"
    assert main(["bounds", target, "--params", params, "--format", "json",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    coords = {k: float(v) for k, v in
              (kv.split("=") for kv in params.split(","))}
    assert_same_text(out.read_text(encoding="utf-8"),
                     bounds_reference(target, coords))


# -- certify ---------------------------------------------------------------

def route_reference(report):
    """CertReport.to_dict as it was, with one dict per row."""
    out = {"family": {"kind": report.family.kind,
                      **report.family.params_dict()},
           "method": report.method, "verdict": report.verdict,
           "tol": report.tol,
           "worst": {"z": report.worst[0], "n": report.worst[1],
                     "value": report.worst[2]}}
    if report.method == "log-cm":
        out["kernel_scan"] = {"min": report.kernel_min,
                              "argmin_t": report.kernel_argmin}
        out["rows"] = [{"z": r.z, "n": r.n, "quadrature": r.quadrature,
                        "polygamma": r.polygamma, "quad_err": r.quad_err,
                        "poly_err": r.poly_err, "agrees": r.agrees}
                       for r in report.rows]
    else:
        out["fd_step"] = report.fd_step
        out["fd_scale"] = report.fd_scale
        n_max = report.fd_margins.shape[1]
        out["rows"] = [{"z": z, "n": n + 1,
                        "margin": float(report.fd_margins[i, n])}
                       for i, z in enumerate(report.z_grid)
                       for n in range(n_max)]
    return out


def certify_reference(fam, log_report, fd_report):
    verdicts = (log_report.verdict, fd_report.verdict)
    combined = next((v for v in ("violated", "inconclusive")
                     if v in verdicts), "certified")
    payload = {"command": "certify",
               "family": {"kind": fam.kind, **fam.params_dict()},
               "verdict": combined,
               "routes": {"log_cm": route_reference(log_report),
                          "finite_diff": route_reference(fd_report)}}
    return json.dumps(payload, indent=2, allow_nan=True) + "\n", combined


def run_certify(capsys, tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(["certify", *argv, "--out", str(out)])
    cap = capsys.readouterr()
    return code, out.read_text(encoding="utf-8"), cap.out


@pytest.mark.parametrize("family, params, fam, grid", [
    ("two-param", "a=0.5,b=0.7", TwoParam(0.5, 0.7), "0.25:10.2:30"),
    ("two-param", "a=0.5,b=0.7", TwoParam(0.5, 0.7), "1.21:1e6:20:log"),
    ("multi-param", "a=1;2;3", MultiParam((1.0, 2.0, 3.0)), "5.3:20:12"),
    ("majorized", "a=3;1,b=2;2", Majorized((3.0, 1.0), (2.0, 2.0)),
     "3.3:18:9"),
    ("symmetric", "a=0", Symmetric(0.0), "1:10:6"),
])
def test_real_certify_matches_per_row_writer(capsys, tmp_path, family,
                                             params, fam, grid):
    code, text, line = run_certify(capsys, tmp_path, "--family", family,
                                   "--params", params, "--grid", grid,
                                   "--n-max", "12")
    cfg = CertConfig(z_grid=tuple(cli._parse_grid(grid)),
                     n_max=12)
    ref, combined = certify_reference(fam, certify_log_cm(fam, cfg),
                                      certify_cm_finite_diff(fam, cfg))
    assert_same_text(text, ref)
    assert f"verdict={combined} " in line
    assert code == {"certified": 0, "violated": 2, "inconclusive": 3}[combined]


def crafted_reports(fam):
    z_grid = (TINY, 1.0, BIG)
    vals = roll(SPECIAL, 1) + [BIG, -BIG]
    rows = tuple(LogCmRow(z, n, vals[k % len(vals)], vals[(k + 3) % 13],
                          vals[(k + 5) % 13], vals[(k + 7) % 13], k % 3 == 0)
                 for k, (z, n) in enumerate((z, n) for z in z_grid
                                            for n in (1, 2, 3, 4)))
    log_report = CertReport(fam, "log-cm", "inconclusive", 1e-9,
                            (1.0, 2, -0.0), z_grid=z_grid, rows=rows,
                            kernel_min=-0.0, kernel_argmin=TINY)
    margins = np.array((vals * 2)[:12]).reshape(3, 4)
    fd_report = CertReport(fam, "finite-diff", "certified", 1e-9,
                           (NAN, 0, INF), z_grid=z_grid, fd_margins=margins,
                           fd_step=TINY, fd_scale=BIG)
    return log_report, fd_report


def test_crafted_certify_matches_per_row_writer(capsys, tmp_path,
                                                monkeypatch):
    fam = TwoParam(0.5, 0.7)
    log_report, fd_report = crafted_reports(fam)
    monkeypatch.setattr(cli, "certify_log_cm", lambda f, c: log_report)
    monkeypatch.setattr(cli, "certify_cm_finite_diff",
                        lambda f, c: fd_report)
    code, text, line = run_certify(capsys, tmp_path, "--family", "two-param",
                                   "--params", "a=0.5,b=0.7",
                                   "--grid", "1:2:3")
    ref, combined = certify_reference(fam, log_report, fd_report)
    assert_same_text(text, ref)
    assert code == 3 and combined == "inconclusive"
    assert "verdict=inconclusive" in line
