"""Outcome and accuracy checks of one pass's outputs.

Each op is graded against its expected outcome (see ``workloads``).  An op
*fails* when it raised, or when its exit code or verdict differs from the
mathematically expected outcome.  Failures that match the signature of a
defect already on record are marked ``known``; they still count as failed.
Any other failure is ``unexplained`` and makes the run incorrect.

Known defects (open items 3 and 4 of the roadmap, reproduced there).
Both come from lnGamma values of size x ln x cancelling in double
precision, which leaves noise of about eps * x ln x:

``fd-roundoff``     certify reports ``violated`` because the
                    finite-difference route alone fails (the log-cm route
                    certifies), and every failing (z, n) margin lies within
                    2^n times that noise, scaled by the largest f.
``lg-cancel``       audit reports a violation, and every failing record's
                    |margin| lies within that noise at its largest
                    coordinate.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from cmgamma.inequalities import get_case

from oracle import family_from

_EPS = 2.0 ** -52

AUDIT_ORACLE_RECORDS = 16
COMPARE_ORACLE_ROWS = 24
BOUND_SLACK = 1e-9       # relative slack of lower <= true <= upper


class Outcome:
    __slots__ = ("units", "ok", "known", "problem")

    def __init__(self, units=0, ok=True, known=None, problem=None):
        self.units, self.ok, self.known, self.problem = units, ok, known, problem


def _fail(problem, units=0):
    return Outcome(units=units, ok=False, problem=problem)


def lg_noise(x):
    """Cancellation noise of a few lnGamma values at arguments up to x."""
    return 64.0 * _EPS * x * max(1.0, math.log(x))


def check_op(op, rc, stderr, text, oracle, rng) -> Outcome:
    expect = op["expect"]
    if expect == "error":
        if rc == 1 and op["error_text"] in stderr:
            return Outcome()
        return _fail(f"expected exit 1 with {op['error_text']!r}, got exit "
                     f"{rc}: {stderr.strip()[:120]!r}")
    if rc not in (0, 2, 3) or text is None:
        return _fail(f"exit {rc} without a report: {stderr.strip()[:120]!r}")
    return _CHECKS[expect](op, rc, text, oracle, rng)


# -- certify --------------------------------------------------------------------

def _check_certify(op, rc, text, oracle, rng):
    report = json.loads(text)
    log_cm = report["routes"]["log_cm"]
    fd = report["routes"]["finite_diff"]
    rows = log_cm["rows"]
    fam = family_from(op["family"])
    for r in rows:
        ref = oracle.log_deriv(fam, r["z"], r["n"])
        oracle.score(r["quadrature"], ref)
        oracle.score(r["polygamma"], ref)
    units = len(rows)
    verdict = report["verdict"]
    if {"certified": 0, "violated": 2, "inconclusive": 3}[verdict] != rc:
        return _fail(f"exit {rc} does not match verdict {verdict}", units)
    if verdict == "certified":
        return Outcome(units)
    scale = fd["fd_scale"]
    bad_fd = [r for r in fd["rows"] if r["margin"] < -fd["tol"] * scale]
    if (verdict == "violated" and log_cm["verdict"] == "certified" and bad_fd
            and all(-r["margin"] <= 2 ** r["n"] * lg_noise(r["z"]) * scale
                    for r in bad_fd)):
        return Outcome(units, ok=False, known="fd-roundoff")
    return _fail(f"verdict {verdict} (log-cm {log_cm['verdict']}, "
                 f"finite-diff {fd['verdict']}) on a certifiable family",
                 units)


# -- audit ----------------------------------------------------------------------

def _audit_records(op, text):
    """(point tuple, lhs_log, margin, holds) per record."""
    if op["fmt"] == "json":
        return [(tuple(r["point"]), r["lhs_log"], r["margin"], r["holds"])
                for r in json.loads(text)["records"]]
    reader = csv.reader(io.StringIO(text))
    next(reader)
    return [(tuple(float(v) for v in row[2].split(";")), float(row[3]),
             float(row[5]), row[6] == "true") for row in reader]


def _check_audit(op, rc, text, oracle, rng):
    records = _audit_records(op, text)
    units = len(records)
    case_id, params = op["case"], op["params"]
    if records and oracle.sides(case_id, params, records[0][0]) is not None:
        pick = rng.choice(units, min(units, AUDIT_ORACLE_RECORDS),
                          replace=False)
        for k in sorted(pick):
            point, lhs_log, margin, _ = records[k]
            lhs, rhs = oracle.sides(case_id, params, point)
            oracle.score(lhs_log, lhs)
            oracle.score(margin, oracle.margin(case_id, lhs, rhs))
    samples = _flag(op["argv"], "--samples")
    if samples is not None and units != int(samples):
        return _fail(f"{units} records for {samples} in-domain samples", units)
    if units == 0:
        return _fail("no records", units)
    bad = [r for r in records if not r[3]]
    if rc == 0 and not bad:
        return Outcome(units)
    if rc == 2 and bad and all(-r[2] <= lg_noise(max(r[0])) for r in bad):
        return Outcome(units, ok=False, known="lg-cancel")
    worst = min(bad, key=lambda r: r[2]) if bad else None
    return _fail(f"exit {rc}, {len(bad)} record(s) fail"
                 + (f", worst margin {worst[2]!r} at {worst[0]!r}"
                    if worst else ""), units)


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


# -- compare ----------------------------------------------------------------------

def _compare_rows(op, text):
    """(point, lhs_log, lhs, {id: (rhs_log, rhs)}, tightest) per row; JSON
    reports give the logs, CSV reports the values (the other is None)."""
    ids = op["ids"]
    if op["fmt"] == "json":
        out = []
        for r in json.loads(text)["rows"]:
            entries = {e["id"]: (e["rhs_log"], e["rhs"]) for e in r["entries"]}
            order = [e["rhs_log"] for e in r["entries"]]
            ranked = order == sorted(order, reverse=r["direction"] == "ge")
            out.append((tuple(r["point"]), r["lhs_log"], None, entries,
                        r["tightest"] if ranked and
                        r["tightest"] == r["entries"][0]["id"] else None))
        return out
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["params", "point", "lhs"] + ids + ["tightest"]:
        raise ValueError(f"unexpected compare header {header!r}")
    out = []
    for row in reader:
        vals = [float(v) for v in row[3:3 + len(ids)]]
        out.append((tuple(float(v) for v in row[1].split(";")), None,
                    float(row[2]),
                    {i: (None, v) for i, v in zip(ids, vals)}, row[-1]))
    return out


def _tightest(direction, values: dict):
    pick = max if direction == "ge" else min
    return pick(values, key=values.get)


def _is_tightest(direction, values: dict, tightest) -> bool:
    """True when ``tightest`` names a bound tied for the tightest value."""
    return (tightest in values
            and values[tightest] == values[_tightest(direction, values)])


def _check_compare(op, rc, text, oracle, rng):
    rows = _compare_rows(op, text)
    units = len(rows)
    if rc != 0 or units == 0:
        return _fail(f"exit {rc} with {units} compared points", units)
    ids, params = op["ids"], op["params"]
    direction = get_case(ids[0]).direction
    for point, _, _, entries, tightest in rows:
        if not _is_tightest(direction, {i: e[1] for i, e in entries.items()},
                            tightest):
            return _fail(f"ranking at {point!r} does not follow the bound "
                         f"values", units)
    pick = rng.choice(units, min(units, COMPARE_ORACLE_ROWS), replace=False)
    for k in sorted(pick):
        point, lhs_log, lhs_val, entries, tightest = rows[k]
        refs = {i: oracle.sides(i, params, point) for i in ids}
        lhs_ref = refs[ids[0]][0]
        if lhs_log is None:
            oracle.score(lhs_val, oracle.exp(lhs_ref))
        else:
            oracle.score(lhs_log, lhs_ref)
        for i in ids:
            rhs_log, rhs_val = entries[i]
            if rhs_log is None:
                oracle.score(rhs_val, oracle.exp(refs[i][1]))
            else:
                oracle.score(lhs_log - rhs_log if direction == "ge"
                             else rhs_log - lhs_log,
                             oracle.margin(i, lhs_ref, refs[i][1]))
        rhs_refs = {i: refs[i][1] for i in ids}
        best = _tightest(direction, rhs_refs)
        gap = abs(rhs_refs[best] - rhs_refs[tightest])
        if best != tightest and gap > 1e-9 * max(1.0, abs(rhs_refs[best])):
            return _fail(f"tightest at {point!r} is {tightest}, the oracle "
                         f"ranks {best} first", units)
    return Outcome(units)


# -- bounds -----------------------------------------------------------------------

def _check_bounds(op, rc, text, oracle, rng):
    report = json.loads(text)
    if rc != 0:
        return _fail(f"bounds exit {rc}", 1)
    coords = op["coords"]
    true = report["true"]
    outside = {b["id"] for b in report["bounds"] if "out_of_domain" in b}
    if outside != ({op["outside"]} if op["outside"] else set()):
        return _fail(f"out-of-domain references {sorted(outside)}, expected "
                     f"{op['outside']!r}", 1)
    for b in report["bounds"]:
        if b["id"] in outside:
            continue
        case = get_case(b["id"])
        params = [coords[n] for n in case.param_names]
        point = [coords[n] for n in case.point_names]
        sides = oracle.sides(b["id"], params, point)
        if sides is not None:
            oracle.score(true, oracle.exp(sides[0]))
            oracle.score(b["value"], oracle.exp(sides[1]))
        lower = b["side"] == "lower"
        if (b["value"] > true * (1 + BOUND_SLACK) if lower
                else b["value"] < true * (1 - BOUND_SLACK)):
            return _fail(f"{b['id']} {b['side']} bound {b['value']!r} is on "
                         f"the wrong side of {true!r}", 1)
    return Outcome(1)


_CHECKS = {"certified": _check_certify, "holds": _check_audit,
           "ranked": _check_compare, "bounded": _check_bounds}


def op_rng(seed: int, index: int) -> np.random.Generator:
    """Seeded generator for the oracle subsample of one op."""
    return np.random.default_rng([int(seed), 7, int(index)])
