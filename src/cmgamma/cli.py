"""Command-line driver: audits, certification runs, bounds, comparisons.

Subcommands
-----------
``audit``    evaluate one inequality over a grid, samples, or one point and
             emit margin records (CSV or JSON)
``certify``  run both complete-monotonicity certification routes on a ratio
             family and emit the combined report as JSON
``bounds``   print a special-function value next to its registered bounds
``compare``  rank bounds sharing one left-hand side over a grid or point

Exit codes: 0 success / everything holds; 1 usage, config, or domain
error; 2 a violation was found; 3 certification inconclusive.

Output is deterministic: identical configuration (including seed) yields
byte-identical files.  Floats are serialized with 17 significant digits,
which round-trips doubles exactly.  A report's row template is filled
4,096 rows at a time and each chunk is written as it is made, so its
memory does not grow with the row count.  The sampling seed resolves as
``--seed`` flag, then config file, then the ``CMGAMMA_SEED`` environment
variable, then 42.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import inequalities as iq
from .cm_certify import CertConfig, certify_cm_finite_diff, certify_log_cm
from .errors import DomainError, UsageError
from .kernels import Majorized, MultiParam, Symmetric, TwoParam

__all__ = ["RunConfig", "main", "cmd_audit", "cmd_certify", "cmd_bounds",
           "cmd_compare"]

_DEFAULT_SEED = 42
_NUDGE = 1e-9

# family kinds: factory and parameter names; "[]" marks an entry list
_FAMILY_KINDS = {
    "two-param": (TwoParam, ("a", "b")),
    "multi-param": (MultiParam, ("a[]",)),
    "majorized": (Majorized, ("a[]", "b[]")),
    "symmetric": (Symmetric, ("a",)),
}

# a --config value passes its flag's check: text, or a number for a numeric
# flag, read by the flag's type; any other key is text
_CONFIG_TYPES = {"samples": int, "seed": int, "n_max": int, "tol": float,
                 "fd_step": float}
_CONFIG_CHOICES = {"family": sorted(_FAMILY_KINDS), "format": ("csv", "json")}

# bounds targets: primary ids, reference ids; the coordinates are the
# first primary case's parameters and point
_BOUNDS_TARGETS = {
    "wallis": (("WALLIS_LB", "WALLIS_UB"), ()),
    "wallis-shift": (("WALLIS_SHIFT_LB", "WALLIS_SHIFT_UB"), ()),
    "sym": (("SYM_SANDWICH_LB", "SYM_SANDWICH_UB"), ()),
    "half": (("HALF_SANDWICH_LB", "HALF_SANDWICH_UB"), ()),
    "beta": (("BETA_UB",), ("BETA_UB_DRAGOMIR",)),
    "dup": (("DUP_SANDWICH_LB", "DUP_SANDWICH_UB"), ()),
    "inq58": (("INQ58",), ("INQ58_BASE_RATIO", "INQ58_BASE_SHIFT")),
}


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _fmt_list(vals) -> str:
    return ";".join(_fmt(v) for v in vals)


@dataclass(frozen=True)
class RunConfig:
    command: str
    ids: tuple = ()
    family: str | None = None
    target: str | None = None
    params: dict | None = None
    grid: np.ndarray | None = None
    samples: int | None = None
    seed: int = _DEFAULT_SEED
    out: str | None = None
    fmt: str | None = None
    tol: float = iq.HOLDS_TOL
    n_max: int = 8
    fd_step: float = 1e-2


# -- config parsing -----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # exit code 1 on bad flags, message on stderr, no SystemExit(2)
    def error(self, message):
        raise UsageError(message)


def _parse_params(text: str) -> dict:
    """'a=0.5,b=0.7' -> {'a': 0.5, 'b': 0.7}; ';' separates list entries."""
    out = {}
    if not text:
        return out
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise UsageError(f"malformed parameter {chunk!r}, want name=value")
        name, _, val = chunk.partition("=")
        name = name.strip()
        try:
            if ";" in val:
                parsed = [float(v) for v in val.split(";") if v.strip()]
            else:
                parsed = float(val)
        except ValueError:
            raise UsageError(
                f"malformed value for parameter {name!r}: {val!r}") from None
        if name in out:
            raise UsageError(f"parameter {name!r} given twice")
        out[name] = parsed
    return out


def _parse_grid(text: str) -> np.ndarray:
    """'min:max:count[:log]' -> the grid, linearly or log spaced."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise UsageError(
            f"malformed grid {text!r}, want min:max:count[:log]")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise UsageError(f"malformed grid {text!r}") from None
    spacing = parts[3].strip().lower() if len(parts) == 4 else "linear"
    if spacing not in ("linear", "log"):
        raise UsageError(f"grid spacing must be linear or log, got {spacing!r}")
    if count < 1:
        raise UsageError(f"grid count must be >= 1, got {count}")
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise UsageError(f"grid bounds must be finite with min <= max")
    if spacing == "log" and lo <= 0:
        raise UsageError("log spacing needs min > 0")
    return (np.geomspace if spacing == "log" else np.linspace)(lo, hi, count)


def _resolve_seed(flag_val, config_val):
    for v in (flag_val, config_val, os.environ.get("CMGAMMA_SEED")):
        if v is None:
            continue
        try:
            return int(v)
        except (TypeError, ValueError):
            raise UsageError(f"seed must be an integer, got {v!r}") from None
    return _DEFAULT_SEED


def _build_config(args) -> RunConfig:
    filecfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                filecfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config!r}: {exc}")
        if not isinstance(filecfg, dict):
            raise UsageError("config file must hold a JSON object")

    def from_file(key):
        val = filecfg.get(key)
        if val is None or (key == "params" and isinstance(val, dict)):
            return val
        kind = _CONFIG_TYPES.get(key, str)
        bad = UsageError(f"config {key!r}: malformed value {val!r}")
        if not (isinstance(val, str)
                or kind is not str and type(val) in (int, float)):
            raise bad
        try:
            val = kind(str(val))
        except ValueError:
            raise bad from None
        if val not in _CONFIG_CHOICES.get(key, (val,)):
            raise UsageError(f"config {key!r}: {val!r} is not one of "
                             f"{', '.join(_CONFIG_CHOICES[key])}")
        return val

    def pick(flag, key, default=None):
        val = flag if flag is not None else from_file(key)
        return default if val is None else val

    ids_text = pick(getattr(args, "id", None), "id")
    ids = tuple(s.strip() for s in ids_text.split(",") if s.strip()) \
        if ids_text else ()
    params_val = pick(args.params, "params")
    if isinstance(params_val, dict):
        params = dict(params_val)
    else:
        params = _parse_params(params_val or "")
    # a point source given as a flag displaces any config point source
    flag_grid = getattr(args, "grid", None)
    flag_samples = getattr(args, "samples", None)
    if flag_grid is not None or flag_samples is not None:
        grid_val, samples = flag_grid, flag_samples
    else:
        grid_val, samples = from_file("grid"), from_file("samples")
    grid = _parse_grid(grid_val) if grid_val else None
    if samples is not None and samples < 1:
        raise UsageError(f"sample count must be >= 1, got {samples}")
    tol = pick(args.tol, "tol", iq.HOLDS_TOL)
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"tolerance must be positive, got {tol!r}")
    n_max = pick(getattr(args, "n_max", None), "n_max", 8)
    fd_step = pick(getattr(args, "fd_step", None), "fd_step", 1e-2)
    fmt = pick(args.format, "format")
    return RunConfig(
        command=args.command,
        ids=ids,
        family=pick(getattr(args, "family", None), "family"),
        target=getattr(args, "target", None) or from_file("target"),
        params=params,
        grid=grid,
        samples=samples,
        seed=_resolve_seed(getattr(args, "seed", None), from_file("seed")),
        out=pick(args.out, "out"),
        fmt=fmt,
        tol=tol,
        n_max=n_max,
        fd_step=fd_step,
    )


@functools.cache
def _make_parser() -> _Parser:
    # built once per process: parse_args returns a fresh namespace and no
    # action keeps state between calls
    parser = _Parser(prog="cmgamma",
                     description="gamma-ratio monotonicity and inequality "
                                 "audit toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand registers only the flags it reads, so a stray flag
    # is a usage error rather than silently ignored
    def common(sp, grid=True):
        sp.add_argument("--params", default=None,
                        help="name=value pairs, comma separated; use ';' "
                             "between entries of a list value")
        if grid:
            sp.add_argument("--grid", default=None,
                            help="min:max:count[:log]")
        sp.add_argument("--out", default=None, help="output file path")
        sp.add_argument("--format", default=None, choices=("csv", "json"))
        sp.add_argument("--tol", type=float, default=None,
                        help="margin tolerance (default 1e-9)")
        sp.add_argument("--config", default=None,
                        help="JSON config file; flags win on conflict")

    sp = sub.add_parser("audit", help="sweep one inequality, emit margins")
    sp.add_argument("--id", default=None, help="inequality id")
    common(sp)
    sp.add_argument("--samples", type=int, default=None,
                    help="number of random in-domain points")
    sp.add_argument("--seed", default=None,
                    help="sampling seed (default: CMGAMMA_SEED or 42)")

    sp = sub.add_parser("certify",
                        help="certify complete monotonicity of a family")
    common(sp)
    sp.add_argument("--family", default=None, choices=sorted(_FAMILY_KINDS))
    sp.add_argument("--n-max", dest="n_max", type=int, default=None)
    sp.add_argument("--fd-step", dest="fd_step", type=float, default=None)

    sp = sub.add_parser("bounds",
                        help="show a value next to its registered bounds")
    sp.add_argument("target", nargs="?", default=None,
                    help="which bounded quantity to show: "
                         + "|".join(sorted(_BOUNDS_TARGETS)))
    common(sp, grid=False)

    sp = sub.add_parser("compare", help="rank bounds sharing one LHS")
    sp.add_argument("--id", default=None,
                    help="comma-separated inequality ids")
    common(sp)
    return parser


# -- shared helpers -----------------------------------------------------------

def _take(mapping, names, owner) -> list:
    """Pop names from a name=value mapping, in order, as floats; a name
    ending in "[]" is an entry list and stays a list.  Nothing else may be
    left in the mapping."""
    vals = []
    for name in names:
        key = name.rstrip("[]")
        if key not in mapping:
            raise UsageError(
                f"{owner} needs parameter {key!r} (have: "
                f"{', '.join(sorted(mapping)) or 'none'})")
        val = mapping.pop(key)
        if name.endswith("[]"):
            val = val if isinstance(val, list) else [val]
        elif isinstance(val, list):
            raise UsageError(f"{owner}: {key!r} takes one real, not a list")
        try:
            vals.append([float(v) for v in val] if isinstance(val, list)
                        else float(val))
        except (TypeError, ValueError):
            raise UsageError(f"{owner}: malformed {key!r}: {val!r}") from None
    if mapping:
        raise UsageError(
            f"unknown parameter {sorted(mapping)[0]!r} for {owner}")
    return vals


def _case_params_and_point(case, mapping):
    """Split a name=value mapping into case parameters and an optional
    explicit point (when any point coordinate is present)."""
    mapping = dict(mapping or {})
    coords = case.point_names if set(case.point_names) & set(mapping) else ()
    vals = _take(mapping, case.param_names + coords, case.id)
    params = vals[:len(case.param_names)]
    if case.param_kinds == ("v", "v") and len(params[0]) != len(params[1]):
        raise UsageError(f"{case.id}: a and b must have equal length, "
                         f"got {len(params[0])} and {len(params[1])}")
    flat = sum((v if isinstance(v, list) else [v] for v in params), [])
    return tuple(flat), tuple(vals[len(params):]) or None


def _grid_points(case, params, axis):
    """Grid for a case, one point per row: the axis for 1-d points, the
    cartesian square for 2-d points.  1-d points sitting just outside an
    open boundary are nudged up by 1e-9 when that puts them inside."""
    dim = len(case.point_names)
    if dim == 2:
        return np.column_stack((np.repeat(axis, len(axis)),
                                np.tile(axis, len(axis)))), 0
    if dim != 1:
        raise UsageError(f"{case.id} needs {dim}-coordinate points")
    pts = axis[:, None].copy()
    fix = ~case.domain_mask(params, pts) & case.domain_mask(params,
                                                            pts + _NUDGE)
    pts[fix] += _NUDGE
    return pts, int(fix.sum())


def _point_set(case, params, explicit_point, cfg):
    """A command's points, one per row, and how many of them were nudged,
    from exactly one source: the explicit point, ``--grid`` or, for audit,
    ``--samples``; ``case`` fixes the point names and the sampler."""
    audit = cfg.command == "audit"
    flags = "--grid, --samples, or" if audit else "--grid or"
    given = sum(x is not None for x in (explicit_point, cfg.grid,
                                        cfg.samples if audit else None))
    if given != 1:
        raise UsageError(f"give exactly one of {flags} an explicit point"
                         if given else f"{cfg.command} needs {flags} "
                         "explicit point coordinates in --params")
    if explicit_point is not None:
        return [explicit_point], 0
    if cfg.grid is not None:
        return _grid_points(case, params, cfg.grid)
    return case.sample_points(np.random.default_rng(cfg.seed), params,
                              cfg.samples), 0


def _check_kept(results, cases, params, pts, explicit_point):
    """An empty report would read as a pass: when no point was kept, fail.
    An asserted point is refused as out of domain; otherwise the error
    names the rule that the first point breaks."""
    if results:
        return
    if explicit_point is not None:
        iq._require_point(cases, params, explicit_point)
    point = tuple(np.asarray(pts[0], dtype=float).tolist())
    for case in cases:
        violation = case.domain_violation(params, point)
        if violation is not None:
            raise DomainError(
                f"{case.id}: no point lies in the domain; the first point "
                f"{point!r} fails: {violation} (params={list(params)!r})")


def _emit(chunks, out_path):
    """Write a report's text chunks, each as it is made, to the file or to
    stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _summary(line: str, out_path):
    # keep stdout clean for piped reports; file output frees stdout
    stream = sys.stdout if out_path else sys.stderr
    print(line, file=stream)


def _exp_sides(logs, ids, points) -> np.ndarray:
    """``np.exp`` of ln side values, one row per id and one column per
    point; an overflow (where ``math.exp`` raises) is a DomainError."""
    logs = np.atleast_2d(logs)
    with np.errstate(over="ignore"):
        vals = np.exp(logs)
    bad = np.isinf(vals) & np.isfinite(logs)
    if bad.any():
        i, k = np.argwhere(bad)[0].tolist()
        raise DomainError(
            f"{ids[i]}: side value exp({float(logs[i, k])!r}) overflows "
            f"double precision at point "
            f"{tuple(np.atleast_2d(points)[k].tolist())!r}")
    return vals


# -- report writers -----------------------------------------------------------
# A list of rows is one row template filled once per row, ``iq._CHUNK`` rows
# in one ``%`` call, so no per-row object is built and the writers yield the
# report a chunk at a time.  Each value gets the text the per-row writers
# gave it: ``%.17g`` is _fmt's format, and ``%s`` of a float is its repr,
# which json.dumps writes for every finite float.

def _fill(row, cols) -> str:
    """``row`` once per entry of the columns, filled with one value of
    each column, in column order."""
    return (row * len(cols[0])) % tuple(
        itertools.chain.from_iterable(zip(*cols)))


def _csv(header, fixed, points, cols, last):
    """A CSV report, a chunk at a time: ``header``, then per point
    ``fixed``, the point's coordinates joined by ';', one value of each of
    the float arrays ``cols`` and one of ``last``, the floats as ``%.17g``
    and the truths of ``last`` as ``true``/``false``."""
    row = (fixed.replace("%", "%%") + ";".join(["%.17g"] * points.shape[1])
           + ",%.17g" * len(cols) + ",%s\n")
    yield header + "\n"
    cols = [*points.T, *cols]
    for lo in range(0, len(points), iq._CHUNK):
        part = slice(lo, lo + iq._CHUNK)
        yield _fill(row, [c[part].tolist() for c in cols] + [
            _json_values(last[part]) if last.dtype == bool
            else last[part].tolist()])


def _json_values(col) -> list:
    """One column as values whose ``%s`` is their json.dumps text, which
    for a bool is also its CSV text."""
    arr = np.asarray(col)
    vals = arr.tolist()
    if arr.dtype.kind in "bU":  # few distinct values: truths and ids
        texts = {v: json.dumps(v) for v in set(vals)}
        return list(map(texts.__getitem__, vals))
    # json.dumps's own text where it is not the repr: NaN, +-Infinity
    for i in np.flatnonzero(~np.isfinite(arr)).tolist():
        vals[i] = json.dumps(vals[i])
    return vals


class _Rows:
    """A list of rows in a :func:`_json_text` payload, given as columns:
    ``build(mark)`` returns one row, with ``mark(column)`` where each
    value of that column goes."""

    def __init__(self, build):
        self.cols = []
        self.template = build(self._mark)

    def _mark(self, col) -> str:
        self.cols.append(col)
        return f"@{len(self.cols) - 1}@"


_MARK = re.compile(r'"@(\d+)@"')


def _json_text(payload):
    """``json.dumps(payload, indent=2, allow_nan=True)`` and a newline, a
    chunk at a time, where each :class:`_Rows` in the payload stands for
    its list.  The payload is rendered with a mark in place of each list,
    and one row of a list with a mark where each value of a column goes."""
    lists = []

    def hold(rows):
        lists.append(rows)
        return f"@rows{len(lists) - 1}@"

    tail = json.dumps(payload, indent=2, allow_nan=True, default=hold) + "\n"
    for k, rows in enumerate(lists):
        head, tail = tail.split(f'"@rows{k}@"')
        line = head[head.rfind("\n") + 1:]
        pad = "\n" + line[:len(line) - len(line.lstrip())] + "  "
        parts = _MARK.split(json.dumps(rows.template, indent=2)
                            .replace("\n", pad))
        row = "%s".join(p.replace("%", "%%") for p in parts[::2]) + "," + pad
        cols = [rows.cols[int(i)] for i in parts[1::2]]
        n = len(cols[0])
        yield head + ("[" + pad if n else "[]")
        for lo in range(0, n, iq._CHUNK):
            body = _fill(row, [_json_values(c[lo:lo + iq._CHUNK])
                               for c in cols])
            # the last row ends the list, not in a comma
            yield body if lo + iq._CHUNK < n else body[:-len(pad) - 1]
        if n:
            yield pad[:-2] + "]"
    yield tail


# -- subcommands ---------------------------------------------------------------

def cmd_audit(cfg: RunConfig) -> int:
    if len(cfg.ids) != 1:
        raise UsageError("audit needs exactly one --id")
    case = iq.get_case(cfg.ids[0])
    params, explicit_point = _case_params_and_point(case, cfg.params)
    reason = case.params_ok(params)
    if reason is not None:
        raise DomainError(f"{case.id}: {reason}")
    pts, nudged = _point_set(case, params, explicit_point, cfg)
    res = iq.sweep(case.id, params, pts)
    _check_kept(res, [case], params, pts, explicit_point)

    skipped = len(pts) - len(res)
    holds = res.margin >= -cfg.tol
    all_hold = bool(holds.all())
    # Python's min over the margins, not argmin: a NaN margin is the worst
    # only when first
    worst = None if not len(res) else 0 if math.isnan(res.margin[0]) \
        else int(np.nanargmin(res.margin))
    worst_margin, worst_point = (None, None) if worst is None else \
        (float(res.margin[worst]), res.points[worst].tolist())

    fmt = cfg.fmt or "csv"
    if fmt == "csv":
        _emit(_csv("id,params,point,lhs_log,rhs_log,margin,holds",
                   f"{res.id},{_fmt_list(res.params)},", res.points,
                   [res.lhs_log, res.rhs_log, res.margin], holds), cfg.out)
    else:
        records = _Rows(lambda mark: {
            "id": res.id, "params": list(res.params),
            "point": [mark(col) for col in res.points.T],
            "lhs_log": mark(res.lhs_log), "rhs_log": mark(res.rhs_log),
            "margin": mark(res.margin), "holds": mark(holds)})
        payload = {
            "command": "audit", "id": case.id, "params": list(params),
            "tol": cfg.tol, "seed": cfg.seed, "records": records,
            "summary": {
                "points": len(res), "skipped": skipped, "nudged": nudged,
                "all_hold": all_hold, "min_margin": worst_margin,
                "worst_point": worst_point,
            },
        }
        _emit(_json_text(payload), cfg.out)

    worst_text = (f" min_margin={_fmt(worst_margin)} "
                  f"worst_point={_fmt_list(worst_point)}") \
        if worst is not None else ""
    _summary(f"audit id={case.id} points={len(res)} skipped={skipped}"
             f" nudged={nudged}{worst_text} "
             f"{'all hold' if all_hold else 'VIOLATION'}", cfg.out)
    return 0 if all_hold else 2


def _family_from_config(cfg: RunConfig):
    if not cfg.family:
        raise UsageError("certify needs --family "
                         f"({'|'.join(sorted(_FAMILY_KINDS))})")
    ctor, names = _FAMILY_KINDS[cfg.family]
    return ctor(*_take(dict(cfg.params or {}), names,
                       f"family {cfg.family!r}"))


def cmd_certify(cfg: RunConfig) -> int:
    if cfg.fmt == "csv":
        raise UsageError("certify emits a JSON report; use --format json")
    fam = _family_from_config(cfg)
    if cfg.grid is None:
        raise UsageError("certify needs --grid min:max:count[:log]")
    cert_cfg = CertConfig(z_grid=tuple(cfg.grid), n_max=cfg.n_max,
                          tol=cfg.tol, fd_step=cfg.fd_step)
    log_report = certify_log_cm(fam, cert_cfg)
    fd_report = certify_cm_finite_diff(fam, cert_cfg)
    verdicts = (log_report.verdict, fd_report.verdict)
    if "violated" in verdicts:
        combined = "violated"
    elif "inconclusive" in verdicts:
        combined = "inconclusive"
    else:
        combined = "certified"
    payload = {
        "command": "certify",
        "family": {"kind": fam.kind, **fam.params_dict()},
        "verdict": combined,
        "routes": {},
    }
    for key, report in (("log_cm", log_report), ("finite_diff", fd_report)):
        route = payload["routes"][key] = report.to_dict()
        route["rows"] = _Rows(lambda mark: {
            name: mark(col) for name, col in route["rows"].items()})
    _emit(_json_text(payload), cfg.out)
    _summary(f"certify family={fam.kind} verdict={combined} "
             f"(log-cm {log_report.verdict}, finite-diff "
             f"{fd_report.verdict})", cfg.out)
    return {"certified": 0, "violated": 2, "inconclusive": 3}[combined]


def cmd_bounds(cfg: RunConfig) -> int:
    if cfg.target not in _BOUNDS_TARGETS:
        raise UsageError(
            f"bounds needs a target ({'|'.join(sorted(_BOUNDS_TARGETS))})"
            + (f", got {cfg.target!r}" if cfg.target else ""))
    if cfg.fmt == "csv":
        raise UsageError("bounds prints text or JSON; use --format json")
    primary_ids, reference_ids = _BOUNDS_TARGETS[cfg.target]
    head = iq.get_case(primary_ids[0])
    coord_names = head.param_names + head.point_names
    coords = dict(zip(coord_names, _take(dict(cfg.params or {}),
                                         coord_names, f"bounds {cfg.target}")))

    rows = []
    true_value = None
    for case_id in primary_ids + reference_ids:
        case = iq.get_case(case_id)
        params = tuple(coords[n.rstrip("[]")] for n in case.param_names)
        point = tuple(coords[n] for n in case.point_names)
        violation = case.domain_violation(params, point)
        if violation is not None:
            if case_id in primary_ids:  # out of its domain: an error
                iq._require_point([case], params, point)
            rows.append((case_id, case.direction, None, violation))
            continue
        if true_value is None:  # the bounds share one LHS
            lhs, rhs = case.sides(params, [point])
            _exp_sides(lhs, [case_id], [point])
            true_value = math.exp(lhs[0])
        else:
            rhs = case.rhs(params, [point])
        rhs = _exp_sides(rhs, [case_id], [point])
        rows.append((case_id, case.direction, float(rhs[0, 0]), None))

    side_name = {"ge": "lower", "le": "upper"}
    ordered = ([r for r in rows if r[1] == "ge"]
               + [None]
               + [r for r in rows if r[1] == "le"])
    if cfg.fmt == "json":
        payload = {
            "command": "bounds", "target": cfg.target, "params": coords,
            "true": true_value,
            "bounds": [
                {"id": rid, "side": side_name[d], "value": val,
                 **({"out_of_domain": msg} if msg else {})}
                for rid, d, val, msg in rows],
        }
        _emit(_json_text(payload), cfg.out)
    else:
        lines = [f"target={cfg.target} "
                 + " ".join(f"{k}={_fmt(v)}" for k, v in coords.items())]
        for row in ordered:
            if row is None:
                lines.append(f"  true   {_fmt(true_value):24s}")
                continue
            rid, d, val, msg = row
            shown = _fmt(val) if val is not None else f"out of domain: {msg}"
            ref = " (reference)" if rid in reference_ids else ""
            lines.append(f"  {side_name[d]:6s} {shown:24s} {rid}{ref}")
        _emit(["\n".join(lines) + "\n"], cfg.out)
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    if len(cfg.ids) < 2:
        raise UsageError("compare needs --id with two or more "
                         "comma-separated ids")
    head = iq.get_case(cfg.ids[0])
    params, explicit_point = _case_params_and_point(head, cfg.params)

    pts, nudged = _point_set(head, params, explicit_point, cfg)
    res = iq.tightness_sweep(cfg.ids, params, pts)
    _check_kept(res, list(map(iq.get_case, cfg.ids)), params, pts,
                explicit_point)
    skipped = len(pts) - len(res)
    rhs = _exp_sides(res.rhs_log, res.ids, res.points)
    ranked = np.asarray(res.ids)[res.order]

    fmt = cfg.fmt or "csv"
    if fmt == "csv":
        # checked with np.exp; written with math.exp, whose bits the CSV's
        # LHS always had
        _exp_sides(res.lhs_log, res.ids, res.points)
        _emit(_csv(",".join(["params", "point", "lhs", *res.ids, "tightest"]),
                   f"{_fmt_list(res.params)},", res.points,
                   [np.fromiter(map(math.exp, res.lhs_log.tolist()), float),
                    *rhs], ranked[0]), cfg.out)
    else:
        by_rank = [np.take_along_axis(v, res.order, axis=0)
                   for v in (res.rhs_log, rhs)]
        rows = _Rows(lambda mark: {
            "lhs_key": res.lhs_key, "direction": res.direction,
            "params": list(res.params),
            "point": [mark(col) for col in res.points.T],
            "lhs_log": mark(res.lhs_log), "tightest": mark(ranked[0]),
            "entries": [{"id": mark(ranked[r]),
                         "rhs_log": mark(by_rank[0][r]),
                         "rhs": mark(by_rank[1][r])}
                        for r in range(len(res.ids))]})
        payload = {
            "command": "compare", "ids": list(cfg.ids),
            "params": list(params), "rows": rows,
            "summary": {"points": len(res), "skipped": skipped,
                        "nudged": nudged},
        }
        _emit(_json_text(payload), cfg.out)
    _summary(f"compare ids={','.join(cfg.ids)} points={len(res)} "
             f"skipped={skipped} nudged={nudged}", cfg.out)
    return 0


_DISPATCH = {"audit": cmd_audit, "certify": cmd_certify,
             "bounds": cmd_bounds, "compare": cmd_compare}


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _build_config(args)
        return _DISPATCH[cfg.command](cfg)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
