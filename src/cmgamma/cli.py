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
byte-identical files.  Floats round-trip exactly: CSV writes them with
17 significant digits, JSON as ``json.dumps`` does, the shortest text that
reads back to the same double (``"tol": 1e-09``).  One writer,
``_json_block``, writes every JSON report, to the bytes that
``json.dumps(indent=2)`` gives.  A report's row template is filled 4,096
rows at a time and each chunk is written as it is made, so its memory does
not grow with the row count.  The sampling seed resolves
as ``--seed`` flag, then config file, then the ``CMGAMMA_SEED``
environment variable, then 42.  A command line that starts with a
subcommand is read once, by that subcommand's parser.  A ``--config``
file's keys are the subcommand's flags (``n_max`` for ``--n-max``), each
parsed by that subcommand's parser; a key it does not read is an error,
and a flag on the command line wins.
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

import numpy as np

from . import inequalities as iq
from .cm_certify import CertConfig, certify_cm_finite_diff, certify_log_cm
from .errors import DomainError, UsageError
from .kernels import Majorized, MultiParam, Symmetric, TwoParam

__all__ = ["main", "cmd_audit", "cmd_certify", "cmd_bounds", "cmd_compare"]

_DEFAULT_SEED = 42
_NUDGE = 1e-9

# family kinds: factory and parameter names; "[]" marks an entry list
_FAMILY_KINDS = {
    "two-param": (TwoParam, ("a", "b")),
    "multi-param": (MultiParam, ("a[]",)),
    "majorized": (Majorized, ("a[]", "b[]")),
    "symmetric": (Symmetric, ("a",)),
}

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


# -- command line -------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # exit code 1 on bad flags, message on stderr, no SystemExit(2)
    def error(self, message):
        raise UsageError(message)


def _parse_params(text) -> dict:
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


@functools.cache
def _make_parser():
    """The parser, and by subcommand its parser and its flags' actions by
    dest, which is also the flag's ``--config`` key.  Built once per
    process: parse_args returns a fresh namespace and no action keeps state
    between calls."""
    parser = _Parser(prog="cmgamma",
                     description="gamma-ratio monotonicity and inequality "
                                 "audit toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    # each subcommand registers only the flags it reads, so a stray flag
    # is a usage error rather than silently ignored
    def subcommand(name, help, grid=True, tol=True, fmt=None):
        sp = sub.add_parser(name, help=help)
        actions = {}
        commands[name] = (sp, actions)
        sp.add_argument("--config", help="JSON config file; flags win on "
                                         "conflict")

        def flag(*names, **kw):
            action = sp.add_argument(*names, **kw)
            actions[action.dest] = action

        flag("--params", help="name=value pairs, comma separated; use ';' "
                              "between entries of a list value")
        if grid:
            flag("--grid", help="min:max:count[:log]")
        flag("--out", help="output file path")
        flag("--format", default=fmt, choices=("csv", "json"))
        if tol:
            flag("--tol", type=float, default=iq.HOLDS_TOL,
                 help="margin tolerance (default %(default)g)")
        return flag

    flag = subcommand("audit", "sweep one inequality, emit margins",
                      fmt="csv")
    flag("--id", help="inequality id")
    flag("--samples", type=int, help="number of random in-domain points")
    flag("--seed", type=int,
         help=f"sampling seed (default: CMGAMMA_SEED or {_DEFAULT_SEED})")

    flag = subcommand("certify", "certify complete monotonicity of a family")
    flag("--family", choices=sorted(_FAMILY_KINDS))
    flag("--n-max", dest="n_max", type=int, default=CertConfig.n_max)
    flag("--fd-step", dest="fd_step", type=float,
         default=CertConfig.fd_step)

    flag = subcommand("bounds", "show a value next to its registered bounds",
                      grid=False, tol=False)
    # suppressed: a command line without a target keeps the config's
    flag("target", nargs="?", default=argparse.SUPPRESS,
         help="which bounded quantity to show: "
              + "|".join(sorted(_BOUNDS_TARGETS)))

    flag = subcommand("compare", "rank bounds sharing one LHS", tol=False,
                      fmt="csv")
    flag("--id", help="comma-separated inequality ids")
    return parser, commands


def _parse_args(argv) -> argparse.Namespace:
    """One command line's namespace: its flags, then the ``--config``
    file's keys, each parsed as its flag's text by the subcommand's
    parser, then the flags' defaults.  A config value is text, or a number
    for a numeric flag; ``params`` may be an object, whose lists are
    ';'-joined entries."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _make_parser()
    if not argv[:1] or argv[0] not in commands:
        # help, or no subcommand first: the top parser exits or raises
        parser.parse_args(argv)
    # the subcommand's parser alone, so the command line is read once
    command, rest = argv[0], argv[1:]
    sp, actions = commands[command]
    args = sp.parse_args(rest, namespace=argparse.Namespace(command=command))
    if args.config is None:
        return args
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            filecfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config {args.config!r}: {exc}")
    if not isinstance(filecfg, dict):
        raise UsageError("config file must hold a JSON object")
    config = argparse.Namespace(command=command)
    for key, val in filecfg.items():
        action = actions.get(key)
        try:
            if key == "params" and isinstance(val, dict):
                val = ",".join(f"{name}={_param_text(v)}"
                               for name, v in val.items())
            if action is None:
                raise UsageError(f"not a flag of {command}")
            if not (isinstance(val, str) or action.type in (int, float)
                    and type(val) in (int, float)):
                raise UsageError(f"malformed value {val!r}")
            opt = action.option_strings
            parsed = sp.parse_args([f"{opt[0]}={val}"] if opt
                                   else ["--", val])
        except UsageError as exc:
            raise UsageError(f"config {key!r}: {exc}") from None
        setattr(config, key, getattr(parsed, key))
    # a point source given as a flag displaces any config point source
    if getattr(args, "grid", None) is not None \
            or getattr(args, "samples", None) is not None:
        vars(config).pop("grid", None)
        vars(config).pop("samples", None)
    # the flags over the config's values; defaults fill what neither gave
    return sp.parse_args(rest, namespace=config)


def _param_text(value) -> str:
    """A ``--config`` ``params`` value as ``--params`` text.  A list's
    entries are ';'-joined, with a trailing ';' that keeps a one-entry list
    a list; a string must be one number or a ';' list, so that it cannot
    add parameters."""
    if isinstance(value, list):
        return ";".join(map(str, value)) + ";"
    if isinstance(value, str):
        try:
            if [float(v) for v in value.split(";") if v.strip()]:
                return value
        except ValueError:
            pass
        raise UsageError(f"malformed value {value!r}")
    return str(value)


# -- shared helpers -----------------------------------------------------------

def _ids(args) -> tuple:
    return tuple(s.strip() for s in (args.id or "").split(",") if s.strip())


def _seed(args) -> int:
    """The sampling seed: ``--seed`` or the config's, then CMGAMMA_SEED,
    then 42; NumPy takes no negative seed."""
    seed = (os.environ.get("CMGAMMA_SEED", _DEFAULT_SEED)
            if args.seed is None else args.seed)
    try:
        seed = int(seed)
    except ValueError:
        raise UsageError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    return seed


def _take(mapping, names, owner) -> list:
    """Pop names from a name=value mapping, in order; a name ending in "[]"
    is an entry list and stays a list.  Nothing else may be left in the
    mapping."""
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
        vals.append(val)
    if mapping:
        raise UsageError(
            f"unknown parameter {sorted(mapping)[0]!r} for {owner}")
    return vals


def _case_params_and_point(case, args):
    """Split ``--params`` into case parameters and an optional explicit
    point (when any point coordinate is present)."""
    mapping = _parse_params(args.params)
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


def _point_set(case, params, explicit_point, args, seed=None):
    """A command's points, one per row, and how many of them were nudged,
    from exactly one source: the explicit point, ``--grid`` or, for audit,
    ``--samples`` drawn with ``seed``; ``case`` fixes the point names and
    the sampler."""
    grid = _parse_grid(args.grid) if args.grid else None
    samples = getattr(args, "samples", None)
    if samples is not None and samples < 1:
        raise UsageError(f"sample count must be >= 1, got {samples}")
    audit = args.command == "audit"
    flags = "--grid, --samples, or" if audit else "--grid or"
    given = sum(x is not None for x in (explicit_point, grid, samples))
    if given != 1:
        raise UsageError(f"give exactly one of {flags} an explicit point"
                         if given else f"{args.command} needs {flags} "
                         "explicit point coordinates in --params")
    if explicit_point is not None:
        return [explicit_point], 0
    if grid is not None:
        return _grid_points(case, params, grid)
    return case.sample_points(np.random.default_rng(seed), params,
                              samples), 0


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
# json.dumps's own text of a string, as its default ensure_ascii writes it
_json_str = json.encoder.encode_basestring_ascii


def _json_text(payload):
    """``json.dumps(payload, indent=2, allow_nan=True)`` and a newline, a
    chunk at a time, where each :class:`_Rows` in the payload stands for
    its list (see :func:`_with_rows`)."""
    lists = []
    return _with_rows(_json_block(payload, "\n", lists) + "\n", lists)


def _json_scalar(v) -> str:
    """``json.dumps(v)`` of a string, number, bool or None."""
    if isinstance(v, str):
        return _json_str(v)
    if isinstance(v, float) and math.isfinite(v):
        return float.__repr__(v)
    return json.dumps(v)


def _json_block(v, pad: str, lists) -> str:
    """``json.dumps(v, indent=2)`` of nested dicts with string keys, lists
    and scalars, with ``pad`` (a newline and the indent of v's first line)
    before each later line.  A :class:`_Rows` is written as the mark
    ``"@rows<k>@"`` and appended to ``lists`` as list k, with the pad of
    its rows."""
    inner = pad + "  "
    if isinstance(v, _Rows):
        lists.append((v, inner))
        return f'"@rows{len(lists) - 1}@"'
    if isinstance(v, dict) and v:
        return "{" + ",".join(f"{inner}{_json_scalar(k)}: "
                              + _json_block(x, inner, lists)
                              for k, x in v.items()) + pad + "}"
    if isinstance(v, (list, tuple)) and v:
        return "[" + ",".join(inner + _json_block(x, inner, lists)
                              for x in v) + pad + "]"
    return _json_scalar(v)


def _with_rows(tail, lists):
    """The JSON text ``tail``, a chunk at a time, with list k of ``lists``
    (a :class:`_Rows` and the pad of its rows) written where
    ``"@rows<k>@"`` stands: one row is rendered with a mark where each
    value of a column goes, then filled once per row."""
    for k, (rows, pad) in enumerate(lists):
        head, tail = tail.split(f'"@rows{k}@"')
        parts = _MARK.split(_json_block(rows.template, pad, lists))
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

def cmd_audit(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise UsageError(f"tolerance must be positive, got {args.tol!r}")
    seed, ids = _seed(args), _ids(args)
    if len(ids) != 1:
        raise UsageError("audit needs exactly one --id")
    case = iq.get_case(ids[0])
    params, explicit_point = _case_params_and_point(case, args)
    reason = case.params_ok(params)
    if reason is not None:
        raise DomainError(f"{case.id}: {reason}")
    pts, nudged = _point_set(case, params, explicit_point, args, seed)
    res = iq.sweep(case.id, params, pts)
    _check_kept(res, [case], params, pts, explicit_point)

    skipped = len(pts) - len(res)
    holds = res.margin >= -args.tol
    all_hold = bool(holds.all())
    # Python's min over the margins, not argmin: a NaN margin is the worst
    # only when first
    worst = None if not len(res) else 0 if math.isnan(res.margin[0]) \
        else int(np.nanargmin(res.margin))
    worst_margin, worst_point = (None, None) if worst is None else \
        (float(res.margin[worst]), res.points[worst].tolist())

    if args.format == "csv":
        _emit(_csv("id,params,point,lhs_log,rhs_log,margin,holds",
                   f"{res.id},{_fmt_list(res.params)},", res.points,
                   [res.lhs_log, res.rhs_log, res.margin], holds), args.out)
    else:
        records = _Rows(lambda mark: {
            "id": res.id, "params": list(res.params),
            "point": [mark(col) for col in res.points.T],
            "lhs_log": mark(res.lhs_log), "rhs_log": mark(res.rhs_log),
            "margin": mark(res.margin), "holds": mark(holds)})
        payload = {
            "command": "audit", "id": case.id, "params": list(params),
            "tol": args.tol, "seed": seed, "records": records,
            "summary": {
                "points": len(res), "skipped": skipped, "nudged": nudged,
                "all_hold": all_hold, "min_margin": worst_margin,
                "worst_point": worst_point,
            },
        }
        _emit(_json_text(payload), args.out)

    worst_text = (f" min_margin={_fmt(worst_margin)} "
                  f"worst_point={_fmt_list(worst_point)}") \
        if worst is not None else ""
    _summary(f"audit id={case.id} points={len(res)} skipped={skipped}"
             f" nudged={nudged}{worst_text} "
             f"{'all hold' if all_hold else 'VIOLATION'}", args.out)
    return 0 if all_hold else 2


def _family(args):
    if not args.family:
        raise UsageError("certify needs --family "
                         f"({'|'.join(sorted(_FAMILY_KINDS))})")
    ctor, names = _FAMILY_KINDS[args.family]
    return ctor(*_take(_parse_params(args.params), names,
                       f"family {args.family!r}"))


def cmd_certify(args) -> int:
    if args.format == "csv":
        raise UsageError("certify emits a JSON report; use --format json")
    fam = _family(args)
    if not args.grid:
        raise UsageError("certify needs --grid min:max:count[:log]")
    cert_cfg = CertConfig(z_grid=tuple(_parse_grid(args.grid)),
                          n_max=args.n_max, tol=args.tol, fd_step=args.fd_step)
    log_report = certify_log_cm(fam, cert_cfg)
    fd_report = certify_cm_finite_diff(fam, cert_cfg)
    verdicts = (log_report.verdict, fd_report.verdict)
    if "violated" in verdicts:
        combined = "violated"
    elif "inconclusive" in verdicts:
        combined = "inconclusive"
    else:
        combined = "certified"
    routes = {}
    for name, report in (("log_cm", log_report), ("finite_diff", fd_report)):
        route = routes[name] = report.to_dict()
        cols = route["rows"]
        route["rows"] = _Rows(lambda mark: {
            field: mark(col) for field, col in cols.items()})
    payload = {"command": "certify",
               "family": {"kind": fam.kind, **fam.params_dict()},
               "verdict": combined, "routes": routes}
    _emit(_json_text(payload), args.out)
    _summary(f"certify family={fam.kind} verdict={combined} "
             f"(log-cm {log_report.verdict}, finite-diff "
             f"{fd_report.verdict})", args.out)
    return {"certified": 0, "violated": 2, "inconclusive": 3}[combined]


def cmd_bounds(args) -> int:
    target = getattr(args, "target", None)
    if target not in _BOUNDS_TARGETS:
        raise UsageError(
            f"bounds needs a target ({'|'.join(sorted(_BOUNDS_TARGETS))})"
            + (f", got {target!r}" if target else ""))
    if args.format == "csv":
        raise UsageError("bounds prints text or JSON; use --format json")
    primary_ids, reference_ids = _BOUNDS_TARGETS[target]
    head = iq.get_case(primary_ids[0])
    coord_names = head.param_names + head.point_names
    coords = dict(zip(coord_names, _take(_parse_params(args.params),
                                         coord_names, f"bounds {target}")))

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
    if args.format == "json":
        payload = {
            "command": "bounds", "target": target, "params": coords,
            "true": true_value,
            "bounds": [
                {"id": rid, "side": side_name[d], "value": val,
                 **({"out_of_domain": msg} if msg else {})}
                for rid, d, val, msg in rows],
        }
        _emit(_json_text(payload), args.out)
    else:
        lines = [f"target={target} "
                 + " ".join(f"{k}={_fmt(v)}" for k, v in coords.items())]
        for row in ordered:
            if row is None:
                lines.append(f"  true   {_fmt(true_value):24s}")
                continue
            rid, d, val, msg = row
            shown = _fmt(val) if val is not None else f"out of domain: {msg}"
            ref = " (reference)" if rid in reference_ids else ""
            lines.append(f"  {side_name[d]:6s} {shown:24s} {rid}{ref}")
        _emit(["\n".join(lines) + "\n"], args.out)
    return 0


def cmd_compare(args) -> int:
    ids = _ids(args)
    if len(ids) < 2:
        raise UsageError("compare needs --id with two or more "
                         "comma-separated ids")
    head = iq.get_case(ids[0])
    params, explicit_point = _case_params_and_point(head, args)

    pts, nudged = _point_set(head, params, explicit_point, args)
    res = iq.tightness_sweep(ids, params, pts)
    _check_kept(res, list(map(iq.get_case, ids)), params, pts,
                explicit_point)
    skipped = len(pts) - len(res)
    rhs = _exp_sides(res.rhs_log, res.ids, res.points)
    ranked = np.asarray(res.ids)[res.order]

    if args.format == "csv":
        # checked with np.exp; written with math.exp, whose bits the CSV's
        # LHS always had
        _exp_sides(res.lhs_log, res.ids, res.points)
        _emit(_csv(",".join(["params", "point", "lhs", *res.ids, "tightest"]),
                   f"{_fmt_list(res.params)},", res.points,
                   [np.fromiter(map(math.exp, res.lhs_log.tolist()), float),
                    *rhs], ranked[0]), args.out)
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
            "command": "compare", "ids": list(ids),
            "params": list(params), "rows": rows,
            "summary": {"points": len(res), "skipped": skipped,
                        "nudged": nudged},
        }
        _emit(_json_text(payload), args.out)
    _summary(f"compare ids={','.join(ids)} points={len(res)} "
             f"skipped={skipped} nudged={nudged}", args.out)
    return 0


_DISPATCH = {"audit": cmd_audit, "certify": cmd_certify,
             "bounds": cmd_bounds, "compare": cmd_compare}


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return _DISPATCH[args.command](args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
