"""One parse per command line gives what the two-pass parse gave.

``cli._parse_args`` sends a command line whose first token names a
subcommand straight to that subcommand's parser.  The reference below is
the two-pass parse it replaced: the top-level parser reads every token and
hands them to the subcommand's parser, and a ``--config`` file's keys are
then parsed under the flags by the subcommand's parser again.  Both must
give equal namespaces on every command line the benchmark generates, and
the same usage error text, help text or exit code on the failing ones.
"""

import argparse
import json
import pathlib
import sys

import pytest

import cmgamma.cli as cli
from cmgamma.errors import UsageError

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "perfbench"))

import workloads  # noqa: E402


def two_pass_parse(argv):
    """The reference: the top-level parser first, then the config's keys
    and the command line again through the subcommand's parser."""
    argv = list(argv)
    parser, commands = cli._make_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            filecfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config {args.config!r}: {exc}")
    if not isinstance(filecfg, dict):
        raise UsageError("config file must hold a JSON object")
    sp, actions = commands[args.command]
    config = argparse.Namespace(command=args.command)
    for key, val in filecfg.items():
        action = actions.get(key)
        try:
            if key == "params" and isinstance(val, dict):
                val = ",".join(f"{name}={cli._param_text(v)}"
                               for name, v in val.items())
            if action is None:
                raise UsageError(f"not a flag of {args.command}")
            if not (isinstance(val, str) or action.type in (int, float)
                    and type(val) in (int, float)):
                raise UsageError(f"malformed value {val!r}")
            opt = action.option_strings
            parsed = sp.parse_args([f"{opt[0]}={val}"] if opt
                                   else ["--", val])
        except UsageError as exc:
            raise UsageError(f"config {key!r}: {exc}") from None
        setattr(config, key, getattr(parsed, key))
    if getattr(args, "grid", None) is not None \
            or getattr(args, "samples", None) is not None:
        vars(config).pop("grid", None)
        vars(config).pop("samples", None)
    return sp.parse_args(argv[argv.index(args.command) + 1:],
                         namespace=config)


def outcome(parse, argv, capsys):
    """What one parse of argv gives: its namespace, its usage error's text
    or its exit code, and what it printed."""
    try:
        got = ("namespace", vars(parse(argv)))
    except UsageError as exc:
        got = ("usage error", str(exc))
    except SystemExit as exc:
        got = ("exit", exc.code)
    return got, capsys.readouterr()


def assert_same_parse(argv, capsys):
    want = outcome(two_pass_parse, argv, capsys)
    assert outcome(cli._parse_args, argv, capsys) == want
    return want[0]


@pytest.mark.parametrize("seed", [1, 2, 3, 101])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_argv(capsys, workload, seed):
    kinds = set()
    for op in workloads.generate(workload, seed):
        kinds.add(assert_same_parse(op["argv"], capsys)[0])
    assert "namespace" in kinds


@pytest.mark.parametrize("argv", [
    ["audit", "--id", "INQ1", "--bogus", "1"],
    ["compare", "--id", "INQ58,INQ58_BASE_RATIO", "--format", "xml"],
    ["audit", "--id", "INQ1", "--params", "a=0.5,b=0.7", "--samp", "5"],
    [],
    ["bogus", "--id", "INQ1"],
    ["certify", "-h"],
    ["-h"],
    ["--format", "audit"],
    ["audit", "--seed", "x"],
    ["bounds", "wallis", "extra"],
    ["--", "audit", "--id", "INQ1"],
    ["--he", "compare"],
    ["-1", "audit"],
], ids=["unknown-flag", "bad-format", "abbreviation", "no-subcommand",
        "unknown-subcommand", "certify-help", "help", "flag-before-command",
        "bad-int", "two-targets", "dashes-first", "help-abbreviated",
        "number-first"])
def test_errors_and_odd_command_lines(capsys, argv):
    assert_same_parse(argv, capsys)


def test_config_values_lose_to_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "symmetric", "n_max": 3,
                               "grid": "1:2:3", "params": {"a": 0.5}}))
    kind, ns = assert_same_parse(
        ["certify", "--config", str(cfg), "--n-max", "5", "--grid",
         "2:3:4"], capsys)
    assert (kind, ns["n_max"], ns["grid"], ns["family"]) == (
        "namespace", 5, "2:3:4", "symmetric")


@pytest.mark.parametrize("cfg", [{"n_max": "x"}, {"bogus": 1}, [1]],
                         ids=["bad-value", "not-a-flag", "not-an-object"])
def test_config_errors(capsys, tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    kind = assert_same_parse(["certify", "--config", str(path)], capsys)[0]
    assert kind == "usage error"
