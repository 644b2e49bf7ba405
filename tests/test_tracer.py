"""The benchmark tracer patches names the drivers still bind."""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "perfbench"))

import tracer  # noqa: E402


def test_install_and_remove_restore_every_name():
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tracer.leftover_patches() != []
    finally:
        tr.remove()
    assert tracer.leftover_patches() == []


def test_audit_sweep_is_traced(tmp_path, capsys):
    from cmgamma.cli import main

    out = tmp_path / "audit.csv"
    tr = tracer.Tracer()
    tr.install()
    try:
        code = tr.call("cli.main", "cli", main, [
            "audit", "--id", "INQ1", "--params", "a=0.5,b=0.7",
            "--samples", "500", "--seed", "5", "--out", str(out)])
    finally:
        tr.remove()
    capsys.readouterr()
    records = len(out.read_text().splitlines()) - 1
    assert code == 0 and records == 500
    assert tr.counts["inequalities.sweep.calls"] == 1
    assert tr.counts["inequalities.points_in"] == 500
    assert tr.counts["inequalities.kept"] == records
    assert tracer.leftover_patches() == []


def _traced(argv):
    from cmgamma.cli import main

    tr = tracer.Tracer()
    tr.install()
    try:
        code = tr.call("cli.main", "cli", main, argv)
    finally:
        tr.remove()
    return tr, code


def test_certify_is_traced(tmp_path, capsys):
    out = tmp_path / "certify.json"
    tr, code = _traced(["certify", "--family", "two-param", "--params",
                        "a=0.5,b=0.7", "--grid", "1.21:1e3:15:log",
                        "--n-max", "6", "--out", str(out)])
    capsys.readouterr()
    rows = json.loads(out.read_text())["routes"]["log_cm"]["rows"]
    assert code == 0
    assert tr.counts["cm_certify.rows"] == len(rows) == 15 * 6
    assert tr.counts["cm_certify.agree"] == sum(r["agrees"] for r in rows)
    # the worker writes the counters with json.dump
    json.dumps(dict(tr.counts))
    assert tracer.leftover_patches() == []


def test_compare_is_traced(tmp_path, capsys):
    out = tmp_path / "compare.json"
    tr, code = _traced(["compare", "--id", "INQ58,INQ58_BASE_RATIO",
                        "--params", "a=1", "--grid", "2.5:40:30",
                        "--format", "json", "--out", str(out)])
    capsys.readouterr()
    assert code == 0 and len(json.loads(out.read_text())["rows"]) == 30
    assert tr.counts["cm_certify.rows"] == 0
    json.dumps(dict(tr.counts))
    assert tracer.leftover_patches() == []
