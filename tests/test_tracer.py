"""The benchmark tracer patches names the drivers still bind."""

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
