"""tools/same_outputs.py lists the ops whose outputs differ between trees."""

import collections
import pathlib
import shutil
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import same_outputs  # noqa: E402

# the 117 ops of audit seed 1 run in about 1.5 s per tree (2-core Xeon)
SEED_1 = ["--workload", "audit", "--seeds", "1"]


def _tree(tmp_path, name):
    shutil.copytree(ROOT / "src" / "cmgamma",
                    tmp_path / name / "src" / "cmgamma",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / name


def test_a_tree_matches_itself(tmp_path, capsys):
    tree = _tree(tmp_path, "a")
    assert same_outputs.main([str(tree), str(tree), *SEED_1]) == 0
    assert capsys.readouterr().out == "audit seeds [1]: 117 ops, 0 differ\n"


def test_a_one_character_change_in_a_writer_is_caught(tmp_path, capsys):
    left, right = _tree(tmp_path, "a"), _tree(tmp_path, "b")
    cli = right / "src" / "cmgamma" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('"%.17g"') == 1
    cli.write_text(text.replace('"%.17g"', '"%.16g"'), encoding="utf-8")
    assert same_outputs.main([str(left), str(right), *SEED_1]) == 1
    lines = capsys.readouterr().out.splitlines()
    # the first op writes a CSV report of about 1e5 records
    assert lines[0].startswith("audit seed 1: op 0 ")
    assert lines[0].endswith(" differ in sha256")
    assert lines[-1].startswith("audit seeds [1]: 117 ops, ")
    assert lines[-1] != "audit seeds [1]: 117 ops, 0 differ"
    # the CSV reports differ in the grid points alone, counted by column
    ops = [line for line in lines if line.startswith("audit seed 1: op ")]
    columns = lines[len(ops):-1]
    assert len(columns) == 1 and columns[0].startswith("csv:point: ")
    assert int(columns[0].split(": ")[1]) > 0


def test_differing_json_values_are_counted_by_path(tmp_path, capsys):
    left, right = _tree(tmp_path, "a"), _tree(tmp_path, "b")
    cli = right / "src" / "cmgamma" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('"margin": mark(res.margin)') == 1
    cli.write_text(text.replace('"margin": mark(res.margin)',
                                '"margin": mark(-res.margin)'),
                   encoding="utf-8")
    assert same_outputs.main([str(left), str(right), *SEED_1]) == 1
    lines = capsys.readouterr().out.splitlines()
    ops = [line for line in lines if line.startswith("audit seed 1: op ")]
    assert ops and all(line.endswith(" differ in sha256") for line in ops)
    # the JSON reports differ in their margins alone
    paths = lines[len(ops):-1]
    assert len(paths) == 1 and paths[0].startswith("records[].margin: ")
    assert int(paths[0].split(": ")[1]) > 0


def test_json_differences_by_path():
    nan = float("nan")
    a = {"x": 1.0, "rows": [{"q": 1, "p": 2.0}, {"q": 3, "p": nan}],
         "w": [1, 2], "t": True}
    b = {"x": 1.0, "rows": [{"q": 1, "p": 5.0}, {"q": 4, "p": nan}],
         "w": [1], "t": 1, "extra": {"y": 0}}
    counts = collections.Counter()
    same_outputs.json_differences(a, b, counts)
    assert counts == {"rows[].p": 1, "rows[].q": 1, "w": 1, "t": 1,
                      "extra": 1}


def test_csv_differences_by_column():
    a = "x,y,z\n1,2,3\n4,5,6\n"
    counts = collections.Counter()
    same_outputs.csv_differences(a, "x,y,z\n1,2,0\n4,0,0\n", counts)
    assert counts == {"csv:y": 1, "csv:z": 2}
    counts.clear()
    for b in ("x,y\n1,2\n4,5\n", "x,y,z\n1,2,3\n", "x,y,z\n1,2\n4,5,6\n"):
        same_outputs.csv_differences(a, b, counts)
    assert counts == {"csv": 3}


def test_several_workloads_one_summary_line_each(monkeypatch, capsys):
    # no op runs: each tree's run is faked, and compare's op 1 differs in
    # its exit code on the right tree
    calls = []

    def fake_run_tree(tree, workload, seeds, cwd):
        calls.append((tree, workload, tuple(seeds)))
        rc = 1 if (tree, workload) == ("right", "compare") else 0
        return {seed: [{"argv": [workload, "0"], "rc": 0, "stdout": "",
                        "stderr": "", "sha256": None},
                       {"argv": [workload, "1"], "rc": rc, "stdout": "",
                        "stderr": "", "sha256": None}]
                for seed in seeds}

    monkeypatch.setattr(same_outputs, "run_tree", fake_run_tree)
    argv = ["left", "right", "--workload", "audit", "compare", "certify",
            "--seeds", "1", "2"]
    assert same_outputs.main(argv) == 1
    assert [c[1] for c in calls] == ["audit"] * 2 + ["compare"] * 2 \
        + ["certify"] * 2
    assert {c[2] for c in calls} == {(1, 2)}
    assert capsys.readouterr().out.splitlines() == [
        "audit seeds [1, 2]: 4 ops, 0 differ",
        "compare seed 1: op 1 ['compare', '1'] differ in rc",
        "compare seed 2: op 1 ['compare', '1'] differ in rc",
        "compare seeds [1, 2]: 4 ops, 2 differ",
        "certify seeds [1, 2]: 4 ops, 0 differ",
    ]
    argv[3:6] = ["audit", "certify"]
    assert same_outputs.main(argv) == 0


def test_an_unknown_workload_is_refused(monkeypatch, capsys):
    monkeypatch.setattr(same_outputs, "run_tree", None)
    with pytest.raises(SystemExit):
        same_outputs.main(["l", "r", "--workload", "audit", "nope",
                           "--seeds", "1"])
    assert "invalid choice: 'nope'" in capsys.readouterr().err
