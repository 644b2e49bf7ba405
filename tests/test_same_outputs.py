"""tools/same_outputs.py lists the ops whose outputs differ between trees."""

import pathlib
import shutil
import sys

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
