"""The README's tours run: every python block, in order, in one
namespace, and every ``cmgamma`` line of its sh blocks, so that a removed
or renamed API or flag fails here first."""

import re
import shlex
from pathlib import Path

from cmgamma.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.DOTALL | re.MULTILINE)
CLI_LINES = [line for block in re.findall(r"^```sh\n(.*?)^```", TEXT,
                                          re.DOTALL | re.MULTILINE)
             for line in block.splitlines() if line.startswith("cmgamma ")]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 5


def test_python_blocks_run_in_order():
    namespace = {"__name__": "readme"}
    for i, block in enumerate(BLOCKS, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"),
             namespace)


def test_cli_lines_exit_zero(tmp_path, monkeypatch, capsys):
    # from an empty directory, where a line's --out file lands
    monkeypatch.chdir(tmp_path)
    assert len(CLI_LINES) >= 5
    for line in CLI_LINES:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
