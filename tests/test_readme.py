"""The README's library tour runs: every python block, in order, in one
namespace, so that a removed or renamed API fails here first."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```",
                    README.read_text(encoding="utf-8"),
                    re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 5


def test_python_blocks_run_in_order():
    namespace = {"__name__": "readme"}
    for i, block in enumerate(BLOCKS, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"),
             namespace)
