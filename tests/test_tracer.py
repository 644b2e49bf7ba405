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
