"""Smoke test: every narrative demo runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmgamma

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = ("01_special_functions.py", "02_integral_routes.py",
         "03_certification.py", "04_inequality_audit.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name):
    env = dict(os.environ)
    src = str(Path(cmgamma.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMO_DIR / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
