"""Smoke test: every demo runs to completion from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the shell demo calls python3; make that the interpreter running tests
    env["PATH"] = os.pathsep.join(
        filter(None, [str(Path(sys.executable).parent), env.get("PATH")]))
    if demo.suffix == ".sh":
        command = ["bash", str(demo), str(tmp_path / "work")]
    else:
        command = [sys.executable, str(demo)]
    result = subprocess.run(command, cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
