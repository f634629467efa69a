"""Smoke tests: every demo runs to the end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_demo(path: Path, cwd: Path) -> subprocess.CompletedProcess:
    # from a scratch directory: some demos write files where they run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(path)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_fibre_geometry_demo_runs(tmp_path):
    proc = _run_demo(ROOT / "demos" / "fibre_geometry.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines()
             if "sign changes of Sigma_1 along the fibre" in line]
    assert len(lines) == 1
    assert int(lines[0].split(":")[1].split()[0]) <= 2


# fibre_geometry.py runs above, where its output is checked too
@pytest.mark.parametrize(
    "path", [p for p in DEMOS if p.name != "fibre_geometry.py"],
    ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path):
    proc = _run_demo(path, tmp_path)
    assert proc.returncode == 0, proc.stderr
