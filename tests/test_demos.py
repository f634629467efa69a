"""Smoke test: the fibre geometry demo runs to the end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_fibre_geometry_demo_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "fibre_geometry.py")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines()
             if "sign changes of Sigma_1 along the fibre" in line]
    assert len(lines) == 1
    assert int(lines[0].split(":")[1].split()[0]) <= 2
