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


# lines a demo's output must hold: cos(2 pi t) x^2 is wild at both ends,
# and its flow from 7 escapes upward at t = 0.678. No demo names the
# removed cosh^2 builtin
EXPECTED_LINES = {
    "wildness_and_return_maps": [
        "cos(2*pi*t)*x^2                      -> wild suspected at "
        "('+inf', '-inf')",
        "x0 = +7.00: blew up toward +1*inf at t = 0.678",
    ],
}


# fibre_geometry.py runs above, where its output is checked too
@pytest.mark.parametrize(
    "path", [p for p in DEMOS if p.name != "fibre_geometry.py"],
    ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path):
    proc = _run_demo(path, tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = [line.strip() for line in proc.stdout.splitlines()]
    for expected in EXPECTED_LINES.get(path.stem, []):
        assert expected in lines, expected
    assert "cosh" not in proc.stdout and "builtin" not in proc.stdout
