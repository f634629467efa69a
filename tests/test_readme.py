"""The README's commands and its library tour run as written."""

import json
import re
import shlex
from pathlib import Path

import pytest

from morinode.cli import EXIT_OK, execute, validate_payload

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def _commands():
    """The ``morinode`` lines of the README's sh blocks, continuations joined."""
    lines = "\n".join(_blocks("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("morinode ")]


COMMANDS = _commands()


def test_readme_lists_commands():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("argv", COMMANDS, ids=[a[0] for a in COMMANDS])
def test_readme_command(argv, tmp_path, monkeypatch, capsys):
    # from a scratch directory, so the files a command writes (scan.csv,
    # out/) stay out of the checkout
    monkeypatch.chdir(tmp_path)
    problems = str(ROOT / "demos" / "problems") + "/"
    argv = [a.replace("demos/problems/", problems) for a in argv]
    assert execute(argv) == EXIT_OK
    validate_payload(json.loads(capsys.readouterr().out))


def test_readme_library_tour(capsys):
    (tour,) = _blocks("python")
    exec(compile(tour, "README.md", "exec"), {})
    assert "has_higher_singularities" in capsys.readouterr().out
