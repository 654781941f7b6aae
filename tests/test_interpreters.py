"""The array-free commands print the same bytes under every supported Python.

``pyproject.toml`` allows Python >= 3.10.  Other installed interpreters are
found under ``$PYENV_ROOT/versions/3.1*``; they need not have numpy, so only
commands that never import it are compared.
"""

import glob
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import frame_with, symmetric_coords
from dface.face import save_frame

SRC = Path(__file__).resolve().parents[1] / "src"


def _other_interpreters() -> list[str]:
    root = os.environ.get("PYENV_ROOT")
    if not root:
        return []
    running = os.path.realpath(sys.executable)
    found = []
    for exe in sorted(glob.glob(os.path.join(root, "versions", "3.1*", "bin", "python3"))):
        if os.path.realpath(exe) == running:
            continue
        try:
            probe = subprocess.run([exe, "-c", "pass"], capture_output=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0:
            found.append(exe)
    return found


def _stdout_digests(exe: str, commands: list[list[str]]) -> list[tuple[int, str]]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    out = []
    for argv in commands:
        proc = subprocess.run(
            [exe, "-m", "dface", *argv], capture_output=True, env=env, timeout=120
        )
        out.append((proc.returncode, hashlib.sha256(proc.stdout).hexdigest()))
    return out


def test_array_free_commands_match_across_interpreters(tmp_path):
    others = _other_interpreters()
    if not others:
        pytest.skip("no other Python 3.1x interpreter starts here")
    neutral, expr = tmp_path / "neutral.csv", tmp_path / "expr.csv"
    save_frame(neutral, frame_with(symmetric_coords()))
    save_frame(expr, frame_with(symmetric_coords(), **{"14": (75.0, 134.0), "17": (125.0, 134.0)}))
    commands = [
        ["cayley", "8"],
        ["verify", "8"],
        ["verify", "16"],  # sampled associativity: the seeded random.Random draws
        ["aus", str(neutral), str(expr)],
    ]
    expected = _stdout_digests(sys.executable, commands)
    assert [code for code, _ in expected] == [0, 0, 0, 0]
    for exe in others:
        assert _stdout_digests(exe, commands) == expected, exe


def test_ordered_mean_adds_left_to_right_on_every_interpreter():
    # From 3.12 ``sum`` compensates and would give 1/3 here.
    probe = "from dface.formatting import ordered_mean; print(ordered_mean([1e16, 1.0, -1e16]))"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    for exe in [sys.executable, *_other_interpreters()]:
        proc = subprocess.run([exe, "-c", probe], capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, b"0.0\n"), exe
