"""The array-free commands and sums give the same bits under every supported Python.

``pyproject.toml`` allows Python >= 3.10.  Other installed interpreters are
found under ``$PYENV_ROOT/versions/3.1*``; they need not have numpy, so only
commands that never import it are compared, and the asymmetry sums are
replayed on midline axes fitted by the running interpreter.
"""

import glob
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import frame_with, symmetric_coords, write_golden_sequence
from dface.face import load_sequence, save_frame
from dface.symmetry import estimate_midline

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
    config = tmp_path / "config.ini"
    config.write_text("[au]\nthreshold = 0.02\n"
                      "tie_order = Surprise, Fear, Anger, Disgust, Sadness, Happiness\n")
    commands = [
        ["cayley", "8"],
        ["verify", "8"],
        ["verify", "16"],  # sampled associativity: the seeded random.Random draws
        ["aus", str(neutral), str(expr)],
        ["classify", str(neutral), str(expr)],
        ["--config", str(config), "classify", str(neutral), str(expr)],
    ]
    expected = _stdout_digests(sys.executable, commands)
    assert [code for code, _ in expected] == [0] * len(commands)
    for exe in others:
        assert _stdout_digests(exe, commands) == expected, exe


def test_ordered_mean_adds_left_to_right_on_every_interpreter():
    # From 3.12 ``sum`` compensates and would give 1/3 here.
    probe = "from dface.formatting import ordered_mean; print(ordered_mean([1e16, 1.0, -1e16]))"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    for exe in [sys.executable, *_other_interpreters()]:
        proc = subprocess.run([exe, "-c", probe], capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, b"0.0\n"), exe


# Rebuilds frames and axes from float.hex on stdin and prints float.hex of
# each prefix's movement score, each frame's structural score and the report.
_REPLAY = """
import json, sys
from dface.face import FaceFrame, FrameSequence
from dface.symmetry import MidlineAxis, asymmetry_report, movement_asymmetry, structural_asymmetry

data = json.load(sys.stdin)
h = float.fromhex
frames = tuple(FaceFrame(tuple(p and (h(p[0]), h(p[1])) for p in xy)) for xy in data["frames"])
axes = [MidlineAxis((h(px), h(py)), (h(dx), h(dy)), h(r), degenerate)
        for px, py, dx, dy, r, degenerate in data["axes"]]
ref = h(data["ref"])
out = [movement_asymmetry(FrameSequence(frames[:i], interocular_ref=ref), axes[:i]).hex()
       for i in range(2, len(frames) + 1)]
out += [structural_asymmetry(f, a).hex() for f, a in zip(frames, axes)]
report = asymmetry_report(FrameSequence(frames, interocular_ref=ref), axes)
out += [report.structural.hex(), report.movement.hex(), report.frames_used]
out += [v.hex() for scores in report.per_region.values() for v in scores]
out.append("numpy" in sys.modules)
print(json.dumps(out))
"""


def _replay(exe: str, payload: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([exe, "-c", _REPLAY], input=payload, capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, (exe, proc.stderr)
    return json.loads(proc.stdout)


def test_report_sums_match_across_interpreters(tmp_path):
    others = _other_interpreters()
    if not others:
        pytest.skip("no other Python 3.1x interpreter starts here")
    write_golden_sequence(tmp_path / "seq")
    seq = load_sequence(tmp_path / "seq")
    axes = [estimate_midline(f) for f in seq.frames]
    payload = json.dumps({
        "frames": [[p and (p[0].hex(), p[1].hex()) for p in f.xy] for f in seq.frames],
        "axes": [(*(v.hex() for v in (*a.point, *a.direction, a.fit_residual)), a.degenerate)
                 for a in axes],
        "ref": seq.interocular_ref.hex(),
    })
    expected = _replay(sys.executable, payload)
    assert len(expected) == 39 + 40 + 3 + 8 + 1 and expected[-1] is False
    for exe in others:
        assert _replay(exe, payload) == expected, exe
