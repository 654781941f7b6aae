"""Shared fixtures: a hand-built mirrored face and small variant factories.

The base face is exactly symmetric about the vertical line x = 100 with an
interocular distance of 60, so midline fits, reflections, and displacement
arithmetic all have closed-form expected values.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dface.face import FaceFrame, build_frame, save_frame

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

AXIS_X = 100.0
IOD = 60.0

# left-side points, keyed by canonical id
_LEFT = {
    0: (85.0, 80.0),
    1: (70.0, 75.0),
    2: (55.0, 80.0),
    6: (80.0, 100.0),
    7: (70.0, 95.0),
    8: (60.0, 100.0),
    9: (70.0, 105.0),
    14: (75.0, 140.0),
    15: (80.0, 135.0),
    16: (80.0, 145.0),
}

_MIDLINE = {
    20: (100.0, 128.0),
    21: (100.0, 133.0),
    22: (100.0, 147.0),
    23: (100.0, 152.0),
}


def mirror_x(p: tuple[float, float]) -> tuple[float, float]:
    return (2.0 * AXIS_X - p[0], p[1])


def symmetric_coords() -> dict[int, tuple[float, float]]:
    out = dict(_LEFT)
    for left_id, p in _LEFT.items():
        right_id = left_id + (3 if left_id < 6 else 4 if left_id < 14 else 3)
        out[right_id] = mirror_x(p)
    out.update(_MIDLINE)
    return out


@pytest.fixture
def base_coords() -> dict[int, tuple[float, float]]:
    return symmetric_coords()


@pytest.fixture
def base_frame(base_coords) -> FaceFrame:
    return build_frame(base_coords)


def frame_with(coords: dict[int, tuple[float, float]], **overrides) -> FaceFrame:
    """Copy of a coordinate table with per-id replacements; an override of
    None drops the point (occlusion)."""
    table = dict(coords)
    for pid, value in overrides.items():
        if value is None:
            del table[int(pid)]
        else:
            table[int(pid)] = value
    return build_frame(table)


def rigid_motion(coords, angle: float, shift: tuple[float, float], scale: float = 1.0):
    """Rotate about the origin, scale, then translate every point."""
    c, s = np.cos(angle), np.sin(angle)
    out = {}
    for pid, (x, y) in coords.items():
        rx, ry = c * x - s * y, s * x + c * y
        out[pid] = (scale * rx + shift[0], scale * ry + shift[1])
    return out


def write_golden_sequence(seqdir):
    """40 frames: head sway and nod, a raise of the left lip corner alone,
    one lateral point occluded in every seventh frame, reference length 60."""
    seqdir.mkdir()
    for t in range(40):
        coords = symmetric_coords()
        lift = 9.0 * math.sin(math.pi * t / 20) ** 2
        for pid in (14, 15, 16):
            x, y = coords[pid]
            coords[pid] = (x - 0.3 * lift, y - lift)
        pose = (0.05 * math.sin(t / 6), (12 * math.sin(t / 9), 3 * math.cos(t / 5)))
        table = {pid: (round(x, 3), round(y, 3))
                 for pid, (x, y) in rigid_motion(coords, *pose).items()}
        if t % 7 == 3:
            del table[(2, 9, 17, 12)[t // 7 % 4]]
        save_frame(seqdir / f"frame_{t}.csv", build_frame(table))
    (seqdir / "sequence.ini").write_text("[sequence]\ninterocular_ref = 60\n")
