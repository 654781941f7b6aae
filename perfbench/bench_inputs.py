"""Seeded synthetic inputs and the command list of every workload.

Everything here uses only the standard library and numpy, and writes the
file formats by hand, so the inputs do not depend on the code under test.
The same seed and scale always give byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Why each workload is in the benchmark; written beside its inputs as WHY.txt.
WORKLOADS = {
    "seq_report": "frame pipeline (face, symmetry, aus, overlay) on one 300-frame "
                  "occluded sequence: report is quadratic in frames, raster and "
                  "dihedral do no work",
    "image_edges": "raster compute only: Canny on dense-edge noise and sparse-edge "
                   "disks, since hysteresis cost depends on edge density",
    "cli_mix": "many short fresh commands and error paths, small augment runs "
               "included: start-up, imports, dihedral and augment set the time",
}


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    name: str
    frames: int
    edge_side: int
    ppm_side: int
    cli_groups: int
    cli_side: int
    cli_aug_images: int
    import_probes: int


FULL = Scale("full", frames=300, edge_side=1024, ppm_side=512, cli_groups=3,
             cli_side=64, cli_aug_images=4, import_probes=3)
TINY = Scale("tiny", frames=10, edge_side=64, ppm_side=32, cli_groups=1,
             cli_side=16, cli_aug_images=2, import_probes=1)


@dataclass(frozen=True)
class Op:
    """One ``dface`` command; ``{out}`` in ``argv`` is the op's own empty
    output directory.  ``expect`` is the exit code the README promises."""

    name: str
    argv: tuple[str, ...]
    expect: int = 0

    def bind(self, out_dir: Path) -> list[str]:
        return [a.replace("{out}", str(out_dir)) for a in self.argv]


# 24-point layout: (region, laterality) per id, and a mirrored neutral face
# centred on the origin (subject's left at +x, y down), interocular 48 px.
_LAYOUT = (
    [("eyebrow", "left")] * 3 + [("eyebrow", "right")] * 3
    + [("eye", "left")] * 4 + [("eye", "right")] * 4
    + [("lip_corner", "left")] * 3 + [("lip_corner", "right")] * 3
    + [("lip_middle", "midline")] * 4
)
_LEFT_BROW = [(12, -30), (24, -34), (36, -30)]
_LEFT_EYE = [(14, -18), (24, -22), (34, -18), (24, -14)]
_LEFT_LIP = [(20, 30), (12, 26), (12, 34)]
_BASE = np.array(
    _LEFT_BROW + [(-x, y) for x, y in _LEFT_BROW]
    + _LEFT_EYE + [(-x, y) for x, y in _LEFT_EYE]
    + _LEFT_LIP + [(-x, y) for x, y in _LEFT_LIP]
    + [(0, 24), (0, 27), (0, 33), (0, 36)],
    dtype=np.float64,
)
_INTEROCULAR = 48.0
_LATERAL_IDS = 20
_LEFT_LIP_IDS = (14, 15, 16)
_BROW_IDS = (0, 1, 2, 3, 4, 5)
_LIP_CORNER_IDS = (14, 15, 16, 17, 18, 19)


def _frame_csv(coords: np.ndarray, missing: int | None = None) -> str:
    lines = ["id,region,laterality,state,x,y,present"]
    for pid, ((region, side), (x, y)) in enumerate(zip(_LAYOUT, coords)):
        state = "stable" if region == "eye" else "active"
        if pid == missing:
            lines.append(f"{pid},{region},{side},{state},,,0")
        else:
            lines.append(f"{pid},{region},{side},{state},{x:.4f},{y:.4f},1")
    return "\n".join(lines) + "\n"


def _pose(coords: np.ndarray, angle: float, tx: float, ty: float, scale: float = 1.0):
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]]) * scale
    return coords @ rot.T + (tx, ty)


def _netpbm(pixels: np.ndarray) -> bytes:
    magic = b"P5" if pixels.ndim == 2 else b"P6"
    h, w = pixels.shape[:2]
    return magic + b"\n%d %d\n255\n" % (w, h) + pixels.astype(np.uint8).tobytes()


def _noise(rng, side: int, channels: int) -> np.ndarray:
    shape = (side, side) if channels == 1 else (side, side, 3)
    return rng.integers(0, 256, shape, dtype=np.uint8)


def _disk(rng, width: int, height: int, channels: int) -> np.ndarray:
    """One flat disk on a flat background plus +-3 noise: sparse edges."""
    yy, xx = np.mgrid[0:height, 0:width]
    cx = width / 2 + rng.uniform(-width / 8, width / 8)
    cy = height / 2 + rng.uniform(-height / 8, height / 8)
    r = rng.uniform(0.2, 0.35) * min(width, height)
    inside = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
    planes = []
    for _ in range(channels):
        bg, fg = int(rng.integers(20, 60)), int(rng.integers(160, 230))
        jitter = rng.integers(-3, 4, (height, width))
        planes.append(np.clip(np.where(inside, fg, bg) + jitter, 0, 255))
    out = planes[0] if channels == 1 else np.stack(planes, axis=2)
    return out.astype(np.uint8)


def _write(path: Path, data: bytes | str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.write_bytes(data)
    return path


def _seq_report(rng, scale: Scale, root: Path) -> list[Op]:
    """Rigid head motion, 0.7 px jitter, a one-sided left lip-corner raise,
    and about 10% of frames (always frame 0, the neutral) missing one
    lateral point."""
    seq = root / "seq"
    face = _BASE + rng.normal(0.0, 0.6, _BASE.shape)
    phases = rng.uniform(0.0, 2 * math.pi, 4)
    occluded = rng.random(scale.frames) < 0.1
    occluded[0] = True
    for t in range(scale.frames):
        pts = face.copy()
        smile = 8.0 * max(0.0, math.sin(2 * math.pi * t / 60 + phases[3])) ** 2
        pts[list(_LEFT_LIP_IDS), 1] -= smile
        pts[list(_LEFT_LIP_IDS), 0] += 0.3 * smile
        angle = math.radians(3.0) * math.sin(2 * math.pi * t / 97 + phases[0])
        tx = 320 + 25 * math.sin(2 * math.pi * t / 151 + phases[1])
        ty = 240 + 1.5 * math.sin(2 * math.pi * t / 71 + phases[2])
        pts = _pose(pts, angle, tx, ty) + rng.normal(0.0, 0.7, pts.shape)
        missing = int(rng.integers(0, _LATERAL_IDS)) if occluded[t] else None
        _write(seq / f"frame_{t}.csv", _frame_csv(pts, missing))
    _write(seq / "sequence.ini", f"[sequence]\ninterocular_ref = {_INTEROCULAR:g}\n")
    return [
        Op("report", ("report", str(seq), "{out}/report", "--report-format", "both")),
        Op("asymmetry", ("asymmetry", str(seq))),
    ]


def _image_edges(rng, scale: Scale, root: Path) -> list[Op]:
    s, p = scale.edge_side, scale.ppm_side
    images = {
        "noise.pgm": _noise(rng, s, 1),
        "disk.pgm": _disk(rng, s, s, 1),
        "disk.ppm": _disk(rng, p, p, 3),
    }
    ops = []
    for name, pixels in images.items():
        path = _write(root / name, _netpbm(pixels))
        stem = name.replace(".", "_")
        ops.append(Op(f"preprocess_{stem}",
                      ("preprocess", str(path), "-o", f"{{out}}/{stem}.pgm")))
    return ops


def _augment_input(rng, src: Path, count: int, side: int) -> Path:
    """Square PGM/PPM noise/disk images, each with key points (some with one
    occluded point), plus one non-square and one truncated image that
    ``augment`` skips."""
    for i in range(count):
        channels = 3 if i % 3 == 2 else 1
        pixels = _noise(rng, side, channels) if i % 2 else _disk(rng, side, side, channels)
        suffix = "ppm" if channels == 3 else "pgm"
        _write(src / f"img_{i:03d}.{suffix}", _netpbm(pixels))
        pts = _pose(_BASE, rng.uniform(-0.2, 0.2), side / 2, side / 2, side / 128)
        pts += rng.normal(0.0, 0.5, pts.shape)
        missing = int(rng.integers(0, _LATERAL_IDS)) if rng.random() < 0.3 else None
        _write(src / f"img_{i:03d}.csv", _frame_csv(pts, missing))
    _write(src / "wide.pgm", _netpbm(_disk(rng, side, side * 3 // 4, 1)))
    _write(src / "truncated.ppm", _netpbm(_noise(rng, side, 3))[: side * 3])
    return src


def _cli_mix(rng, scale: Scale, root: Path) -> list[Op]:
    sobel = _write(root / "sobel.csv", "-1,0,1\n-2,0,2\n-1,0,1\n")
    ops = []
    for g in range(scale.cli_groups):
        d = root / f"group_{g}"
        angle, tx, ty = rng.uniform(-0.1, 0.1), rng.uniform(100, 300), rng.uniform(100, 300)
        neutral = _pose(_BASE + rng.normal(0.0, 0.5, _BASE.shape), angle, tx, ty)
        expr = neutral.copy()
        expr[list(_BROW_IDS), 1] -= rng.uniform(4.0, 7.0)
        expr[list(_LIP_CORNER_IDS), 1] -= rng.uniform(4.0, 7.0)
        expr[[14, 17], 0] += np.array([1.5, -1.5]) * rng.uniform(2.0, 3.0)
        f_neutral = _write(d / "neutral.csv", _frame_csv(neutral))
        f_expr = _write(d / "expr.csv", _frame_csv(expr))
        f_occ = _write(d / "occluded.csv",
                       _frame_csv(expr, int(rng.integers(0, _LATERAL_IDS))))
        maker = _noise if g % 2 else (lambda r, s, c: _disk(r, s, s, c))
        img = _write(d / "small.pgm", _netpbm(maker(rng, scale.cli_side, 1)))
        trunc = _write(d / "truncated.pgm", _netpbm(_noise(rng, scale.cli_side, 1))[:-7])
        bad = _write(d / "bad_header.csv",
                     _frame_csv(neutral).replace("present", "visible", 1))
        images = _augment_input(rng, d / "images", scale.cli_aug_images, scale.cli_side)
        ops += [
            Op(f"g{g}_cayley_4", ("cayley", "4")),
            Op(f"g{g}_cayley_64", ("cayley", "64")),
            Op(f"g{g}_verify_8", ("verify", "8")),
            Op(f"g{g}_verify_128", ("verify", "128")),
            Op(f"g{g}_midline", ("midline", str(f_neutral))),
            Op(f"g{g}_structural", ("asymmetry", str(f_expr), "--structural")),
            Op(f"g{g}_reconstruct", ("reconstruct", str(f_occ))),
            Op(f"g{g}_aus", ("aus", str(f_neutral), str(f_expr))),
            Op(f"g{g}_classify", ("classify", str(f_neutral), str(f_expr))),
            Op(f"g{g}_transform", ("transform", "r", str(img), "-o", "{out}/r.pgm")),
            Op(f"g{g}_kernels", ("kernels", str(sobel), "{out}/bank")),
            Op(f"g{g}_augment", ("augment", str(images), "{out}/augmented")),
            Op(f"g{g}_truncated_pgm", ("transform", "e", str(trunc), "-o", "{out}/t.pgm"), 3),
            Op(f"g{g}_bad_header", ("midline", str(bad)), 3),
        ]
    img0 = root / "group_0" / "small.pgm"
    ops += [
        Op("verify_0", ("verify", "0"), 2),
        Op("unknown_element", ("transform", "q", str(img0)), 2),
    ]
    return ops


def build_known_defects(root: Path) -> list[Op]:
    """Inputs that fail today, kept out of the measured workloads (which
    must not fail) and run once per ``cli_mix`` run so the defect stays in
    view: a non-UTF-8 frame CSV escapes ``main()`` as UnicodeDecodeError,
    where the README promises ``error[...]`` and exit 3."""
    non_utf8 = _write(root / "non_utf8.csv",
                      b"\xff\xfe" + _frame_csv(_BASE).encode("utf-8"))
    return [Op("non_utf8_frame", ("midline", str(non_utf8)), 3)]


_GENERATORS = {
    "seq_report": _seq_report,
    "image_edges": _image_edges,
    "cli_mix": _cli_mix,
}


def build_workload(name: str, seed: int, scale: Scale, root: Path) -> list[Op]:
    """Write the inputs of workload ``name`` for ``seed`` under ``root`` and
    return its commands in run order."""
    rng = np.random.default_rng([seed, sorted(_GENERATORS).index(name)])
    root.mkdir(parents=True, exist_ok=True)
    _write(root / "WHY.txt", WORKLOADS[name] + "\n")
    return _GENERATORS[name](rng, scale, root)
