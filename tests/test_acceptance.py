"""Acceptance checks.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line straight to the terminal (bypassing capture) so a plain
``pytest -v`` run shows the per-criterion verdicts inline.
"""

import hashlib
import math
from contextlib import contextmanager

import numpy as np

from conftest import IOD, frame_with, rigid_motion, symmetric_coords
from dface.augment import act_on_image, orbit
from dface.aus import (
    ActivityClass,
    AUActivation,
    Emotion,
    Side,
    classify_emotion,
    rule_tables,
)
from dface.cli import main
from dface.dihedral import (
    compose,
    elements,
    identity,
    inverse,
    matrix_of,
    verify_group_axioms,
)
from dface.face import FrameSequence, build_frame, save_frame
from dface.raster import (
    RasterImage,
    bounding_rect,
    canny_edges,
    read_image,
    write_image,
)
from dface.symmetry import (
    MidlineAxis,
    estimate_midline,
    movement_asymmetry,
    reconstruct_occluded,
    structural_asymmetry,
)


@contextmanager
def criterion(capsys, number: int, label: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {number}: {label}")
        raise
    else:
        with capsys.disabled():
            print(f"PASS criterion {number}: {label}")


def test_criterion_1_group_axioms(capsys):
    with criterion(capsys, 1, "dihedral group axioms hold exhaustively for n=1..8"):
        for n in range(1, 9):
            report = verify_group_axioms(n)
            assert report.passed, f"n={n}: {report}"
            details = {c.name: c.detail for c in report.checks}
            assert details["associativity"] == f"exhaustive over {(2 * n) ** 3} triples"
            assert details["element_count"] == f"{2 * n} distinct elements"

            els = elements(n)
            assert len(els) == 2 * n
            e = identity(n)
            for g in els:
                assert compose(e, g) == g and compose(g, e) == g
                assert compose(g, inverse(g)) == e
                for h in els:
                    assert compose(g, h) in els


def test_criterion_2_matrix_representation(capsys):
    with criterion(capsys, 2, "the 8 matrices represent the group exactly"):
        mats = {g: matrix_of(g) for g in elements(4)}
        assert len({m.entries for m in mats.values()}) == 8
        for g, m in mats.items():
            arr = np.array(m.entries, dtype=np.int64)
            assert np.array_equal(arr.T @ arr, np.eye(2, dtype=np.int64))
            assert m.determinant == (-1 if g.reflection_j else 1)
        for a in elements(4):
            for b in elements(4):
                product = np.array(mats[a].entries) @ np.array(mats[b].entries)
                assert np.array_equal(product, mats[compose(a, b)].entries)


def test_criterion_3_image_action_laws(capsys):
    with criterion(capsys, 3, "pixel permutations respect the group on 100 images"):
        rng = np.random.default_rng(2024)
        d4 = elements(4)
        e = identity(4)
        for i in range(100):
            side = (i % 16) + 1
            img = RasterImage.from_array(
                rng.integers(0, 256, (side, side), dtype=np.uint8)
            )
            assert act_on_image(e, img).samples == img.samples
            for g in d4:
                moved = act_on_image(g, img)
                assert sorted(moved.samples) == sorted(img.samples)
                assert act_on_image(inverse(g), moved) == img
            for a in d4:
                for b in d4:
                    assert (
                        act_on_image(a, act_on_image(b, img)).samples
                        == act_on_image(compose(a, b), img).samples
                    )


def test_criterion_4_orbit_sizes(capsys):
    def distinct(img):
        return len({entry.sha256 for entry in orbit(img)[0].entries})

    with criterion(capsys, 4, "orbit sizes are 1, 2, 4 or 8 and divide 8"):
        constant = RasterImage.from_array(np.full((4, 4), 7, dtype=np.uint8))
        assert distinct(constant) == 1

        pinwheel = np.zeros((4, 4), dtype=np.uint8)
        for r, c in [(0, 1), (1, 3), (3, 2), (2, 0)]:
            pinwheel[r, c] = 255
        assert distinct(RasterImage.from_array(pinwheel)) == 2

        mirror_only = RasterImage.from_array(
            np.array([[1, 2, 1], [3, 4, 3], [5, 6, 5]], dtype=np.uint8)
        )
        assert distinct(mirror_only) == 4

        rng = np.random.default_rng(99)
        generic = RasterImage.from_array(rng.integers(0, 256, (6, 6), dtype=np.uint8))
        assert distinct(generic) == 8

        for _ in range(20):
            img = RasterImage.from_array(
                rng.integers(0, 256, (int(rng.integers(1, 9)),) * 2, dtype=np.uint8)
            )
            assert 8 % distinct(img) == 0


def test_criterion_5_rule_tables(capsys):
    with criterion(capsys, 5, "AU and emotion rule tables match the goldens"):
        tables = rule_tables()
        assert {u.number: u.descriptor for u in tables.action_units} == {
            1: "Inner Brow Raiser",
            2: "Outer Brow Raiser",
            4: "Brow Lowerer",
            5: "Upper Lid Raiser",
            6: "Cheek Raiser",
            7: "Lid Tightener",
            9: "Nose Wrinkler",
            12: "Lip Corner Puller",
            15: "Lip Corner Depressor",
            16: "Lower Lip Depressor",
            20: "Lip Stretcher",
            23: "Lip Tightener",
            26: "Jaw Drop",
        }
        split = {c: {u.number for u in tables.action_units if u.activity_class is c}
                 for c in ActivityClass}
        active = split[ActivityClass.ACTIVE]
        assert active == {1, 2, 4, 12, 15, 16, 20, 23}
        assert split[ActivityClass.PASSIVE] == {5, 6, 7, 9, 26}
        assert {r.emotion: set(r.full_aus) for r in tables.rules} == {
            Emotion.HAPPINESS: {6, 12},
            Emotion.SADNESS: {1, 4, 15},
            Emotion.SURPRISE: {1, 2, 5, 26},
            Emotion.FEAR: {1, 2, 4, 5, 7, 20, 26},
            Emotion.ANGER: {4, 5, 7, 23},
            Emotion.DISGUST: {9, 15, 16},
        }
        assert {r.emotion: set(r.refined_aus) for r in tables.rules} == {
            Emotion.HAPPINESS: {12},
            Emotion.SADNESS: {1, 4, 15},
            Emotion.SURPRISE: {1, 2},
            Emotion.FEAR: {1, 2, 4, 20},
            Emotion.ANGER: {4, 23},
            Emotion.DISGUST: {15, 16},
        }
        for rule in tables.rules:
            assert rule.refined_aus == rule.full_aus & active


def test_criterion_6_classification(capsys):
    with criterion(capsys, 6, "rule sets classify to themselves; overlaps rank sanely"):
        tables = rule_tables()

        def fire(numbers):
            return [
                AUActivation(tables.au(n), Side.BILATERAL, 0.2, True) for n in numbers
            ]

        for rule in tables.rules:
            result = classify_emotion(fire(rule.refined_aus))
            assert result.label == rule.emotion.value
            assert result.ranking[0] == (rule.emotion, 1.0)

        assert classify_emotion([]).label == "Neutral"
        assert classify_emotion([]).ranking == ()

        result = classify_emotion(fire({1, 2, 4, 20}))
        assert result.ranking[0] == (Emotion.FEAR, 1.0)
        assert result.ranking[1][0] is Emotion.SURPRISE
        assert math.isclose(result.ranking[1][1], 0.5)
        assert result.ranking[0][1] > result.ranking[1][1]


def test_criterion_7_mirror_geometry(capsys):
    with criterion(capsys, 7, "mirror fixtures: exact axis, recovery, invariance"):
        coords = symmetric_coords()
        frame = build_frame(coords)

        axis = estimate_midline(frame)
        assert axis.fit_residual <= 1e-12
        assert structural_asymmetry(frame) <= 1e-12

        # every lateral point is recoverable from its mirror twin
        for pid in (0, 2, 7, 9, 14, 16, 3, 11, 17):
            occluded = frame_with(coords, **{str(pid): None})
            restored = reconstruct_occluded(occluded)
            rx, ry = restored.coords(pid)
            ox, oy = coords[pid]
            assert math.hypot(rx - ox, ry - oy) <= 1e-9
            assert restored.point(pid).reconstructed

        # a controlled counterpart offset surfaces as exactly that error
        delta = 0.25
        shifted = dict(coords)
        shifted[17] = (coords[17][0] + delta, coords[17][1])
        occluded = frame_with(shifted, **{"14": None})
        ideal = MidlineAxis((100.0, 0.0), (0.0, 1.0), 0.0)
        restored = reconstruct_occluded(occluded, ideal)
        rx, ry = restored.coords(14)
        assert math.isclose(
            math.hypot(rx - coords[14][0], ry - coords[14][1]), delta, rel_tol=1e-12
        )

        # scores survive rotation, translation, and uniform scaling
        rng = np.random.default_rng(7)
        lopsided = dict(coords)
        lopsided[17] = (coords[17][0] + 4.0, coords[17][1] - 2.0)
        s_base = structural_asymmetry(build_frame(lopsided))
        moved2 = dict(coords)
        moved2[14] = (coords[14][0], coords[14][1] + 12.0)
        m_base = movement_asymmetry(
            FrameSequence((build_frame(coords), build_frame(moved2)))
        )
        for _ in range(20):
            angle = float(rng.uniform(0, 2 * np.pi))
            shift = (float(rng.uniform(-500, 500)), float(rng.uniform(-500, 500)))
            scale = float(rng.uniform(0.2, 5.0))
            s_got = structural_asymmetry(
                build_frame(rigid_motion(lopsided, angle, shift, scale))
            )
            assert abs(s_got - s_base) <= 1e-9
            seq = FrameSequence(
                (
                    build_frame(rigid_motion(coords, angle, shift, scale)),
                    build_frame(rigid_motion(moved2, angle, shift, scale)),
                )
            )
            assert abs(movement_asymmetry(seq) - m_base) <= 1e-9


def test_criterion_8_imaging_determinism(capsys):
    with criterion(capsys, 8, "imaging: exact round trips, clean step edge, tight boxes"):
        rng = np.random.default_rng(31)
        for i in range(10):
            if i % 2:
                arr = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)
            else:
                arr = rng.integers(0, 256, (6, 4), dtype=np.uint8)
            img = RasterImage.from_array(arr)
            data = write_image(img)
            for _ in range(10):
                again = write_image(read_image(data))
                assert again == data
                data = again
            assert read_image(data) == img

        step = np.zeros((16, 16), dtype=np.uint8)
        step[:, 8:] = 255
        edges_a = canny_edges(RasterImage.from_array(step), 0.1, 0.3)
        edges_b = canny_edges(RasterImage.from_array(step), 0.1, 0.3)
        assert edges_a.samples == edges_b.samples
        cols = sorted(set(np.nonzero(edges_a.array())[1]))
        assert len(cols) == 1 and abs(cols[0] - 8) <= 1

        for _ in range(50):
            h, w = int(rng.integers(2, 24)), int(rng.integers(2, 24))
            arr = np.zeros((h, w), dtype=np.uint8)
            pts = [
                (int(rng.integers(0, h)), int(rng.integers(0, w)))
                for _ in range(int(rng.integers(1, 7)))
            ]
            for y, x in pts:
                arr[y, x] = int(rng.integers(1, 256))
            rect = bounding_rect(RasterImage.from_array(arr))
            ys = [y for y, _ in pts]
            xs = [x for _, x in pts]
            assert (rect.x0, rect.y0, rect.x1, rect.y1) == (
                min(xs), min(ys), max(xs) + 1, max(ys) + 1
            )


def test_criterion_9_pipeline_report(capsys, tmp_path):
    with criterion(capsys, 9, "two-frame smile sequence reports Happiness, twice, byte-equal"):
        coords = symmetric_coords()
        seqdir = tmp_path / "seq"
        seqdir.mkdir()
        save_frame(seqdir / "frame_0.csv", build_frame(coords))
        smiling = dict(coords)
        smiling[14] = (coords[14][0], coords[14][1] - 0.1 * IOD)
        smiling[17] = (coords[17][0], coords[17][1] - 0.1 * IOD)
        save_frame(seqdir / "frame_1.csv", build_frame(smiling))

        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["report", str(seqdir), str(out1)]) == 0
        assert main(["report", str(seqdir), str(out2)]) == 0

        rows = (out1 / "classification.csv").read_text().splitlines()
        assert rows[0] == "frame,label,score"
        frame1 = rows[2].split(",")
        assert frame1[1] == "Happiness"
        assert float(frame1[2]) == 1.0

        assert (out1 / "asymmetry.csv").exists()
        assert (out1 / "overlay_0.svg").exists()

        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            a = hashlib.sha256((out1 / name).read_bytes()).hexdigest()
            b = hashlib.sha256((out2 / name).read_bytes()).hexdigest()
            assert a == b
