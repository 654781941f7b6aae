"""Square-group actions on images, key points, and kernels; orbit output."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frame_with, symmetric_coords
from dface.augment import (
    act_on_image,
    act_on_keypoints,
    augment_dataset,
    kernel_bank,
    manifest_csv,
    orbit,
    transform_kernel,
)
from dface.dihedral import (
    GroupElement,
    compose,
    element_name,
    elements,
    identity,
    inverse,
    parse_element,
    reflection,
    rotation,
)
from dface.aus import Side, detect_active_aus
from dface.errors import DfaceError, RasterShapeError, UnsupportedOrderError
from dface.face import (
    LATERAL_PAIRS,
    FaceFrame,
    FrameSequence,
    PointState,
    build_frame,
    counterpart,
    load_frame,
    save_frame,
)
from dface.raster import RasterImage, read_image, write_image
from dface.symmetry import estimate_midline, movement_asymmetry, structural_asymmetry

D4 = elements(4)


def gray(arr) -> RasterImage:
    return RasterImage.from_array(np.asarray(arr, dtype=np.uint8))


def random_square(rng, side: int) -> RasterImage:
    return gray(rng.integers(0, 256, (side, side), dtype=np.uint8))


def test_two_by_two_golden_orbit():
    img = gray([[1, 2], [3, 4]])
    want = {
        "e": [[1, 2], [3, 4]],
        "r": [[2, 4], [1, 3]],
        "r2": [[4, 3], [2, 1]],
        "r3": [[3, 1], [4, 2]],
        "s": [[2, 1], [4, 3]],
        "sr": [[4, 2], [3, 1]],
        "sr2": [[3, 4], [1, 2]],
        "sr3": [[1, 3], [2, 4]],
    }
    for g in D4:
        got = act_on_image(g, img).array()
        assert got.tolist() == want[element_name(g)], element_name(g)


def test_identity_is_byte_exact():
    rng = np.random.default_rng(1)
    img = random_square(rng, 7)
    out = act_on_image(identity(4), img)
    assert out == img
    assert out.samples == img.samples


def test_horizontal_flip_on_non_square():
    img = gray([[1, 2, 3], [4, 5, 6]])
    out = act_on_image(reflection(4), img)
    assert out.array().tolist() == [[3, 2, 1], [6, 5, 4]]


def test_quarter_turn_transposes_shape():
    img = gray(np.zeros((2, 3)))
    out = act_on_image(rotation(4), img)
    assert (out.width, out.height) == (2, 3)


def test_image_action_rejects_other_orders():
    with pytest.raises(UnsupportedOrderError):
        act_on_image(identity(3), gray([[0]]))
    with pytest.raises(UnsupportedOrderError):
        transform_kernel(identity(3), np.ones((3, 3)))


def test_image_action_composition_law():
    rng = np.random.default_rng(2)
    for side in (4, 5):
        img = random_square(rng, side)
        for a in D4:
            for b in D4:
                left = act_on_image(a, act_on_image(b, img))
                right = act_on_image(compose(a, b), img)
                assert left.samples == right.samples


def test_image_action_preserves_pixel_multiset():
    rng = np.random.default_rng(3)
    img = random_square(rng, 6)
    for g in D4:
        assert sorted(act_on_image(g, img).samples) == sorted(img.samples)


def test_image_action_inverse_round_trip():
    rng = np.random.default_rng(4)
    img = random_square(rng, 5)
    for g in D4:
        assert act_on_image(inverse(g), act_on_image(g, img)) == img


def _quarter_turns_then_a_flip(g, arr):
    # the action written without the matrix table: rotate counterclockwise
    # k quarter turns, then flip horizontally if g reflects
    out = np.rot90(arr, g.rotation_k)
    return np.fliplr(out) if g.reflection_j else out


@pytest.mark.parametrize("shape", [(3, 5), (1, 2), (4, 7, 3), (6, 6, 3)])
def test_image_action_matches_quarter_turns_then_a_flip(shape):
    arr = np.random.default_rng(8).integers(0, 256, shape, dtype=np.uint8)
    img = RasterImage.from_array(arr)
    for g in D4:
        got, want = act_on_image(g, img).array(), _quarter_turns_then_a_flip(g, arr)
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), element_name(g)


def test_kernel_action_matches_quarter_turns_then_a_flip():
    k = np.random.default_rng(9).normal(size=(5, 5))
    for g in D4:
        got = transform_kernel(g, k)
        assert got.flags.c_contiguous, element_name(g)
        assert got.tobytes() == _quarter_turns_then_a_flip(g, k).tobytes(), element_name(g)


def test_keypoint_action_identity(base_frame):
    assert act_on_keypoints(identity(4), base_frame, (100.0, 100.0)) == base_frame


def test_keypoint_action_mirror_fixes_symmetric_face(base_frame):
    # the fixture is mirrored about x = 100, so flipping about that line
    # maps each point exactly onto its counterpart slot
    out = act_on_keypoints(reflection(4), base_frame, (100.0, 130.0))
    assert out == base_frame


def test_keypoint_action_moves_and_relabels(base_coords):
    frame = build_frame(base_coords)
    out = act_on_keypoints(reflection(4), frame, (90.0, 100.0))
    # left inner brow (85, 80) reflects to x = 2*90 - 85 = 95 and lands in
    # the right inner brow slot
    assert out.coords(3) == (95.0, 80.0)
    assert out.point(3).laterality.value == "right"
    # midline points stay midline
    assert out.coords(20) == (80.0, 128.0)


def test_keypoint_action_rotation_about_center(base_frame):
    out = act_on_keypoints(rotation(4), base_frame, (100.0, 100.0))
    # quarter turn counterclockwise in y-up coords: (85, 80) has offsets
    # (-15, +20); M r = (-20, -15)... stored back y-down at (80, 115)
    assert out.coords(0) == (80.0, 115.0)


def test_keypoint_action_absent_points_travel(base_coords):
    frame = frame_with(base_coords, **{"14": None})
    out = act_on_keypoints(reflection(4), frame, (100.0, 100.0))
    # the missing left corner leaves its mirror slot empty
    assert not out.point(17).present
    assert out.point(14).present


def test_keypoint_action_keeps_reconstructed_flag(base_frame):
    marked = base_frame.with_coords({2: (55.0, 80.0)}, reconstructed=True)
    out = act_on_keypoints(reflection(4), marked, (100.0, 100.0))
    assert out.point(5).reconstructed
    assert not out.point(2).reconstructed


def test_keypoint_action_moves_states_with_their_points(base_frame):
    # a reflection stores point 0's coordinates under its mirror id, 3, and
    # used to leave point 0's state behind in slot 0
    frame = FaceFrame(base_frame.xy, (PointState.PASSIVE,) + base_frame.states[1:])
    for g in D4:
        out = act_on_keypoints(g, frame, (100.0, 100.0))
        passive = [pid for pid, state in enumerate(out.states) if state is PointState.PASSIVE]
        assert passive == [counterpart(0) if g.reflection_j else 0]


def test_keypoint_action_composition_law(base_frame):
    center = (100.0, 100.0)
    for a in D4:
        for b in D4:
            left = act_on_keypoints(a, act_on_keypoints(b, base_frame, center), center)
            right = act_on_keypoints(compose(a, b), base_frame, center)
            for pid in range(24):
                lx, ly = left.coords(pid)
                rx, ry = right.coords(pid)
                assert abs(lx - rx) <= 1e-12 and abs(ly - ry) <= 1e-12


def test_keypoint_action_inverse_round_trip(base_frame):
    center = (87.5, 102.5)
    for g in D4:
        back = act_on_keypoints(inverse(g), act_on_keypoints(g, base_frame, center), center)
        for pid in range(24):
            bx, by = back.coords(pid)
            ox, oy = base_frame.coords(pid)
            assert abs(bx - ox) <= 1e-12 and abs(by - oy) <= 1e-12


@st.composite
def _face_sequences(draw):
    """2-6 frames of the fixture face: up to 3 px of jitter per point, a
    drawn raise of the left lip corner, and one side of up to two lateral
    pairs occluded, so every frame keeps a midline and can be completed."""
    frames = []
    for _ in range(draw(st.integers(2, 6))):
        jitter = st.tuples(st.floats(-3, 3), st.floats(-3, 3))
        coords = {
            pid: (x + dx, y + dy)
            for (pid, (x, y)), (dx, dy) in zip(
                sorted(symmetric_coords().items()),
                draw(st.lists(jitter, min_size=24, max_size=24)),
            )
        }
        lift = draw(st.floats(0, 12))
        coords[14] = (coords[14][0], coords[14][1] - lift)
        for pair in draw(st.sets(st.sampled_from(LATERAL_PAIRS), max_size=2)):
            del coords[pair[draw(st.integers(0, 1))]]
        frames.append(build_frame(coords))
    return FrameSequence(tuple(frames), interocular_ref=draw(st.sampled_from([None, 60.0])))


def _movement_or_error(seq, axes=None):
    try:
        return movement_asymmetry(seq, axes)
    except DfaceError as exc:
        return type(exc)


def _same(value):
    return value if isinstance(value, type) else pytest.approx(value, abs=1e-9)


_MIRROR_SIDE = {Side.LEFT: Side.RIGHT, Side.RIGHT: Side.LEFT, Side.BILATERAL: Side.BILATERAL}


@settings(max_examples=40)
@given(_face_sequences(), st.tuples(st.floats(-50, 250), st.floats(-50, 250)))
def test_d4_keeps_scores_and_mirror_swaps_au_sides(seq, center):
    n = len(seq.frames)
    structural = [pytest.approx(structural_asymmetry(f), abs=1e-9) for f in seq.frames]
    movement = _movement_or_error(seq)
    one_axis = _movement_or_error(seq, [estimate_midline(seq.frames[0])] * n)
    for g in D4:
        moved = FrameSequence(
            tuple(act_on_keypoints(g, f, center) for f in seq.frames),
            interocular_ref=seq.interocular_ref,
        )
        assert [structural_asymmetry(f) for f in moved.frames] == structural
        assert _movement_or_error(moved, [estimate_midline(moved.frames[0])] * n) == _same(
            one_axis
        )
        if not g.reflection_j:
            assert _movement_or_error(moved) == _same(movement)
            continue
        # A reflection swaps which side moves in image coordinates and which
        # is mirrored about each frame's own axis, so with per-frame axes the
        # movement score is kept only when every frame shares one axis.
        if g == reflection(4):
            # The AU rules read raster rows, so only the mirror that keeps
            # "up" (x -> -x) leaves them comparable: each activation must
            # come back on the other side with the same magnitude.
            for before, after in zip(seq.frames, moved.frames):
                want = detect_active_aus(seq.frames[0], before)
                got = detect_active_aus(moved.frames[0], after)
                assert [(a.au.number, a.side) for a in got] == [
                    (a.au.number, _MIRROR_SIDE[a.side]) for a in want
                ]
                assert [a.magnitude for a in got] == pytest.approx(
                    [a.magnitude for a in want], abs=1e-9
                )


def _marker_frame(x: float, y: float):
    return build_frame({0: (x, y)})


def _marker_slot(g) -> int:
    # point 0 is lateral; a reflection stores it under its mirror id 3
    return 3 if g.reflection_j else 0


@pytest.mark.parametrize("side", [4, 5])
def test_keypoint_and_image_actions_agree_on_lattice(side):
    # one bright pixel doubles as a key point; both actions must send it to
    # the same place, for every element and for both center parities
    pivot = ((side - 1) / 2.0, (side - 1) / 2.0)
    for x0, y0 in [(1, 0), (side - 1, side - 2), (2, 2)]:
        arr = np.zeros((side, side), dtype=np.uint8)
        arr[y0, x0] = 255
        img = gray(arr)
        frame = _marker_frame(float(x0), float(y0))
        for g in D4:
            moved_img = act_on_image(g, img).array()
            ys, xs = np.nonzero(moved_img)
            assert ys.size == 1
            moved_frame = act_on_keypoints(g, frame, pivot)
            px, py = moved_frame.coords(_marker_slot(g))
            assert (px, py) == (float(xs[0]), float(ys[0])), element_name(g)


def test_kernel_golden_quarter_turn():
    sobel_x = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)
    out = transform_kernel(rotation(4), sobel_x)
    assert out.tolist() == [[1, 2, 1], [0, 0, 0], [-1, -2, -1]]


def test_kernel_sum_preserved():
    rng = np.random.default_rng(5)
    k = rng.normal(size=(5, 5))
    for g in D4:
        assert transform_kernel(g, k).sum() == pytest.approx(k.sum(), rel=1e-12)


def test_kernel_composition_and_inverse():
    rng = np.random.default_rng(6)
    k = rng.normal(size=(3, 3))
    for a in D4:
        assert np.array_equal(transform_kernel(inverse(a), transform_kernel(a, k)), k)
        for b in D4:
            assert np.array_equal(
                transform_kernel(a, transform_kernel(b, k)),
                transform_kernel(compose(a, b), k),
            )


def test_kernel_symmetric_fixed_point():
    base = np.array([1.0, 2.0, 1.0])
    k = np.outer(base, base) / 16.0
    for g in D4:
        assert np.array_equal(transform_kernel(g, k), k)


def test_kernel_shape_validation():
    with pytest.raises(RasterShapeError):
        transform_kernel(identity(4), np.zeros((2, 3)))
    with pytest.raises(RasterShapeError):
        transform_kernel(identity(4), np.zeros((4, 4)))


def test_kernel_bank_layout():
    k = np.arange(9, dtype=np.float64).reshape(3, 3)
    bank = kernel_bank(k)
    assert [name for name, _ in bank] == ["e", "r", "r2", "r3", "s", "sr", "sr2", "sr3"]
    assert np.array_equal(bank[0][1], k)
    assert len({arr.tobytes() for _, arr in bank}) == 8


def _distinct(manifest) -> int:
    return len({entry.sha256 for entry in manifest.entries})


def test_orbit_distinct_counts():
    rng = np.random.default_rng(7)
    constant = gray(np.full((4, 4), 9))
    manifest, _ = orbit(constant)
    assert _distinct(manifest) == 1

    mirror_only = gray([[1, 2, 1], [3, 4, 3], [5, 6, 5]])
    manifest, _ = orbit(mirror_only)
    assert _distinct(manifest) == 4

    generic = random_square(rng, 6)
    manifest, _ = orbit(generic)
    assert _distinct(manifest) == 8


def test_orbit_counts_divide_eight():
    rng = np.random.default_rng(8)
    for _ in range(10):
        manifest, _ = orbit(random_square(rng, int(rng.integers(2, 9))))
        assert 8 % _distinct(manifest) == 0


def test_orbit_manifest_contents():
    img = gray([[1, 2], [3, 4]])
    manifest, images = orbit(img, source_id="probe")
    assert manifest.source_id == "probe"
    assert [e.element for e in manifest.entries] == [
        "e", "r", "r2", "r3", "s", "sr", "sr2", "sr3"
    ]
    for entry in manifest.entries:
        assert entry.path == f"probe__{entry.element}.pgm"
        data = write_image(images[entry.element])
        assert entry.sha256 == hashlib.sha256(data).hexdigest()


def test_orbit_color_suffix():
    rng = np.random.default_rng(9)
    img = RasterImage.from_array(rng.integers(0, 256, (3, 3, 3), dtype=np.uint8))
    manifest, _ = orbit(img, source_id="c")
    assert manifest.entries[0].path == "c__e.ppm"


def test_orbit_rejects_non_square():
    with pytest.raises(RasterShapeError) as exc:
        orbit(gray(np.zeros((2, 3))))
    assert "pad_to_square" in str(exc.value)


def _write_dataset(d, base_frame):
    img = gray(np.arange(16, dtype=np.uint8).reshape(4, 4))
    (d / "face.pgm").write_bytes(write_image(img))
    save_frame(d / "face.csv", base_frame)
    return img


def test_augment_dataset_full_orbit(tmp_path, base_frame):
    src, out = tmp_path / "in", tmp_path / "out"
    src.mkdir()
    _write_dataset(src, base_frame)
    summary = augment_dataset(src, out)
    assert (summary.processed, summary.written, summary.errors) == (1, 8, ())
    pgms = sorted(p.name for p in out.glob("*.pgm"))
    assert pgms == [f"face__{name}.pgm" for name in
                    ["e", "r", "r2", "r3", "s", "sr", "sr2", "sr3"]]
    assert len(list(out.glob("*.csv"))) == 9  # 8 key point files + manifest

    # the identity copy reproduces the source exactly
    assert read_image((out / "face__e.pgm").read_bytes()).samples == bytes(range(16))
    assert load_frame(out / "face__e.csv") == base_frame

    manifest = (out / "manifest.csv").read_text()
    lines = manifest.splitlines()
    assert lines[0] == "source,element,path,sha256"
    assert len(lines) == 9
    assert lines[1].startswith("face,e,face__e.pgm,")


def test_augment_dataset_element_subset(tmp_path, base_frame):
    src, out = tmp_path / "in", tmp_path / "out"
    src.mkdir()
    _write_dataset(src, base_frame)
    summary = augment_dataset(src, out, [rotation(4, 2), identity(4), rotation(4, 2)])
    assert summary.written == 2
    assert sorted(p.name for p in out.glob("*.pgm")) == ["face__e.pgm", "face__r2.pgm"]
    lines = (out / "manifest.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["e", "r2"]


def test_augment_dataset_unknown_element(tmp_path):
    # parse_element is the one check of an element's name; augment_dataset
    # takes elements and refuses one outside D4 before it writes anything
    with pytest.raises(DfaceError) as exc:
        parse_element(4, "q")
    assert str(exc.value) == "unknown element name 'q'" and exc.value.code == "domain"
    (tmp_path / "in").mkdir()
    with pytest.raises(UnsupportedOrderError, match="defined for D4 only, got D5"):
        augment_dataset(tmp_path / "in", tmp_path / "out", [identity(4), rotation(5)])
    assert not (tmp_path / "out").exists()


def test_augment_dataset_empty_dir(tmp_path):
    src, out = tmp_path / "in", tmp_path / "out"
    src.mkdir()
    summary = augment_dataset(src, out)
    assert (summary.processed, summary.written) == (0, 0)
    assert (out / "manifest.csv").read_text() == "source,element,path,sha256\n"


def test_augment_dataset_records_bad_inputs(tmp_path):
    src, out = tmp_path / "in", tmp_path / "out"
    src.mkdir()
    (src / "broken.pgm").write_bytes(b"not a pgm at all")
    (src / "wide.pgm").write_bytes(write_image(gray(np.zeros((2, 3)))))
    (src / "ok.pgm").write_bytes(write_image(gray(np.zeros((2, 2)))))
    summary = augment_dataset(src, out)
    assert summary.processed == 1
    assert summary.written == 8
    names = sorted(name for name, _ in summary.errors)
    assert names == ["broken.pgm", "wide.pgm"]


def test_augment_dataset_require_square(tmp_path):
    src, out = tmp_path / "in", tmp_path / "out"
    src.mkdir()
    (src / "wide.pgm").write_bytes(write_image(gray(np.zeros((2, 3)))))
    with pytest.raises(RasterShapeError):
        augment_dataset(src, out, require_square=True)


def test_augment_dataset_records_bad_keypoints(tmp_path):
    src, out = tmp_path / "in", tmp_path / "out"
    src.mkdir()
    (src / "face.pgm").write_bytes(write_image(gray(np.zeros((2, 2)))))
    (src / "face.csv").write_text("garbage\n")
    summary = augment_dataset(src, out)
    assert summary.processed == 0
    assert len(summary.errors) == 1
    assert summary.errors[0][0] == "face.pgm"


def test_augment_dataset_skips_keypoints_that_cannot_move(tmp_path, base_frame):
    # about this pivot the identity still gives finite coordinates but a
    # quarter turn gives x = inf; no file of the image may be written first
    src, out = tmp_path / "in", tmp_path / "out"
    src.mkdir()
    (src / "face.pgm").write_bytes(write_image(gray(np.zeros((2, 2)))))
    save_frame(src / "face.csv", base_frame)
    summary = augment_dataset(src, out, center=(1e308, -1e308))
    assert (summary.processed, summary.written) == (0, 0)
    assert summary.errors == (
        ("face.pgm", "coordinates must be None or an (x, y) pair of finite numbers, got (inf, 0.0)"),
    )
    assert sorted(p.name for p in out.iterdir()) == ["manifest.csv"]
    assert (out / "manifest.csv").read_text() == manifest_csv([])


def test_augment_dataset_reruns_are_identical(tmp_path, base_frame):
    src = tmp_path / "in"
    src.mkdir()
    _write_dataset(src, base_frame)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    augment_dataset(src, out1)
    augment_dataset(src, out2)
    for p in sorted(out1.iterdir()):
        assert p.read_bytes() == (out2 / p.name).read_bytes()


def test_manifest_csv_empty():
    assert manifest_csv([]) == "source,element,path,sha256\n"
