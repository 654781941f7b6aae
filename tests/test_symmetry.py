"""Midline fitting, reflection, asymmetry scores, and occlusion recovery."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import AXIS_X, IOD, frame_with, rigid_motion, symmetric_coords
from dface import symmetry
from dface.dihedral import GroupElement, matrix_of
from dface.errors import (
    DegenerateFaceError,
    DfaceError,
    InsufficientFramesError,
    InsufficientPairsError,
    SchemaError,
    UnrecoverablePointError,
)
from dface.face import (
    LATERAL_PAIRS,
    MIDLINE_IDS,
    FrameSequence,
    Region,
    build_frame,
)
from dface.formatting import ordered_mean
from dface.symmetry import (
    MidlineAxis,
    asymmetry_report,
    estimate_midline,
    movement_asymmetry,
    reconstruct_occluded,
    reflect_about,
    report_csv,
    structural_asymmetry,
)

IDEAL_AXIS = MidlineAxis((AXIS_X, 0.0), (0.0, 1.0), 0.0)


def test_axis_requires_unit_direction():
    with pytest.raises(SchemaError):
        MidlineAxis((0.0, 0.0), (1.0, 1.0), 0.0)


def test_axis_offset_sign():
    assert IDEAL_AXIS.offset((103.0, 50.0)) == 3.0
    assert IDEAL_AXIS.offset((97.0, 50.0)) == -3.0
    assert IDEAL_AXIS.distance((97.0, 50.0)) == 3.0
    assert IDEAL_AXIS.offset((100.0, 999.0)) == 0.0


def test_midline_exact_on_mirrored_face(base_frame):
    axis = estimate_midline(base_frame)
    assert axis.direction == (0.0, 1.0)
    assert axis.point[0] == pytest.approx(AXIS_X, abs=1e-12)
    assert axis.fit_residual <= 1e-12
    assert not axis.degenerate


def test_midline_recovered_under_rotation(base_coords):
    angle = math.radians(10.0)
    frame = build_frame(rigid_motion(base_coords, angle, (30.0, -12.0)))
    axis = estimate_midline(frame)
    # the fixture's vertical axis rotates along with the frame
    want = (-math.sin(angle), math.cos(angle))
    assert axis.direction[0] == pytest.approx(want[0], abs=1e-9)
    assert axis.direction[1] == pytest.approx(want[1], abs=1e-9)
    assert axis.fit_residual <= 1e-9


def test_midline_needs_three_pairs(base_coords):
    keep = {0, 3, 1, 4}
    coords = {pid: xy for pid, xy in base_coords.items() if pid in keep}
    with pytest.raises(InsufficientPairsError):
        estimate_midline(build_frame(coords))
    # exactly three complete pairs, the brows alone, are enough
    brows = {pid: xy for pid, xy in base_coords.items() if pid <= 5}
    axis = estimate_midline(build_frame(brows))
    assert axis.point[0] == pytest.approx(AXIS_X)
    assert axis.direction[0] == pytest.approx(0.0, abs=1e-12)
    assert axis.fit_residual == 0.0


def test_midline_rejects_a_residual_that_overflows():
    # Eyes 1e-200 apart, three pairs spread over 1e150: the scatter is finite
    # but the residual, normalised by the interocular distance, is not.
    coords = {pid: ((x - 100.0) * 1e-200, (y - 100.0) * 1e-200)
              for pid, (x, y) in symmetric_coords().items()}
    coords[0] = coords[3] = (1e150, 0.0)
    coords[14] = coords[17] = (0.0, 1e150)
    coords[1] = coords[4] = (-1e150, -1e150)
    with pytest.raises(DegenerateFaceError, match="not finite"):
        estimate_midline(build_frame(coords))


def test_midline_rejects_a_scatter_below_the_normal_range():
    # The mirrored fixture turned by 0.5 rad and scaled by 1e-300: the midpoint
    # scatter is subnormal, which used to fit the axis (0, 1) and score 0.5.
    def turned(scale):
        return build_frame(rigid_motion(symmetric_coords(), 0.5, (0.0, 0.0), scale))

    with pytest.raises(DegenerateFaceError, match="subnormal"):
        estimate_midline(turned(1e-300))
    with pytest.raises(DegenerateFaceError, match="subnormal"):
        structural_asymmetry(turned(1e-160))
    for scale in (1.0, 1e-100):
        axis = estimate_midline(turned(scale))
        assert axis.direction == pytest.approx((-math.sin(0.5), math.cos(0.5)), abs=1e-12)
        assert structural_asymmetry(turned(scale), axis) < 1e-14


def test_midline_needs_a_normalization_length():
    # eyes occluded and both points of every other pair at one place: no
    # interocular distance, and the pair spans average to zero
    coords = {pid: (float(pid), 10.0 * pid) for pid in range(24)}
    for left, right in LATERAL_PAIRS:
        coords[right] = coords[left]
    frame = build_frame({pid: coords[pid] for pid in range(24) if not 6 <= pid <= 13})
    with pytest.raises(DegenerateFaceError, match="no usable normalization length"):
        estimate_midline(frame)


def test_midline_degenerate_coincident_midpoints():
    # point symmetry about (100, 100): every pair midpoint collapses there
    coords = dict(symmetric_coords())
    for left, right in LATERAL_PAIRS:
        lx, ly = coords[left]
        coords[right] = (200.0 - lx, 200.0 - ly)
    axis = estimate_midline(build_frame(coords))
    assert axis.degenerate
    assert axis.direction == (0.0, 1.0)
    assert axis.point == (100.0, 100.0)
    assert axis.fit_residual == 0.0


@given(
    st.floats(-200, 200), st.floats(-200, 200),
    st.floats(0, 2 * math.pi),
    st.floats(-300, 300), st.floats(-300, 300),
)
def test_reflect_is_an_involution(ax, ay, theta, px, py):
    axis = MidlineAxis((ax, ay), (math.cos(theta), math.sin(theta)), 0.0)
    once = reflect_about(axis, (px, py))
    twice = reflect_about(axis, once)
    assert math.isclose(twice[0], px, abs_tol=1e-9)
    assert math.isclose(twice[1], py, abs_tol=1e-9)


def test_reflect_known_values():
    vertical = MidlineAxis((0.0, 0.0), (0.0, 1.0), 0.0)
    assert reflect_about(vertical, (3.0, 5.0)) == (-3.0, 5.0)

    hw = math.sqrt(0.5)
    diagonal = MidlineAxis((0.0, 0.0), (hw, hw), 0.0)
    rx, ry = reflect_about(diagonal, (1.0, 2.0))
    assert rx == pytest.approx(2.0, abs=1e-12)
    assert ry == pytest.approx(1.0, abs=1e-12)


def test_reflect_matches_swap_matrix():
    # mirroring across the 45-degree line is the coordinate-swap matrix
    hw = math.sqrt(0.5)
    diagonal = MidlineAxis((0.0, 0.0), (hw, hw), 0.0)
    swap = matrix_of(GroupElement(4, 1, 1))
    assert swap.entries == ((0, 1), (1, 0))
    for p in [(1.0, 2.0), (-4.0, 7.5), (0.0, 0.0), (3.25, -3.25)]:
        rx, ry = reflect_about(diagonal, p)
        mx, my = swap.apply(p)
        assert rx == pytest.approx(mx, abs=1e-12)
        assert ry == pytest.approx(my, abs=1e-12)


def test_structural_zero_on_mirrored_face(base_frame):
    assert structural_asymmetry(base_frame) <= 1e-12


def test_structural_single_offset_worked_value(base_coords):
    # push the right mouth corner 0.1 interocular units outward: one of the
    # 14 terms picks up that distance, every other term stays zero
    x, y = base_coords[17]
    frame = frame_with(base_coords, **{"17": (x + 0.1 * IOD, y)})
    score = structural_asymmetry(frame, axis=IDEAL_AXIS)
    assert score == pytest.approx(0.1 / 14.0, rel=1e-12)


def _structural_oracle(frame, axis):
    total = 0.0
    count = 0
    for left, right in LATERAL_PAIRS:
        lp, rp = frame.point(left), frame.point(right)
        if lp.present and rp.present:
            mx, my = reflect_about(axis, (lp.x, lp.y))
            total += math.hypot(mx - rp.x, my - rp.y)
            count += 1
    for pid in MIDLINE_IDS:
        mp = frame.point(pid)
        if mp.present:
            total += axis.distance((mp.x, mp.y))
            count += 1
    from dface.face import interocular_distance

    return (total / count) / interocular_distance(frame)


def test_structural_matches_oracle_on_perturbed_face(base_coords):
    rng = np.random.default_rng(7)
    coords = {
        pid: (x + rng.uniform(-2, 2), y + rng.uniform(-2, 2))
        for pid, (x, y) in base_coords.items()
    }
    frame = build_frame(coords)
    axis = estimate_midline(frame)
    assert structural_asymmetry(frame, axis) == pytest.approx(
        _structural_oracle(frame, axis), rel=1e-12
    )
    assert structural_asymmetry(frame) == pytest.approx(
        _structural_oracle(frame, axis), rel=1e-12
    )


def test_structural_rigid_motion_and_scale_invariance(base_coords):
    x, y = base_coords[17]
    coords = dict(base_coords)
    coords[17] = (x + 4.0, y - 2.5)
    before = structural_asymmetry(build_frame(coords))
    for angle, shift, scale in [
        (0.3, (40.0, -10.0), 1.0),
        (-1.2, (0.0, 300.0), 2.5),
        (2.9, (-55.5, 17.25), 0.125),
    ]:
        moved = build_frame(rigid_motion(coords, angle, shift, scale))
        assert structural_asymmetry(moved) == pytest.approx(before, abs=1e-9)


def test_structural_without_eye_points(base_coords):
    coords = {pid: xy for pid, xy in base_coords.items() if not 6 <= pid <= 13}
    x, y = coords[17]
    coords[17] = (x + 6.0, y)
    frame = build_frame(coords)
    # normalizer falls back to the mean span of the 6 complete pairs
    spans = [30.0, 60.0, 90.0, 56.0, 40.0, 40.0]
    expected = (6.0 / 10.0) / (sum(spans) / 6.0)
    assert structural_asymmetry(frame, axis=IDEAL_AXIS) == pytest.approx(expected, rel=1e-12)


def test_structural_needs_a_pair(base_coords):
    coords = {pid: base_coords[pid] for pid in MIDLINE_IDS}
    frame = build_frame(coords)
    with pytest.raises(InsufficientPairsError):
        structural_asymmetry(frame, axis=IDEAL_AXIS)
    # the report applies the same guard, before it looks for a length scale
    with pytest.raises(InsufficientPairsError):
        asymmetry_report(FrameSequence((frame,)), [IDEAL_AXIS])


def _two_frames(base_coords, moves):
    second = dict(base_coords)
    for pid, delta in moves.items():
        x, y = second[pid]
        second[pid] = (x + delta[0], y + delta[1])
    return FrameSequence((build_frame(base_coords), build_frame(second)))


def test_movement_zero_when_static(base_coords):
    seq = _two_frames(base_coords, {})
    assert movement_asymmetry(seq) == 0.0


def test_movement_zero_for_mirrored_motion(base_coords):
    seq = _two_frames(base_coords, {14: (-5.0, 3.0), 17: (5.0, 3.0)})
    assert movement_asymmetry(seq) <= 1e-12


def test_movement_single_sided_worked_value(base_coords):
    # only the left mouth corner moves, by 0.2 interocular units; one of the
    # ten pair terms is 12, the mean is 1.2, normalized by 60
    seq = _two_frames(base_coords, {14: (0.0, 0.2 * IOD)})
    assert movement_asymmetry(seq) == pytest.approx(0.2 / 10.0, rel=1e-12)


def test_movement_needs_two_frames(base_frame):
    with pytest.raises(InsufficientFramesError):
        movement_asymmetry(FrameSequence((base_frame,)))


def test_movement_axes_length_checked(base_coords):
    seq = _two_frames(base_coords, {})
    with pytest.raises(SchemaError):
        movement_asymmetry(seq, axes=[IDEAL_AXIS])
    # the report runs the same check; zip used to drop the frames past the axes
    three = FrameSequence(seq.frames + (seq.frames[0],))
    for score in (movement_asymmetry, asymmetry_report):
        with pytest.raises(SchemaError, match="^1 axes for 3 frames$"):
            score(three, [IDEAL_AXIS])


def test_movement_skips_incomplete_pairs(base_coords):
    # drop one eyebrow point in the second frame: that pair contributes no
    # term, the left mouth corner motion is averaged over 9 terms
    second = dict(base_coords)
    x, y = second[14]
    second[14] = (x, y + 12.0)
    del second[5]
    seq = FrameSequence((build_frame(base_coords), build_frame(second)))
    axes = [IDEAL_AXIS, IDEAL_AXIS]
    assert movement_asymmetry(seq, axes=axes) == pytest.approx((12.0 / 9.0) / IOD)


def test_movement_reference_override(base_coords):
    seq = _two_frames(base_coords, {14: (0.0, 12.0)})
    seq = FrameSequence(seq.frames, interocular_ref=120.0)
    assert movement_asymmetry(seq) == pytest.approx(0.01, rel=1e-12)


def test_movement_rigid_motion_invariance(base_coords):
    moves = {14: (0.0, 12.0), 1: (2.0, -1.0)}
    base = movement_asymmetry(_two_frames(base_coords, moves))
    for angle, shift, scale in [(0.7, (12.0, 99.0), 1.0), (-0.4, (-3.0, 8.0), 3.0)]:
        first = rigid_motion(base_coords, angle, shift, scale)
        second = dict(base_coords)
        for pid, (dx, dy) in moves.items():
            x, y = second[pid]
            second[pid] = (x + dx, y + dy)
        second = rigid_motion(second, angle, shift, scale)
        seq = FrameSequence((build_frame(first), build_frame(second)))
        assert movement_asymmetry(seq) == pytest.approx(base, abs=1e-9)


def test_reconstruct_exact_mirror(base_coords):
    frame = frame_with(base_coords, **{"2": None})
    fixed = reconstruct_occluded(frame)
    assert fixed.complete
    point = fixed.point(2)
    assert point.reconstructed
    assert point.x == pytest.approx(55.0, abs=1e-9)
    assert point.y == pytest.approx(80.0, abs=1e-9)
    # measured points keep their flag
    assert not fixed.point(5).reconstructed


def test_reconstruct_offset_error_is_delta(base_coords):
    delta = 0.25
    x, y = base_coords[17]
    coords = dict(base_coords)
    coords[17] = (x + delta, y)
    frame = frame_with(coords, **{"14": None})
    fixed = reconstruct_occluded(frame, axis=IDEAL_AXIS)
    rx, ry = fixed.coords(14)
    tx, ty = base_coords[14]
    assert math.hypot(rx - tx, ry - ty) == pytest.approx(delta, rel=1e-12)


def test_reconstruct_both_missing(base_coords):
    frame = frame_with(base_coords, **{"2": None, "5": None, "8": None})
    with pytest.raises(UnrecoverablePointError) as exc:
        reconstruct_occluded(frame)
    assert "2,5" in str(exc.value)
    assert exc.value.ids == (2, 5)


def test_reconstruct_midline_missing(base_coords):
    frame = frame_with(base_coords, **{"21": None})
    with pytest.raises(UnrecoverablePointError):
        reconstruct_occluded(frame)


def test_reconstruct_complete_frame_is_identity(base_frame):
    assert reconstruct_occluded(base_frame) == base_frame


def test_report_aggregates(base_coords):
    second = dict(base_coords)
    second[14] = (base_coords[14][0], base_coords[14][1] + 12.0)
    seq = FrameSequence((build_frame(base_coords), build_frame(second)))
    report = asymmetry_report(seq)
    assert report.frames_used == 2
    assert report.movement == pytest.approx(movement_asymmetry(seq), rel=1e-12)
    assert set(report.per_region) == {
        Region.EYEBROW, Region.EYE, Region.LIP_CORNER, Region.LIP_MIDDLE
    }
    # all the movement, and all the mismatch, lives in the mouth corners
    assert report.per_region[Region.LIP_CORNER][1] > 0.0
    assert report.per_region[Region.EYEBROW][1] == 0.0
    assert report.structural == ordered_mean([structural_asymmetry(f) for f in seq.frames])
    assert report.per_region[Region.LIP_CORNER][0] > 0.0
    assert report.per_region[Region.EYEBROW][0] == 0.0

    text = report_csv(report)
    lines = text.splitlines()
    assert lines[0] == "metric,region,value"
    assert lines[1].startswith("structural,all,")
    assert lines[2].startswith("movement,all,")
    assert lines[-1] == "frames_used,all,2"


def test_report_single_frame(base_frame):
    report = asymmetry_report(FrameSequence((base_frame,)))
    assert report.movement == 0.0
    assert report.frames_used == 1


def _movement_terms_per_step(seq, axes):
    """The per-step loop ``_movement_terms`` replaced, kept as its oracle:
    four point lookups and two reflections per pair and step."""
    terms = []
    for t in range(len(seq.frames) - 1):
        a, b = seq.frames[t], seq.frames[t + 1]
        for left, right in LATERAL_PAIRS:
            la, lb = a.point(left), b.point(left)
            ra, rb = a.point(right), b.point(right)
            if not (la.present and lb.present and ra.present and rb.present):
                continue
            d_left = math.hypot(lb.x - la.x, lb.y - la.y)
            max_, may = reflect_about(axes[t], (ra.x, ra.y))
            mbx, mby = reflect_about(axes[t + 1], (rb.x, rb.y))
            d_right = math.hypot(mbx - max_, mby - may)
            terms.append((la.region, abs(d_left - d_right)))
    return terms


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DfaceError as exc:
        return type(exc), str(exc)


_COORD = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_AXIS = st.one_of(
    st.builds(
        lambda x, y, a: MidlineAxis((x, y), (math.cos(a), math.sin(a)), 0.0),
        _COORD, _COORD, st.floats(0.0, 2 * math.pi),
    ),
    st.builds(lambda x, y: MidlineAxis((x, y), (0.0, 1.0), 0.0, degenerate=True), _COORD, _COORD),
)


@st.composite
def _occluded_sequences(draw):
    """2-8 frames of arbitrary points, each present with a drawn
    probability (so some steps track no pair), plus one axis per frame."""
    n = draw(st.integers(2, 8))
    keep = draw(st.sampled_from([0.3, 0.7, 0.95]))
    frames = []
    for _ in range(n):
        present = draw(st.lists(st.floats(0, 1), min_size=24, max_size=24))
        coords = draw(st.lists(st.tuples(_COORD, _COORD), min_size=24, max_size=24))
        frames.append(build_frame([xy if u < keep else None for xy, u in zip(coords, present)]))
    ref = draw(st.one_of(st.none(), st.floats(1.0, 200.0)))
    axes = draw(st.lists(_AXIS, min_size=n, max_size=n))
    return FrameSequence(tuple(frames), interocular_ref=ref), axes


@given(_occluded_sequences())
def test_movement_terms_match_per_step_oracle(case):
    seq, axes = case
    assert symmetry._movement_terms(seq, axes) == _movement_terms_per_step(seq, axes)
    new_movement = _outcome(movement_asymmetry, seq, axes)
    new_report = _outcome(asymmetry_report, seq, axes)
    with mock.patch.object(symmetry, "_movement_terms", _movement_terms_per_step):
        assert new_movement == _outcome(movement_asymmetry, seq, axes)
        assert new_report == _outcome(asymmetry_report, seq, axes)


def test_movement_terms_oracle_covers_untracked_steps(base_coords):
    # step 0->1 tracks no pair, step 1->2 tracks pairs 0-4
    early = {pid for pair in LATERAL_PAIRS[:5] for pid in pair}
    first = build_frame({p: xy for p, xy in base_coords.items() if p not in early})
    later = build_frame({p: xy for p, xy in base_coords.items() if p in early})
    moved = dict(base_coords)
    moved[1] = (moved[1][0], moved[1][1] - 4.0)
    last = build_frame({p: xy for p, xy in moved.items() if p in early})
    seq = FrameSequence((first, later, last), interocular_ref=IOD)
    axes = [IDEAL_AXIS, MidlineAxis((100.0, 0.0), (0.0, 1.0), 0.0, degenerate=True), IDEAL_AXIS]
    terms = symmetry._movement_terms(seq, axes)
    assert terms == _movement_terms_per_step(seq, axes)
    assert [r for r, _ in terms] == [Region.EYEBROW] * 3 + [Region.EYE] * 2
    assert movement_asymmetry(seq, axes) == 4.0 / 5 / IOD
