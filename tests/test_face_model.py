"""Key point schema, frame validation, and CSV round-trips."""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dface.face
from conftest import frame_with, rigid_motion, symmetric_coords
from dface.errors import (
    DegenerateFaceError,
    FrameParseError,
    MissingPointError,
    SchemaError,
)
from dface.face import (
    CANONICAL_LAYOUT,
    LATERAL_PAIRS,
    MIDLINE_IDS,
    POINT_COUNT,
    FaceFrame,
    FrameSequence,
    KeyPoint,
    Laterality,
    PointState,
    Region,
    build_frame,
    counterpart,
    default_state,
    interocular_distance,
    load_sequence,
    parse_frame,
    save_frame,
    serialize_frame,
)
from dface.symmetry import structural_asymmetry


def test_layout_shape():
    assert POINT_COUNT == 24
    assert len(CANONICAL_LAYOUT) == 24
    assert len(LATERAL_PAIRS) == 10
    assert MIDLINE_IDS == (20, 21, 22, 23)
    lateral = {pid for pair in LATERAL_PAIRS for pid in pair}
    assert lateral | set(MIDLINE_IDS) == set(range(24))


# A reference copy of the layout, written out as literals: dface.face derives
# all of these from one table of mirrored sides.
REFERENCE_LAYOUT = (
    (Region.EYEBROW, Laterality.LEFT),
    (Region.EYEBROW, Laterality.LEFT),
    (Region.EYEBROW, Laterality.LEFT),
    (Region.EYEBROW, Laterality.RIGHT),
    (Region.EYEBROW, Laterality.RIGHT),
    (Region.EYEBROW, Laterality.RIGHT),
    (Region.EYE, Laterality.LEFT),
    (Region.EYE, Laterality.LEFT),
    (Region.EYE, Laterality.LEFT),
    (Region.EYE, Laterality.LEFT),
    (Region.EYE, Laterality.RIGHT),
    (Region.EYE, Laterality.RIGHT),
    (Region.EYE, Laterality.RIGHT),
    (Region.EYE, Laterality.RIGHT),
    (Region.LIP_CORNER, Laterality.LEFT),
    (Region.LIP_CORNER, Laterality.LEFT),
    (Region.LIP_CORNER, Laterality.LEFT),
    (Region.LIP_CORNER, Laterality.RIGHT),
    (Region.LIP_CORNER, Laterality.RIGHT),
    (Region.LIP_CORNER, Laterality.RIGHT),
    (Region.LIP_MIDDLE, Laterality.MIDLINE),
    (Region.LIP_MIDDLE, Laterality.MIDLINE),
    (Region.LIP_MIDDLE, Laterality.MIDLINE),
    (Region.LIP_MIDDLE, Laterality.MIDLINE),
)
REFERENCE_PAIRS = (
    (0, 3), (1, 4), (2, 5),
    (6, 10), (7, 11), (8, 12), (9, 13),
    (14, 17), (15, 18), (16, 19),
)
REFERENCE_IDS = {
    "POINT_COUNT": 24,
    "LEFT_BROW_IDS": (0, 1, 2),
    "RIGHT_BROW_IDS": (3, 4, 5),
    "LEFT_EYE_IDS": (6, 7, 8, 9),
    "RIGHT_EYE_IDS": (10, 11, 12, 13),
    "MIDLINE_IDS": (20, 21, 22, 23),
    "LEFT_BROW_INNER": 0, "LEFT_BROW_MID": 1, "LEFT_BROW_OUTER": 2,
    "RIGHT_BROW_INNER": 3, "RIGHT_BROW_MID": 4, "RIGHT_BROW_OUTER": 5,
    "LEFT_EYE_INNER": 6, "LEFT_EYE_TOP": 7, "LEFT_EYE_OUTER": 8, "LEFT_EYE_BOTTOM": 9,
    "RIGHT_EYE_INNER": 10, "RIGHT_EYE_TOP": 11, "RIGHT_EYE_OUTER": 12, "RIGHT_EYE_BOTTOM": 13,
    "LEFT_LIP_CORNER": 14, "LEFT_LIP_UPPER": 15, "LEFT_LIP_LOWER": 16,
    "RIGHT_LIP_CORNER": 17, "RIGHT_LIP_UPPER": 18, "RIGHT_LIP_LOWER": 19,
    "LIP_TOP": 20, "LIP_UPPER_MID": 21, "LIP_LOWER_MID": 22, "LIP_BOTTOM": 23,
}


def test_derived_layout_matches_the_reference_copy():
    assert CANONICAL_LAYOUT == REFERENCE_LAYOUT
    assert LATERAL_PAIRS == REFERENCE_PAIRS
    constants = {name: value for name, value in vars(dface.face).items()
                 if name.isupper() and not name.startswith("_")}
    assert constants == {**REFERENCE_IDS, "CANONICAL_LAYOUT": REFERENCE_LAYOUT,
                         "LATERAL_PAIRS": REFERENCE_PAIRS}
    mirror = {pid: pid for pid in REFERENCE_IDS["MIDLINE_IDS"]}
    for left, right in REFERENCE_PAIRS:
        mirror[left], mirror[right] = right, left
    assert [counterpart(pid) for pid in range(24)] == [mirror[pid] for pid in range(24)]


def test_docstring_layout_table_is_the_canonical_layout():
    # the documented id ranges cover 0..23 once, each one region and side
    rows = re.findall(r"^    (\d+)-(\d+) +(left|right|midline) +([a-z ]+?)[:,]",
                      dface.face.__doc__, re.M)
    covered = []
    for first, last, side, region in rows:
        ids = range(int(first), int(last) + 1)
        covered += ids
        place = (Region(region.replace(" ", "_")), Laterality(side))
        assert {CANONICAL_LAYOUT[pid] for pid in ids} == {place}, (first, last)
    assert sorted(covered) == list(range(POINT_COUNT))


def test_counterpart_involution():
    for pid in range(24):
        assert counterpart(counterpart(pid)) == pid
    for left, right in LATERAL_PAIRS:
        assert counterpart(left) == right
        assert counterpart(right) == left
    for pid in MIDLINE_IDS:
        assert counterpart(pid) == pid
    for bad in (24, -1, 1.5, "1"):
        with pytest.raises(SchemaError, match="point id out of range"):
            counterpart(bad)


def test_default_states():
    for pid in range(24):
        expected = PointState.STABLE if 6 <= pid <= 13 else PointState.ACTIVE
        assert default_state(pid) is expected


def test_frame_rejects_wrong_count(base_frame):
    with pytest.raises(SchemaError, match="needs 24 points, got 23"):
        FaceFrame(base_frame.xy[:23], base_frame.states)
    with pytest.raises(SchemaError, match="needs 24 points, got 25"):
        FaceFrame(base_frame.xy, base_frame.states + (PointState.ACTIVE,))


@pytest.mark.parametrize("xy", [
    ((1.0,),) * 24,
    ((1.0, 2.0, 3.0),) * 24,
    (1.0,) * 24,
    ([1.0, 2.0],) * 24,
])
def test_frame_rejects_malformed_coordinates(xy):
    with pytest.raises(SchemaError, match=r"coordinates must be None or an \(x, y\) pair"):
        FaceFrame(xy)


@pytest.mark.parametrize("ids", [{99}, {24}, {-1}, {0, 23, 24}, {10**5000}])
def test_frame_rejects_reconstructed_ids_out_of_range(base_frame, ids):
    with pytest.raises(SchemaError, match="reconstructed point ids out of range"):
        FaceFrame(base_frame.xy, base_frame.states, frozenset(ids))
    assert FaceFrame(base_frame.xy, base_frame.states, frozenset({0, 23})).point(23).reconstructed


@pytest.mark.parametrize("bad", [(math.nan, 140.0), (75.0, math.inf), (-math.inf, 140.0),
                                 ("75", 140.0), (75.0, None), (10**400, 140.0), (75.0, "x"),
                                 (10**5000, 140.0)])
def test_frame_rejects_non_finite_coordinates(base_frame, bad):
    # a NaN point used to be accepted and saved as "nan", which parse_frame rejects
    xy = list(base_frame.xy)
    xy[14] = bad
    with pytest.raises(SchemaError, match="pair of finite numbers"):
        FaceFrame(tuple(xy), base_frame.states)


@pytest.mark.parametrize("field, value, message", [
    ("xy", list, "frame xy must be a tuple, got list"),
    ("xy", lambda xy: 5, "frame xy must be a tuple, got int"),
    ("states", list, "frame states must be a tuple, got list"),
    ("reconstructed", set, "frame reconstructed must be a frozenset, got set"),
    ("reconstructed", list, "frame reconstructed must be a frozenset, got list"),
    ("reconstructed", tuple, "frame reconstructed must be a frozenset, got tuple"),
], ids=["list-xy", "int-xy", "list-states", "set-reconstructed", "list-reconstructed",
        "tuple-reconstructed"])
def test_frame_containers_are_tuples_and_a_frozenset(base_frame, field, value, message):
    # a list or a set used to be accepted, and hash() of the frame then raised
    # TypeError; a list of reconstructed ids escaped as a bare TypeError
    fields = {"xy": base_frame.xy, "states": base_frame.states, "reconstructed": frozenset({3})}
    fields[field] = value(fields[field])
    with pytest.raises(SchemaError, match=f"^{message}$"):
        FaceFrame(**fields)


def test_frame_rejects_a_reconstructed_id_without_coordinates(base_frame):
    # the mark used to be lost on save, as "3,eyebrow,right,active,,,0"
    xy = list(base_frame.xy)
    xy[3] = None
    with pytest.raises(SchemaError, match=r"reconstructed points have no coordinates: \[3\]"):
        FaceFrame(tuple(xy), base_frame.states, frozenset({3}))
    assert FaceFrame(tuple(xy), base_frame.states, frozenset({4})).point(4).reconstructed


@pytest.mark.parametrize("state", ["active", None, 1])
def test_frame_rejects_states_that_are_not_point_states(base_frame, state):
    # "active" equals PointState.ACTIVE, and such a frame used to reach
    # serialize_frame, which failed with a bare AttributeError
    with pytest.raises(SchemaError, match=f"must be PointState members, got {state!r}"):
        FaceFrame(base_frame.xy, (state,) * POINT_COUNT)
    states = base_frame.states[:5] + (state,) + base_frame.states[6:]
    with pytest.raises(SchemaError, match="must be PointState members"):
        FaceFrame(base_frame.xy, states)


def test_points_are_views_labelled_by_the_layout(base_coords):
    frame = frame_with(base_coords, **{"9": None}).with_coords({3: (1.0, 2.0)}, reconstructed=True)
    assert frame.points == tuple(frame.point(pid) for pid in range(POINT_COUNT))
    brow = frame.point(3)
    assert brow == KeyPoint(3, PointState.ACTIVE, 1.0, 2.0, reconstructed=True)
    assert (brow.region, brow.laterality) == (Region.EYEBROW, Laterality.RIGHT)
    assert brow.present and brow.coords == (1.0, 2.0)
    lid = frame.point(9)
    assert (lid.region, lid.laterality, lid.state) == (Region.EYE, Laterality.LEFT,
                                                       PointState.STABLE)
    assert not lid.present and (lid.x, lid.y, lid.reconstructed) == (None, None, False)
    with pytest.raises(MissingPointError):
        lid.coords
    assert [(p.region, p.laterality) for p in frame.points] == list(CANONICAL_LAYOUT)
    assert frame.with_coords({3: (1.0, 2.0)}).reconstructed == frozenset()
    with pytest.raises(SchemaError):
        frame.point(24)


def test_build_frame_mapping_and_sequence_agree(base_coords):
    a = build_frame(base_coords)
    b = build_frame([base_coords[pid] for pid in range(24)])
    assert a == b
    assert a.complete


def test_build_frame_missing_points(base_coords):
    frame = frame_with(base_coords, **{"2": None, "21": None})
    assert frame.missing_ids() == (2, 21)
    assert not frame.complete
    with pytest.raises(MissingPointError):
        frame.coords(2)


def test_build_frame_state_override(base_coords):
    frame = build_frame(base_coords, states={0: PointState.PASSIVE})
    assert frame.point(0).state is PointState.PASSIVE
    assert frame.point(1).state is PointState.ACTIVE


def test_build_frame_rejects_bad_id(base_coords):
    base_coords[99] = (0.0, 0.0)
    with pytest.raises(SchemaError):
        build_frame(base_coords)


def test_interocular_distance_value(base_frame):
    assert interocular_distance(base_frame) == pytest.approx(60.0, abs=1e-12)


def test_interocular_distance_needs_eyes(base_coords):
    frame = frame_with(base_coords, **{"7": None, "11": None})
    with pytest.raises(MissingPointError) as exc:
        interocular_distance(frame)
    assert "7,11" in str(exc.value)


def test_interocular_distance_degenerate(base_coords):
    coords = dict(base_coords)
    for left, right in ((6, 10), (7, 11), (8, 12), (9, 13)):
        coords[right] = coords[left]
    with pytest.raises(DegenerateFaceError):
        interocular_distance(build_frame(coords))


def test_serialize_layout(base_frame):
    text = serialize_frame(base_frame)
    lines = text.splitlines()
    assert lines[0] == "id,region,laterality,state,x,y,present"
    assert len(lines) == 25
    assert text.endswith("\n")
    assert lines[1] == "0,eyebrow,left,active,85,80,1"
    assert lines[21] == "20,lip_middle,midline,active,100,128,1"


def test_serialize_occluded_row(base_coords):
    frame = frame_with(base_coords, **{"9": None})
    line = serialize_frame(frame).splitlines()[10]
    assert line == "9,eye,left,stable,,,0"


def test_serialize_reconstructed_flag(base_frame):
    marked = base_frame.with_coords({14: (75.0, 140.0)}, reconstructed=True)
    line = serialize_frame(marked).splitlines()[15]
    assert line.endswith(",75,140,2")
    back = parse_frame(serialize_frame(marked))
    assert back.point(14).reconstructed
    assert not back.point(15).reconstructed


def test_round_trip_base(base_frame):
    assert parse_frame(serialize_frame(base_frame)) == base_frame


coordinate = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
).map(lambda v: float("%.9g" % v))


@given(
    st.dictionaries(st.integers(0, 23), st.tuples(coordinate, coordinate), max_size=24),
    st.dictionaries(st.integers(0, 23), st.sampled_from(list(PointState)), max_size=24),
)
def test_round_trip_property(coords, states):
    frame = build_frame(coords, states=states)
    again = parse_frame(serialize_frame(frame))
    assert again == frame
    assert serialize_frame(again) == serialize_frame(frame)


def test_parse_rejects_empty():
    with pytest.raises(FrameParseError) as exc:
        parse_frame("")
    assert "expected 24 rows, found 0" in str(exc.value)


def test_parse_rejects_bad_header(base_frame):
    text = serialize_frame(base_frame).replace("id,region", "pid,region", 1)
    with pytest.raises(FrameParseError) as exc:
        parse_frame(text)
    assert str(exc.value).startswith("line 1:")


def _mangle(base_frame, old, new):
    return serialize_frame(base_frame).replace(old, new, 1)


def test_parse_error_line_numbers(base_frame):
    # row for point 4 lives on line 6
    text = _mangle(base_frame, "4,eyebrow,right,active", "4,eyebrow,oops,active")
    with pytest.raises(FrameParseError) as exc:
        parse_frame(text)
    assert str(exc.value).startswith("line 6:")


def test_parse_rejects_field_count(base_frame):
    text = serialize_frame(base_frame).replace("85,80,1", "85,80,1,extra", 1)
    with pytest.raises(FrameParseError) as exc:
        parse_frame(text)
    assert "expected 7 fields, got 8" in str(exc.value)


def test_parse_rejects_duplicate_id(base_frame):
    text = _mangle(base_frame, "1,eyebrow,left", "0,eyebrow,left")
    with pytest.raises(FrameParseError) as exc:
        parse_frame(text)
    assert "duplicate point id 0" in str(exc.value)


def test_parse_rejects_missing_rows(base_frame):
    lines = serialize_frame(base_frame).splitlines()
    text = "\n".join(lines[:-2] + lines[-1:]) + "\n"
    with pytest.raises(FrameParseError) as exc:
        parse_frame(text)
    assert "missing point ids 22" in str(exc.value)


def test_parse_rejects_bad_flag(base_frame):
    text = _mangle(base_frame, "85,80,1", "85,80,5")
    with pytest.raises(FrameParseError) as exc:
        parse_frame(text)
    assert "present flag" in str(exc.value)


def test_parse_rejects_coords_on_occluded(base_coords):
    frame = frame_with(base_coords, **{"9": None})
    text = serialize_frame(frame).replace("9,eye,left,stable,,,0", "9,eye,left,stable,1,2,0")
    with pytest.raises(FrameParseError) as exc:
        parse_frame(text)
    assert "occluded" in str(exc.value)


def test_parse_rejects_non_finite(base_frame):
    # float() accepts nan/inf, so the finiteness check has to catch them
    text = serialize_frame(base_frame).replace("85,80,1", "nan,inf,1", 1)
    with pytest.raises(FrameParseError) as exc:
        parse_frame(text)
    assert "finite" in str(exc.value)


def test_parse_skips_blank_lines(base_frame):
    lines = serialize_frame(base_frame).splitlines()
    text = "\n".join([lines[0], ""] + lines[1:]) + "\n"
    assert parse_frame(text) == base_frame


def test_sequence_validation(base_frame):
    with pytest.raises(SchemaError):
        FrameSequence(())
    with pytest.raises(SchemaError):
        FrameSequence((base_frame, base_frame), timestamps=(0.0,))
    with pytest.raises(SchemaError):
        FrameSequence((base_frame, base_frame), timestamps=(1.0, 1.0))
    with pytest.raises(SchemaError):
        FrameSequence((base_frame,), interocular_ref=0.0)


@pytest.mark.parametrize("fields, message", [
    ({"timestamps": (math.nan,)}, "timestamps must be finite"),
    ({"timestamps": (10**400,)}, "timestamps must be finite"),
    ({"timestamps": ("a",)}, "timestamps must be finite"),
    ({"interocular_ref": math.inf}, "interocular_ref must be positive and finite, got inf"),
    ({"interocular_ref": 10**400}, "interocular_ref must be positive and finite, got 1000"),
    ({"interocular_ref": "x"}, "interocular_ref must be positive and finite, got x"),
    ({"timestamps": [0.0]}, "sequence timestamps must be a tuple, got list"),
    ({"timestamps": 5}, "sequence timestamps must be a tuple, got int"),
    ({"interocular_ref": -10**5000},
     "interocular_ref must be positive and finite, got <negative int of 16610 bits>"),
], ids=["nan-timestamp", "int-past-float-timestamp", "str-timestamp", "inf-ref",
        "int-past-float-ref", "str-ref", "list-timestamps", "int-timestamps",
        "int-too-long-to-print-ref"])
def test_sequence_numbers_must_be_finite(base_frame, fields, message):
    # an int past the float range used to escape as a bare OverflowError, a
    # string or an int as timestamps as a bare TypeError, and an int too long
    # to print as a ValueError; a list of timestamps was accepted
    with pytest.raises(SchemaError, match=message):
        FrameSequence((base_frame,), **fields)


def test_sequence_reference_fallback(base_frame):
    seq = FrameSequence((base_frame,))
    assert seq.reference_interocular() == pytest.approx(60.0)
    seq = FrameSequence((base_frame,), interocular_ref=10.0)
    assert seq.reference_interocular() == 10.0


def test_sequence_directory_round_trip(tmp_path, base_coords):
    frames = (
        build_frame(base_coords),
        frame_with(base_coords, **{"14": (74.0, 139.0)}),
    )
    seq = FrameSequence(frames, timestamps=(0.0, 0.04), interocular_ref=60.0)
    (tmp_path / "rec").mkdir()
    for i, frame in enumerate(frames):
        save_frame(tmp_path / "rec" / f"frame_{i}.csv", frame)
    (tmp_path / "rec" / "sequence.ini").write_text(
        "[sequence]\ninterocular_ref = 60\ntimestamps = 0,0.04\n"
    )
    back = load_sequence(tmp_path / "rec")
    assert back == seq
    assert (tmp_path / "rec" / "frame_0.csv").exists()
    assert (tmp_path / "rec" / "sequence.ini").exists()


def test_sequence_sorted_by_index(tmp_path, base_frame):
    d = tmp_path / "rec"
    d.mkdir()
    text = serialize_frame(base_frame)
    # write out of order, with a double-digit index to defeat lexicographic sorting
    for i in (10, 2, 0, 1):
        (d / f"frame_{i}.csv").write_text(text)
    seq = load_sequence(d)
    assert len(seq) == 4


def test_sequence_frame_index_is_ascii_digits(tmp_path, base_frame):
    # frame_٣.csv used to be read as frame 3; now it is ignored, as frame_x.csv is
    d = tmp_path / "rec"
    d.mkdir()
    for name in ("frame_0.csv", "frame_\u0663.csv", "frame_\uff11.csv", "frame_x.csv"):
        (d / name).write_text(serialize_frame(base_frame))
    assert len(load_sequence(d)) == 1


def test_sequence_error_names_file(tmp_path):
    d = tmp_path / "rec"
    d.mkdir()
    (d / "frame_0.csv").write_text("garbage\n")
    with pytest.raises(FrameParseError) as exc:
        load_sequence(d)
    assert "frame_0.csv" in str(exc.value)


def test_sequence_empty_directory(tmp_path):
    with pytest.raises(SchemaError):
        load_sequence(tmp_path)


def test_symmetric_fixture_is_mirrored():
    coords = symmetric_coords()
    for left, right in LATERAL_PAIRS:
        lx, ly = coords[left]
        rx, ry = coords[right]
        assert math.isclose(lx + rx, 200.0)
        assert ly == ry
    for pid in MIDLINE_IDS:
        assert coords[pid][0] == 100.0


@pytest.mark.parametrize("row, message", [
    ("1,nose,left,active,70,75,1", "line 3: 'nose' is not a valid Region"),
    ("1,eyebrow,up,active,70,75,1", "line 3: 'up' is not a valid Laterality"),
    ("1,eyebrow,left,frozen,70,75,1", "line 3: 'frozen' is not a valid PointState"),
    ("1,nose,up,frozen,70,75,1", "line 3: 'nose' is not a valid Region"),
    ("1,eye,right,frozen,70,75,1", "line 3: 'frozen' is not a valid PointState"),
    ("1,eye,right,active,70,75,1", "line 3: point 1 labelled eye/right, expected eyebrow/left"),
    ("24,eyebrow,left,active,70,75,1", "line 3: point id out of range: 24"),
])
def test_bad_labels_keep_their_parse_error_text(base_frame, row, message):
    lines = serialize_frame(base_frame).splitlines()
    lines[2] = row
    with pytest.raises(FrameParseError) as info:
        parse_frame("\n".join(lines) + "\n")
    assert str(info.value) == message


def test_point_id_is_ascii_decimal_digits(base_frame):
    # int() reads each of these as the row's own id, and the first four
    # used to be accepted; more digits than int() converts stay a bad id
    lines = serialize_frame(base_frame).splitlines()
    for pid, sid in [(10, "1_0"), (3, "+3"), (3, "\u0663"), (3, "\uff13"), (3, "-3"),
                     (3, "9" * 5000)]:
        bad = lines.copy()
        bad[pid + 1] = sid + bad[pid + 1][len(str(pid)):]
        with pytest.raises(FrameParseError) as info:
            parse_frame("\n".join(bad) + "\n")
        assert str(info.value) == f"line {pid + 2}: bad point id {sid!r}"
    lines[4] = "0" + lines[4]
    assert parse_frame("\n".join(lines) + "\n") == base_frame


def test_frame_csv_rounds_coordinates_to_nine_digits():
    frame = build_frame(rigid_motion(symmetric_coords(), 0.5, (0.0, 0.0)))
    text = serialize_frame(frame)
    assert text.splitlines()[1] == "0,eyebrow,left,active,36.2404747,110.957776,1"
    saved = parse_frame(text)
    assert saved != frame and serialize_frame(saved) == text
    # the score of the saved frame moves by about 1e-9 of the interocular distance
    assert structural_asymmetry(frame) == 3.6225307730996884e-16
    assert structural_asymmetry(saved) == 4.490528639987442e-09
