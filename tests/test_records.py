"""The contract every public frozen value class keeps: construction forms,
equality and hashing by the field tuple, repr, immutability, copying and
pickling, and the checks each class runs on construction."""

import ast
import copy
import math
import pickle
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dface
from dface.augment import AugmentSummary, OrbitEntry, OrbitManifest
from dface.aus import (
    ActionUnit,
    ActionUnitRuleSet,
    ActivityClass,
    AUActivation,
    ClassificationResult,
    Emotion,
    EmotionRule,
    Side,
    check_threshold,
    classify_emotion,
    detect_active_aus,
)
from dface.config import Config
from dface.dihedral import (
    AxiomCheck,
    AxiomReport,
    GroupElement,
    TransformMatrix,
    parse_element,
)
from dface.errors import ConfigError, DfaceError, DomainError, RasterShapeError, SchemaError
from dface.face import FaceFrame, FrameSequence, KeyPoint, PointState, Region, counterpart
from dface.raster import (
    RasterImage,
    Rect,
    canny_edges,
    check_sigma,
    check_thresholds,
    gaussian_smooth,
)
from dface.symmetry import AsymmetryReport, MidlineAxis

_XY = tuple((float(i), float(2 * i)) for i in range(24))
_FRAME = FaceFrame(_XY)
_UNIT = ActionUnit(1, "Inner Brow Raiser", ActivityClass.ACTIVE)
_RULE = EmotionRule(Emotion.HAPPINESS, frozenset({6, 12}), frozenset({12}))
_CHECK = AxiomCheck("closure", False, "1 violations")
_ENTRY = OrbitEntry("r", "img_r.pgm", "0" * 64)

# One instance of each class, built positionally with every field given.
SAMPLES = {
    OrbitEntry: ("e", "img_e.pgm", "f" * 64),
    OrbitManifest: ("img", (_ENTRY,)),
    AugmentSummary: (2, 1, (("bad.pgm", "shape"),)),
    ActionUnit: (2, "Outer Brow Raiser", ActivityClass.ACTIVE),
    EmotionRule: (Emotion.SADNESS, frozenset({1, 4, 15}), frozenset({1, 15})),
    ActionUnitRuleSet: ((_UNIT,), (_RULE,)),
    AUActivation: (_UNIT, Side.LEFT, 0.25, True),
    ClassificationResult: ("Happiness", ((Emotion.HAPPINESS, 1.0),)),
    Config: (0.1, 0.2, 0.4, 2.0, tuple(reversed(Emotion)), "csv"),
    GroupElement: (4, 1, 3),
    TransformMatrix: ("V", ((-1, 0), (0, 1))),
    AxiomCheck: ("closure", True, "16 products stay in the group"),
    AxiomReport: ((_CHECK,),),
    KeyPoint: (3, PointState.ACTIVE, 1.0, 2.0, True),
    FaceFrame: (_XY, (PointState.PASSIVE,) * 24, frozenset({5})),
    FrameSequence: ((_FRAME, _FRAME), (0.0, 0.5), 60.0),
    RasterImage: (2, 1, 1, b"\x00\xff"),
    Rect: (0, 1, 3, 4),
    MidlineAxis: ((1.0, 2.5), (0.0, 1.0), 0.125, True),
    AsymmetryReport: (0.5, 0.25, {Region.EYE: (0.5, 0.25)}, 3),
}

# Instances built with their trailing fields left at the defaults.
DEFAULTED = [
    (Config(), Config(0.05, 0.1, 0.3, 1.4, tuple(Emotion), "both")),
    (Config(0.2), Config(au_threshold=0.2)),
    (KeyPoint(3, PointState.STABLE), KeyPoint(3, PointState.STABLE, None, None, False)),
    (KeyPoint(3, PointState.STABLE, 1.0, 2.0), KeyPoint(3, PointState.STABLE, 1.0, 2.0, False)),
    (FaceFrame(_XY), FaceFrame(_XY, _FRAME.states, frozenset())),
    (FrameSequence((_FRAME,)), FrameSequence((_FRAME,), None, None)),
    (MidlineAxis((0.0, 0.0), (1.0, 0.0), 0.0), MidlineAxis((0.0, 0.0), (1.0, 0.0), 0.0, False)),
]

CLASSES = list(SAMPLES)


def _fields(obj) -> tuple:
    return tuple(getattr(obj, name) for name in type(obj).__match_args__)


def test_every_record_class_has_a_sample():
    declared = {
        (path.stem, node.name)
        for path in Path(dface.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list)
    }
    assert declared == {(cls.__module__.rpartition(".")[2], cls.__name__) for cls in SAMPLES}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_positional_keyword_and_mixed_construction_agree(cls):
    args = SAMPLES[cls]
    names = cls.__match_args__
    assert len(names) == len(args)
    obj = cls(*args)
    assert _fields(obj) == args
    assert cls(**dict(zip(names, args))) == obj
    assert cls(*args[:1], **dict(zip(names[1:], args[1:]))) == obj


@pytest.mark.parametrize("short, full", DEFAULTED)
def test_trailing_defaults(short, full):
    assert short == full and _fields(short) == _fields(full)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_bad_argument_lists_raise_type_error(cls):
    args = SAMPLES[cls]
    names = cls.__match_args__
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})
    if cls is not Config:  # every Config field has a default
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], args[1:])))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash_follow_the_field_tuple(cls):
    args = SAMPLES[cls]
    obj, twin = cls(*args), cls(*args)
    assert obj == twin and not obj != twin
    assert obj != args and obj.__eq__(args) is NotImplemented
    try:
        expected = hash(args)
    except TypeError:  # a dict field: neither the tuple nor the record hashes
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(twin) == expected
        assert len({obj, twin}) == 1


def test_instances_of_different_classes_are_unequal():
    check, violation = AxiomCheck("a", "b", "c"), OrbitEntry("a", "b", "c")
    assert _fields(check) == _fields(violation)
    assert check != violation and not check == violation
    assert GroupElement(4, 0, 1) != GroupElement(8, 0, 1)

    class Element(GroupElement):  # same fields and values, another class
        pass

    assert Element(4, 0, 1) != GroupElement(4, 0, 1) and GroupElement(4, 0, 1) != Element(4, 0, 1)
    assert Rect(0, 0, 1, 1) != Rect(0, 0, 1, 2)


def test_pinned_reprs():
    assert repr(AxiomReport(*SAMPLES[AxiomReport])) == (
        "AxiomReport(checks=(AxiomCheck(name='closure', passed=False, detail='1 violations'),))"
    )
    assert repr(MidlineAxis((1.0, 2.5), (0.0, 1.0), 0.125)) == (
        "MidlineAxis(point=(1.0, 2.5), direction=(0.0, 1.0), fit_residual=0.125, degenerate=False)"
    )
    assert repr(Rect(0, 1, 3, 4)) == "Rect(x0=0, y0=1, x1=3, y1=4)"
    assert repr(GroupElement(4, 1, 7)) == "GroupElement(D4, sr3)"
    assert repr(Config()) == (
        "Config(au_threshold=0.05, canny_low=0.1, canny_high=0.3, canny_sigma=1.4, "
        "tie_order=(<Emotion.HAPPINESS: 'Happiness'>, <Emotion.SADNESS: 'Sadness'>, "
        "<Emotion.SURPRISE: 'Surprise'>, <Emotion.FEAR: 'Fear'>, <Emotion.ANGER: 'Anger'>, "
        "<Emotion.DISGUST: 'Disgust'>), report_format='both')"
    )


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    obj = cls(*SAMPLES[cls])
    name = cls.__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(obj, name, SAMPLES[cls][0])
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert _fields(obj) == SAMPLES[cls]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copies_and_pickles_compare_equal(cls):
    obj = cls(*SAMPLES[cls])
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is cls
        assert clone == obj and _fields(clone) == _fields(obj)


def test_match_args_name_the_fields_in_order():
    match GroupElement(8, 1, 11):
        case GroupElement(n, j, k):
            assert (n, j, k) == (8, 1, 3)
        case _:
            pytest.fail("GroupElement did not match positionally")


def test_post_init_checks_still_run():
    with pytest.raises(RasterShapeError, match="degenerate rectangle"):
        Rect(3, 0, 1, 1)
    with pytest.raises(RasterShapeError, match="payload holds 1 bytes"):
        RasterImage(2, 1, 1, b"\x00")
    reduced = GroupElement(4, 0, 7)
    assert reduced.rotation_k == 3 and GroupElement(4, 0, -1).rotation_k == 3
    assert reduced == GroupElement(4, 0, 3) and hash(reduced) == hash((4, 0, 3))
    with pytest.raises(DomainError):
        GroupElement(0, 0, 0)
    with pytest.raises(ConfigError, match="au threshold"):
        Config(au_threshold=0.0)
    with pytest.raises(ConfigError, match="tie_order"):
        Config(tie_order=(Emotion.HAPPINESS,))
    with pytest.raises(SchemaError, match="axis direction"):
        MidlineAxis((0.0, 0.0), (1.0, 1.0), 0.0)
    with pytest.raises(SchemaError, match="at least one frame"):
        FrameSequence(())


@pytest.mark.parametrize("tie_order", [
    tuple(e.value for e in Emotion),  # equal to the members, but plain strings
    list(Emotion),  # the right members in a list, which cannot be hashed
    (*tuple(Emotion)[:5], None),
])
def test_config_tie_order_must_be_a_tuple_of_emotions(tie_order):
    with pytest.raises(ConfigError, match="tie_order must be a tuple of Emotion members"):
        Config(tie_order=tie_order)


def _refused_alike(fields: dict, library_call, prefix: str = "") -> None:
    """Config refuses ``fields`` with the message of the DomainError that
    the library code reading the same value raises, after ``prefix``."""
    with pytest.raises(ConfigError) as by_config:
        Config(**fields)
    with pytest.raises(DomainError) as by_library:
        library_call()
    assert str(by_config.value) == prefix + str(by_library.value)


_GRAY = RasterImage(3, 3, 1, bytes(9))


@pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf"), "0.1", None],
                         ids=["zero", "negative", "nan", "inf", "str", "none"])
def test_config_and_library_refuse_the_same_numbers(bad):
    _refused_alike({"au_threshold": bad}, lambda: detect_active_aus(_FRAME, _FRAME, bad))
    _refused_alike({"canny_sigma": bad}, lambda: gaussian_smooth(_GRAY, bad), "canny ")
    _refused_alike({"canny_low": bad}, lambda: canny_edges(_GRAY, bad, 0.3), "canny ")
    _refused_alike({"canny_high": bad}, lambda: canny_edges(_GRAY, 0.1, bad), "canny ")


@pytest.mark.parametrize("field, value", [
    ("au_threshold", 10**400),
    ("canny_sigma", 10**400),
    ("canny_sigma", 1e308),
    ("canny_sigma", 10**308),
    ("canny_sigma", 2**63),
    ("au_threshold", 10**5000),
    ("au_threshold", -10**5000),
    ("canny_sigma", 10**5000),
    ("canny_sigma", -10**5000),
], ids=["threshold-int-past-float", "sigma-int-past-float", "sigma-radius-overflows",
        "sigma-int-radius-overflows", "sigma-taps-past-maxsize", "threshold-int-too-long",
        "threshold-negative-int-too-long", "sigma-int-too-long", "sigma-negative-int-too-long"])
def test_a_scalar_past_the_float_range_is_refused_alike(field, value):
    # each escaped as a bare OverflowError, from ceil(3 sigma), from the
    # float conversion of an int or from threshold / 2 in detection, and
    # Config took the threshold; a sigma of 2**63 escaped as numpy's
    # ValueError, its taps being too many for numpy to size; an int of more
    # than 4,300 digits escaped as the ValueError of printing it
    if field == "au_threshold":
        _refused_alike({field: value}, lambda: detect_active_aus(_FRAME, _FRAME, value))
    else:
        _refused_alike({field: value}, lambda: gaussian_smooth(_GRAY, value), "canny ")
        with pytest.raises(DomainError, match="sigma must be positive and finite"):
            canny_edges(_GRAY, 0.1, 0.3, value)


@pytest.mark.parametrize("tie_order", [
    (),
    tuple(Emotion)[:5],
    (Emotion.HAPPINESS,) * 6,
    (*tuple(Emotion)[:5], Emotion.HAPPINESS),
    tuple(e.value for e in Emotion),
    list(Emotion),
    "Happiness",
], ids=["empty", "short", "one-six-times", "duplicate", "strings", "list", "str"])
def test_config_and_classify_refuse_the_same_tie_orders(tie_order):
    # no activations: the check runs before the neutral answer too
    _refused_alike({"tie_order": tie_order}, lambda: classify_emotion([], tie_order))


@pytest.mark.parametrize("samples", ["abcd", bytearray(4), memoryview(bytes(4)), [0, 0, 0, 0]],
                         ids=["str", "bytearray", "memoryview", "list"])
def test_raster_samples_must_be_bytes(samples):
    # each has the right length, so only the type check can refuse it
    with pytest.raises(RasterShapeError, match="samples must be bytes"):
        RasterImage(2, 2, 1, samples)


@pytest.mark.parametrize("make", [
    lambda: Rect("a", "b", "c", "d"),
    lambda: Rect(0.5, 0, 2, 2),
    lambda: Rect(0, 0, 2, None),
    lambda: RasterImage(2.0, 2, 1, b"abcd"),
    lambda: RasterImage(2, 2, 1.0, b"abcd"),
], ids=["rect-str", "rect-float", "rect-none", "image-float-width", "image-float-channels"])
def test_raster_geometry_must_be_int(make):
    # a float rectangle used to reach numpy's slicing as a bare TypeError
    with pytest.raises(RasterShapeError, match="geometry must be an int"):
        make()


def test_sequence_frames_must_be_face_frames(base_frame):
    with pytest.raises(SchemaError, match="must be a FaceFrame"):
        FrameSequence(("x", "y"))
    with pytest.raises(SchemaError, match="must be a FaceFrame"):
        FrameSequence((base_frame, base_frame.xy))
    # a list of frames used to be accepted, and 5 escaped as a bare TypeError
    with pytest.raises(SchemaError, match="^sequence frames must be a tuple, got list$"):
        FrameSequence([base_frame])
    with pytest.raises(SchemaError, match="^sequence frames must be a tuple, got int$"):
        FrameSequence(5)


@pytest.mark.parametrize("args, message", [
    (("x", "x", "x", "x"), "axis point must be a finite"),
    (((0, "a"), (0.0, 1.0), 0.0), "axis point must be a finite"),
    (([0.0, 0.0], (0.0, 1.0), 0.0), "axis point must be a finite"),
    (((0.0, 0.0, 0.0), (0.0, 1.0), 0.0), "axis point must be a finite"),
    (((float("inf"), 0.0), (0.0, 1.0), 0.0), "axis point must be a finite"),
    (((0.0, 0.0), (0.0, float("nan")), 0.0), "axis direction must be a finite"),
    (((0.0, 0.0), None, 0.0), "axis direction must be a finite"),
    (((0.0, 0.0), (0.0, 1.0), float("nan")), "axis fit_residual must be finite"),
    (((0.0, 0.0), (0.0, 1.0), "0"), "axis fit_residual must be finite"),
    (((0.0, 0.0), (0.0, 1.0), 0.0, 1), "axis degenerate must be a bool"),
    (((0.0, 0.0), (0.0, 1.0), 0.0, None), "axis degenerate must be a bool"),
    (((10**400, 0.0), (0.0, 1.0), 0.0), "axis point must be a finite"),
    ((("x", 0.0), (0.0, 1.0), 0.0), "axis point must be a finite"),
    (((0.0, 0.0), (0.0, 10**400), 0.0), "axis direction must be a finite"),
    (((0.0, 0.0), (0.0, 1.0), 10**400), "axis fit_residual must be finite"),
], ids=["all-str", "str-coordinate", "list-point", "triple-point", "inf-point",
        "nan-direction", "none-direction", "nan-residual", "str-residual", "int-degenerate",
        "none-degenerate", "int-past-float-point", "x-point", "int-past-float-direction",
        "int-past-float-residual"])
def test_midline_axis_fields_are_checked(args, message):
    # "x" for every field used to raise a bare ValueError from unpacking
    with pytest.raises(SchemaError, match=message):
        MidlineAxis(*args)


_TOO_LONG = 10**5000  # past the 4,300 digits that Python prints of an int
_BITS = "<int of 16610 bits>"


@pytest.mark.parametrize("call, error, message", [
    (lambda: counterpart(_TOO_LONG), SchemaError, f"point id out of range: {_BITS}"),
    (lambda: RasterImage(_TOO_LONG, 1, 1, b""), RasterShapeError,
     f"payload holds 0 bytes, geometry needs {_BITS}"),
    (lambda: RasterImage(-_TOO_LONG, 1, 1, b""), RasterShapeError, "bad dimensions <negative int of 16610 bits>x1"),
    (lambda: RasterImage(1, 1, _TOO_LONG, b""), RasterShapeError,
     f"channels must be 1 or 3, got {_BITS}"),
    (lambda: Rect(_TOO_LONG, 0, 1, 1), RasterShapeError, f"degenerate rectangle ({_BITS},0,1,1)"),
    (lambda: check_thresholds(_TOO_LONG, 1), DomainError,
     f"thresholds must satisfy 0 < low < high <= 1, got {_BITS}, 1"),
    (lambda: check_threshold(-_TOO_LONG), DomainError,
     "au threshold must be positive and finite, got <negative int of 16610 bits>"),
    (lambda: GroupElement(4, _TOO_LONG, 0), DomainError,
     f"reflection exponent must be 0 or 1, got {_BITS}"),
    (lambda: MidlineAxis((0.0, 0.0), (0.0, 1.0), _TOO_LONG), SchemaError,
     f"axis fit_residual must be finite, got {_BITS}"),
    (lambda: MidlineAxis((_TOO_LONG, 0.0), (0.0, 1.0), 0.0), SchemaError,
     "axis point must be a finite (x, y) tuple, got <tuple holding an int too long to print>"),
], ids=["point-id", "payload", "width", "channels", "rect", "canny-threshold", "au-threshold",
        "reflection", "axis-residual", "axis-point"])
def test_a_refused_int_too_long_to_print_is_named_by_its_bit_length(call, error, message):
    # each raised the ValueError of printing the int in the message
    with pytest.raises(error) as refused:
        call()
    assert str(refused.value) == message


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), st.floats(), st.text(max_size=3),
    st.just(math.nan),
    # built, not listed: hypothesis prints its strategies, and no int this long prints
    st.builds(lambda digits, sign: sign * 10**digits,
              st.sampled_from([400, 5000]), st.sampled_from([1, -1])),
)
_JUNK = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
    st.sets(_SCALARS, max_size=3), st.frozensets(_SCALARS, max_size=3),
), max_leaves=6)


def _variants(valid) -> st.SearchStrategy:
    """``valid``, its items in a list or a set, one item swapped for junk,
    or junk."""
    options = [st.just(valid), _JUNK]
    if isinstance(valid, (tuple, frozenset)) and valid:
        items = tuple(valid)
        options += [st.just(list(items)), st.just(set(items)), st.builds(
            lambda i, junk: items[:i] + (junk,) + items[i + 1:],
            st.integers(0, len(items) - 1), _JUNK,
        )]
    return st.one_of(options)


@pytest.mark.parametrize("cls", [FaceFrame, FrameSequence, MidlineAxis, GroupElement, Rect,
                                 RasterImage, Config], ids=lambda c: c.__name__)
@given(data=st.data())
def test_input_records_refuse_junk_fields(cls, data):
    # a list or a set for a container field used to be accepted, and an int
    # too long to print escaped as a ValueError; a record that is accepted
    # hashes, so none holds a mutable container
    fields = [data.draw(_variants(value)) for value in SAMPLES[cls]]
    try:
        record = cls(*fields)
    except (DfaceError, TypeError):
        return
    hash(record)


# The library calls that read one scalar; sigma goes to its check alone,
# since gaussian_smooth builds whatever kernel an accepted sigma asks for.
_SCALAR_CALLS = {
    "threshold": lambda v: detect_active_aus(_FRAME, _FRAME, v),
    "threshold-check": check_threshold,
    "sigma": check_sigma,
    "canny-low": lambda v: canny_edges(_GRAY, v, 0.3),
    "canny-high": lambda v: canny_edges(_GRAY, 0.1, v),
    "canny-pair": lambda v: check_thresholds(v, v),
    "tie-order": lambda v: classify_emotion([], v),
    "order": lambda v: parse_element(v, "r"),
    "element-name": lambda v: parse_element(4, v),
    "point-id": counterpart,
}


@pytest.mark.parametrize("name", list(_SCALAR_CALLS))
@given(value=_JUNK)
def test_scalar_checks_refuse_junk(name, value):
    # a DfaceError or a TypeError, never a ValueError or an OverflowError
    try:
        _SCALAR_CALLS[name](value)
    except (DfaceError, TypeError):
        pass
