"""AU tables, displacement-based detection, and emotion ranking."""

import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import IOD, frame_with, symmetric_coords
from dface.aus import (
    DEFAULT_THRESHOLD,
    ActivityClass,
    AUActivation,
    Emotion,
    Side,
    activations_csv,
    classify_emotion,
    detect_active_aus,
    rule_tables,
)
from dface.augment import act_on_keypoints
from dface.dihedral import reflection
from dface.errors import DfaceError, DomainError
from dface.face import LATERAL_PAIRS, build_frame

GATE = DEFAULT_THRESHOLD * IOD  # 3.0 px on the shared fixture


def _fire(tables, *numbers):
    return [AUActivation(tables.au(n), Side.BILATERAL, 0.2, True) for n in numbers]


def test_au_descriptors_golden():
    tables = rule_tables()
    assert len(tables.action_units) == 13
    expected = {
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
    assert {u.number: u.descriptor for u in tables.action_units} == expected


def _numbers(tables, activity: ActivityClass) -> set[int]:
    """The AU numbers whose unit has ``activity``."""
    return {u.number for u in tables.action_units if u.activity_class is activity}


def test_activity_split_golden():
    tables = rule_tables()
    assert _numbers(tables, ActivityClass.ACTIVE) == {1, 2, 4, 12, 15, 16, 20, 23}
    assert _numbers(tables, ActivityClass.PASSIVE) == {5, 6, 7, 9, 26}
    assert tables.au(12).activity_class is ActivityClass.ACTIVE
    assert tables.au(26).activity_class is ActivityClass.PASSIVE


def test_measurable_au_listing_golden():
    tables = rule_tables()
    rows = [
        (u.descriptor, u.number)
        for u in tables.action_units
        if u.activity_class is ActivityClass.ACTIVE
    ]
    assert rows == [
        ("Inner Brow Raiser", 1),
        ("Outer Brow Raiser", 2),
        ("Brow Lowerer", 4),
        ("Lip Corner Puller", 12),
        ("Lip Corner Depressor", 15),
        ("Lower Lip Depressor", 16),
        ("Lip Stretcher", 20),
        ("Lip Tightener", 23),
    ]


def test_full_rules_golden():
    tables = rule_tables()
    want = {
        Emotion.HAPPINESS: {6, 12},
        Emotion.SADNESS: {1, 4, 15},
        Emotion.SURPRISE: {1, 2, 5, 26},
        Emotion.FEAR: {1, 2, 4, 5, 7, 20, 26},
        Emotion.ANGER: {4, 5, 7, 23},
        Emotion.DISGUST: {9, 15, 16},
    }
    assert {r.emotion: set(r.full_aus) for r in tables.rules} == want


def test_refined_rules_golden():
    tables = rule_tables()
    want = {
        Emotion.HAPPINESS: {12},
        Emotion.SADNESS: {1, 4, 15},
        Emotion.SURPRISE: {1, 2},
        Emotion.FEAR: {1, 2, 4, 20},
        Emotion.ANGER: {4, 23},
        Emotion.DISGUST: {15, 16},
    }
    assert {r.emotion: set(r.refined_aus) for r in tables.rules} == want


def test_refined_is_full_restricted_to_active():
    tables = rule_tables()
    for rule in tables.rules:
        assert rule.refined_aus == rule.full_aus & _numbers(tables, ActivityClass.ACTIVE)


def test_unknown_au_rejected():
    with pytest.raises(DomainError):
        rule_tables().au(3)


def test_detect_nothing_on_identical_frames(base_frame):
    assert detect_active_aus(base_frame, base_frame) == []


def test_detect_threshold_is_strict(base_coords, base_frame):
    # displacement of exactly one gate must not fire
    expr = frame_with(base_coords, **{
        "14": (75.0, 140.0 - GATE), "17": (125.0, 140.0 - GATE)
    })
    assert detect_active_aus(base_frame, expr) == []


def test_detect_lip_corner_raise_bilateral(base_coords, base_frame):
    expr = frame_with(base_coords, **{
        "14": (75.0, 140.0 - 0.1 * IOD), "17": (125.0, 140.0 - 0.1 * IOD)
    })
    got = detect_active_aus(base_frame, expr)
    assert [(a.au.number, a.side, a.magnitude) for a in got] == [
        (12, Side.BILATERAL, pytest.approx(0.1))
    ]


def test_detect_lip_corner_raise_unilateral(base_coords, base_frame):
    expr = frame_with(base_coords, **{"14": (75.0, 140.0 - 0.1 * IOD)})
    got = detect_active_aus(base_frame, expr)
    assert [(a.au.number, a.side) for a in got] == [(12, Side.LEFT)]
    assert got[0].magnitude == pytest.approx(0.1)


def test_detect_inner_and_outer_brow_raisers(base_coords, base_frame):
    expr = frame_with(base_coords, **{
        "0": (85.0, 80.0 - 4.0), "3": (115.0, 80.0 - 4.0),
        "2": (55.0, 80.0 - 5.0), "5": (145.0, 80.0 - 5.0),
    })
    got = detect_active_aus(base_frame, expr)
    assert [(a.au.number, a.side) for a in got] == [
        (1, Side.BILATERAL), (2, Side.BILATERAL)
    ]
    assert got[0].magnitude == pytest.approx(4.0 / IOD)
    assert got[1].magnitude == pytest.approx(5.0 / IOD)


def test_detect_brow_lowerer_uses_mean(base_coords, base_frame):
    # all six brow points drop 0.08 interocular units: mean drop trips the
    # lowerer, and no raiser fires on downward motion
    drop = 0.08 * IOD
    moves = {}
    for pid in (0, 1, 2, 3, 4, 5):
        x, y = base_coords[pid]
        moves[str(pid)] = (x, y + drop)
    expr = frame_with(base_coords, **moves)
    got = detect_active_aus(base_frame, expr)
    assert [(a.au.number, a.side) for a in got] == [(4, Side.BILATERAL)]
    assert got[0].magnitude == pytest.approx(0.08)


def test_detect_brow_lowerer_mean_below_gate(base_coords, base_frame):
    # one point of three dips hard but the per-side mean stays under the gate
    expr = frame_with(base_coords, **{"1": (70.0, 75.0 + 8.0)})
    assert detect_active_aus(base_frame, expr) == []


def test_detect_lip_corner_depressor(base_coords, base_frame):
    expr = frame_with(base_coords, **{
        "14": (75.0, 140.0 + 6.0), "17": (125.0, 140.0 + 6.0)
    })
    got = detect_active_aus(base_frame, expr)
    assert [(a.au.number, a.side) for a in got] == [(15, Side.BILATERAL)]
    assert got[0].magnitude == pytest.approx(0.1)


def test_detect_lower_lip_depressor(base_coords, base_frame):
    expr = frame_with(base_coords, **{"23": (100.0, 152.0 + 4.0)})
    got = detect_active_aus(base_frame, expr)
    assert [(a.au.number, a.side) for a in got] == [(16, Side.BILATERAL)]
    assert got[0].magnitude == pytest.approx(4.0 / IOD)


def test_detect_lip_stretcher(base_coords, base_frame):
    expr = frame_with(base_coords, **{
        "14": (75.0 - 3.1, 140.0), "17": (125.0 + 3.1, 140.0)
    })
    got = detect_active_aus(base_frame, expr)
    assert [(a.au.number, a.side) for a in got] == [(20, Side.BILATERAL)]
    assert got[0].magnitude == pytest.approx(6.2 / IOD)


def test_detect_lip_tightener_needs_both_gates(base_coords, base_frame):
    narrow = {"14": (75.0 + 2.7, 140.0), "17": (125.0 - 2.7, 140.0)}
    flatten = {"20": (100.0, 128.0 + 1.0), "23": (100.0, 152.0 - 1.0)}

    # narrowing alone is not enough
    assert detect_active_aus(base_frame, frame_with(base_coords, **narrow)) == []
    # flattening alone is not enough
    assert detect_active_aus(base_frame, frame_with(base_coords, **flatten)) == []

    got = detect_active_aus(base_frame, frame_with(base_coords, **narrow, **flatten))
    assert [(a.au.number, a.side) for a in got] == [(23, Side.BILATERAL)]
    # magnitude reports the width change
    assert got[0].magnitude == pytest.approx(5.4 / IOD)


def test_detect_anger_pattern(base_coords, base_frame):
    moves = {}
    for pid in (0, 1, 2, 3, 4, 5):
        x, y = base_coords[pid]
        moves[str(pid)] = (x, y + 0.08 * IOD)
    moves["14"] = (75.0 + 2.7, 140.0)
    moves["17"] = (125.0 - 2.7, 140.0)
    moves["20"] = (100.0, 128.0 + 1.2)
    moves["23"] = (100.0, 152.0 - 1.2)
    got = detect_active_aus(base_frame, frame_with(base_coords, **moves))
    assert [a.au.number for a in got] == [4, 23]

    result = classify_emotion(got)
    assert result.label == "Anger"
    assert result.ranking[0] == (Emotion.ANGER, 1.0)


def test_detect_after_occlusion(base_coords, base_frame):
    # the raised left corner is occluded; its mirror supplies the motion
    expr = frame_with(
        base_coords, **{"14": None, "17": (125.0, 140.0 - 0.1 * IOD)}
    )
    got = detect_active_aus(base_frame, expr)
    assert [(a.au.number, a.side) for a in got] == [(12, Side.BILATERAL)]
    assert got[0].magnitude == pytest.approx(0.1, abs=1e-9)


def test_detect_mirror_equivariance(base_coords, base_frame):
    expr = frame_with(base_coords, **{"14": (75.0, 140.0 - 0.1 * IOD)})
    flip = reflection(4)
    center = (100.0, 100.0)
    mirrored = detect_active_aus(
        act_on_keypoints(flip, base_frame, center),
        act_on_keypoints(flip, expr, center),
    )
    assert [(a.au.number, a.side) for a in mirrored] == [(12, Side.RIGHT)]
    assert mirrored[0].magnitude == pytest.approx(0.1, abs=1e-12)


def test_detect_translation_and_scale_invariance(base_coords, base_frame):
    from conftest import rigid_motion

    expr_moves = dict(base_coords)
    expr_moves[14] = (75.0, 140.0 - 0.1 * IOD)
    from dface.face import build_frame

    base = detect_active_aus(base_frame, build_frame(expr_moves))
    for shift, scale in [((250.0, -40.0), 1.0), ((7.0, 7.0), 5.0)]:
        n2 = build_frame(rigid_motion(base_coords, 0.0, shift, scale))
        e2 = build_frame(rigid_motion(expr_moves, 0.0, shift, scale))
        got = detect_active_aus(n2, e2)
        assert [(a.au.number, a.side) for a in got] == [
            (a.au.number, a.side) for a in base
        ]
        for a, b in zip(got, base):
            assert a.magnitude == pytest.approx(b.magnitude, abs=1e-12)


def test_detect_custom_threshold(base_coords, base_frame):
    expr = frame_with(base_coords, **{
        "14": (75.0, 140.0 - 6.0), "17": (125.0, 140.0 - 6.0)
    })
    assert detect_active_aus(base_frame, expr, threshold=0.15) == []
    with pytest.raises(DomainError):
        detect_active_aus(base_frame, expr, threshold=0.0)


def test_classify_each_refined_rule_scores_one():
    tables = rule_tables()
    for rule in tables.rules:
        result = classify_emotion(_fire(tables, *rule.refined_aus))
        assert result.label == rule.emotion.value
        assert result.ranking[0] == (rule.emotion, 1.0)
        assert not result.is_neutral


def test_classify_empty_is_neutral():
    result = classify_emotion([])
    assert result.label == "Neutral"
    assert result.ranking == ()
    assert result.is_neutral


def test_classify_partial_overlap_ranking():
    tables = rule_tables()
    result = classify_emotion(_fire(tables, 1, 2, 4, 20))
    assert result.ranking[0] == (Emotion.FEAR, 1.0)
    assert result.ranking[1] == (Emotion.SURPRISE, pytest.approx(0.5))
    assert result.ranking[2] == (Emotion.SADNESS, pytest.approx(0.4))
    assert result.ranking[3] == (Emotion.ANGER, pytest.approx(0.2))
    # zero scores keep the canonical order
    assert [e for e, _ in result.ranking[4:]] == [Emotion.HAPPINESS, Emotion.DISGUST]


def test_classify_tie_break_canonical_and_override():
    tables = rule_tables()
    fired = _fire(tables, 1, 15)
    result = classify_emotion(fired)
    assert result.label == "Sadness"
    # Surprise and Disgust tie at 1/3; canonical order puts Surprise first
    assert result.ranking[1] == (Emotion.SURPRISE, pytest.approx(1 / 3))
    assert result.ranking[2] == (Emotion.DISGUST, pytest.approx(1 / 3))

    flipped = classify_emotion(fired, tie_order=tuple(reversed(tuple(Emotion))))
    assert flipped.label == "Sadness"
    assert flipped.ranking[1] == (Emotion.DISGUST, pytest.approx(1 / 3))
    assert flipped.ranking[2] == (Emotion.SURPRISE, pytest.approx(1 / 3))


def test_classify_rejects_bad_tie_order():
    with pytest.raises(DomainError):
        classify_emotion(
            _fire(rule_tables(), 12), tie_order=(Emotion.HAPPINESS,) * 6
        )


def test_activations_csv_golden():
    tables = rule_tables()
    rows = [
        AUActivation(tables.au(4), Side.BILATERAL, 0.08, True),
        AUActivation(tables.au(12), Side.LEFT, 0.125, True),
    ]
    assert activations_csv(rows) == (
        "au,descriptor,side,magnitude\n"
        "4,Brow Lowerer,bilateral,0.08\n"
        "12,Lip Corner Puller,left,0.125\n"
    )


def _random_pairs(count: int, seed: int):
    """Seeded neutral/expression frames: a jittered mirrored face, every point
    moved at one of several reaches, and up to three occluded points per
    frame whose counterparts are present; each with a random tie order."""
    rng = random.Random(seed)
    base = symmetric_coords()
    for _ in range(count):
        jitter, reach = rng.choice((0.0, 0.5, 2.0)), rng.choice((0.5, 2.0, 4.0, 8.0, 16.0))
        neutral = {p: (x + rng.gauss(0, jitter), y + rng.gauss(0, jitter))
                   for p, (x, y) in base.items()}
        expr = {p: (x + rng.gauss(0, reach), y + rng.gauss(0, reach))
                for p, (x, y) in neutral.items()}
        for coords in (neutral, expr):
            for pair in rng.sample(LATERAL_PAIRS, rng.choice((0, 0, 1, 3))):
                del coords[rng.choice(pair)]
        order = tuple(Emotion)
        if rng.random() < 0.5:
            order = tuple(rng.sample(order, len(order)))
        yield build_frame(neutral), build_frame(expr), order


def test_detection_and_ranking_bits_are_pinned():
    # 2,000 pairs at three thresholds fire every active AU on each side rule;
    # the digest covers each magnitude's and score's exact bits
    digest = hashlib.sha256()
    for neutral, expr, order in _random_pairs(2000, seed=18):
        for threshold in (0.01, 0.05, 0.2):
            try:
                acts = detect_active_aus(neutral, expr, threshold)
                result = classify_emotion(acts, order)
            except DfaceError as exc:
                digest.update(f"{type(exc).__name__}\n".encode())
                continue
            line = "".join(f"{a.au.number},{a.side.value},{a.magnitude.hex()};" for a in acts)
            line += result.label + "".join(f";{e.value},{s.hex()}" for e, s in result.ranking)
            digest.update(f"{line}\n".encode())
    assert digest.hexdigest() == (
        "02141419fa04e9f7c4f955db83512f645309605f4952917a0d50efe8d5a78fdc"
    )


@given(
    st.lists(st.floats(-15.0, 15.0), min_size=48, max_size=48),
    st.floats(1e-3, 1.0),
)
def test_only_active_aus_fire_in_increasing_order(moves, threshold):
    base = symmetric_coords()
    expr = {p: (x + moves[2 * p], y + moves[2 * p + 1]) for p, (x, y) in base.items()}
    acts = detect_active_aus(build_frame(base), build_frame(expr), threshold)
    numbers = [a.au.number for a in acts]
    tables = rule_tables()
    assert not set(numbers) & _numbers(tables, ActivityClass.PASSIVE)
    assert set(numbers) <= _numbers(tables, ActivityClass.ACTIVE)
    assert all(a < b for a, b in zip(numbers, numbers[1:]))
