"""FACS action unit tables, geometric activation detection, and rule-based
emotion classification.

The tables carry thirteen coded facial movements split into an active set,
measurable from the 24 tracked key points, and a passive set (lids, cheeks,
nose, jaw) that the point schema cannot observe.  Each basic emotion has a
full AU rule and a refined rule keeping only active AUs; detection works on
interocular-normalized displacements between a neutral and an expression
frame, and classification scores the detected set against the refined rules
by Jaccard overlap.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

from .errors import DomainError
from .face import (
    LEFT_BROW_IDS,
    LEFT_BROW_INNER,
    LEFT_BROW_OUTER,
    LEFT_LIP_CORNER,
    LIP_BOTTOM,
    LIP_TOP,
    RIGHT_BROW_IDS,
    RIGHT_BROW_INNER,
    RIGHT_BROW_OUTER,
    RIGHT_LIP_CORNER,
    FaceFrame,
    interocular_distance,
)
from .formatting import fmt, ordered_mean
from .record import record
from .symmetry import reconstruct_occluded

__all__ = [
    "ActivityClass",
    "Emotion",
    "Side",
    "ActionUnit",
    "EmotionRule",
    "ActionUnitRuleSet",
    "AUActivation",
    "ClassificationResult",
    "DEFAULT_THRESHOLD",
    "check_threshold",
    "check_tie_order",
    "rule_tables",
    "detect_active_aus",
    "classify_emotion",
    "activations_csv",
]


class ActivityClass(str, Enum):
    ACTIVE = "active"
    PASSIVE = "passive"


class Emotion(str, Enum):
    """Declaration order is the canonical ranking tie-break order."""

    HAPPINESS = "Happiness"
    SADNESS = "Sadness"
    SURPRISE = "Surprise"
    FEAR = "Fear"
    ANGER = "Anger"
    DISGUST = "Disgust"


class Side(str, Enum):
    LEFT = "left"
    RIGHT = "right"
    BILATERAL = "bilateral"


@record
class ActionUnit:
    number: int
    descriptor: str
    activity_class: ActivityClass


@record
class EmotionRule:
    emotion: Emotion
    full_aus: frozenset[int]
    refined_aus: frozenset[int]


_DESCRIPTORS = {
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

_ACTIVE_NUMBERS = frozenset({1, 2, 4, 12, 15, 16, 20, 23})

_FULL_RULES = {
    Emotion.HAPPINESS: frozenset({6, 12}),
    Emotion.SADNESS: frozenset({1, 4, 15}),
    Emotion.SURPRISE: frozenset({1, 2, 5, 26}),
    Emotion.FEAR: frozenset({1, 2, 4, 5, 7, 20, 26}),
    Emotion.ANGER: frozenset({4, 5, 7, 23}),
    Emotion.DISGUST: frozenset({9, 15, 16}),
}


@record
class ActionUnitRuleSet:
    """Immutable bundle of the full AU and emotion rule tables."""

    action_units: tuple[ActionUnit, ...]
    rules: tuple[EmotionRule, ...]

    def au(self, number: int) -> ActionUnit:
        for unit in self.action_units:
            if unit.number == number:
                return unit
        raise DomainError(f"unknown action unit {number}")

    def rule(self, emotion: Emotion) -> EmotionRule:
        for rule in self.rules:
            if rule.emotion is emotion:
                return rule
        raise DomainError(f"no rule for {emotion}")

    @property
    def active_numbers(self) -> frozenset[int]:
        return frozenset(
            u.number for u in self.action_units if u.activity_class is ActivityClass.ACTIVE
        )

    @property
    def passive_numbers(self) -> frozenset[int]:
        return frozenset(
            u.number for u in self.action_units if u.activity_class is ActivityClass.PASSIVE
        )


@lru_cache(maxsize=1)
def rule_tables() -> ActionUnitRuleSet:
    """The complete transcription; each refined rule is its full rule
    restricted to the active AUs."""
    units = tuple(
        ActionUnit(
            n,
            _DESCRIPTORS[n],
            ActivityClass.ACTIVE if n in _ACTIVE_NUMBERS else ActivityClass.PASSIVE,
        )
        for n in sorted(_DESCRIPTORS)
    )
    rules = tuple(
        EmotionRule(emotion, full, full & _ACTIVE_NUMBERS)
        for emotion, full in _FULL_RULES.items()
    )
    return ActionUnitRuleSet(units, rules)


@record
class AUActivation:
    au: ActionUnit
    side: Side
    magnitude: float
    active: bool


DEFAULT_THRESHOLD = 0.05


def check_threshold(threshold: float) -> None:
    """Raise DomainError unless the AU threshold is positive and finite."""
    if not (isinstance(threshold, (int, float)) and 0 < threshold < math.inf):
        raise DomainError(f"au threshold must be positive and finite, got {threshold}")


def detect_active_aus(
    neutral: FaceFrame, expr: FaceFrame, threshold: float = DEFAULT_THRESHOLD
) -> list[AUActivation]:
    """Fire the eight measurable AUs from neutral-to-expression movement.

    Displacements are divided by the neutral interocular distance and use
    upward-positive y (raster rows grow downward, so a raised brow has a
    smaller y but a positive lift here).  Occluded points are first filled
    by mirror reconstruction about each frame's own midline.  A threshold
    of ``threshold`` gates vertical displacements; the paired width/height
    gate for the lip tightener uses half of it for the height term.
    """
    check_threshold(threshold)
    neutral, expr = (f if f.complete else reconstruct_occluded(f) for f in (neutral, expr))
    iod = interocular_distance(neutral)
    tables = rule_tables()

    def lift(pid: int) -> float:
        # y-up displacement of one point, interocular-normalized
        return (neutral.xy[pid][1] - expr.xy[pid][1]) / iod

    def mean_lift(pids: tuple[int, ...]) -> float:
        return ordered_mean([lift(p) for p in pids])

    def span(frame: FaceFrame, a: int, b: int) -> float:
        (xa, ya), (xb, yb) = frame.xy[a], frame.xy[b]
        return math.hypot(xa - xb, ya - yb)

    per_side: dict[int, tuple[float, float]] = {
        1: (lift(LEFT_BROW_INNER), lift(RIGHT_BROW_INNER)),
        2: (lift(LEFT_BROW_OUTER), lift(RIGHT_BROW_OUTER)),
        4: (mean_lift(LEFT_BROW_IDS), mean_lift(RIGHT_BROW_IDS)),
        12: (lift(LEFT_LIP_CORNER), lift(RIGHT_LIP_CORNER)),
        15: (lift(LEFT_LIP_CORNER), lift(RIGHT_LIP_CORNER)),
    }
    # AUs 4 and 15 fire on downward motion; flip sign so "fired" is positive.
    signs = {1: 1.0, 2: 1.0, 4: -1.0, 12: 1.0, 15: -1.0}

    activations = []
    for number in sorted(per_side):
        left_v, right_v = per_side[number]
        left_m, right_m = signs[number] * left_v, signs[number] * right_v
        left_on, right_on = left_m > threshold, right_m > threshold
        if not (left_on or right_on):
            continue
        if left_on and right_on:
            side, magnitude = Side.BILATERAL, (left_m + right_m) / 2.0
        elif left_on:
            side, magnitude = Side.LEFT, left_m
        else:
            side, magnitude = Side.RIGHT, right_m
        activations.append(AUActivation(tables.au(number), side, magnitude, True))

    drop_16 = -lift(LIP_BOTTOM)
    if drop_16 > threshold:
        activations.append(AUActivation(tables.au(16), Side.BILATERAL, drop_16, True))

    width_delta = (
        span(expr, LEFT_LIP_CORNER, RIGHT_LIP_CORNER)
        - span(neutral, LEFT_LIP_CORNER, RIGHT_LIP_CORNER)
    ) / iod
    if width_delta > threshold:
        activations.append(AUActivation(tables.au(20), Side.BILATERAL, width_delta, True))

    height_delta = (
        span(expr, LIP_TOP, LIP_BOTTOM) - span(neutral, LIP_TOP, LIP_BOTTOM)
    ) / iod
    if -width_delta > threshold and -height_delta > threshold / 2.0:
        activations.append(AUActivation(tables.au(23), Side.BILATERAL, -width_delta, True))

    activations.sort(key=lambda a: a.au.number)
    return activations


@record
class ClassificationResult:
    """`label` is the top emotion, or "Neutral" when nothing fired (the
    ranking is empty in that case)."""

    label: str
    ranking: tuple[tuple[Emotion, float], ...]

    @property
    def is_neutral(self) -> bool:
        return not self.ranking


def check_tie_order(order: tuple[Emotion, ...]) -> None:
    """Raise DomainError unless ``order`` is a tuple listing each Emotion once."""
    if not (isinstance(order, tuple) and all(isinstance(e, Emotion) for e in order)):
        raise DomainError(f"tie_order must be a tuple of Emotion members, got {order!r}")
    if len(order) != len(Emotion) or set(order) != set(Emotion):
        raise DomainError("tie_order must list each emotion exactly once")


def classify_emotion(
    activations: list[AUActivation],
    tie_order: tuple[Emotion, ...] | None = None,
) -> ClassificationResult:
    """Rank emotions by Jaccard overlap between the detected AU set and
    each refined rule; ties break by ``tie_order``, by default Emotion's."""
    order = tie_order if tie_order is not None else tuple(Emotion)
    check_tie_order(order)
    detected = {a.au.number for a in activations if a.active}
    if not detected:
        return ClassificationResult("Neutral", ())
    tables = rule_tables()
    scored = []
    for rank_hint, emotion in enumerate(order):
        rule_set = tables.rule(emotion).refined_aus
        score = len(detected & rule_set) / len(detected | rule_set)
        scored.append((emotion, score, rank_hint))
    scored.sort(key=lambda t: (-t[1], t[2]))
    ranking = tuple((emotion, score) for emotion, score, _ in scored)
    return ClassificationResult(ranking[0][0].value, ranking)


def activations_csv(activations: list[AUActivation]) -> str:
    lines = ["au,descriptor,side,magnitude"]
    for a in activations:
        lines.append(f"{a.au.number},{a.au.descriptor},{a.side.value},{fmt(a.magnitude)}")
    return "\n".join(lines) + "\n"
