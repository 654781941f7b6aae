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
from sys import float_info

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
from .formatting import fmt, ordered_mean, shown
from .record import record
from .symmetry import reconstruct_occluded


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


# AU number -> (descriptor, measure), in AU order.  The measure is None for
# a passive AU, which the 24 points cannot observe; (sign, left ids, right
# ids) for a lift read on each side, where the sign makes "fired" positive
# (AUs 4 and 15 fire on downward motion); or the name of a measure taken
# across the lower face.
_UNITS = {
    1: ("Inner Brow Raiser", (1.0, (LEFT_BROW_INNER,), (RIGHT_BROW_INNER,))),
    2: ("Outer Brow Raiser", (1.0, (LEFT_BROW_OUTER,), (RIGHT_BROW_OUTER,))),
    4: ("Brow Lowerer", (-1.0, LEFT_BROW_IDS, RIGHT_BROW_IDS)),
    5: ("Upper Lid Raiser", None),
    6: ("Cheek Raiser", None),
    7: ("Lid Tightener", None),
    9: ("Nose Wrinkler", None),
    12: ("Lip Corner Puller", (1.0, (LEFT_LIP_CORNER,), (RIGHT_LIP_CORNER,))),
    15: ("Lip Corner Depressor", (-1.0, (LEFT_LIP_CORNER,), (RIGHT_LIP_CORNER,))),
    16: ("Lower Lip Depressor", "lip drop"),
    20: ("Lip Stretcher", "widening"),
    23: ("Lip Tightener", "narrowing"),
    26: ("Jaw Drop", None),
}

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


@lru_cache(maxsize=1)
def rule_tables() -> ActionUnitRuleSet:
    """The complete transcription: an AU is active when it has a measure,
    and each refined rule is its full rule restricted to the active AUs."""
    active = frozenset(n for n, (_, measure) in _UNITS.items() if measure is not None)
    units = tuple(
        ActionUnit(n, descriptor, ActivityClass.ACTIVE if n in active else ActivityClass.PASSIVE)
        for n, (descriptor, _) in _UNITS.items()
    )
    rules = tuple(
        EmotionRule(emotion, full, full & active) for emotion, full in _FULL_RULES.items()
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
    # an exact comparison, so an int that no float holds is refused too
    if not (isinstance(threshold, (int, float)) and 0 < threshold <= float_info.max):
        raise DomainError(f"au threshold must be positive and finite, got {shown(threshold, str)}")


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

    def lift(ids: tuple[int, ...]) -> float:
        # mean y-up displacement of some points, each interocular-normalized
        return ordered_mean([(neutral.xy[p][1] - expr.xy[p][1]) / iod for p in ids])

    def growth(a: int, b: int) -> float:
        # change of the distance between two points, interocular-normalized
        return (math.dist(expr.xy[a], expr.xy[b]) - math.dist(neutral.xy[a], neutral.xy[b])) / iod

    width_delta = growth(LEFT_LIP_CORNER, RIGHT_LIP_CORNER)
    lower_face = {
        "lip drop": -lift((LIP_BOTTOM,)),
        "widening": width_delta,
        # narrowing counts only while the lips also flatten
        "narrowing": -width_delta if -growth(LIP_TOP, LIP_BOTTOM) > threshold / 2.0 else 0.0,
    }

    activations = []
    for number, (_, measure) in _UNITS.items():
        if measure is None:
            continue
        if isinstance(measure, str):
            side, magnitude = Side.BILATERAL, lower_face[measure]
        else:
            sign, left_ids, right_ids = measure
            left_m, right_m = sign * lift(left_ids), sign * lift(right_ids)
            if left_m > threshold and right_m > threshold:
                side, magnitude = Side.BILATERAL, (left_m + right_m) / 2.0
            elif right_m > threshold:
                side, magnitude = Side.RIGHT, right_m
            else:  # the left side, or neither, which the gate below drops
                side, magnitude = Side.LEFT, left_m
        if magnitude > threshold:
            activations.append(AUActivation(tables.au(number), side, magnitude, True))
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
        raise DomainError(f"tie_order must be a tuple of Emotion members, got {shown(order)}")
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
    refined = {rule.emotion: rule.refined_aus for rule in rule_tables().rules}
    scored = [(emotion, len(detected & refined[emotion]) / len(detected | refined[emotion]))
              for emotion in order]
    # sorted is stable, so equal scores keep the tie order
    ranking = tuple(sorted(scored, key=lambda pair: -pair[1]))
    return ClassificationResult(ranking[0][0].value, ranking)


def activations_csv(activations: list[AUActivation]) -> str:
    lines = ["au,descriptor,side,magnitude"]
    for a in activations:
        lines.append(f"{a.au.number},{a.au.descriptor},{a.side.value},{fmt(a.magnitude)}")
    return "\n".join(lines) + "\n"
