"""Schema and I/O for the 24-point facial key point layout.

Point ids are fixed by convention, one row per region and side; each
right-side row lists the mirror images of the left-side row above it:

    ids    side     region
    0-2    left     eyebrow: medial to lateral
    3-5    right    eyebrow, same order
    6-9    left     eye: inner corner, top lid, outer corner, bottom lid
    10-13  right    eye, same order
    14-16  left     lip corner: apex, upper lip edge, lower lip edge
    17-19  right    lip corner, same order
    20-23  midline  lip middle: top to bottom

"Left" and "right" name the subject's anatomical sides.  Coordinates are
raster pixels: x grows rightward, y grows downward.  Each point carries a
motion state: mimic points (brows, mouth) are ``active``, eye corners and
lids are ``stable`` anchors used for normalization.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from .errors import (
    DegenerateFaceError,
    FrameParseError,
    MissingPointError,
    SchemaError,
)
from .formatting import ascii_int, finite, fmt, ordered_mean, read_ini, read_text, shown, write_file
from .record import record


class Region(str, Enum):
    EYEBROW = "eyebrow"
    EYE = "eye"
    LIP_CORNER = "lip_corner"
    LIP_MIDDLE = "lip_middle"


class Laterality(str, Enum):
    LEFT = "left"
    RIGHT = "right"
    MIDLINE = "midline"


class PointState(str, Enum):
    STABLE = "stable"
    ACTIVE = "active"
    PASSIVE = "passive"


POINT_COUNT = 24

# The layout, declared once: for each sided region, its left ids and then
# its right ids in mirror order, so the i-th right id mirrors the i-th left
# id.  The lip midline points are their own mirror.
_SIDES: dict[Region, tuple[tuple[int, ...], tuple[int, ...]]] = {
    Region.EYEBROW: ((0, 1, 2), (3, 4, 5)),
    Region.EYE: ((6, 7, 8, 9), (10, 11, 12, 13)),
    Region.LIP_CORNER: ((14, 15, 16), (17, 18, 19)),
}
MIDLINE_IDS: tuple[int, ...] = (20, 21, 22, 23)

LEFT_BROW_IDS, RIGHT_BROW_IDS = _SIDES[Region.EYEBROW]
LEFT_EYE_IDS, RIGHT_EYE_IDS = _SIDES[Region.EYE]

# Named ids for the points the measurement code addresses directly.
LEFT_BROW_INNER, LEFT_BROW_MID, LEFT_BROW_OUTER = LEFT_BROW_IDS
RIGHT_BROW_INNER, RIGHT_BROW_MID, RIGHT_BROW_OUTER = RIGHT_BROW_IDS
LEFT_EYE_INNER, LEFT_EYE_TOP, LEFT_EYE_OUTER, LEFT_EYE_BOTTOM = LEFT_EYE_IDS
RIGHT_EYE_INNER, RIGHT_EYE_TOP, RIGHT_EYE_OUTER, RIGHT_EYE_BOTTOM = RIGHT_EYE_IDS
((LEFT_LIP_CORNER, LEFT_LIP_UPPER, LEFT_LIP_LOWER),
 (RIGHT_LIP_CORNER, RIGHT_LIP_UPPER, RIGHT_LIP_LOWER)) = _SIDES[Region.LIP_CORNER]
LIP_TOP, LIP_UPPER_MID, LIP_LOWER_MID, LIP_BOTTOM = MIDLINE_IDS

# Mirror pairs (left id, right id).
LATERAL_PAIRS: tuple[tuple[int, int], ...] = tuple(
    pair for left, right in _SIDES.values() for pair in zip(left, right)
)

_PLACE = dict.fromkeys(MIDLINE_IDS, (Region.LIP_MIDDLE, Laterality.MIDLINE))
_COUNTERPART = {pid: pid for pid in MIDLINE_IDS}
for _region, (_left, _right) in _SIDES.items():
    _PLACE.update(dict.fromkeys(_left, (_region, Laterality.LEFT)))
    _PLACE.update(dict.fromkeys(_right, (_region, Laterality.RIGHT)))
    _COUNTERPART.update(zip(_left + _right, _right + _left))

CANONICAL_LAYOUT: tuple[tuple[Region, Laterality], ...] = tuple(
    _PLACE[pid] for pid in range(POINT_COUNT)
)


def _check_id(point_id: int) -> None:
    if not (isinstance(point_id, int) and 0 <= point_id < POINT_COUNT):
        raise SchemaError(f"point id out of range: {shown(point_id, str)}")


def _check_type(record: str, name: str, value, kind: type) -> None:
    if not isinstance(value, kind):
        raise SchemaError(f"{record} {name} must be a {kind.__name__}, got {type(value).__name__}")


def counterpart(point_id: int) -> int:
    """Mirror-image id of a point; midline points map to themselves."""
    _check_id(point_id)
    return _COUNTERPART[point_id]


def default_state(point_id: int) -> PointState:
    region, _ = CANONICAL_LAYOUT[point_id]
    return PointState.STABLE if region is Region.EYE else PointState.ACTIVE


_DEFAULT_STATES: tuple[PointState, ...] = tuple(map(default_state, range(POINT_COUNT)))
_IDS = frozenset(range(POINT_COUNT))


@record
class KeyPoint:
    """The view of one key point that ``FaceFrame.point`` returns; ``x``/``y``
    are None when the point is occluded, ``reconstructed`` marks coordinates
    filled in by mirroring.  Region and laterality come from the layout."""

    point_id: int
    state: PointState
    x: float | None = None
    y: float | None = None
    reconstructed: bool = False

    @property
    def region(self) -> Region:
        return CANONICAL_LAYOUT[self.point_id][0]

    @property
    def laterality(self) -> Laterality:
        return CANONICAL_LAYOUT[self.point_id][1]

    @property
    def present(self) -> bool:
        return self.x is not None and self.y is not None

    @property
    def coords(self) -> tuple[float, float]:
        if not self.present:
            raise MissingPointError(f"point {self.point_id} has no coordinates")
        return (self.x, self.y)


@record
class FaceFrame:
    """An immutable snapshot of the 24 key points, indexed by point id.

    ``xy`` holds each point's ``(x, y)``, or None when it is occluded;
    ``states`` holds the motion states; ``reconstructed`` is the set of ids
    whose coordinates were filled in by mirroring.  Region and laterality
    live only in ``CANONICAL_LAYOUT``; ``point`` and ``points`` give the
    per-point ``KeyPoint`` view.  Raises SchemaError unless ``xy`` and
    ``states`` are tuples, each ``xy`` entry is None or a finite ``(x, y)``
    tuple, each state is a ``PointState``, and ``reconstructed`` is a
    frozenset of ids in 0..23 that have coordinates.
    """

    xy: tuple[tuple[float, float] | None, ...]
    states: tuple[PointState, ...] = _DEFAULT_STATES
    reconstructed: frozenset[int] = frozenset()

    def __post_init__(self):
        for name, values in (("xy", self.xy), ("states", self.states)):
            _check_type("frame", name, values, tuple)
            if len(values) != POINT_COUNT:
                raise SchemaError(f"a frame needs {POINT_COUNT} points, got {len(values)}")
        if set(map(type, self.states)) != {PointState}:
            bad = next(s for s in self.states if type(s) is not PointState)
            raise SchemaError(f"point states must be PointState members, got {shown(bad)}")
        for p in self.xy:
            if not (p is None or (isinstance(p, tuple) and len(p) == 2 and finite(*p))):
                raise SchemaError(
                    f"coordinates must be None or an (x, y) pair of finite numbers, got {shown(p)}"
                )
        _check_type("frame", "reconstructed", self.reconstructed, frozenset)
        if not self.reconstructed <= _IDS:
            bad = sorted(self.reconstructed - _IDS, key=shown)
            raise SchemaError(f"reconstructed point ids out of range: {shown(bad)}")
        occluded = sorted(pid for pid in self.reconstructed if self.xy[pid] is None)
        if occluded:
            raise SchemaError(f"reconstructed points have no coordinates: {occluded}")

    def point(self, point_id: int) -> KeyPoint:
        _check_id(point_id)
        x, y = self.xy[point_id] or (None, None)
        return KeyPoint(point_id, self.states[point_id], x, y, point_id in self.reconstructed)

    @property
    def points(self) -> tuple[KeyPoint, ...]:
        return tuple(map(self.point, range(POINT_COUNT)))

    def coords(self, point_id: int) -> tuple[float, float]:
        return self.point(point_id).coords

    def missing_ids(self) -> tuple[int, ...]:
        return tuple(pid for pid, xy in enumerate(self.xy) if xy is None)

    @property
    def complete(self) -> bool:
        return None not in self.xy

    def with_coords(self, updates: Mapping[int, tuple[float, float]],
                    reconstructed: bool = False) -> "FaceFrame":
        xy = list(self.xy)
        for pid, (x, y) in updates.items():
            _check_id(pid)
            xy[pid] = (float(x), float(y))
        ids = frozenset(updates)
        marked = self.reconstructed | ids if reconstructed else self.reconstructed - ids
        return FaceFrame(tuple(xy), self.states, marked)


def build_frame(coords: Mapping[int, tuple[float, float]] | Sequence[tuple[float, float] | None],
                states: Mapping[int, PointState] | None = None) -> FaceFrame:
    """Assemble a frame from coordinates alone.

    ``coords`` is either a mapping from point id to (x, y) or a 24-long
    sequence where None marks an occluded point; motion states come from
    the canonical layout unless ``states`` overrides them.
    """
    if isinstance(coords, Mapping):
        for pid in coords:
            _check_id(pid)
        coords = [coords.get(pid) for pid in range(POINT_COUNT)]
    xy = tuple(None if p is None else (float(p[0]), float(p[1])) for p in coords)
    states = states or {}
    return FaceFrame(xy, tuple(states.get(pid, s) for pid, s in enumerate(_DEFAULT_STATES)))


def interocular_distance(frame: FaceFrame) -> float:
    """Distance between the two eye centroids (all four points each).

    The usual normalization length; raises if any eye point is occluded or
    the centroids coincide.
    """
    xy = frame.xy
    missing = [pid for pid in LEFT_EYE_IDS + RIGHT_EYE_IDS if xy[pid] is None]
    if missing:
        raise MissingPointError(
            "interocular distance needs all eye points; missing "
            + ",".join(str(m) for m in missing)
        )
    lx = ordered_mean([xy[pid][0] for pid in LEFT_EYE_IDS])
    ly = ordered_mean([xy[pid][1] for pid in LEFT_EYE_IDS])
    rx = ordered_mean([xy[pid][0] for pid in RIGHT_EYE_IDS])
    ry = ordered_mean([xy[pid][1] for pid in RIGHT_EYE_IDS])
    d = math.hypot(lx - rx, ly - ry)
    if d <= 0.0:
        raise DegenerateFaceError("eye centroids coincide")
    return d


_HEADER = "id,region,laterality,state,x,y,present"
_LAYOUT_VALUES = tuple((region.value, side.value) for region, side in CANONICAL_LAYOUT)


def serialize_frame(frame: FaceFrame) -> str:
    """Frame as CSV text.  ``present`` is 0 for occluded points (empty
    coordinate fields), 1 for measured, 2 for reconstructed.

    Coordinates are rounded to nine significant digits (``%.9g``), so a
    frame read back with :func:`parse_frame` may differ from the one
    written, and a score computed from the saved frame may differ from the
    in-memory score by about 1e-9 of the interocular distance.
    """
    lines = [_HEADER]
    for pid, (p, state, (region, side)) in enumerate(zip(frame.xy, frame.states, _LAYOUT_VALUES)):
        if p is None:
            flag, xs, ys = "0", "", ""
        else:
            flag = "2" if pid in frame.reconstructed else "1"
            xs, ys = fmt(p[0]), fmt(p[1])
        lines.append(f"{pid},{region},{side},{state.value},{xs},{ys},{flag}")
    return "\n".join(lines) + "\n"


_STATE_OF = {state.value: state for state in PointState}


def parse_frame(text: str) -> FaceFrame:
    """Inverse of :func:`serialize_frame`, with line-numbered errors."""
    lines = text.splitlines()
    if not lines:
        raise FrameParseError("expected 24 rows, found 0")
    if lines[0].strip() != _HEADER:
        raise FrameParseError(f"expected header {_HEADER!r}", line=1)
    xy: dict[int, tuple[float, float] | None] = {}
    states: dict[int, PointState] = {}
    reconstructed = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        fields = raw.split(",")
        if len(fields) != 7:
            raise FrameParseError(f"expected 7 fields, got {len(fields)}", line=lineno)
        sid, sregion, slat, sstate, sx, sy, sflag = (f.strip() for f in fields)
        pid = ascii_int(sid)
        if pid is None:
            raise FrameParseError(f"bad point id {sid!r}", line=lineno)
        if not 0 <= pid < POINT_COUNT:
            raise FrameParseError(f"point id out of range: {pid}", line=lineno)
        if pid in xy:
            raise FrameParseError(f"duplicate point id {pid}", line=lineno)
        state = _STATE_OF.get(sstate)
        if state is None or (sregion, slat) != _LAYOUT_VALUES[pid]:
            # Only on a miss, so that the enum constructors word the error
            # for the first bad field.
            try:
                Region(sregion), Laterality(slat), PointState(sstate)
            except ValueError as exc:
                raise FrameParseError(str(exc), line=lineno) from None
            raise FrameParseError(f"point {pid} labelled {sregion}/{slat}, expected "
                                  + "/".join(_LAYOUT_VALUES[pid]), line=lineno)
        states[pid] = state
        if sflag not in ("0", "1", "2"):
            raise FrameParseError(f"present flag must be 0, 1 or 2, got {sflag!r}", line=lineno)
        if sflag == "0":
            if sx or sy:
                raise FrameParseError("occluded point must have empty coordinates", line=lineno)
            xy[pid] = None
            continue
        try:
            x, y = float(sx), float(sy)
        except ValueError:
            raise FrameParseError(f"bad coordinates {sx!r},{sy!r}", line=lineno) from None
        if not finite(x, y):
            raise FrameParseError("coordinates must be finite", line=lineno)
        xy[pid] = (x, y)
        if sflag == "2":
            reconstructed.add(pid)
    missing = sorted(set(range(POINT_COUNT)) - set(xy))
    if missing:
        raise FrameParseError("missing point ids " + ",".join(str(m) for m in missing))
    ids = range(POINT_COUNT)
    return FaceFrame(tuple(map(xy.get, ids)), tuple(map(states.get, ids)),
                     frozenset(reconstructed))


def load_frame(path: str | Path) -> FaceFrame:
    return parse_frame(read_text(path, FrameParseError))


def save_frame(path: str | Path, frame: FaceFrame) -> None:
    write_file(path, serialize_frame(frame))


@record
class FrameSequence:
    """Ordered frames of one recording plus optional metadata.

    ``interocular_ref`` fixes the normalization length for motion measures;
    when absent, callers fall back to the first frame's own eye distance.
    """

    frames: tuple[FaceFrame, ...]
    timestamps: tuple[float, ...] | None = None
    interocular_ref: float | None = None

    def __post_init__(self):
        _check_type("sequence", "frames", self.frames, tuple)
        if not self.frames:
            raise SchemaError("a sequence needs at least one frame")
        if not all(isinstance(f, FaceFrame) for f in self.frames):
            raise SchemaError("every frame of a sequence must be a FaceFrame")
        if self.timestamps is not None:
            _check_type("sequence", "timestamps", self.timestamps, tuple)
            if len(self.timestamps) != len(self.frames):
                raise SchemaError(
                    f"{len(self.timestamps)} timestamps for {len(self.frames)} frames"
                )
            if not finite(*self.timestamps):
                raise SchemaError("timestamps must be finite")
            if any(b <= a for a, b in zip(self.timestamps, self.timestamps[1:])):
                raise SchemaError("timestamps must be strictly increasing")
        ref = self.interocular_ref
        if ref is not None and not (finite(ref) and ref > 0):
            raise SchemaError(f"interocular_ref must be positive and finite, got {shown(ref, str)}")

    def __len__(self) -> int:
        return len(self.frames)

    def reference_interocular(self) -> float:
        if self.interocular_ref is not None:
            return self.interocular_ref
        return interocular_distance(self.frames[0])


_FRAME_FILE = re.compile(r"frame_([0-9]+)\.csv$")
_SEQUENCE_KEYS = (("sequence", "interocular_ref"), ("sequence", "timestamps"))


def _ini_number(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SchemaError(f"sequence.ini: {key} must be a number, got {text.strip()!r}") from None


def load_sequence(directory: str | Path) -> FrameSequence:
    """Read ``frame_<i>.csv`` files (sorted by index, one file per index) and
    an optional ``sequence.ini`` whose one section ``[sequence]`` may hold
    ``interocular_ref`` and ``timestamps``."""
    directory = Path(directory)
    found = []
    for p in directory.iterdir():
        m = _FRAME_FILE.fullmatch(p.name)
        if m:
            found.append((int(m.group(1)), p))
    if not found:
        raise SchemaError(f"no frame_<i>.csv files in {directory}")
    found.sort()
    for (index, p), (same, q) in zip(found, found[1:]):
        if index == same:
            raise SchemaError(f"{p.name} and {q.name} both hold frame {index}")
    frames = []
    for _, p in found:
        try:
            frames.append(load_frame(p))
        except FrameParseError as exc:
            raise FrameParseError(f"{p.name}: {exc}") from None

    timestamps = None
    ref = None
    ini = directory / "sequence.ini"
    if ini.exists():
        # an unreadable file raises OSError here
        text = read_text(ini, SchemaError, "sequence.ini is ")
        values = read_ini(text, str(ini), SchemaError, "sequence.ini", _SEQUENCE_KEYS)
        if ("sequence", "interocular_ref") in values:
            ref = _ini_number(values["sequence", "interocular_ref"], "interocular_ref")
        if ("sequence", "timestamps") in values:
            raw = values["sequence", "timestamps"]
            timestamps = tuple(_ini_number(t, "timestamps") for t in raw.split(",") if t.strip())
    return FrameSequence(tuple(frames), timestamps=timestamps, interocular_ref=ref)
