"""Facial midline estimation, mirror geometry, and asymmetry scores.

The midline is fit by total least squares through the midpoints of the
left/right key point pairs: on a perfectly mirrored face every midpoint
lies on the axis, so the fit is exact.  All scores are normalized by the
interocular distance, which makes them invariant under rigid motion and
uniform scaling of the whole frame.
"""

from __future__ import annotations

import math
import sys

from .errors import (
    DegenerateFaceError,
    InsufficientFramesError,
    InsufficientPairsError,
    MissingPointError,
    SchemaError,
    UnrecoverablePointError,
)
from .face import (
    CANONICAL_LAYOUT,
    LATERAL_PAIRS,
    MIDLINE_IDS,
    FaceFrame,
    FrameSequence,
    Region,
    counterpart,
    interocular_distance,
)
from .formatting import finite, fmt, np, ordered_mean, shown
from .record import record

MIN_PAIRS = 3

_REGION_ORDER = tuple(Region)
_PAIR_REGIONS = tuple(CANONICAL_LAYOUT[left][0] for left, _ in LATERAL_PAIRS)


@record
class MidlineAxis:
    """A line through ``point`` along unit vector ``direction`` (oriented
    with non-negative y so "down the face" is consistent in raster
    coordinates).  ``fit_residual`` is the RMS distance of the pair
    midpoints to the line, normalized by interocular distance.  Raises
    SchemaError unless ``point`` and ``direction`` are finite ``(x, y)``
    tuples, ``fit_residual`` is finite and ``degenerate`` is a bool."""

    point: tuple[float, float]
    direction: tuple[float, float]
    fit_residual: float
    degenerate: bool = False

    def __post_init__(self):
        for name, pair in (("point", self.point), ("direction", self.direction)):
            if not (isinstance(pair, tuple) and len(pair) == 2 and finite(*pair)):
                raise SchemaError(f"axis {name} must be a finite (x, y) tuple, got {shown(pair)}")
        if not finite(self.fit_residual):
            raise SchemaError(f"axis fit_residual must be finite, got {shown(self.fit_residual)}")
        if not isinstance(self.degenerate, bool):
            raise SchemaError(f"axis degenerate must be a bool, got {shown(self.degenerate)}")
        dx, dy = self.direction
        if abs(math.hypot(dx, dy) - 1.0) > 1e-12:
            raise SchemaError("axis direction must be a unit vector")

    def offset(self, p: tuple[float, float]) -> float:
        """Signed perpendicular distance of ``p`` from the line."""
        dx, dy = self.direction
        vx, vy = p[0] - self.point[0], p[1] - self.point[1]
        return vx * dy - vy * dx

    def distance(self, p: tuple[float, float]) -> float:
        return abs(self.offset(p))


def estimate_midline(frame: FaceFrame) -> MidlineAxis:
    """Total-least-squares line through the midpoints of all complete
    left/right pairs.

    Needs at least three complete pairs.  If every midpoint coincides the
    fit is underdetermined and a vertical axis through that point is
    returned, flagged degenerate.  A fit whose scatter overflows the float
    range, or is not all zero but falls below the normal range (where it
    has lost precision), raises DegenerateFaceError, with no numpy warning.
    """
    mids = [((lx + rx) / 2.0, (ly + ry) / 2.0)
            for _, (lx, ly), (rx, ry) in _complete_pairs(frame)]
    if len(mids) < MIN_PAIRS:
        raise InsufficientPairsError(
            f"midline fit needs >= {MIN_PAIRS} complete pairs, got {len(mids)}"
        )
    pts = np.asarray(mids, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        centroid = pts.mean(axis=0)
        centered = pts - centroid
        cov = centered.T @ centered
        if not np.isfinite(cov).all():
            raise DegenerateFaceError("midline fit overflows: midpoint scatter is not finite")
        anchor = (float(centroid[0]), float(centroid[1]))
        if not centered.any():
            return MidlineAxis(anchor, (0.0, 1.0), 0.0, degenerate=True)
        if np.abs(cov).max() < sys.float_info.min:
            raise DegenerateFaceError("midline fit underflows: midpoint scatter is subnormal")

        # Principal axis of the midpoint scatter; eigh is deterministic and the
        # larger eigenvalue comes last.
        _, vecs = np.linalg.eigh(cov)
        dx, dy = float(vecs[0, 1]), float(vecs[1, 1])
        if dy < 0.0 or (dy == 0.0 and dx < 0.0):
            dx, dy = -dx, -dy
        perp = centered[:, 0] * dy - centered[:, 1] * dx
        rms = float(np.sqrt(np.mean(perp ** 2)))
    residual = rms / _normalizer(frame)
    if not finite(dx, dy, residual):
        raise DegenerateFaceError("midline fit overflows: axis or residual is not finite")
    return MidlineAxis(anchor, (dx, dy), residual)


def reflect_about(axis: MidlineAxis, p: tuple[float, float]) -> tuple[float, float]:
    """Mirror image of ``p`` across the axis line (Householder form)."""
    ax, ay = axis.point
    dx, dy = axis.direction
    vx, vy = p[0] - ax, p[1] - ay
    t = vx * dx + vy * dy
    return (2.0 * t * dx - vx + ax, 2.0 * t * dy - vy + ay)


def _complete_pairs(frame: FaceFrame) -> list:
    """(left id, left (x, y), right (x, y)) of each pair with both points present."""
    xy = frame.xy
    return [(left, xy[left], xy[right]) for left, right in LATERAL_PAIRS
            if xy[left] is not None and xy[right] is not None]


def _normalizer(frame: FaceFrame) -> float:
    """Interocular distance, or (when eye points are occluded) the mean
    span of the complete pairs as a stand-in length scale."""
    try:
        return interocular_distance(frame)
    except MissingPointError:
        spans = [math.hypot(lx - rx, ly - ry)
                 for _, (lx, ly), (rx, ry) in _complete_pairs(frame)]
        if spans:
            mean = ordered_mean(spans)
            if mean > 0.0:
                return mean
        raise DegenerateFaceError("no usable normalization length") from None


def _mean(values: list[float], norm: float = 1.0) -> float:
    """Mean of ``values`` divided by ``norm``; 0.0 when there are none.
    ``ordered_mean`` adds left to right, so every score is reproducible bit
    for bit."""
    return ordered_mean(values) / norm if values else 0.0


def _scores(terms: list[tuple[Region, float]], norm: float) -> tuple[float, dict[Region, float]]:
    """The overall score of ``terms`` and the score of each region's terms."""
    return _mean([t for _, t in terms], norm), {
        region: _mean([t for r, t in terms if r is region], norm) for region in _REGION_ORDER
    }


def _structural_terms(frame: FaceFrame, axis: MidlineAxis) -> list[tuple[Region, float]]:
    """Unnormalized mismatch terms: per complete pair, the distance between
    the reflected left point and the right point; per present midline
    point, its distance to the axis.  Raises InsufficientPairsError when no
    pair is complete, before any normalization length is needed."""
    terms = []
    for left, lp, (rx, ry) in _complete_pairs(frame):
        mx, my = reflect_about(axis, lp)
        terms.append((CANONICAL_LAYOUT[left][0], math.hypot(mx - rx, my - ry)))
    if not terms:
        raise InsufficientPairsError("structural score needs at least one complete pair")
    for pid in MIDLINE_IDS:
        if frame.xy[pid] is not None:
            terms.append((CANONICAL_LAYOUT[pid][0], axis.distance(frame.xy[pid])))
    return terms


def structural_asymmetry(frame: FaceFrame, axis: MidlineAxis | None = None) -> float:
    """Mean mismatch between each side and the mirror of the other,
    normalized by interocular distance; exactly 0 on a mirrored face."""
    if axis is None:
        axis = estimate_midline(frame)
    terms = _structural_terms(frame, axis)
    return _mean([t for _, t in terms], _normalizer(frame))


def _movement_terms(
    seq: FrameSequence, axes: list[MidlineAxis]
) -> list[tuple[Region, float]]:
    """Per consecutive step and tracked pair (all four points present), the
    absolute difference between the left point's displacement and that of
    the right point mirrored about each frame's own axis.  Each frame's
    right points are mirrored once, by ``reflect_about``'s arithmetic inlined
    so the bits match."""
    sides = []
    for frame, axis in zip(seq.frames, axes):
        xy = frame.xy
        ax, ay = axis.point
        dx, dy = axis.direction
        row = []
        for left, right in LATERAL_PAIRS:
            lp, rp = xy[left], xy[right]
            if lp is None or rp is None:
                row.append(None)
                continue
            (lx, ly), (rx, ry) = lp, rp
            vx, vy = rx - ax, ry - ay
            t = vx * dx + vy * dy
            row.append((lx, ly, 2.0 * t * dx - vx + ax, 2.0 * t * dy - vy + ay))
        sides.append(row)
    terms = []
    for a, b in zip(sides, sides[1:]):
        for region, pa, pb in zip(_PAIR_REGIONS, a, b):
            if pa is not None and pb is not None:
                d_left = math.hypot(pb[0] - pa[0], pb[1] - pa[1])
                d_right = math.hypot(pb[2] - pa[2], pb[3] - pa[3])
                terms.append((region, abs(d_left - d_right)))
    return terms


def _frame_axes(seq: FrameSequence, axes: list[MidlineAxis] | None) -> list[MidlineAxis]:
    """``axes``, which must hold one axis per frame, or else each frame's
    fitted midline."""
    if axes is None:
        return [estimate_midline(f) for f in seq.frames]
    if len(axes) != len(seq.frames):
        raise SchemaError(f"{len(axes)} axes for {len(seq.frames)} frames")
    return axes


def movement_asymmetry(
    seq: FrameSequence,
    axes: list[MidlineAxis] | None = None,
) -> float:
    """Mean absolute difference between left displacement magnitudes and
    mirrored right displacement magnitudes over consecutive frames,
    normalized by ``seq.reference_interocular()``.

    Mirroring uses each frame's own axis, so the score tracks genuine
    one-sided motion rather than head translation.  Mirroring the sequence
    swaps which side is measured raw and which mirrored, so with per-frame
    axes its score may differ; rotations, or one shared axis, keep it.
    """
    if len(seq.frames) < 2:
        raise InsufficientFramesError(
            f"movement score needs >= 2 frames, got {len(seq.frames)}"
        )
    terms = _movement_terms(seq, _frame_axes(seq, axes))
    if not terms:
        raise InsufficientPairsError("movement score needs at least one tracked pair")
    return _mean([t for _, t in terms], seq.reference_interocular())


def reconstruct_occluded(frame: FaceFrame, axis: MidlineAxis | None = None) -> FaceFrame:
    """Fill occluded lateral points with the mirror image of their present
    counterparts.

    Reconstructed points carry a flag so downstream consumers can tell
    measured from inferred coordinates.  A point whose counterpart is also
    missing cannot be recovered; that includes every missing midline point,
    which is its own counterpart.
    """
    if axis is None:
        axis = estimate_midline(frame)
    xy = frame.xy
    missing = frame.missing_ids()
    lost = [pid for pid in missing if xy[counterpart(pid)] is None]
    if lost:
        raise UnrecoverablePointError(lost)
    updates = {pid: reflect_about(axis, xy[counterpart(pid)]) for pid in missing}
    return frame.with_coords(updates, reconstructed=True)


@record
class AsymmetryReport:
    """Aggregate scores for one recording; per_region holds the same two
    scores restricted to each region's points."""

    structural: float
    movement: float
    per_region: dict[Region, tuple[float, float]]
    frames_used: int


def asymmetry_report(
    seq: FrameSequence, axes: list[MidlineAxis] | None = None
) -> AsymmetryReport:
    """Whole-sequence summary: structural score averaged over frames,
    movement score over consecutive steps, split by region.  A region with
    no terms, and movement with no tracked pair, score 0.0 here, where
    ``movement_asymmetry`` raises."""
    axes = _frame_axes(seq, axes)
    frame_scores = [
        _scores(_structural_terms(frame, axis), _normalizer(frame))
        for frame, axis in zip(seq.frames, axes)
    ]

    if len(seq.frames) >= 2:
        ref = seq.reference_interocular()
        movement, mv_region = _scores(_movement_terms(seq, axes), ref)
    else:
        movement, mv_region = 0.0, dict.fromkeys(_REGION_ORDER, 0.0)

    per_region = {
        region: (_mean([regions[region] for _, regions in frame_scores]), mv_region[region])
        for region in _REGION_ORDER
    }
    return AsymmetryReport(
        structural=_mean([overall for overall, _ in frame_scores]),
        movement=movement,
        per_region=per_region,
        frames_used=len(seq.frames),
    )


def report_csv(report: AsymmetryReport) -> str:
    lines = ["metric,region,value"]
    lines.append(f"structural,all,{fmt(report.structural)}")
    lines.append(f"movement,all,{fmt(report.movement)}")
    for region in _REGION_ORDER:
        s, m = report.per_region[region]
        lines.append(f"structural,{region.value},{fmt(s)}")
        lines.append(f"movement,{region.value},{fmt(m)}")
    lines.append(f"frames_used,all,{report.frames_used}")
    return "\n".join(lines) + "\n"
