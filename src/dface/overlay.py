"""SVG scatter overlay: key points, their mirror images, and the midline.

Text output with fixed number formatting, so overlays serve as diffable
goldens alongside the CSV reports.
"""

from __future__ import annotations

from .face import CANONICAL_LAYOUT, MIDLINE_IDS, FaceFrame
from .formatting import fmt
from .symmetry import MidlineAxis, reflect_about

_REGION_FILL = {
    "eyebrow": "#2b6cb0",
    "eye": "#2f855a",
    "lip_corner": "#c05621",
    "lip_middle": "#6b46c1",
}
_POINT_FILL = tuple(_REGION_FILL[region.value] for region, _ in CANONICAL_LAYOUT)

_PAD_FRACTION = 0.15
_MIN_PAD = 10.0


def render_overlay(frame: FaceFrame, axis: MidlineAxis) -> str:
    """One self-contained SVG: filled circles for measured points, hollow
    circles for their reflections about the axis, and the axis line."""
    present = [(pid, xy) for pid, xy in enumerate(frame.xy) if xy is not None]
    xs = [x for _, (x, _) in present]
    ys = [y for _, (_, y) in present]
    if not xs:
        xs, ys = [axis.point[0]], [axis.point[1]]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = max(_MIN_PAD, _PAD_FRACTION * max(x1 - x0, y1 - y0))
    vx, vy = x0 - pad, y0 - pad
    vw, vh = (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad

    # axis segment long enough to cross the whole view box
    span = vw + vh
    ax, ay = axis.point
    dx, dy = axis.direction
    x_start, y_start = ax - span * dx, ay - span * dy
    x_end, y_end = ax + span * dx, ay + span * dy

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{fmt(vx)} {fmt(vy)} {fmt(vw)} {fmt(vh)}">',
        f'<line x1="{fmt(x_start)}" y1="{fmt(y_start)}" '
        f'x2="{fmt(x_end)}" y2="{fmt(y_end)}" '
        'stroke="#718096" stroke-width="0.8" stroke-dasharray="4 2"/>',
    ]
    for pid, (x, y) in present:
        parts.append(
            f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="2" fill="{_POINT_FILL[pid]}">'
            f"<title>{pid}</title></circle>"
        )
    for pid, xy in present:
        if pid in MIDLINE_IDS:
            continue
        mx, my = reflect_about(axis, xy)
        parts.append(
            f'<circle cx="{fmt(mx)}" cy="{fmt(my)}" r="2" fill="none" '
            f'stroke="{_POINT_FILL[pid]}" stroke-width="0.6">'
            f"<title>{pid}&#8217;</title></circle>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
