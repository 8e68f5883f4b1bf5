"""Drawable geometry: clipping, offsets, labels, knockouts, boxes.

``layout_diagram`` lays a figure out in one walk: it places each node,
clips each arrow and places its labels, and keeps the bounding box as
four running extremes as it goes, with no second walk over what it
built.

Layout coordinates are plain integers in milli-centi-em: QUANTUM of
them make one centi-em.  Each point is its exact rational position
rounded once to that grid, to the nearest integer with ties away from
zero (``round_div`` over the whole exact sum).  The only float is the
unit vector of a diagonal direction, which enters at its exact binary
value.  Nothing here depends on the render scale, so rendering at scale
s yields coordinates exactly s times the scale-1 coordinates.

A horizontal or vertical arrow at local scale 1 with no offset (every
edge of a square grid) needs no rational at all: each clipped end is
its endpoint shifted by an integer along the axis, and an above or
below label centre is the anchor shifted by the label gap across it,
so the one rounding left is the anchor midpoint.  The walk clips these
inline; every other arrow takes the general path, which gives the same
points on these.  Node and label widths come from ``text_width``, a
plain table sum for text with no ``\\``; one layout measures each node
text and each distinct label text once.  The records are named tuples,
built by ``tuple.__new__`` without the Python-level ``__new__`` of a
named tuple.
"""
from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Tuple

from .diagnostics import Diagnostic, LayoutError
from .geometry import (EX_RATIO, LABEL_SCALE, OBJECT_MARGIN, Point, ScaleConfig,
                       pt_to_centiem, round_div)
from .ir import KIND_POS, Arrow, DiagramIR, LabelSide, Node
from .metrics import DEFAULT_METRICS, FontMetrics, text_width

QUANTUM = 1000          # layout units per centi-em

NODE_BOX_HEIGHT = 100   # text box height, centi-em at scale 1 (1 em)
LABEL_GAP = 50          # line-to-label-center distance, centi-em
CANVAS_MARGIN = 50      # bounding-box margin, centi-em
KNOCKOUT_PAD_PT = (1, 4)   # on-line label padding, printer's points

# the language's constants in layout units: the node box shift (the
# anchor sits 0.75 ex below the box center, rounded to the centi-em), the
# object margin around node boxes, a label centre's distance from its
# line and a label's half height
BASELINE = QUANTUM * round_div(75 * EX_RATIO.numerator, EX_RATIO.denominator)
MARGIN = QUANTUM * OBJECT_MARGIN
GAP = QUANTUM * LABEL_GAP
LABEL_HALF_H = int(QUANTUM * NODE_BOX_HEIGHT // 2 * LABEL_SCALE)
NODE_HALF_H = QUANTUM * NODE_BOX_HEIGHT // 2

ABOVE, NONE, ON_LINE = LabelSide.ABOVE, LabelSide.NONE, LabelSide.ON_LINE

IPoint = Tuple[int, int]           # layout units
Span = Tuple[IPoint, IPoint]
Ratio = Tuple[int, int]            # num, den with den > 0
# per axis, x then y: the half extent, margin included, of the first
# node drawn at each anchor
Reach = Tuple[Dict[Point, int], Dict[Point, int]]

# builds a record from its fields without the Python-level __new__ of a
# named tuple
_new = tuple.__new__


def left_perp(dx: int, dy: int, den: int = 1) -> Tuple[int, int, int]:
    """Unit vector (x/d, y/d) to the left of travel along (dx, dy)/den centi-em.

    Exact when axis-aligned.  Otherwise it is the float unit vector of
    the centi-em direction, at its exact binary value, so d is a power
    of two.
    """
    if dy == 0:
        return (0, 1 if dx > 0 else -1, 1)
    if dx == 0:
        return (-1 if dy > 0 else 1, 0, 1)
    fx, fy = dx / den, dy / den
    length = math.hypot(fx, fy)
    xn, xd = (-fy / length).as_integer_ratio()
    yn, yd = (fx / length).as_integer_ratio()
    d = max(xd, yd)
    return xn * (d // xd), yn * (d // yd), d


def _along(x: int, y: int, dx: int, dy: int, den: int, t: Ratio) -> IPoint:
    """(x, y) + t (dx, dy), all over den, rounded to the layout grid."""
    tn, td = t
    return (round_div(x * td + dx * tn, den * td), round_div(y * td + dy * tn, den * td))


class PlacedNode(NamedTuple):
    node: Node
    center: IPoint        # drawn box center: anchor + align + baseline shift
    half_w: int
    half_h: int


class PlacedLabel(NamedTuple):
    text: str
    side: LabelSide
    center: IPoint        # the path midpoint, nudged off the line per side
    half_w: int           # the half height is LABEL_HALF_H


class DrawablePath(NamedTuple):
    start: IPoint
    end: IPoint
    arrow: Arrow
    label_anchor: IPoint  # parametric midpoint of the clipped segment
    labels: Tuple[PlacedLabel, ...]
    shaft: Tuple[Span, ...]  # visible segments: an on-line label knocks out its box

    @property
    def direction(self) -> IPoint:
        return (self.end[0] - self.start[0], self.end[1] - self.start[1])


class DiagramLayout(NamedTuple):
    nodes: List[PlacedNode]
    paths: List[DrawablePath]
    bbox: Tuple[int, int, int, int]  # x0, y0, x1, y1 in centi-em


class _Frame(NamedTuple):
    """What layout reads of one figure's settings: its ScaleConfig, its
    metrics and the knockout padding in layout units, converted from the
    em size once, and the half width of each label text met so far."""

    cfg: ScaleConfig
    metrics: FontMetrics
    pad_w: int         # knockout padding around on-line labels
    pad_h: int
    label_half_w: Dict[str, int]   # filled by _label_half_w, one layout long

    @classmethod
    def of(cls, cfg: ScaleConfig, metrics: FontMetrics) -> "_Frame":
        return cls(
            cfg,
            metrics,
            QUANTUM * pt_to_centiem(KNOCKOUT_PAD_PT[0], cfg.em_size),
            QUANTUM * pt_to_centiem(KNOCKOUT_PAD_PT[1], cfg.em_size),
            {},
        )


def _label_half_w(text: str, frame: _Frame) -> int:
    """Half the width of a label's text, measured once per layout."""
    half_w = frame.label_half_w.get(text)
    if half_w is None:
        half_w = frame.label_half_w[text] = (
            text_width(text, LABEL_SCALE, frame.metrics) * QUANTUM // 2)
    return half_w


def _exit_param(half_w: int, half_h: int, dx: int, dy: int, den: int) -> Ratio:
    """Where a ray (dx, dy)/den from a box center leaves the box of half
    extents (half_w, half_h), the margin included.

    Capped at 1, which changes no result: an arrow is swallowed once
    its two parameters sum to 1.
    """
    best: Ratio = (1, 1)
    for delta, half in ((dx, half_w), (dy, half_h)):
        if delta:
            t = (half * den, abs(delta))
            if t[0] * best[1] < best[0] * t[1]:
                best = t
    return best


def _swallowed(seq: int) -> LayoutError:
    return LayoutError(
        Diagnostic("error", "overlapping objects: arrow fully swallowed by its endpoints"), seq
    )


def clip_general(arrow: Arrow, reach: Reach, frame: _Frame) -> DrawablePath:
    """Clip any arrow in exact rationals, rounded once per point.

    An attached end retracts to the box of the first node drawn at its
    anchor, whose half extents with the margin are in ``reach``; free
    endpoints (bare arrows, stubs, inline arrows) stay put.  The
    parallel offset recorded on the arrow and its local render scale
    are materialized here, then the labels are placed along the result.
    """
    # endpoints in layout units over a common denominator den
    p, den = arrow.local_scale.as_integer_ratio()
    p *= QUANTUM
    ax, ay = arrow.start.x * p, arrow.start.y * p
    bx, by = arrow.end.x * p, arrow.end.y * p
    if arrow.offset_pt:
        off = QUANTUM * pt_to_centiem(arrow.offset_pt, frame.cfg.em_size)
        px, py, d = left_perp(bx - ax, by - ay, den * QUANTUM)
        ax, ay = ax * d + px * off * den, ay * d + py * off * den
        bx, by = bx * d + px * off * den, by * d + py * off * den
        den *= d
    dx, dy = bx - ax, by - ay
    t0: Ratio = (0, 1)
    t1: Ratio = (0, 1)
    if arrow.kind == KIND_POS:
        reach_w, reach_h = reach
        if arrow.start in reach_w:
            t0 = _exit_param(reach_w[arrow.start], reach_h[arrow.start], dx, dy, den)
        if arrow.end in reach_w:
            t1 = _exit_param(reach_w[arrow.end], reach_h[arrow.end], dx, dy, den)
    if t0[0] * t1[1] + t1[0] * t0[1] >= t0[1] * t1[1]:
        raise _swallowed(arrow.seq)
    start = _along(ax, ay, dx, dy, den, t0)
    end = _along(bx, by, -dx, -dy, den, t1)
    anchor = (round_div(start[0] + end[0], 2), round_div(start[1] + end[1], 2))
    labels = _place_labels(arrow, start, end, anchor, frame)
    shaft: Tuple[Span, ...] = ((start, end),)
    if labels and labels[0].side is LabelSide.ON_LINE:
        shaft = _knockout(start, end, labels[0], frame)
    return _new(DrawablePath, (start, end, arrow, anchor, labels, shaft))


def _place_labels(
    arrow: Arrow, start: IPoint, end: IPoint, anchor: IPoint, frame: _Frame
) -> Tuple[PlacedLabel, ...]:
    """The labels a path draws; inline single arrows carry two."""
    texts = []
    if arrow.label and arrow.side is not LabelSide.NONE:
        texts.append((arrow.label, arrow.side))
    if arrow.label2:
        texts.append((arrow.label2, LabelSide.BELOW))
    labels = []
    for text, side in texts:
        center = anchor
        if side is not LabelSide.ON_LINE:
            px, py, d = left_perp(end[0] - start[0], end[1] - start[1], QUANTUM)
            gap = GAP if side is LabelSide.ABOVE else -GAP
            center = (
                round_div(anchor[0] * d + px * gap, d),
                round_div(anchor[1] * d + py * gap, d),
            )
        labels.append(_new(PlacedLabel, (text, side, center, _label_half_w(text, frame))))
    return tuple(labels)


def _knockout(start: IPoint, end: IPoint, label: PlacedLabel, frame: _Frame) -> Tuple[Span, ...]:
    """Split a path around an on-line label's padded box.

    Returns the visible sub-segments: none, one or two.
    """
    (sx, sy), (cx, cy) = start, label.center
    dx, dy = end[0] - sx, end[1] - sy
    t_in: Ratio = (0, 1)
    t_out: Ratio = (1, 1)
    # per axis: the half extent and the start's offset from the center
    for delta, coord, half in (
        (dx, sx - cx, label.half_w + frame.pad_w),
        (dy, sy - cy, LABEL_HALF_H + frame.pad_h),
    ):
        if delta == 0:
            if abs(coord) > half:
                return ((start, end),)
            continue
        sign = 1 if delta > 0 else -1
        lo = (-half - sign * coord, abs(delta))
        hi = (half - sign * coord, abs(delta))
        if lo[0] * t_in[1] > t_in[0] * lo[1]:
            t_in = lo
        if hi[0] * t_out[1] < t_out[0] * hi[1]:
            t_out = hi
    if t_in[0] * t_out[1] >= t_out[0] * t_in[1]:
        return ((start, end),)
    spans = []
    if t_in[0] > 0:
        spans.append((start, _along(sx, sy, dx, dy, 1, t_in)))
    if t_out[0] < t_out[1]:
        spans.append((_along(sx, sy, dx, dy, 1, t_out), end))
    # a label wider than the whole path knocks out the entire shaft
    return tuple(spans)


def layout_diagram(
    ir: DiagramIR,
    metrics: FontMetrics = DEFAULT_METRICS,
) -> DiagramLayout:
    """Place every node, clip every arrow against its endpoint nodes and
    place its labels, in one walk that keeps the box as running extremes.

    A nonzero horizontal or vertical arrow at local scale 1, with no
    offset, no second label and no on-line label, is clipped here in
    integer shifts.  The exit parameter of an end is (half + margin) /
    |d|, so that end moves half + margin along the axis, and the arrow
    is swallowed once the two moves reach |d| (clip_general caps each
    parameter at 1, which changes neither that test nor a kept arrow).
    A label sits LABEL_GAP across the axis from the anchor, to the left
    of travel when above.  Every other arrow takes clip_general.
    """
    if not ir.nodes and not ir.arrows:
        raise LayoutError(Diagnostic("error", "empty diagram: nothing to draw"))
    frame = _Frame.of(ir.scale, metrics)
    label_half_w = frame.label_half_w
    # running extremes in layout units
    x0 = y0 = math.inf
    x1 = y1 = -math.inf
    placed = []
    reach: Reach = ({}, {})
    reach_w, reach_h = reach
    for node in ir.nodes:
        anchor, text, _, align, _ = node
        hw = text_width(text, 1, metrics) * QUANTUM // 2
        cx, cy = anchor[0] * QUANTUM, anchor[1] * QUANTUM + BASELINE
        if align:   # the drawn box shifts so that its named side is on the anchor
            if align == "l":
                cx += hw
            elif align == "r":
                cx -= hw
            elif align == "u":
                cy -= NODE_HALF_H
            elif align == "d":
                cy += NODE_HALF_H
        placed.append(_new(PlacedNode, (node, (cx, cy), hw, NODE_HALF_H)))
        if cx - hw < x0:
            x0 = cx - hw
        if cx + hw > x1:
            x1 = cx + hw
        if cy - NODE_HALF_H < y0:
            y0 = cy - NODE_HALF_H
        if cy + NODE_HALF_H > y1:
            y1 = cy + NODE_HALF_H
        if anchor not in reach_w:
            reach_w[anchor] = hw + MARGIN
            reach_h[anchor] = NODE_HALF_H + MARGIN
    paths = []
    for arrow in ir.arrows:
        start, end, _, label, side, _, kind, _, _, label2, offset_pt, local_scale, _ = arrow
        (sx, sy), (ex, ey) = start, end
        if ((sx == ex) == (sy == ey) or local_scale != 1 or offset_pt or label2
                or side is ON_LINE):
            path = clip_general(arrow, reach, frame)
            (sx, sy), (ex, ey), _, _, labels, _ = path
        else:
            vertical = sx == ex   # the index of the arrow's axis in reach
            d = QUANTUM * (ey - sy if vertical else ex - sx)
            if kind == KIND_POS:   # how far each end moves in
                c0, c1 = reach[vertical].get(start, 0), reach[vertical].get(end, 0)
            else:
                c0 = c1 = 0
            if c0 + c1 >= abs(d):
                raise _swallowed(arrow.seq)
            gap = GAP if side is ABOVE else -GAP
            if d < 0:
                c0, c1, gap = -c0, -c1, -gap
            if vertical:
                sx = ex = QUANTUM * sx
                sy, ey = QUANTUM * sy + c0, QUANTUM * ey - c1
                m = sy + ey
                anchor = (sx, (m + (m > 0)) // 2)   # round_div(m, 2)
                center = (sx - gap, anchor[1])
            else:
                sy = ey = QUANTUM * sy
                sx, ex = QUANTUM * sx + c0, QUANTUM * ex - c1
                m = sx + ex
                anchor = ((m + (m > 0)) // 2, sy)
                center = (anchor[0], sy + gap)
            start, end = (sx, sy), (ex, ey)
            labels = ()
            if label and side is not NONE:
                hw = label_half_w.get(label)
                if hw is None:
                    hw = _label_half_w(label, frame)
                labels = (_new(PlacedLabel, (label, side, center, hw)),)
            path = _new(DrawablePath, (start, end, arrow, anchor, labels, ((start, end),)))
        paths.append(path)
        for _, _, (cx, cy), hw in labels:
            if cx - hw < x0:
                x0 = cx - hw
            if cx + hw > x1:
                x1 = cx + hw
            if cy - LABEL_HALF_H < y0:
                y0 = cy - LABEL_HALF_H
            if cy + LABEL_HALF_H > y1:
                y1 = cy + LABEL_HALF_H
        if sx > ex:
            sx, ex = ex, sx
        if sy > ey:
            sy, ey = ey, sy
        if sx < x0:
            x0 = sx
        if ex > x1:
            x1 = ex
        if sy < y0:
            y0 = sy
        if ey > y1:
            y1 = ey
    # floor of the least coordinate, ceiling of the greatest, in centi-em
    x0, y0 = x0 // QUANTUM, y0 // QUANTUM
    x1, y1 = -(-x1 // QUANTUM), -(-y1 // QUANTUM)
    box = (x0 - CANVAS_MARGIN, y0 - CANVAS_MARGIN, x1 + CANVAS_MARGIN, y1 + CANVAS_MARGIN)
    return DiagramLayout(nodes=placed, paths=paths, bbox=box)
