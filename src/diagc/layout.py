"""Drawable geometry: clipping, offsets, labels, knockouts, boxes.

``layout_diagram`` lays a figure out in one walk: it places each node,
clips each arrow and places its labels, and keeps the bounding box as
four running extremes as it goes, with no second walk over what it
built.

Layout coordinates are plain integers in milli-centi-em: QUANTUM of
them make one centi-em.  Each point is its exact rational position
rounded once to that grid, to the nearest integer with ties away from
zero (``round_div``'s rule over the whole exact sum).  The only float is
the unit vector of a diagonal direction, which enters at its exact
binary value; an arrow too long for a float direction is a
``LayoutError`` naming its command.  Nothing here depends on the render
scale, so rendering at scale s yields coordinates exactly s times the
scale-1 coordinates.

A horizontal or vertical arrow at local scale 1 with no offset (every
edge of a square grid) needs no rational at all: each clipped end is
its endpoint shifted by an integer along the axis, and an above or
below label centre is the anchor shifted by the label gap across it,
so the one rounding left is the anchor midpoint.  The walk clips these
inline; every other arrow takes ``clip_general``, which gives the same
points on these.  It too is straight-line code: each end's exit
parameter is a pair of integer locals, each point is rounded by one
floor division written out, the unit vector across the path is made
once per arrow, and only the knockout of an on-line label is a call of
its own.  Node and label widths come from ``text_width``, a plain table
sum for text with no ``\\``; one layout measures each node text and
each distinct label text once, a label at scale 1 and then scaled by
LABEL_SCALE, whose ratio is read at import.  The records are named
tuples, built by ``tuple.__new__`` without the Python-level ``__new__``
of a named tuple.
"""
from __future__ import annotations

import math
from functools import partial
from typing import Dict, List, NamedTuple, Tuple, Type

from .diagnostics import Diagnostic, DiagramError, LayoutError
from .geometry import (EX_RATIO, LABEL_SCALE, OBJECT_MARGIN, Memo, Point, ScaleConfig,
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

ABOVE, BELOW = LabelSide.ABOVE, LabelSide.BELOW
NONE, ON_LINE = LabelSide.NONE, LabelSide.ON_LINE
# a label's size per node text size, read once
LABEL_NUM, LABEL_DEN = LABEL_SCALE.as_integer_ratio()

IPoint = Tuple[int, int]           # layout units
Span = Tuple[IPoint, IPoint]
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
    label_half_w: Memo   # text -> _label_half_w of it, one layout long

    @classmethod
    def of(cls, cfg: ScaleConfig, metrics: FontMetrics) -> "_Frame":
        return cls(
            cfg,
            metrics,
            QUANTUM * pt_to_centiem(KNOCKOUT_PAD_PT[0], cfg.em_size),
            QUANTUM * pt_to_centiem(KNOCKOUT_PAD_PT[1], cfg.em_size),
            Memo(partial(_label_half_w, metrics)),
        )


def _label_half_w(metrics: FontMetrics, text: str) -> int:
    """Half the width of a label's text: its width at scale 1 times
    LABEL_SCALE, rounded once, ties away from zero, as ``text_width``
    rounds a scaled width."""
    w = text_width(text, 1, metrics) * LABEL_NUM
    return (2 * w + LABEL_DEN - (w < 0)) // (2 * LABEL_DEN) * QUANTUM // 2


def _swallowed(seq: int) -> LayoutError:
    return LayoutError(
        Diagnostic("error", "overlapping objects: arrow fully swallowed by its endpoints"), seq
    )


def too_long(error: Type[DiagramError], seq: int) -> DiagramError:
    """The error of an arrow whose direction has no float unit vector."""
    return error(Diagnostic("error", "arrow too long: its direction overflows a float"), seq)


def clip_general(arrow: Arrow, reach: Reach, frame: _Frame) -> DrawablePath:
    """Clip any arrow in exact rationals, rounded once per point.

    An attached end retracts to the box of the first node drawn at its
    anchor, whose half extents with the margin are in ``reach``; free
    endpoints (bare arrows, stubs, inline arrows) stay put.  The
    parallel offset recorded on the arrow and its local render scale
    are materialized here, then the labels are placed along the result.
    A diagonal too long for a float unit vector is an OverflowError,
    which layout_diagram names.  Each point is written out inline: v / q
    rounded, ties away from zero, is (2 v + q - (v < 0)) // 2 q.
    """
    start, end, _, label, side, seq, kind, _, _, label2, offset_pt, local_scale, _ = arrow
    # endpoints in layout units over a common denominator den
    p, den = local_scale.as_integer_ratio()
    p *= QUANTUM
    ax, ay, bx, by = start[0] * p, start[1] * p, end[0] * p, end[1] * p
    if offset_pt:
        off = QUANTUM * pt_to_centiem(offset_pt, frame.cfg.em_size) * den
        px, py, d = left_perp(bx - ax, by - ay, den * QUANTUM)
        ax, ay, bx, by = ax * d + px * off, ay * d + py * off, bx * d + px * off, by * d + py * off
        den *= d
    dx, dy = bx - ax, by - ay
    # each end moves n/d of the way in: where the ray from its anchor
    # leaves the box of its node, the margin included, capped at 1; a
    # free end stays
    n0 = n1 = 0
    d0 = d1 = 1
    if kind == KIND_POS:
        reach_w, reach_h = reach
        adx, ady = abs(dx), abs(dy)
        if start in reach_w:
            n0, half = 1, reach_w[start] * den
            if dx and half < adx:
                n0, d0 = half, adx
            half = reach_h[start] * den
            if dy and half * d0 < n0 * ady:
                n0, d0 = half, ady
        if end in reach_w:
            n1, half = 1, reach_w[end] * den
            if dx and half < adx:
                n1, d1 = half, adx
            half = reach_h[end] * den
            if dy and half * d1 < n1 * ady:
                n1, d1 = half, ady
    if n0 * d1 + n1 * d0 >= d0 * d1:
        raise _swallowed(seq)
    q = den * d0
    x, y = ax * d0 + dx * n0, ay * d0 + dy * n0
    sx, sy = (2 * x + q - (x < 0)) // (2 * q), (2 * y + q - (y < 0)) // (2 * q)
    q = den * d1
    x, y = bx * d1 - dx * n1, by * d1 - dy * n1
    ex, ey = (2 * x + q - (x < 0)) // (2 * q), (2 * y + q - (y < 0)) // (2 * q)
    start, end = (sx, sy), (ex, ey)
    x, y = sx + ex, sy + ey
    anchor = mx, my = (x + (x > 0)) // 2, (y + (y > 0)) // 2
    labels: Tuple[PlacedLabel, ...] = ()
    shaft: Tuple[Span, ...] = ((start, end),)
    d = 0   # the denominator of the unit vector across the path, once made
    if label and side is not NONE:
        hw = frame.label_half_w[label]
        if side is ON_LINE:
            labels = (_new(PlacedLabel, (label, side, anchor, hw)),)
            shaft = _knockout(start, end, anchor, hw, frame)
        else:
            px, py, d = left_perp(ex - sx, ey - sy, QUANTUM)
            gap = GAP if side is ABOVE else -GAP
            x, y = mx * d + px * gap, my * d + py * gap
            center = (2 * x + d - (x < 0)) // (2 * d), (2 * y + d - (y < 0)) // (2 * d)
            labels = (_new(PlacedLabel, (label, side, center, hw)),)
    if label2:   # an inline arrow's second label, below
        if not d:
            px, py, d = left_perp(ex - sx, ey - sy, QUANTUM)
        x, y = mx * d - px * GAP, my * d - py * GAP
        center = (2 * x + d - (x < 0)) // (2 * d), (2 * y + d - (y < 0)) // (2 * d)
        labels += (_new(PlacedLabel, (label2, BELOW, center, frame.label_half_w[label2])),)
    return _new(DrawablePath, (start, end, arrow, anchor, labels, shaft))


def _knockout(start: IPoint, end: IPoint, center: IPoint, half_w: int,
              frame: _Frame) -> Tuple[Span, ...]:
    """Split a path around the padded box of an on-line label at
    ``center``, ``half_w`` wide.

    Returns the visible sub-segments: none, one or two.  The path
    enters the box at n_in/d_in of the way along and leaves it at
    n_out/d_out; each cut point is rounded once.
    """
    (sx, sy), (cx, cy) = start, center
    dx, dy = end[0] - sx, end[1] - sy
    n_in, d_in, n_out, d_out = 0, 1, 1, 1
    # per axis: the half extent and the start's offset from the center
    for delta, coord, half in (
        (dx, sx - cx, half_w + frame.pad_w),
        (dy, sy - cy, LABEL_HALF_H + frame.pad_h),
    ):
        if delta == 0:
            if abs(coord) > half:
                return ((start, end),)
            continue
        if delta < 0:
            delta, coord = -delta, -coord
        if (-half - coord) * d_in > n_in * delta:
            n_in, d_in = -half - coord, delta
        if (half - coord) * d_out < n_out * delta:
            n_out, d_out = half - coord, delta
    if n_in * d_out >= n_out * d_in:
        return ((start, end),)
    spans: Tuple[Span, ...] = ()
    if n_in > 0:
        x, y, q = sx * d_in + dx * n_in, sy * d_in + dy * n_in, 2 * d_in
        spans = ((start, ((2 * x + d_in - (x < 0)) // q, (2 * y + d_in - (y < 0)) // q)),)
    if n_out < d_out:
        x, y, q = sx * d_out + dx * n_out, sy * d_out + dy * n_out, 2 * d_out
        spans += ((((2 * x + d_out - (x < 0)) // q, (2 * y + d_out - (y < 0)) // q), end),)
    # a label wider than the whole path knocks out the entire shaft
    return spans


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
            try:
                path = clip_general(arrow, reach, frame)
            except OverflowError:   # from left_perp: no float unit vector
                raise too_long(LayoutError, arrow.seq) from None
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
                labels = (_new(PlacedLabel, (label, side, center, label_half_w[label])),)
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
