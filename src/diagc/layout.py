"""Drawable geometry: label sides, clipping, offsets, boxes.

Everything here is exact rational arithmetic (floats are converted to
exact binary Fractions where a unit vector is unavoidable), then
quantized to a milli-centi-em grid, so rendering at scale s yields
coordinates exactly s times the scale-1 coordinates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .diagnostics import Diagnostic, LayoutError
from .geometry import Point, ScaleConfig, pt_to_centiem, round_half_away
from .ir import KIND_POS, Arrow, DiagramIR, LabelSide, Node
from .metrics import DEFAULT_METRICS, FontMetrics, text_width

FPoint = Tuple[Fraction, Fraction]

NODE_BOX_HEIGHT = 100   # text box height, centi-em at scale 1 (1 em)
LABEL_GAP = 50          # line-to-label-center distance, centi-em
CANVAS_MARGIN = 50      # default bounding-box margin, centi-em
KNOCKOUT_PAD_PT = (Fraction(1), Fraction(4))  # on-line label padding

_Q = Fraction(1, 1000)  # layout quantum


def resolve_label_side(placement: str, dx: int, dy: int) -> LabelSide:
    """Which side of travel a label sits on, by placement character.

    Strict comparisons: at zero the else branch applies ('l' and 'r'
    both land Below on a horizontal arrow, 'a' and 'b' Below on a
    vertical one).  Unknown placements carry no label.
    """
    if placement == "l":
        return LabelSide.ABOVE if dy > 0 else LabelSide.BELOW
    if placement == "m":
        return LabelSide.ON_LINE
    if placement == "r":
        return LabelSide.ABOVE if dy < 0 else LabelSide.BELOW
    if placement == "a":
        return LabelSide.ABOVE if dx > 0 else LabelSide.BELOW
    if placement == "b":
        return LabelSide.ABOVE if dx < 0 else LabelSide.BELOW
    return LabelSide.NONE


def baseline_offset(cfg: ScaleConfig) -> Point:
    """Box shift placing the anchor 0.75 ex below the text-box center."""
    return Point(0, round_half_away(75 * cfg.ex_ratio))


def _quant(v: Fraction) -> Fraction:
    return round_half_away(v / _Q) * _Q


def _qpoint(x: Fraction, y: Fraction) -> FPoint:
    return (_quant(x), _quant(y))


def left_perp(dx: Fraction, dy: Fraction) -> FPoint:
    """Unit vector to the left of travel; exact when axis-aligned."""
    if dy == 0:
        return (Fraction(0), Fraction(1 if dx > 0 else -1))
    if dx == 0:
        return (Fraction(-1 if dy > 0 else 1), Fraction(0))
    length = math.hypot(float(dx), float(dy))
    return (Fraction(float(-dy) / length), Fraction(float(dx) / length))


@dataclass(frozen=True)
class PlacedNode:
    node: Node
    center: FPoint        # drawn box center: anchor + align + baseline shift
    half_w: Fraction
    half_h: Fraction


@dataclass(frozen=True)
class DrawablePath:
    start: FPoint
    end: FPoint
    arrow: Arrow
    label_anchor: FPoint  # parametric midpoint of the clipped segment

    @property
    def direction(self) -> FPoint:
        return (self.end[0] - self.start[0], self.end[1] - self.start[1])


@dataclass(frozen=True)
class DiagramLayout:
    nodes: List[PlacedNode]
    paths: List[DrawablePath]
    bbox: Tuple[int, int, int, int]  # x0, y0, x1, y1 in centi-em


def _node_half_extents(node: Node, metrics: FontMetrics) -> Tuple[Fraction, Fraction]:
    return (
        Fraction(text_width(node.text, 1, metrics), 2),
        Fraction(NODE_BOX_HEIGHT, 2),
    )


def _place_node(node: Node, cfg: ScaleConfig, metrics: FontMetrics) -> PlacedNode:
    half_w, half_h = _node_half_extents(node, metrics)
    cx = Fraction(node.anchor.x)
    cy = Fraction(node.anchor.y)
    if node.align == "l":
        cx += half_w
    elif node.align == "r":
        cx -= half_w
    elif node.align == "u":
        cy -= half_h
    elif node.align == "d":
        cy += half_h
    cy += baseline_offset(cfg).y
    return PlacedNode(node, _qpoint(cx, cy), half_w, half_h)


def _exit_param(half_w: Fraction, half_h: Fraction, dx: Fraction, dy: Fraction) -> Fraction:
    """Segment parameter where a ray from a box center leaves the box."""
    candidates = []
    if dx != 0:
        candidates.append(half_w / abs(dx))
    if dy != 0:
        candidates.append(half_h / abs(dy))
    return min(candidates)


def clip_arrow(
    arrow: Arrow,
    nodes: Sequence[Node],
    cfg: ScaleConfig,
    metrics: FontMetrics = DEFAULT_METRICS,
) -> DrawablePath:
    """Retract attached endpoints to the node's margin-inflated text box.

    Free endpoints (bare arrows, stubs, inline arrows) stay put.  The
    parallel offset recorded on the arrow and its local render scale
    are materialized here.
    """
    by_anchor: Dict[Point, Node] = {}
    for node in nodes:
        by_anchor.setdefault(node.anchor, node)
    ls = arrow.local_scale
    ax, ay = Fraction(arrow.start.x) * ls, Fraction(arrow.start.y) * ls
    bx, by = Fraction(arrow.end.x) * ls, Fraction(arrow.end.y) * ls
    if arrow.offset_pt:
        off = Fraction(pt_to_centiem(arrow.offset_pt, cfg.em_size))
        px, py = left_perp(bx - ax, by - ay)
        ax, ay = ax + px * off, ay + py * off
        bx, by = bx + px * off, by + py * off
    dx, dy = bx - ax, by - ay
    t0 = Fraction(0)
    t1 = Fraction(0)
    if arrow.kind == KIND_POS:
        start_node = by_anchor.get(arrow.start)
        end_node = by_anchor.get(arrow.end)
        if start_node is not None:
            hw, hh = _node_half_extents(start_node, metrics)
            t0 = _exit_param(hw + cfg.object_margin, hh + cfg.object_margin, dx, dy)
        if end_node is not None:
            hw, hh = _node_half_extents(end_node, metrics)
            t1 = _exit_param(hw + cfg.object_margin, hh + cfg.object_margin, dx, dy)
    if t0 + t1 >= 1:
        raise LayoutError(
            Diagnostic(
                "error",
                "overlapping objects: arrow fully swallowed by its endpoints",
            )
        )
    start = _qpoint(ax + dx * t0, ay + dy * t0)
    end = _qpoint(bx - dx * t1, by - dy * t1)
    anchor = _qpoint(
        (start[0] + end[0]) / 2, (start[1] + end[1]) / 2
    )
    return DrawablePath(start=start, end=end, arrow=arrow, label_anchor=anchor)


def label_center(path: DrawablePath, side: LabelSide, cfg: ScaleConfig) -> FPoint:
    """Center of a label box: the midpoint, nudged off the line per side."""
    if side in (LabelSide.ON_LINE, LabelSide.NONE):
        return path.label_anchor
    dx, dy = path.direction
    px, py = left_perp(dx, dy)
    gap = Fraction(LABEL_GAP) if side is LabelSide.ABOVE else Fraction(-LABEL_GAP)
    return _qpoint(path.label_anchor[0] + px * gap, path.label_anchor[1] + py * gap)


def label_half_extents(
    label: str, cfg: ScaleConfig, metrics: FontMetrics
) -> Tuple[Fraction, Fraction]:
    return (
        Fraction(text_width(label, cfg.label_scale, metrics), 2),
        Fraction(NODE_BOX_HEIGHT, 2) * cfg.label_scale,
    )


def path_labels(path: DrawablePath):
    """(text, side) pairs a path draws; inline single arrows carry two."""
    arrow = path.arrow
    if arrow.label and arrow.side is not LabelSide.NONE:
        yield arrow.label, arrow.side
    if arrow.label2:
        yield arrow.label2, LabelSide.BELOW


def bounding_box(
    nodes: Sequence[PlacedNode],
    paths: Sequence[DrawablePath],
    cfg: ScaleConfig,
    metrics: FontMetrics = DEFAULT_METRICS,
    margin: int = CANVAS_MARGIN,
) -> Tuple[int, int, int, int]:
    """Tight integer box over node boxes, paths, and labels, plus margin."""
    xs: List[Fraction] = []
    ys: List[Fraction] = []
    for placed in nodes:
        xs.extend((placed.center[0] - placed.half_w, placed.center[0] + placed.half_w))
        ys.extend((placed.center[1] - placed.half_h, placed.center[1] + placed.half_h))
    for path in paths:
        xs.extend((path.start[0], path.end[0]))
        ys.extend((path.start[1], path.end[1]))
        for text, side in path_labels(path):
            cx, cy = label_center(path, side, cfg)
            hw, hh = label_half_extents(text, cfg, metrics)
            xs.extend((cx - hw, cx + hw))
            ys.extend((cy - hh, cy + hh))
    if not xs:
        raise LayoutError(Diagnostic("error", "empty diagram: nothing to draw"))
    x0 = math.floor(min(xs)) - margin
    y0 = math.floor(min(ys)) - margin
    x1 = math.ceil(max(xs)) + margin
    y1 = math.ceil(max(ys)) + margin
    return x0, y0, x1, y1


def layout_diagram(
    ir: DiagramIR,
    metrics: FontMetrics = DEFAULT_METRICS,
    margin: int = CANVAS_MARGIN,
) -> DiagramLayout:
    """Clip every arrow against its endpoint nodes and box the result."""
    cfg = ir.scale
    placed = [_place_node(n, cfg, metrics) for n in ir.nodes]
    paths = [clip_arrow(a, ir.nodes, cfg, metrics) for a in ir.arrows]
    box = bounding_box(placed, paths, cfg, metrics, margin)
    return DiagramLayout(nodes=placed, paths=paths, bbox=box)


def knockout_spans(
    path: DrawablePath,
    label: str,
    cfg: ScaleConfig,
    metrics: FontMetrics = DEFAULT_METRICS,
) -> List[Tuple[FPoint, FPoint]]:
    """Split a path around an on-line label's padded box.

    Returns the visible sub-segments (one or two); the label box is the
    text box padded by the knockout padding, converted from points.
    """
    hw, hh = label_half_extents(label, cfg, metrics)
    hw += pt_to_centiem(KNOCKOUT_PAD_PT[0], cfg.em_size)
    hh += pt_to_centiem(KNOCKOUT_PAD_PT[1], cfg.em_size)
    cx, cy = path.label_anchor
    sx, sy = path.start
    dx, dy = path.direction
    t_in = Fraction(0)
    t_out = Fraction(1)
    for delta, coord, half in ((dx, sx - cx, hw), (dy, sy - cy, hh)):
        if delta == 0:
            if abs(coord) > half:
                return [(path.start, path.end)]
            continue
        lo = (-half - coord) / delta
        hi = (half - coord) / delta
        if lo > hi:
            lo, hi = hi, lo
        t_in = max(t_in, lo)
        t_out = min(t_out, hi)
    if t_in >= t_out:
        return [(path.start, path.end)]
    spans = []
    if t_in > 0:
        spans.append(
            (path.start, _qpoint(sx + dx * t_in, sy + dy * t_in))
        )
    if t_out < 1:
        spans.append(
            (_qpoint(sx + dx * t_out, sy + dy * t_out), path.end)
        )
    # a label wider than the whole path knocks out the entire shaft
    return spans
