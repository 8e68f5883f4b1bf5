"""Drawable geometry: clipping, offsets, labels, knockouts, boxes.

``layout_diagram`` lays a figure out in one walk: it places each node,
clips each arrow and places its labels, and keeps the bounding box as
running extremes as it goes, with no second walk over what it built.
Only SVG reads label centres, knockouts and the box; TikZ places and pads
its labels itself (``node[above]`` midway, ``fill=white``).  So TikZ's
layout is ends only, to the same ends and errors through the same code:
a full layout that placed no label and kept no box.

Layout coordinates are plain integers in milli-centi-em: QUANTUM of
them make one centi-em.  Each point is its exact position rounded once
to that grid, to the nearest integer with ties away from zero
(``round_div``'s rule over the whole exact sum).  No float enters a
coordinate: a point moved across a diagonal, by a parallel offset or to
a label centre, is an integer plus an integer over a square root, and
``math.isqrt`` rounds it exactly, so an arrow of any length lays out.
``left_normal`` rounds a gap across a path, a label centre's here and
the gap of SVG's double shaft, by one rule.  Nothing here depends on
the render scale, so rendering at scale s yields coordinates exactly s
times the scale-1 coordinates.

A horizontal or vertical arrow at local scale 1 with no offset and no
second label (every edge of a square grid) needs no rational at all:
each clipped end is its endpoint shifted by an integer along the axis,
an above or below label centre is the anchor shifted by the label gap
across it, and an on-line one is the anchor, so the one rounding left
is the anchor midpoint.  The walk clips these inline, in a branch per
axis and direction that updates the box only with the extremes it can
move, and knocks an on-line label out of the shaft inline too: the
padded box cuts the shaft at the anchor minus and plus its padded half
extent along the axis, exact integers, and a box of no width leaves
the shaft whole.  Every other arrow takes ``clip_general``, which gives
the same points on these.  It too is straight-line code: each end's
exit parameter is a pair of integer locals, each point is rounded by
one floor division written out, and its calls of its own are
``left_normal``, once per arrow for the label gap across the path, and
an on-line label's knockout, ``_knockout``.  Node and label widths
come from ``text_width``, a plain table sum for text with no ``\\``;
one layout measures each node text and each distinct label text once,
a label at scale 1 and then scaled by LABEL_SCALE, whose ratio is read
at import, in one ``_HalfWidths`` miss around the ``text_width`` call.
The records are named tuples, built by ``tuple.__new__`` without a
named tuple's Python-level ``__new__``.
"""
from __future__ import annotations

from fractions import Fraction
from math import inf, isqrt
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .diagnostics import Diagnostic, LayoutError
from .geometry import (EX_RATIO, LABEL_SCALE, OBJECT_MARGIN, Point, ScaleConfig, _new,
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
# line, the half heights of a label and of a node box (one em tall for
# every text), and the latter with the margin
BASELINE = QUANTUM * round_div(75 * EX_RATIO.numerator, EX_RATIO.denominator)
MARGIN = QUANTUM * OBJECT_MARGIN
GAP = QUANTUM * LABEL_GAP
LABEL_HALF_H = int(QUANTUM * NODE_BOX_HEIGHT // 2 * LABEL_SCALE)
NODE_HALF_H = QUANTUM * NODE_BOX_HEIGHT // 2
NODE_REACH_H = NODE_HALF_H + MARGIN

ABOVE, BELOW = LabelSide.ABOVE, LabelSide.BELOW
NONE, ON_LINE = LabelSide.NONE, LabelSide.ON_LINE
# a label's size per node text size, read once
LABEL_NUM, LABEL_DEN = LABEL_SCALE.as_integer_ratio()

IPoint = Tuple[int, int]           # layout units
Span = Tuple[IPoint, IPoint]
# the half width, margin included, of the first node drawn at each
# anchor; its half height with the margin is NODE_REACH_H
Reach = Dict[Point, int]


class PlacedNode(NamedTuple):
    node: Node
    center: IPoint        # drawn box center: anchor + align + baseline shift


class PlacedLabel(NamedTuple):
    """A label the walk placed; its side is its arrow's."""

    text: str
    center: IPoint        # the path midpoint, nudged off the line per side


class DrawablePath(NamedTuple):
    """One clipped arrow: its placed labels, () where none was placed, and
    its shaft, None unless an on-line label's knockout cuts it, and then
    the visible spans, () when the cut takes it whole."""

    start: IPoint
    end: IPoint
    arrow: Arrow
    labels: Tuple[PlacedLabel, ...]
    shaft: Optional[Tuple[Span, ...]]


class DiagramLayout(NamedTuple):
    """A laid-out figure; an ends-only one placed no label and kept no box."""

    nodes: List[PlacedNode]
    paths: List[DrawablePath]
    bbox: Optional[Tuple[int, int, int, int]]  # x0, y0, x1, y1 in centi-em; None if ends only


def _knockout_pads(em_size: Union[int, Fraction]) -> Tuple[int, int]:
    """The knockout padding around on-line labels, width and height, in
    layout units, at ``em_size`` points per em."""
    pad_w, pad_h = KNOCKOUT_PAD_PT
    return QUANTUM * pt_to_centiem(pad_w, em_size), QUANTUM * pt_to_centiem(pad_h, em_size)


# the default em size, and its knockout padding, converted once
_DEFAULT_EM = ScaleConfig().em_size
_DEFAULT_PADS = _knockout_pads(_DEFAULT_EM)


class _Frame(NamedTuple):
    """What clipping reads of one figure's settings: its em size, the
    knockout padding converted from it (at the default em size, the one
    converted at import), and the half width of each label text met so
    far, measured with the figure's metrics.  An ends-only frame has
    none: it places no label."""

    em_size: Union[int, Fraction]   # points per em
    pad_w: int         # knockout padding around on-line labels
    pad_h: int
    label_half_w: Optional["_HalfWidths"]   # one layout long

    @classmethod
    def of(cls, cfg: ScaleConfig, metrics: FontMetrics, ends_only: bool = False) -> "_Frame":
        if ends_only:
            return _new(cls, (cfg.em_size, 0, 0, None))
        pad_w, pad_h = (_DEFAULT_PADS if cfg.em_size == _DEFAULT_EM
                        else _knockout_pads(cfg.em_size))
        return _new(cls, (cfg.em_size, pad_w, pad_h, _HalfWidths(metrics)))


class _HalfWidths(dict):
    """text -> half the width of a label of that text, measured on first
    use by one miss around a ``text_width`` call with ``metrics``: its
    width at scale 1 times LABEL_SCALE, rounded once, ties away from
    zero, as ``text_width`` rounds a scaled width."""

    __slots__ = ("metrics",)

    def __init__(self, metrics: FontMetrics) -> None:
        self.metrics = metrics

    def __missing__(self, text: str) -> int:
        w = text_width(text, 1, self.metrics) * LABEL_NUM
        half = self[text] = (2 * w + LABEL_DEN - (w < 0)) // (2 * LABEL_DEN) * QUANTUM // 2
        return half


def _swallowed(seq: int) -> LayoutError:
    return LayoutError(
        Diagnostic("error", "overlapping objects: arrow fully swallowed by its endpoints"), seq
    )


def _over_root(c: int, n: int) -> int:
    """The floor of c/√n, for c != 0 and an n > 0 that is not a square: c/√n
    is then irrational, so the floor of -c/√n is -1 less that of c/√n."""
    r = isqrt(c * c // n)
    return r if c > 0 else -1 - r


def left_normal(start: IPoint, end: IPoint, length: int) -> IPoint:
    """The normal ``length`` long to the left of travel from ``start`` to
    ``end`` (down on a path of no length), each component rounded
    exactly, ties away from zero.

    A component is w = length u/√n for the normal (ux, uy) = (-dy, dx)
    and n = ux² + uy², and |w| rounds to (⌊2|w|⌋ + 1) // 2, where
    ⌊2|w|⌋ = ⌊√(4 length² u² / n)⌋ is an ``isqrt`` of a floor.  For an
    even ``length``, w is irrational, or else a fraction over an odd
    denominator (the c of a primitive Pythagorean triple a² + b² = c²),
    so it is never halfway between integers: an integer point plus or
    minus w rounds once to that point plus or minus w rounded.
    """
    ux, uy = start[1] - end[1], end[0] - start[0]
    if not (ux or uy):
        return 0, -length
    n, sq = ux * ux + uy * uy, 4 * length * length
    x, y = (isqrt(sq * ux * ux // n) + 1) // 2, (isqrt(sq * uy * uy // n) + 1) // 2
    return x if ux >= 0 else -x, y if uy >= 0 else -y


def clip_general(arrow: Arrow, reach: Reach, frame: _Frame) -> DrawablePath:
    """Clip any arrow exactly, in integers, rounded once per point.

    An attached end retracts to the box of the first node drawn at its
    anchor, whose half width with the margin is in ``reach`` and whose
    half height with the margin is NODE_REACH_H; free
    endpoints (bare arrows, stubs, inline arrows) stay put.  The
    parallel offset recorded on the arrow and its local render scale
    are materialized here, then the labels are placed along the result;
    an ends-only ``frame`` returns right after the clip, with no label.
    Each point is written out inline: v / q rounded, ties away from
    zero, is (2 v + q - (v < 0)) // 2 q.

    A point moved across a diagonal is exact too.  An end moved by a
    parallel offset is (p + c/√n)/q for integers p, c, n and q > 0: a
    rational like any other when √n is whole, and else irrational, never
    halfway between integers, so it rounds as floor((2p + q + 2c/√n) /
    2q), which is floor((2p + q + ⌊2c/√n⌋) / 2q), an ``isqrt``.  A label
    centre is the midpoint plus or minus ``left_normal``'s GAP across
    the clipped path.
    """
    start, end, _, label, side, seq, kind, _, _, label2, offset_pt, local_scale, _ = arrow
    # endpoints in layout units over a common denominator den
    p, den = local_scale.as_integer_ratio()
    p *= QUANTUM
    ax, ay, bx, by = start[0] * p, start[1] * p, end[0] * p, end[1] * p
    dx, dy = bx - ax, by - ay
    # a parallel offset moves both ends off/den layout units to the left
    # of travel (down on a path of no length), by (ox, oy)/√n over den.
    # When √n is whole the ends move here; else n stays, and each clipped
    # end adds its share below
    n = 0
    off = offset_pt and QUANTUM * pt_to_centiem(offset_pt, frame.em_size) * den
    if off:
        ox, oy, n = (-dy * off, dx * off, dx * dx + dy * dy) if dx or dy else (0, -off, 1)
        r = isqrt(n)
        if r * r == n:
            ax, ay, bx, by = ax * r + ox, ay * r + oy, bx * r + ox, by * r + oy
            dx, dy, den, n = dx * r, dy * r, den * r, 0
    # each end moves n0/d0 and n1/d1 of the way in: where the ray from
    # its anchor leaves the box of its node, the margin included, capped
    # at 1; a free end stays
    n0 = n1 = 0
    d0 = d1 = 1
    if kind == KIND_POS:
        adx, ady, half_h = abs(dx), abs(dy), NODE_REACH_H * den
        if start in reach:
            n0, half = 1, reach[start] * den
            if dx and half < adx:
                n0, d0 = half, adx
            if dy and half_h * d0 < n0 * ady:
                n0, d0 = half_h, ady
        if end in reach:
            n1, half = 1, reach[end] * den
            if dx and half < adx:
                n1, d1 = half, adx
            if dy and half_h * d1 < n1 * ady:
                n1, d1 = half_h, ady
    if n0 * d1 + n1 * d0 >= d0 * d1:
        raise _swallowed(seq)
    q = den * d0
    x, y = ax * d0 + dx * n0, ay * d0 + dy * n0
    if n:   # (x + ox d0/√n) / q
        sx, sy = ((2 * x + q + _over_root(2 * ox * d0, n)) // (2 * q),
                  (2 * y + q + _over_root(2 * oy * d0, n)) // (2 * q))
    else:
        sx, sy = (2 * x + q - (x < 0)) // (2 * q), (2 * y + q - (y < 0)) // (2 * q)
    q = den * d1
    x, y = bx * d1 - dx * n1, by * d1 - dy * n1
    if n:
        ex, ey = ((2 * x + q + _over_root(2 * ox * d1, n)) // (2 * q),
                  (2 * y + q + _over_root(2 * oy * d1, n)) // (2 * q))
    else:
        ex, ey = (2 * x + q - (x < 0)) // (2 * q), (2 * y + q - (y < 0)) // (2 * q)
    start, end = (sx, sy), (ex, ey)
    if frame.label_half_w is None:   # ends only
        return _new(DrawablePath, (start, end, arrow, (), None))
    x, y = sx + ex, sy + ey
    anchor = mx, my = (x + (x > 0)) // 2, (y + (y > 0)) // 2
    labels: Tuple[PlacedLabel, ...] = ()
    shaft: Optional[Tuple[Span, ...]] = None
    if label2 or label and (side is ABOVE or side is BELOW):
        # GAP to the left of travel, rounded: above is the midpoint plus
        # it, below the midpoint minus it
        x, y = left_normal(start, end, GAP)
    if label and side is not NONE:
        if side is ON_LINE:
            labels = (_new(PlacedLabel, (label, anchor)),)
            shaft = _knockout(start, end, anchor, frame.label_half_w[label], frame)
        else:
            center = (mx + x, my + y) if side is ABOVE else (mx - x, my - y)
            labels = (_new(PlacedLabel, (label, center)),)
    if label2:   # an inline arrow's second label, below
        labels += (_new(PlacedLabel, (label2, (mx - x, my - y))),)
    return _new(DrawablePath, (start, end, arrow, labels, shaft))


def _knockout(start: IPoint, end: IPoint, center: IPoint, half_w: int,
              frame: _Frame) -> Optional[Tuple[Span, ...]]:
    """Split a path around the padded box of an on-line label at
    ``center``, ``half_w`` wide.

    Returns the visible sub-segments, none, one or two, or None where the
    box misses the path.  The path enters the box at n_in/d_in of the way
    along and leaves it at n_out/d_out; each cut point is rounded once.
    """
    (sx, sy), (cx, cy) = start, center
    dx, dy = end[0] - sx, end[1] - sy
    n_in, d_in, n_out, d_out = 0, 1, 1, 1
    # per axis: the half extent and the start's offset from the center
    for delta, coord, half in (
        (dx, sx - cx, half_w + frame.pad_w),
        (dy, sy - cy, LABEL_HALF_H + frame.pad_h),
    ):
        if delta == 0:  # coord is 0: the center is the rounded midpoint
            continue
        if delta < 0:
            delta, coord = -delta, -coord
        if (-half - coord) * d_in > n_in * delta:
            n_in, d_in = -half - coord, delta
        if (half - coord) * d_out < n_out * delta:
            n_out, d_out = half - coord, delta
    if n_in * d_out >= n_out * d_in:
        return None
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
    *,
    ends_only: bool = False,
) -> DiagramLayout:
    """Place every node, clip every arrow against its endpoint nodes and
    place its labels, in one walk that keeps the box as running extremes.

    A nonzero horizontal or vertical arrow at local scale 1, with no
    offset and no second label, is clipped here in integer shifts, in a
    branch for its axis and direction.  The exit parameter of an end is
    (half + margin) / |d|, so that end moves half + margin along the
    axis, and the arrow is swallowed once the moved ends meet or cross,
    that is once the two moves reach |d| (clip_general caps each
    parameter at 1, which changes neither that test nor a kept arrow).
    A label sits LABEL_GAP across the axis from the anchor, to the left
    of travel when above, or on the anchor when on the line, where its
    padded box, the anchor ∓ h along the axis, cuts the shaft at those
    two integers, with no call; a box of no width leaves it whole.  The
    branch compares the fixed coordinate with the box once, each moved
    end only with the extreme the direction puts it on, and a label's
    four edges where the label is made.  Every other arrow takes
    clip_general and its whole result goes into the box.

    With ``ends_only``, for TikZ, the walk clips every arrow as above,
    with the same errors, and gives a full layout that placed no label
    and kept no box: ``bbox`` is None.
    """
    if not ir.nodes and not ir.arrows:
        raise LayoutError(Diagnostic("error", "empty diagram: nothing to draw"))
    frame = _Frame.of(ir.scale, metrics, ends_only)
    _, pad_w, pad_h, label_half_w = frame
    # running extremes in layout units
    x0 = y0 = inf
    x1 = y1 = -inf
    placed = []
    reach: Reach = {}
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
        placed.append(_new(PlacedNode, (node, (cx, cy))))
        if anchor not in reach:
            reach[anchor] = hw + MARGIN
        if ends_only:
            continue
        if cx - hw < x0:
            x0 = cx - hw
        if cx + hw > x1:
            x1 = cx + hw
        if cy - NODE_HALF_H < y0:
            y0 = cy - NODE_HALF_H
        if cy + NODE_HALF_H > y1:
            y1 = cy + NODE_HALF_H
    paths = []
    append = paths.append
    reach_get = reach.get
    for arrow in ir.arrows:
        start, end, _, label, side, _, kind, _, _, label2, offset_pt, local_scale, _ = arrow
        (sx, sy), (ex, ey) = start, end
        if (sx == ex) == (sy == ey) or local_scale != 1 or offset_pt or label2:
            path = clip_general(arrow, reach, frame)
            append(path)
            if ends_only:
                continue
            (sx, sy), (ex, ey), _, labels, _ = path
            for text, (cx, cy) in labels:
                hw = label_half_w[text]
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
            continue
        # each direction's branch clips, then an ends-only walk keeps the
        # path and goes on before the box and the label: a test in each
        # branch, so that the full walk pays one per arrow
        c0 = c1 = 0   # how far each end moves in along the axis
        if sx == ex:   # vertical: x is fixed
            if kind == KIND_POS:
                c0, c1 = NODE_REACH_H * (start in reach), NODE_REACH_H * (end in reach)
            sx = QUANTUM * sx
            if sy < ey:
                sy, ey = QUANTUM * sy + c0, QUANTUM * ey - c1
                if sy >= ey:
                    raise _swallowed(arrow.seq)
                if ends_only:
                    append(_new(DrawablePath, ((sx, sy), (sx, ey), arrow, (), None)))
                    continue
                if sy < y0:
                    y0 = sy
                if ey > y1:
                    y1 = ey
                cx = sx - GAP if side is ABOVE else sx + GAP
            else:
                sy, ey = QUANTUM * sy - c0, QUANTUM * ey + c1
                if sy <= ey:
                    raise _swallowed(arrow.seq)
                if ends_only:
                    append(_new(DrawablePath, ((sx, sy), (sx, ey), arrow, (), None)))
                    continue
                if ey < y0:
                    y0 = ey
                if sy > y1:
                    y1 = sy
                cx = sx + GAP if side is ABOVE else sx - GAP
            if sx < x0:
                x0 = sx
            if sx > x1:
                x1 = sx
            cy = sy + ey
            cy = (cy + (cy > 0)) // 2   # round_div(cy, 2)
            start, end = (sx, sy), (sx, ey)
        else:   # horizontal: y is fixed
            if kind == KIND_POS:
                c0, c1 = reach_get(start, 0), reach_get(end, 0)
            sy = QUANTUM * sy
            if sx < ex:
                sx, ex = QUANTUM * sx + c0, QUANTUM * ex - c1
                if sx >= ex:
                    raise _swallowed(arrow.seq)
                if ends_only:
                    append(_new(DrawablePath, ((sx, sy), (ex, sy), arrow, (), None)))
                    continue
                if sx < x0:
                    x0 = sx
                if ex > x1:
                    x1 = ex
                cy = sy + GAP if side is ABOVE else sy - GAP
            else:
                sx, ex = QUANTUM * sx - c0, QUANTUM * ex + c1
                if sx <= ex:
                    raise _swallowed(arrow.seq)
                if ends_only:
                    append(_new(DrawablePath, ((sx, sy), (ex, sy), arrow, (), None)))
                    continue
                if ex < x0:
                    x0 = ex
                if sx > x1:
                    x1 = sx
                cy = sy - GAP if side is ABOVE else sy + GAP
            if sy < y0:
                y0 = sy
            if sy > y1:
                y1 = sy
            cx = sx + ex
            cx = (cx + (cx > 0)) // 2
            start, end = (sx, sy), (ex, sy)
        if not label or side is NONE:
            append(_new(DrawablePath, (start, end, arrow, (), None)))
            continue
        hw = label_half_w[label]
        shaft = None
        if side is ON_LINE:   # on the rounded midpoint, its padded box cut out of the shaft
            (sx, sy), (ex, ey) = start, end
            # the box runs from c - h to c + h along the travel, h its padded
            # half extent signed with the travel: a span is kept before the
            # box and after it, where the shaft reaches past it
            if sy == ey:   # horizontal
                cy, h = sy, hw + pad_w
                if h > 0:   # else the box has no width, and the shaft stays whole
                    if sx > ex:
                        h = -h
                    a, b = cx - h, cx + h
                    shaft = ((start, (a, sy)),) if (a - sx) * h > 0 else ()
                    if (ex - b) * h > 0:
                        shaft += (((b, sy), end),)
            else:   # vertical: every label box is LABEL_HALF_H tall
                cx, h = sx, LABEL_HALF_H + pad_h
                if sy > ey:
                    h = -h
                a, b = cy - h, cy + h
                shaft = ((start, (sx, a)),) if (a - sy) * h > 0 else ()
                if (ey - b) * h > 0:
                    shaft += (((sx, b), end),)
        if cx - hw < x0:
            x0 = cx - hw
        if cx + hw > x1:
            x1 = cx + hw
        if cy - LABEL_HALF_H < y0:
            y0 = cy - LABEL_HALF_H
        if cy + LABEL_HALF_H > y1:
            y1 = cy + LABEL_HALF_H
        append(_new(DrawablePath, (
            start, end, arrow, (_new(PlacedLabel, (label, (cx, cy))),), shaft)))
    if ends_only:
        return _new(DiagramLayout, (placed, paths, None))
    # floor of the least coordinate, ceiling of the greatest, in centi-em
    x0, y0 = x0 // QUANTUM, y0 // QUANTUM
    x1, y1 = -(-x1 // QUANTUM), -(-y1 // QUANTUM)
    box = (x0 - CANVAS_MARGIN, y0 - CANVAS_MARGIN, x1 + CANVAS_MARGIN, y1 + CANVAS_MARGIN)
    return _new(DiagramLayout, (placed, paths, box))
