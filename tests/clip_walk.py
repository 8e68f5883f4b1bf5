"""The per-call clipping: the reference model of ``diagc.layout.clip_general``.

This is ``clip_general`` as it stood before the general path was written
out inline: an ``_exit_param`` call per end, an ``_along`` call per
clipped point, a ``_place_labels`` call that unit-vectors the path once
per label, and a ``_knockout`` that cuts its spans through ``_along``.
It measures a label at ``LABEL_SCALE`` through ``text_width``.  On every
arrow, ``diagc.layout.clip_general`` must give the same ``DrawablePath``,
or the same swallow error with the same seq, as ``clip_general`` here.
"""
from __future__ import annotations

from typing import Dict, Tuple

from diagc.geometry import LABEL_SCALE, pt_to_centiem, round_div
from diagc.ir import KIND_POS, Arrow, LabelSide
from diagc.layout import (GAP, LABEL_HALF_H, QUANTUM, DrawablePath, IPoint, PlacedLabel,
                          Reach, Span, _Frame, _swallowed, left_perp)
from diagc.metrics import text_width

Ratio = Tuple[int, int]            # num, den with den > 0

_new = tuple.__new__


def _along(x: int, y: int, dx: int, dy: int, den: int, t: Ratio) -> IPoint:
    """(x, y) + t (dx, dy), all over den, rounded to the layout grid."""
    tn, td = t
    return (round_div(x * td + dx * tn, den * td), round_div(y * td + dy * tn, den * td))


def _label_half_w(text: str, frame: _Frame, widths: Dict[str, int]) -> int:
    """Half the width of a label's text, measured once per layout."""
    half_w = widths.get(text)
    if half_w is None:
        half_w = widths[text] = text_width(text, LABEL_SCALE, frame.metrics) * QUANTUM // 2
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


def clip_general(arrow: Arrow, reach: Reach, frame: _Frame,
                 widths: Dict[str, int]) -> DrawablePath:
    """Clip any arrow in exact rationals, rounded once per point; ``widths``
    holds the half width of each label text measured so far."""
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
    labels = _place_labels(arrow, start, end, anchor, frame, widths)
    shaft: Tuple[Span, ...] = ((start, end),)
    if labels and labels[0].side is LabelSide.ON_LINE:
        shaft = _knockout(start, end, labels[0], frame)
    return _new(DrawablePath, (start, end, arrow, anchor, labels, shaft))


def _place_labels(
    arrow: Arrow, start: IPoint, end: IPoint, anchor: IPoint, frame: _Frame,
    widths: Dict[str, int],
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
        labels.append(_new(PlacedLabel, (text, side, center, _label_half_w(text, frame, widths))))
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
