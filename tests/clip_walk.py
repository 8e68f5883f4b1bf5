"""The per-call clipping: the reference model of ``diagc.layout.clip_general``.

This is ``clip_general`` as it stood before the general path was written
out inline: an ``_exit_param`` call per end, an ``_along`` call per
clipped point, a ``_place_labels`` call per path, and a ``_knockout``
that cuts its spans through ``_along``.  It measures a label at
``LABEL_SCALE`` through ``text_width``.  A point moved across a
diagonal, an end by a parallel offset or a label centre, is p + c/√n
for rationals p and c; ``_rounded`` rounds it exactly, by comparing
squares in ``Fraction`` from an estimate that ``math.isqrt`` gives, and
owes nothing to the floor identity the layout uses.  On every arrow,
``diagc.layout.clip_general`` must give the same ``DrawablePath``, or
the same swallow error with the same seq, as ``clip_general`` here.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Optional, Tuple

from diagc.geometry import LABEL_SCALE, pt_to_centiem, round_div
from diagc.ir import KIND_POS, Arrow, LabelSide
from diagc.layout import (GAP, LABEL_HALF_H, MARGIN, NODE_HALF_H, QUANTUM, DrawablePath, IPoint,
                          PlacedLabel, Reach, Span, _Frame, _swallowed)
from diagc.metrics import DEFAULT_METRICS, text_width

Ratio = Tuple[int, int]            # num, den with den > 0

_new = tuple.__new__


def _sign(p: Fraction, c: Fraction, n: int) -> int:
    """The sign of p + c/√n, for n > 0."""
    ps, cs = (p > 0) - (p < 0), (c > 0) - (c < 0)
    if ps == cs or not ps or not cs:
        return ps or cs
    # opposite signs: the greater in size wins, p² n against c²
    big = p * p * n - c * c
    return ps if big > 0 else cs if big < 0 else 0


def _rounded(p: Fraction, c: Fraction, n: int) -> int:
    """p + c/√n, for n > 0, rounded to the nearest integer, ties away from
    zero: when not negative, the greatest k with p + c/√n >= k - 1/2."""
    if _sign(p, c, n) < 0:
        return -_rounded(-p, -c, n)
    # an estimate within 1 of the sum, from √n to more bits than c has,
    # then a step at a time to the exact answer
    bits = abs(c.numerator).bit_length() + 2
    k = math.floor(p + c * (1 << bits) / math.isqrt(n << 2 * bits) + Fraction(1, 2))
    half = Fraction(1, 2)
    while _sign(p - k + half, c, n) < 0:
        k -= 1
    while _sign(p - k - half, c, n) >= 0:
        k += 1
    return k


def _along(x: int, y: int, dx: int, dy: int, den: int, t: Ratio,
           across: Tuple[int, int, int] = (0, 0, 1)) -> IPoint:
    """(x, y) + t (dx, dy), all over den, moved by (cx, cy)/√n for
    ``across`` = (cx, cy, n), rounded to the layout grid."""
    tn, td = t
    cx, cy, n = across
    return (_rounded(Fraction(x * td + dx * tn, den * td), Fraction(cx), n),
            _rounded(Fraction(y * td + dy * tn, den * td), Fraction(cy), n))


def _left(dx: int, dy: int) -> Tuple[int, int, int]:
    """The normal (x, y)/√n to the left of travel along (dx, dy) as (x, y,
    n): down on a path of no length."""
    x, y = (-dy, dx) if (dx, dy) != (0, 0) else (0, -1)
    return x, y, x * x + y * y


def _label_half_w(text: str, widths: Dict[str, int]) -> int:
    """Half the width of a label's text in the default metrics, measured
    once per layout."""
    half_w = widths.get(text)
    if half_w is None:
        half_w = widths[text] = text_width(text, LABEL_SCALE, DEFAULT_METRICS) * QUANTUM // 2
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
    holds the half width of each label text measured so far.  A node box
    is one em tall, so every box in ``reach`` is NODE_HALF_H and the
    margin high on each side of its centre."""
    # endpoints in layout units over a common denominator den
    p, den = arrow.local_scale.as_integer_ratio()
    p *= QUANTUM
    ax, ay = arrow.start.x * p, arrow.start.y * p
    bx, by = arrow.end.x * p, arrow.end.y * p
    dx, dy = bx - ax, by - ay
    # a parallel offset moves each end off layout units to the left
    off = QUANTUM * pt_to_centiem(arrow.offset_pt, frame.em_size) if arrow.offset_pt else 0
    ux, uy, n = _left(dx, dy)
    across = (off * ux, off * uy, n)
    t0: Ratio = (0, 1)
    t1: Ratio = (0, 1)
    if arrow.kind == KIND_POS:
        if arrow.start in reach:
            t0 = _exit_param(reach[arrow.start], NODE_HALF_H + MARGIN, dx, dy, den)
        if arrow.end in reach:
            t1 = _exit_param(reach[arrow.end], NODE_HALF_H + MARGIN, dx, dy, den)
    if t0[0] * t1[1] + t1[0] * t0[1] >= t0[1] * t1[1]:
        raise _swallowed(arrow.seq)
    start = _along(ax, ay, dx, dy, den, t0, across)
    end = _along(bx, by, -dx, -dy, den, t1, across)
    anchor = (round_div(start[0] + end[0], 2), round_div(start[1] + end[1], 2))
    labels = _place_labels(arrow, start, end, anchor, widths)
    shaft: Optional[Tuple[Span, ...]] = None   # uncut
    if arrow.label and arrow.side is LabelSide.ON_LINE:
        shaft = _knockout(start, end, labels[0], _label_half_w(labels[0].text, widths), frame)
    return _new(DrawablePath, (start, end, arrow, labels, shaft))


def _place_labels(
    arrow: Arrow, start: IPoint, end: IPoint, anchor: IPoint, widths: Dict[str, int],
) -> Tuple[PlacedLabel, ...]:
    """The labels a path draws; inline single arrows carry two."""
    texts = []
    if arrow.label and arrow.side is not LabelSide.NONE:
        texts.append((arrow.label, arrow.side))
    if arrow.label2:
        texts.append((arrow.label2, LabelSide.BELOW))
    labels = []
    ux, uy, n = _left(end[0] - start[0], end[1] - start[1])
    for text, side in texts:
        center = anchor
        if side is not LabelSide.ON_LINE:
            gap = GAP if side is LabelSide.ABOVE else -GAP
            center = (_rounded(Fraction(anchor[0]), Fraction(gap * ux), n),
                      _rounded(Fraction(anchor[1]), Fraction(gap * uy), n))
        labels.append(_new(PlacedLabel, (text, center)))
    return tuple(labels)


def _knockout(start: IPoint, end: IPoint, label: PlacedLabel, half_w: int,
              frame: _Frame) -> Optional[Tuple[Span, ...]]:
    """Split a path around the padded box of an on-line label ``half_w`` wide.

    Returns the visible sub-segments, none, one or two, or None where the
    box misses the path.
    """
    (sx, sy), (cx, cy) = start, label.center
    dx, dy = end[0] - sx, end[1] - sy
    t_in: Ratio = (0, 1)
    t_out: Ratio = (1, 1)
    # per axis: the half extent and the start's offset from the center
    for delta, coord, half in (
        (dx, sx - cx, half_w + frame.pad_w),
        (dy, sy - cy, LABEL_HALF_H + frame.pad_h),
    ):
        if delta == 0:
            if abs(coord) > half:
                return None
            continue
        sign = 1 if delta > 0 else -1
        lo = (-half - sign * coord, abs(delta))
        hi = (half - sign * coord, abs(delta))
        if lo[0] * t_in[1] > t_in[0] * lo[1]:
            t_in = lo
        if hi[0] * t_out[1] < t_out[0] * hi[1]:
            t_out = hi
    if t_in[0] * t_out[1] >= t_out[0] * t_in[1]:
        return None
    spans = []
    if t_in[0] > 0:
        spans.append((start, _along(sx, sy, dx, dy, 1, t_in)))
    if t_out[0] < t_out[1]:
        spans.append((_along(sx, sy, dx, dy, 1, t_out), end))
    # a label wider than the whole path knocks out the entire shaft
    return tuple(spans)
