"""The two-walk box: the reference model of the box that
``diagc.layout.layout_diagram`` keeps as running extremes.

This is ``bounding_box`` as it stood before layout folded it into the
walk that places nodes and clips arrows: a second walk over the laid-out
node boxes, paths and labels.  On every layout, ``layout_diagram(ir).bbox``
must equal ``bounding_box`` here of the same nodes and paths.
"""
from __future__ import annotations

import math
from typing import Sequence, Tuple

from diagc.diagnostics import Diagnostic, LayoutError
from diagc.layout import CANVAS_MARGIN, LABEL_HALF_H, QUANTUM, DrawablePath, PlacedNode


def bounding_box(
    nodes: Sequence[PlacedNode], paths: Sequence[DrawablePath]
) -> Tuple[int, int, int, int]:
    """Tight integer box in centi-em over node boxes, paths and labels, plus margin."""
    if not nodes and not paths:
        raise LayoutError(Diagnostic("error", "empty diagram: nothing to draw"))
    # running extremes in layout units
    x0 = y0 = math.inf
    x1 = y1 = -math.inf
    for _, (cx, cy), hw, hh in nodes:
        if cx - hw < x0:
            x0 = cx - hw
        if cx + hw > x1:
            x1 = cx + hw
        if cy - hh < y0:
            y0 = cy - hh
        if cy + hh > y1:
            y1 = cy + hh
    for (sx, sy), (ex, ey), _, _, labels, _ in paths:
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
        for _, _, (cx, cy), hw in labels:
            if cx - hw < x0:
                x0 = cx - hw
            if cx + hw > x1:
                x1 = cx + hw
            if cy - LABEL_HALF_H < y0:
                y0 = cy - LABEL_HALF_H
            if cy + LABEL_HALF_H > y1:
                y1 = cy + LABEL_HALF_H
    # floor of the least coordinate, ceiling of the greatest, in centi-em
    x0, y0 = x0 // QUANTUM, y0 // QUANTUM
    x1, y1 = -(-x1 // QUANTUM), -(-y1 // QUANTUM)
    return x0 - CANVAS_MARGIN, y0 - CANVAS_MARGIN, x1 + CANVAS_MARGIN, y1 + CANVAS_MARGIN
