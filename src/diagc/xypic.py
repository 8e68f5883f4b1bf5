"""Raw Xy-pic token stream, the differential-fidelity backend.

Each emission event becomes one line carrying exactly the positioned
token text of that event: integer coordinates, the baseline-corrected
object modifier, and an ``\\ar`` for every arrow.  A style is wrapped in
``@{...}`` unless it already begins with ``@`` (a ``\\vector`` keeps its
raw token), a parallel offset is written as an exact ``@<...pt>``
decimal, and a label opens from its family's side table: ``^-{``,
``_-{`` or an on-line object for positioned arrows, ``^{``, ``_{`` or
``|{`` for inline ones.  A placed node and a positioned arrow are each
one f-string over the unpacked record, with each raw style token
wrapped once per figure; vectors and inline arrows go through the
writer ``_ar``.  Consecutive inline arrows of one command make one
line: the opening, text between arrows and closing of their kind's row,
with each arrow's own end.  Duplicate node draws are intentional;
render from the unmerged IR for full fidelity.
"""
from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import Dict, List, Optional, Union

from .geometry import Memo, format_decimal
from .ir import (KIND_THREE, KIND_TO, KIND_TWO, KIND_TWOAR, KIND_VECTOR, Arrow, DiagramIR,
                 LabelSide, Node)

_OBJ = "*+!!<0ex,.75ex>"

# the opening of a label by side, for positioned arrows and for inline ones
_POS_LABEL = {LabelSide.ABOVE: "^-{", LabelSide.BELOW: "_-{",
              LabelSide.ON_LINE: "|-*+<1pt,4pt>{\\labelstyle ", LabelSide.NONE: ""}
_INLINE_LABEL = {LabelSide.ABOVE: "^{", LabelSide.BELOW: "_{",
                 LabelSide.ON_LINE: "|{", LabelSide.NONE: ""}

# an inline group's line by kind: opening, text between arrows, closing
_GROUPS = {
    KIND_TO: ("\\xy", "", " \\endxy"),
    KIND_TWO: ("\\xy", "", "\\endxy"),
    KIND_THREE: ("\\xy ", " ", "\\endxy"),
    KIND_TWOAR: ("{\\scalefactor{0.1}\\xy ", "", " \\endxy}"),
}


def _wrap(style: str) -> str:
    return style if style.startswith("@") else "@{" + style + "}"


def _ar(a: Arrow, labels: Dict[LabelSide, str]) -> str:
    """``\\ar``, style, offset and label of a vector or an inline arrow."""
    out = a.style if a.kind == KIND_VECTOR else _wrap(a.style)
    pt = a.offset_pt
    if pt:
        out += f"@<{format_decimal(pt.numerator, pt.denominator)}pt>"
    opening = labels[a.side]
    if opening:
        out += opening + a.label + "}"
    if a.kind == KIND_TO:
        out += "_{" + a.label2 + "}"
    return "\\ar" + out


def _inline_group(event: Union[Node, Arrow]) -> Optional[int]:
    return event.group if isinstance(event, Arrow) and event.kind in _GROUPS else None


_KIND = attrgetter("kind")
_SEQ = attrgetter("seq")
_STANDALONE = attrgetter("standalone")


def render_xypic(d: DiagramIR) -> str:
    """One emission per line; trailing newline; LF endings."""
    events: List[Union[Node, Arrow]] = list(filter(_STANDALONE, d.nodes))
    events += d.arrows
    events.sort(key=_SEQ)
    lines = [f"\\scalefactor{{{d.scale.scale}}}"] if d.scale.scale != 1 else []
    add = lines.append
    wrapped = Memo(_wrap)  # each raw style token of this figure, wrapped once
    # a figure without inline arrows, the common one, has no group to find
    inline = any(map(_GROUPS.__contains__, map(_KIND, d.arrows)))
    for group, run in groupby(events, _inline_group) if inline else [(None, events)]:
        if group is not None:
            arrows = list(run)
            opening, between, closing = _GROUPS[arrows[0].kind]
            add(opening + between.join(
                _ar(a, _INLINE_LABEL) + f"({a.end.x},{a.end.y})" for a in arrows) + closing)
            continue
        for event in run:
            if event.__class__ is Node:
                (x, y), text, _, align, _ = event
                add(f"\\POS({x},{y}){_OBJ}{align and '!' + align}{{{text}}}")
                continue
            ((x, y), (x2, y2), style, label, side, _, kind, text_a, text_b, _, offset,
             _, _) = event
            if kind == KIND_VECTOR:
                add(f"\\POS({x},{y}){_ar(event, _POS_LABEL)} ({x2},{y2})")
                continue
            pt = f"@<{format_decimal(offset.numerator, offset.denominator)}pt>" if offset else ""
            # a label's opening, the label and its closing; no label for "none"
            opening = _POS_LABEL[side]
            add(f"\\POS({x},{y}){_OBJ}{{{text_a}}}\\ar{wrapped[style]}{pt}"
                f"{opening and opening + label + '}'} ({x2},{y2}){_OBJ}{{{text_b}}}")
    return "\n".join(lines) + "\n" if lines else ""
