"""Raw Xy-pic token stream, the differential-fidelity backend.

Each emission event becomes one line carrying exactly the positioned
token text of that event: integer coordinates, the baseline-corrected
object modifier, and one writer's ``\\ar`` for every arrow.  The writer
wraps the style in ``@{...}`` unless it already begins with ``@`` (a
``\\vector`` keeps its raw token), writes a parallel offset as an exact
``@<...pt>`` decimal, and opens the label from its family's side table:
``^-{``, ``_-{`` or an on-line object for positioned arrows, ``^{``,
``_{`` or ``|{`` for inline ones.  Consecutive inline arrows of one
command make one line: the opening, text between arrows and closing of
their kind's row, with each arrow's own end.  Duplicate node draws are
intentional; render from the unmerged IR for full fidelity.
"""
from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import Dict, List, Optional, Union

from .geometry import Point, format_decimal
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


def _pos_object(p: Point, text: str, bang: str = "") -> str:
    return f"({p.x},{p.y}){_OBJ}{bang}{{{text}}}"


def _ar(a: Arrow, labels: Dict[LabelSide, str]) -> str:
    """``\\ar``, style, offset and label of any arrow."""
    out = a.style
    if not out.startswith("@") and a.kind != KIND_VECTOR:
        out = "@{" + out + "}"
    pt = a.offset_pt
    if pt:
        out += f"@<{format_decimal(pt.numerator, pt.denominator)}pt>"
    opening = labels[a.side]
    if opening:
        out += opening + a.label + "}"
    if a.kind == KIND_TO:
        out += "_{" + a.label2 + "}"
    return "\\ar" + out


def _line(event: Union[Node, Arrow]) -> str:
    """The line of a node or of an arrow drawn outside any inline group."""
    if isinstance(event, Node):
        return "\\POS" + _pos_object(event.anchor, event.text,
                                     "!" + event.align if event.align else "")
    if event.kind == KIND_VECTOR:
        start, end = event.start, event.end
        return f"\\POS({start.x},{start.y}){_ar(event, _POS_LABEL)} ({end.x},{end.y})"
    return ("\\POS" + _pos_object(event.start, event.start_text) + _ar(event, _POS_LABEL)
            + " " + _pos_object(event.end, event.end_text))


def _inline_group(event: Union[Node, Arrow]) -> Optional[int]:
    return event.group if isinstance(event, Arrow) and event.kind in _GROUPS else None


_KIND = attrgetter("kind")


def render_xypic(d: DiagramIR) -> str:
    """One emission per line; trailing newline; LF endings."""
    events: List[Union[Node, Arrow]] = [n for n in d.nodes if n.standalone]
    events.extend(d.arrows)
    events.sort(key=attrgetter("seq"))
    lines = [f"\\scalefactor{{{d.scale.scale}}}"] if d.scale.scale != 1 else []
    # a figure without inline arrows, the common one, has no group to find
    inline = any(map(_GROUPS.__contains__, map(_KIND, d.arrows)))
    for group, run in groupby(events, _inline_group) if inline else [(None, events)]:
        if group is None:
            lines.extend(map(_line, run))
            continue
        arrows = list(run)
        opening, between, closing = _GROUPS[arrows[0].kind]
        lines.append(opening + between.join(
            _ar(a, _INLINE_LABEL) + f"({a.end.x},{a.end.y})" for a in arrows) + closing)
    return "\n".join(lines) + "\n" if lines else ""
