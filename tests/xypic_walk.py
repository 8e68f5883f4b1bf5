"""The group walk: the reference model of ``diagc.xypic``.

This is the token-stream writer as it stood before one arrow writer
replaced its per-kind builders: a positioned line, a vector line, and
one hand-written branch per inline kind that unpacks the group's fixed
size.  On every figure that expansion gives, ``render_xypic`` must write
the same bytes as ``render_xypic`` here.
"""
from __future__ import annotations

from typing import List, Union

from diagc.ir import (
    KIND_THREE,
    KIND_TO,
    KIND_TWO,
    KIND_TWOAR,
    KIND_VECTOR,
    Arrow,
    DiagramIR,
    LabelSide,
    Node,
)

_OBJ = "*+!!<0ex,.75ex>"


def _pos_object(x: int, y: int, text: str, align: str = "") -> str:
    bang = f"!{align}" if align else ""
    return f"({x},{y}){_OBJ}{bang}{{{text}}}"


def _style_part(style: str) -> str:
    return style if style.startswith("@") else "@{" + style + "}"


def _label_part(arrow: Arrow) -> str:
    if arrow.side is LabelSide.ABOVE:
        return "^-{" + arrow.label + "}"
    if arrow.side is LabelSide.BELOW:
        return "_-{" + arrow.label + "}"
    if arrow.side is LabelSide.ON_LINE:
        return "|-*+<1pt,4pt>{\\labelstyle " + arrow.label + "}"
    return ""


def _pos_line(arrow: Arrow) -> str:
    return (
        "\\POS"
        + _pos_object(arrow.start.x, arrow.start.y, arrow.start_text)
        + "\\ar"
        + _style_part(arrow.style)
        + _label_part(arrow)
        + " "
        + _pos_object(arrow.end.x, arrow.end.y, arrow.end_text)
    )


def _vector_line(arrow: Arrow) -> str:
    return (
        f"\\POS({arrow.start.x},{arrow.start.y})\\ar{arrow.style}"
        f" ({arrow.end.x},{arrow.end.y})"
    )


def _offset_part(arrow: Arrow) -> str:
    pt = arrow.offset_pt
    if not pt:
        return ""
    value = str(pt.numerator / pt.denominator)
    if value.endswith(".0"):
        value = value[:-2]
    return f"@<{value}pt>"


def _inline_line(arrows: List[Arrow]) -> str:
    kind = arrows[0].kind
    if kind == KIND_TWOAR:
        a = arrows[0]
        return (
            "{\\scalefactor{0.1}\\xy \\ar"
            + _style_part(a.style)
            + f"({a.end.x},{a.end.y}) \\endxy}}"
        )
    length = arrows[0].end.x
    if kind == KIND_TO:
        a = arrows[0]
        return (
            "\\xy\\ar"
            + _style_part(a.style)
            + "^{" + a.label + "}_{" + a.label2 + "}"
            + f"({length},0) \\endxy"
        )
    if kind == KIND_TWO:
        top, bottom = arrows
        return (
            "\\xy\\ar" + _style_part(top.style) + _offset_part(top)
            + "^{" + top.label + "}" + f"({length},0)"
            + "\\ar" + _style_part(bottom.style) + _offset_part(bottom)
            + "_{" + bottom.label + "}" + f"({length},0)\\endxy"
        )
    # three: the unshifted middle arrow first, label knocked out on the
    # line and omitted entirely when empty
    middle, top, bottom = arrows
    mid_label = ("|{" + middle.label + "}") if middle.label else ""
    return (
        "\\xy \\ar" + _style_part(middle.style) + mid_label + f"({length},0)"
        + " \\ar" + _style_part(top.style) + _offset_part(top)
        + "^{" + top.label + "}" + f"({length},0)"
        + " \\ar" + _style_part(bottom.style) + _offset_part(bottom)
        + "_{" + bottom.label + "}" + f"({length},0)\\endxy"
    )


def render_xypic(d: DiagramIR) -> str:
    """One emission per line; trailing newline; LF endings."""
    events: List[Union[Node, Arrow]] = [n for n in d.nodes if n.standalone]
    events.extend(d.arrows)
    events.sort(key=lambda e: e.seq)
    lines: List[str] = []
    if d.scale.scale != 1:
        lines.append(f"\\scalefactor{{{d.scale.scale}}}")
    pending: List[Arrow] = []

    def flush() -> None:
        if pending:
            lines.append(_inline_line(list(pending)))
            pending.clear()

    for event in events:
        if isinstance(event, Node):
            flush()
            lines.append(
                "\\POS" + _pos_object(event.anchor.x, event.anchor.y,
                                      event.text, event.align)
            )
            continue
        arrow = event
        if arrow.kind in (KIND_TO, KIND_TWO, KIND_THREE, KIND_TWOAR):
            if pending and pending[0].group != arrow.group:
                flush()
            pending.append(arrow)
            continue
        flush()
        if arrow.kind == KIND_VECTOR:
            lines.append(_vector_line(arrow))
        else:
            lines.append(_pos_line(arrow))
    flush()
    return "\n".join(lines) + "\n" if lines else ""
