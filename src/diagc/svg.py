"""Deterministic SVG 1.1 backend: the printer of a ``DiagramLayout``.

Nodes become text elements, arrows become marker-terminated lines, the
y axis is flipped for screen space, and one centi-em maps to
0.01 x em_size x scale px, a ratio of integers in lowest terms.  Every
number is an integer layout length times that ratio, written over one
denominator that a render factors once: exact decimals when it has only
2 and 5 in it, six rounded places (with a warning) otherwise.  Output
is byte-identical across runs and every coordinate scales linearly with
the configured scale.

A render formats each distinct value once, in a ``Decimals`` memo per
kind: screen x (``X[x]``) and y (``Y[y]``) of layout coordinates, and
lengths in centi-em (``L[c]``: the stroke width, font sizes, dash and
marker lengths, width and height).  The lines of a double shaft, whose
ends have the denominator of the gap's unit vector, get an x and y memo
per such denominator.  A miss is one Python call, a hit a dict lookup.
A render keeps one row per raw style token (the double-shaft flag, the
shaft, with the dashes of the bodies it draws, and the two marker
attributes) and escapes each distinct text once, so a common arrow is
f-strings over dict lookups, with no Python call.  Each memo lives for
one render.  Text that XML 1.0 cannot carry (most C0 controls, lone
surrogates, U+FFFE and U+FFFF) is a ``RenderError`` carrying the seq of
its node or arrow, and so is a double shaft too long for a float unit
vector.
"""
from __future__ import annotations

from math import gcd
from typing import Callable, Iterable, List, Optional, Tuple

from .diagnostics import Diagnostic, RenderError
from .geometry import LABEL_SCALE, Decimals, Memo, ScaleConfig, decimal_base
from .layout import QUANTUM, DiagramLayout, IPoint, Span, left_perp, too_long
from .styles import StyleRows, style_of

STROKE_WIDTH = 5        # centi-em
DOUBLE_GAP = 5          # half-gap between double shafts, centi-em
HEAD_LEN = 35           # marker length, centi-em (0.35 em)
HEAD_HALF_WIDTH = 14    # marker half-width, centi-em
BASELINE_DROP = 35      # text baseline below box center, centi-em
# a label is set at LABEL_SCALE: its font size in centi-em, and its
# baseline's drop below its centre in layout units
LABEL_FONT = int(100 * LABEL_SCALE)
LABEL_DROP = int(QUANTUM * BASELINE_DROP * LABEL_SCALE)
NODE_DROP = QUANTUM * BASELINE_DROP
# the dash and gap lengths of a dashed or dotted shaft, centi-em, and
# what else its line carries
_DASHES = {"dashed": (20, 12, ""), "dotted": (2, 10, ' stroke-linecap="round"')}


def _not_xml(char: str) -> bool:
    """Whether XML 1.0 cannot carry ``char``, escaped or not: a C0 control
    but tab, LF and CR, a surrogate, U+FFFE or U+FFFF."""
    return (char < " " and char not in "\t\n\r" or "\ud800" <= char <= "\udfff"
            or char in "\ufffe\uffff")


def _xml_text(text: str) -> str:
    """``text`` escaped for XML character data; a RenderError, with no
    position yet, when it holds a character XML cannot carry."""
    if not text.isprintable():  # each such character is a control, a surrogate or unassigned
        bad = next((char for char in text if _not_xml(char)), None)
        if bad is not None:
            raise RenderError(Diagnostic(
                "error", f"text {text!r} holds U+{ord(bad):04X}, which SVG (XML 1.0) "
                "cannot carry"))
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_HEAD = '<path d="M 0 0 L {h} {w} L 0 {w2} Z"/>'
_HEAD2 = _HEAD + '<path d="M {h} 0 L {h2} {w} L {h} {w2} Z"/>'
_RHEAD = '<path d="M {h} 0 L 0 {w} L {h} {w2} Z"/>'
_RHEAD2 = _RHEAD + '<path d="M {h2} 0 L {h} {w} L {h2} {w2} Z"/>'
_HOOK = (
    '<path d="M {h} 0 A {w} {w} 0 0 0 {h} {w2}"'
    ' fill="none" stroke="black" stroke-width="{sw}"/>'
)
_MARKER = (
    '<marker id="{name}" markerUnits="userSpaceOnUse" markerWidth="{width}"'
    ' markerHeight="{w2}" refX="{ref_x}" refY="{w}" orient="auto">{body}</marker>'
)
# marker id -> (markerWidth, refX) in centi-em, and its body, whose fields
# are h and h2 (one and two head lengths), w and w2 (half and full head
# width) and sw (stroke width)
_MARKERS = {
    "dg-head": (HEAD_LEN, HEAD_LEN, _HEAD),
    "dg-head2": (2 * HEAD_LEN, 2 * HEAD_LEN, _HEAD2),
    "dg-rhead": (HEAD_LEN, 0, _RHEAD),
    "dg-rhead2": (2 * HEAD_LEN, 0, _RHEAD2),
    "dg-mono": (HEAD_LEN, 0, _HEAD),
    "dg-rmono": (HEAD_LEN, HEAD_LEN, _RHEAD),
    "dg-hook": (HEAD_LEN, 0, _HOOK),
}


def _marker_defs(f: Callable[[int], str], used: Iterable[str]) -> List[str]:
    """The marker elements named in ``used``, by id; ``f`` formats a
    length given in centi-em."""
    lengths = {
        "h": f(HEAD_LEN), "h2": f(2 * HEAD_LEN), "w": f(HEAD_HALF_WIDTH),
        "w2": f(2 * HEAD_HALF_WIDTH), "sw": f(STROKE_WIDTH),
    }
    out = []
    for name in sorted(used):
        width, ref_x, body = _MARKERS[name]
        out.append(_MARKER.format(name=name, width=f(width), ref_x=f(ref_x),
                                  body=body.format(**lengths), **lengths))
    return out


def render_svg(
    lay: DiagramLayout,
    cfg: ScaleConfig,
    warnings: Optional[List[str]] = None,
) -> str:
    """Print a laid-out figure at the scale of ``cfg``, its IR's scale."""
    # px per centi-em, em_size x scale / 100, in lowest terms
    en, ed = cfg.em_size.as_integer_ratio()
    sn, sd = cfg.scale.as_integer_ratio()
    un, ud = en * sn, 100 * ed * sd
    g = gcd(un, ud)
    un, ud = un // g, ud // g
    x0, y0, x1, y1 = lay.bbox
    left, top = QUANTUM * x0, QUANTUM * y1
    # a length of v layout units is v un / (QUANTUM ud) px
    base = decimal_base(QUANTUM * ud)
    if warnings is not None and not base[1]:
        warnings.append(f"scale {cfg.scale} at em size {cfg.em_size} pt has no exact "
                        "decimal px; coordinates are rounded to six places")
    # each distinct screen x and y of a point in layout units (the y axis
    # flips), length in centi-em and text of this render, formatted once
    X, Y = Decimals(base, un, -left * un), Decimals(base, -un, top * un)
    L = Decimals(base, QUANTUM * un)
    escaped = Memo(_xml_text)
    stroke = f' stroke="black" stroke-width="{L[STROKE_WIDTH]}"'
    used_markers: set = set()

    def row_of(raw: str) -> Tuple[bool, str, str, str, str, str]:
        """What an arrow in style ``raw`` draws: whether its shaft is double;
        a single shaft's attributes, its marker-start and marker-end
        attributes, and all three at once; and the attributes of the tips
        line of a shaft drawn as two lines or knocked out whole, "" when
        it has no marker.  The dash lengths scale with the figure."""
        style = style_of(raw, "SVG", warnings)
        start, end = style.marker_start, style.marker_end
        used_markers.update(m for m in (start, end) if m)
        start_attr = f' marker-start="url(#{start})"' if start else ""
        end_attr = f' marker-end="url(#{end})"' if end else ""
        tips = ' stroke="none"' + start_attr + end_attr if start or end else ""
        shaft = stroke   # each of the two lines of a double shaft too
        if style.body in _DASHES:
            on, off, cap = _DASHES[style.body]
            shaft += f' stroke-dasharray="{L[on]} {L[off]}"{cap}'
        return (style.body == "double", shaft, start_attr, end_attr,
                shaft + start_attr + end_attr, tips)

    rows = StyleRows(row_of)
    arrow_elems: List[str] = []
    # by the denominator gd of the unit vector of a double shaft's gap, the
    # screen x and y memos of x/gd and y/gd layout units: at gd = 1, X and Y
    gapped = Memo(lambda gd: (
        Decimals(over := decimal_base(QUANTUM * gd * ud), un, -left * gd * un),
        Decimals(over, -un, top * gd * un)))
    gapped[1] = X, Y

    def draw_double(start: IPoint, end: IPoint, spans: Tuple[Span, ...], seq: int) -> None:
        """Each span as two lines, DOUBLE_GAP to either side; their ends
        have the denominator gd of the gap's unit vector."""
        try:
            gx, gy, gd = left_perp(end[0] - start[0], end[1] - start[1], QUANTUM)
        except OverflowError:
            raise too_long(RenderError, seq) from None
        gx, gy = gx * DOUBLE_GAP * QUANTUM, gy * DOUBLE_GAP * QUANTUM
        sx, sy = gapped[gd]
        for (ax, ay), (bx, by) in spans:
            ax, ay, bx, by = ax * gd, ay * gd, bx * gd, by * gd
            for dx, dy in ((gx, gy), (-gx, -gy)):
                arrow_elems.append(f'<line x1="{sx[ax + dx]}" y1="{sy[ay + dy]}"'
                                   f' x2="{sx[bx + dx]}" y2="{sy[by + dy]}"{stroke}/>')

    node_attrs = f' font-size="{L[100]}" text-anchor="middle">'
    node_elems: List[str] = []
    for node, (cx, cy), _, _ in lay.nodes:
        if node.text:
            try:
                text = escaped[node.text]
            except RenderError as exc:
                exc.seq = node.seq
                raise
            node_elems.append(
                f'<text class="node" x="{X[cx]}" y="{Y[cy - NODE_DROP]}"{node_attrs}'
                f"{text}</text>"
            )

    label_attrs = f' font-size="{L[LABEL_FONT]}" text-anchor="middle">'
    label_elems: List[str] = []
    for start, end, arrow, _, labels, spans in lay.paths:
        double, shaft, start_attr, end_attr, whole, tips = rows[arrow.style]
        # the attributes of one line from start to end, if the arrow draws one
        if double:
            draw_double(start, end, spans, arrow.seq)
            attr = tips
        elif spans == ((start, end),):  # nothing knocked out
            attr = whole
        else:
            last = len(spans) - 1
            for i, (a, b) in enumerate(spans):
                span_attr = shaft
                if i == 0 and a == start:
                    span_attr += start_attr
                if i == last and b == end:
                    span_attr += end_attr
                arrow_elems.append(f'<line x1="{X[a[0]]}" y1="{Y[a[1]]}"'
                                   f' x2="{X[b[0]]}" y2="{Y[b[1]]}"{span_attr}/>')
            attr = "" if spans else tips
        if attr:
            arrow_elems.append(f'<line x1="{X[start[0]]}" y1="{Y[start[1]]}"'
                               f' x2="{X[end[0]]}" y2="{Y[end[1]]}"{attr}/>')
        for text, _, (cx, cy), _ in labels:
            try:
                text = escaped[text]
            except RenderError as exc:
                exc.seq = arrow.seq
                raise
            label_elems.append(
                f'<text class="label" x="{X[cx]}" y="{Y[cy - LABEL_DROP]}"{label_attrs}'
                f"{text}</text>"
            )

    width, height = L[x1 - x0], L[y1 - y0]
    out: List[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1"'
        f' width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}">'
    )
    if used_markers:
        out.append("<defs>")
        out.extend(_marker_defs(L.__getitem__, used_markers))
        out.append("</defs>")
    out.append('<g font-family="serif" fill="black">')
    out.extend(node_elems)
    out.extend(arrow_elems)
    out.extend(label_elems)
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
