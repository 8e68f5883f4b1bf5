"""Deterministic SVG 1.1 backend: the printer of a ``DiagramLayout``.

Nodes become text elements, arrows become marker-terminated lines, the
y axis is flipped for screen space, and one centi-em maps to
0.01 x em_size x scale px, a ratio of integers in lowest terms.  Every
number is an integer layout length times that ratio, written over one
denominator that is factored once per ratio: exact decimals when it has
only 2 and 5 in it, six rounded places (with a warning) otherwise.
Output is byte-identical across runs and every coordinate scales
linearly with the configured scale.

What depends only on the ratio is a pen: its numerator, the factored
denominator and the class of a coordinate memo over it, the stroke,
the node and label font attributes, the marker elements, and the row
of each ``STYLES`` entry (the double-shaft flag, the shaft, with the
dashes of its body, the two marker attributes, and the markers it
uses).  The pen of the default scale and em size is made whole once,
at import, and a render at that scale and em size reads it with no
ratio to work out; a render at any other ratio makes its own, which
writes each marker and row the first time the render reads it.  A
render formats each distinct coordinate once, in a memo per axis:
screen x (``X[x]``) and y (``Y[y]``) of layout coordinates; the width
and height are the screen x of the right edge and y of the bottom one.
A hit is a dict lookup and a miss one Python call: over a denominator
with only 2 and 5 in it, a ``Decimals`` miss, one multiply and one
divmod with no test of the denominator, and over any other a
``RoundedDecimals`` one.  The two lines of a double shaft lie
DOUBLE_GAP to either side of it, each end rounded once to the layout
grid by ``left_normal``, so they go through the same memos.  A render
keeps the pen's row of each raw style token it meets, defines only the
markers those rows use, and escapes each distinct text once, in one C
call, so a common arrow is f-strings over dict lookups, with no Python
call.  Each memo lives for one render.
Text that XML 1.0 cannot carry (most C0 controls, lone surrogates,
U+FFFE and U+FFFF) is a ``RenderError`` carrying the seq of its node or
arrow.
"""
from __future__ import annotations

from math import gcd
from typing import List, Optional, Tuple

from .diagnostics import Diagnostic, RenderError
from .geometry import LABEL_SCALE, Memo, ScaleConfig, decimal_base, memo_class
from .layout import QUANTUM, DiagramLayout, IPoint, Span, left_normal
from .styles import STYLES, Style, StyleRows, style_of

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


_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


class _XmlTexts(dict):
    """text -> it escaped for XML character data, in one C call, on first
    use and kept; a RenderError, with no position yet, when it holds a
    character XML cannot carry."""

    __slots__ = ()

    def __missing__(self, text: str) -> str:
        if not text.isprintable():  # each such character is a control, a surrogate or unassigned
            bad = next((char for char in text if _not_xml(char)), None)
            if bad is not None:
                raise RenderError(Diagnostic(
                    "error", f"text {text!r} holds U+{ord(bad):04X}, which SVG (XML 1.0) "
                    "cannot carry"))
        escaped = self[text] = text.translate(_XML_ESCAPES)
        return escaped


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


# what an arrow in one style draws: whether its shaft is double; a single
# shaft's attributes, its marker-start and marker-end attributes, and all
# three at once; and the attributes of the tips line of a shaft drawn as
# two lines or knocked out whole, "" when it has no marker
Row = Tuple[bool, str, str, str, str, str]


def _px_ratio(cfg: ScaleConfig) -> Tuple[int, int]:
    """px per centi-em, em_size x scale / 100, in lowest terms."""
    en, ed = cfg.em_size.as_integer_ratio()
    sn, sd = cfg.scale.as_integer_ratio()
    un, ud = en * sn, 100 * ed * sd
    g = gcd(un, ud)
    return un // g, ud // g


def _pen(un: int, ud: int, whole: bool = False) -> tuple:
    """What a render draws at px ratio ``un/ud``, whatever its figure:
    ``un``, the factored denominator and the class of a memo over it, the
    stroke, the node and label font attributes, a ``Memo`` of each marker
    element by id, and a ``Memo`` of each ``STYLES`` row's ``Row`` and
    the ids of the markers it uses.  Each length in it, given in
    centi-em, is written once; each marker and row when first read, or
    here when ``whole``."""
    # a length of v layout units is v un / (QUANTUM ud) px
    base = decimal_base(QUANTUM * ud)
    memo = memo_class(base)
    L = memo(base, QUANTUM * un)
    stroke = f' stroke="black" stroke-width="{L[STROKE_WIDTH]}"'
    lengths = {
        "h": L[HEAD_LEN], "h2": L[2 * HEAD_LEN], "w": L[HEAD_HALF_WIDTH],
        "w2": L[2 * HEAD_HALF_WIDTH], "sw": L[STROKE_WIDTH],
    }

    def marker(name: str) -> str:
        width, ref_x, body = _MARKERS[name]
        return _MARKER.format(name=name, width=L[width], ref_x=L[ref_x],
                              body=body.format(**lengths), **lengths)

    def row(style: Style) -> Tuple[Row, Tuple[str, ...]]:
        start, end = style.marker_start, style.marker_end
        start_attr = f' marker-start="url(#{start})"' if start else ""
        end_attr = f' marker-end="url(#{end})"' if end else ""
        tips = ' stroke="none"' + start_attr + end_attr if start or end else ""
        shaft = stroke   # each of the two lines of a double shaft too
        if style.body in _DASHES:   # the dash lengths scale with the figure
            on, off, cap = _DASHES[style.body]
            shaft += f' stroke-dasharray="{L[on]} {L[off]}"{cap}'
        return ((style.body == "double", shaft, start_attr, end_attr,
                 shaft + start_attr + end_attr, tips), tuple(m for m in (start, end) if m))

    markers, rows = Memo(marker), Memo(row)
    if whole:
        markers.update((name, marker(name)) for name in _MARKERS)
        rows.update((style, row(style)) for style in STYLES.values())
    return (un, base, memo, stroke, f' font-size="{L[100]}" text-anchor="middle">',
            f' font-size="{L[LABEL_FONT]}" text-anchor="middle">', markers, rows)


# the default scale and em size, and its pen, made whole once, so that no
# render adds to it
_DEFAULT_CFG = ScaleConfig()
_DEFAULT_PEN = _pen(*_px_ratio(_DEFAULT_CFG), whole=True)


def render_svg(
    lay: DiagramLayout,
    cfg: ScaleConfig,
    warnings: Optional[List[str]] = None,
) -> str:
    """Print a laid-out figure at the scale of ``cfg``, its IR's scale."""
    un, base, memo, stroke, node_attrs, label_attrs, markers, pen_rows = (
        _DEFAULT_PEN if cfg == _DEFAULT_CFG else _pen(*_px_ratio(cfg)))
    x0, y0, x1, y1 = lay.bbox
    left, top = QUANTUM * x0, QUANTUM * y1
    if warnings is not None and not base[1]:
        warnings.append(f"scale {cfg.scale} at em size {cfg.em_size} pt has no exact "
                        "decimal px; coordinates are rounded to six places")
    # each distinct screen x and y of a point in layout units (the y axis
    # flips) and text of this render, formatted once
    X, Y = memo(base, un, -left * un), memo(base, -un, top * un)
    escaped = _XmlTexts()
    used_markers: set = set()

    def row_of(raw: str) -> Row:
        """The pen's row of style ``raw``, whose markers the render uses."""
        row, used = pen_rows[style_of(raw, "SVG", warnings)]
        used_markers.update(used)
        return row

    rows = StyleRows(row_of)
    arrow_elems: List[str] = []

    def draw_double(start: IPoint, end: IPoint, spans: Tuple[Span, ...]) -> None:
        """Each span as two lines, DOUBLE_GAP to either side."""
        gx, gy = left_normal(start, end, DOUBLE_GAP * QUANTUM)
        for (ax, ay), (bx, by) in spans:
            for dx, dy in ((gx, gy), (-gx, -gy)):
                arrow_elems.append(f'<line x1="{X[ax + dx]}" y1="{Y[ay + dy]}"'
                                   f' x2="{X[bx + dx]}" y2="{Y[by + dy]}"{stroke}/>')

    node_elems: List[str] = []
    for node, (cx, cy) in lay.nodes:
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

    label_elems: List[str] = []
    for start, end, arrow, labels, spans in lay.paths:
        double, shaft, start_attr, end_attr, whole, tips = rows[arrow.style]
        # the attributes of one line from start to end, if the arrow draws one
        if double:
            draw_double(start, end, ((start, end),) if spans is None else spans)
            attr = tips
        elif spans is None:  # nothing knocked out
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
        for text, (cx, cy) in labels:
            try:
                text = escaped[text]
            except RenderError as exc:
                exc.seq = arrow.seq
                raise
            label_elems.append(
                f'<text class="label" x="{X[cx]}" y="{Y[cy - LABEL_DROP]}"{label_attrs}'
                f"{text}</text>"
            )

    # the figure's extent: the screen x of its right edge and y of its bottom
    width, height = X[QUANTUM * x1], Y[QUANTUM * y0]
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}">',
        *(["<defs>", *[markers[name] for name in sorted(used_markers)], "</defs>"]
          if used_markers else ()),
        '<g font-family="serif" fill="black">', *node_elems, *arrow_elems, *label_elems,
        "</g>", "</svg>", ""])
