"""Deterministic SVG 1.1 backend: the printer of a ``DiagramLayout``.

Nodes become text elements, arrows become marker-terminated lines, the
y axis is flipped for screen space, and one centi-em maps to
0.01 x em_size x scale px.  Every number is an integer layout length
times the one px-per-centi-em ratio, written through one formatter per
denominator: exact decimals when that ratio has only 2 and 5 in its
denominator, six rounded places (with a warning) otherwise.  Output is
byte-identical across runs and every coordinate scales linearly with
the configured scale.  A render formats each distinct number once.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .geometry import LABEL_SCALE, ScaleConfig, decimal_formatter, format_decimal
from .layout import QUANTUM, DiagramLayout, DrawablePath, left_perp
from .styles import Style, style_of

STROKE_WIDTH = 5        # centi-em
DOUBLE_GAP = 5          # half-gap between double shafts, centi-em
HEAD_LEN = 35           # marker length, centi-em (0.35 em)
HEAD_HALF_WIDTH = 14    # marker half-width, centi-em
BASELINE_DROP = 35      # text baseline below box center, centi-em
# a label is set at LABEL_SCALE: its font size in centi-em, and its
# baseline's drop below its centre in layout units
LABEL_FONT = int(100 * LABEL_SCALE)
LABEL_DROP = int(QUANTUM * BASELINE_DROP * LABEL_SCALE)


def _xml_escape(text: str) -> str:
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
    un, ud = Fraction(cfg.em_size * cfg.scale, 100).as_integer_ratio()  # px per centi-em
    x0, y0, x1, y1 = lay.bbox
    left, top = QUANTUM * x0, QUANTUM * y1
    # n -> n / (QUANTUM ud) px, so a length of v layout units is unit(v * un);
    # memoized for this render, which formats each distinct n once
    unit, exact = decimal_formatter(QUANTUM * ud)
    unit = cache(unit)
    if warnings is not None and not exact:
        warnings.append(f"scale {cfg.scale} at em size {cfg.em_size} pt has no exact "
                        "decimal px; coordinates are rounded to six places")

    def f(length: int) -> str:
        """A length in centi-em, in px."""
        return unit(length * QUANTUM * un)

    def px(x: int) -> str:
        """Screen x of x layout units."""
        return unit((x - left) * un)

    def py(y: int) -> str:
        """Screen y of y layout units; the y axis flips."""
        return unit((top - y) * un)

    node_font = f(100)
    label_font = f(LABEL_FONT)
    stroke = f' stroke="black" stroke-width="{f(STROKE_WIDTH)}"'

    used_markers: set = set()
    arrow_elems: List[str] = []
    label_elems: List[str] = []

    def emit_line(a, b, attr: str, x=px, y=py) -> None:
        arrow_elems.append(
            f'<line x1="{x(a[0])}" y1="{y(a[1])}" x2="{x(b[0])}" y2="{y(b[1])}"{attr}/>'
        )

    # a single shaft's attributes by body; the dash lengths scale with the figure
    shafts = {
        "solid": stroke,
        "dashed": stroke + f' stroke-dasharray="{f(20)} {f(12)}"',
        "dotted": stroke + f' stroke-dasharray="{f(2)} {f(10)}" stroke-linecap="round"',
    }
    # a row of styles.STYLES -> its marker-start and marker-end attributes,
    # made once per figure
    marker_attrs: Dict[Style, Tuple[str, str]] = {}

    def markers_of(style: Style) -> Tuple[str, str]:
        start, end = style.marker_start, style.marker_end
        used_markers.update(m for m in (start, end) if m)
        attrs = (f' marker-start="url(#{start})"' if start else "",
                 f' marker-end="url(#{end})"' if end else "")
        marker_attrs[style] = attrs
        return attrs

    def draw_path(path: DrawablePath) -> None:
        style = style_of(path.arrow.style, "SVG", warnings)
        start_attr, end_attr = marker_attrs.get(style) or markers_of(style)
        marker_attr = start_attr + end_attr
        spans = path.shaft
        if style.body == "double":
            dx, dy = path.direction
            gx, gy, gd = left_perp(dx, dy, QUANTUM)
            gx, gy = gx * DOUBLE_GAP * QUANTUM, gy * DOUBLE_GAP * QUANTUM
            den = QUANTUM * gd * ud

            def sx(x: int) -> str:
                """Screen x of x/gd layout units."""
                return format_decimal((x - left * gd) * un, den)

            def sy(y: int) -> str:
                """Screen y of y/gd layout units."""
                return format_decimal((top * gd - y) * un, den)

            for a, b in spans:
                a, b = (a[0] * gd, a[1] * gd), (b[0] * gd, b[1] * gd)
                emit_line((a[0] + gx, a[1] + gy), (b[0] + gx, b[1] + gy), stroke, sx, sy)
                emit_line((a[0] - gx, a[1] - gy), (b[0] - gx, b[1] - gy), stroke, sx, sy)
            if marker_attr:
                emit_line(path.start, path.end, ' stroke="none"' + marker_attr)
        else:
            for i, (a, b) in enumerate(spans):
                attr = shafts[style.body]
                if start_attr and i == 0 and a == path.start:
                    attr += start_attr
                if end_attr and i == len(spans) - 1 and b == path.end:
                    attr += end_attr
                emit_line(a, b, attr)
            if not spans and marker_attr:
                # shaft fully knocked out: keep the arrow tips
                emit_line(path.start, path.end, ' stroke="none"' + marker_attr)
        for label in path.labels:
            cx, cy = label.center
            label_elems.append(
                f'<text class="label" x="{px(cx)}" y="{py(cy - LABEL_DROP)}"'
                f' font-size="{label_font}" text-anchor="middle">'
                f"{_xml_escape(label.text)}</text>"
            )

    node_elems: List[str] = []
    for placed in lay.nodes:
        if not placed.node.text:
            continue
        cx, cy = placed.center
        node_elems.append(
            f'<text class="node" x="{px(cx)}" y="{py(cy - BASELINE_DROP * QUANTUM)}"'
            f' font-size="{node_font}" text-anchor="middle">'
            f"{_xml_escape(placed.node.text)}</text>"
        )

    for path in lay.paths:
        draw_path(path)

    width = f(x1 - x0)
    height = f(y1 - y0)
    out: List[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1"'
        f' width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}">'
    )
    if used_markers:
        out.append("<defs>")
        out.extend(_marker_defs(f, used_markers))
        out.append("</defs>")
    out.append('<g font-family="serif" fill="black">')
    out.extend(node_elems)
    out.extend(arrow_elems)
    out.extend(label_elems)
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
