"""The per-arrow printers: the reference model of ``diagc.svg`` and
``diagc.tikz``.

These are ``render_svg`` and ``render_tikz`` as they stood before each
render kept one memo per coordinate axis and one row per style token:
a ``draw_path`` per arrow, an ``emit_line`` per line, a ``px``/``py`` or
``at`` call per coordinate through a cached formatter, and a
``style_of`` call per arrow.  They share the constants of ``diagc.svg``,
which that change left as they were, and spell its marker elements
themselves, one f-string each.  The SVG one places each end of a double
shaft's two lines DOUBLE_GAP across the path with ``clip_walk``'s
``_left`` and ``_rounded``, which compare squares in ``Fraction`` and
owe nothing to the floor identity of ``layout.left_normal``.  The TikZ
one reads each label's text and side from the path's arrow, as
``render_tikz`` does.  On every layout whose texts XML can carry, each
printer of ``diagc`` must write the same bytes and the same warnings as
its namesake here.
``decimal_formatter`` is the per-denominator formatter they used, kept
here as it stood before the printers' memos formatted each number
themselves.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from clip_walk import _left, _rounded
from diagc.geometry import ScaleConfig, format_decimal
from diagc.ir import LabelSide
from diagc.layout import QUANTUM, DiagramLayout, DrawablePath
from diagc.styles import Style, style_of
from diagc.svg import (BASELINE_DROP, DOUBLE_GAP, HEAD_HALF_WIDTH, HEAD_LEN, LABEL_DROP,
                       LABEL_FONT, STROKE_WIDTH)


def decimal_formatter(den: int) -> Tuple[Callable[[int], str], bool]:
    """(num -> decimal of num / den, whether every such decimal is exact).

    den > 0 is factored once.  When den = 2^a * 5^b, max(a, b) places
    hold every num / den exactly, and each number costs one multiply and
    one divmod.  Any other den hands each number to format_decimal,
    which reduces it first and rounds to six places only what stays
    inexact.
    """
    twos = (den & -den).bit_length() - 1
    rest, fives = den >> twos, 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    places = max(twos, fives)
    if rest != 1:
        return partial(format_decimal, den=den), False
    if not places:
        return str, True
    scale = 10**places
    mul = scale // den
    pattern = f"%d.%0{places}d"

    def fixed(num: int) -> str:
        text = (pattern % divmod(abs(num) * mul, scale)).rstrip("0").rstrip(".")
        return "-" + text if num < 0 else text

    return fixed, True


def marker_defs(f: Callable[[int], str], used: Set[str]) -> List[str]:
    """The marker elements named in ``used``, sorted by id; ``f`` writes a
    length given in centi-em."""
    h, h2, w, w2 = f(HEAD_LEN), f(2 * HEAD_LEN), f(HEAD_HALF_WIDTH), f(2 * HEAD_HALF_WIDTH)
    head = f'<path d="M 0 0 L {h} {w} L 0 {w2} Z"/>'
    rhead = f'<path d="M {h} 0 L 0 {w} L {h} {w2} Z"/>'
    hook = (f'<path d="M {h} 0 A {w} {w} 0 0 0 {h} {w2}" fill="none" stroke="black"'
            f' stroke-width="{f(STROKE_WIDTH)}"/>')
    # id -> markerWidth, refX and body
    markers = {
        "dg-head": (h, h, head),
        "dg-head2": (h2, h2, head + f'<path d="M {h} 0 L {h2} {w} L {h} {w2} Z"/>'),
        "dg-rhead": (h, f(0), rhead),
        "dg-rhead2": (h2, f(0), rhead + f'<path d="M {h2} 0 L {h} {w} L {h2} {w2} Z"/>'),
        "dg-mono": (h, f(0), head),
        "dg-rmono": (h, h, rhead),
        "dg-hook": (h, f(0), hook),
    }
    return [f'<marker id="{name}" markerUnits="userSpaceOnUse" markerWidth="{width}"'
            f' markerHeight="{w2}" refX="{ref_x}" refY="{w}" orient="auto">{body}</marker>'
            for name, (width, ref_x, body) in sorted(markers.items()) if name in used]


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


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
        spans = ((path.start, path.end),) if path.shaft is None else path.shaft
        if style.body == "double":
            # each end DOUBLE_GAP to either side, along the normal (ux, uy)/√n
            # to the left of travel, rounded once to the layout grid
            ux, uy, n = _left(path.end[0] - path.start[0], path.end[1] - path.start[1])
            gap = DOUBLE_GAP * QUANTUM
            for a, b in spans:
                for g in (gap, -gap):
                    a2, b2 = ((_rounded(Fraction(p[0]), Fraction(g * ux), n),
                               _rounded(Fraction(p[1]), Fraction(g * uy), n)) for p in (a, b))
                    emit_line(a2, b2, stroke)
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
        out.extend(marker_defs(f, used_markers))
        out.append("</defs>")
    out.append('<g font-family="serif" fill="black">')
    out.extend(node_elems)
    out.extend(arrow_elems)
    out.extend(label_elems)
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_tikz(
    lay: DiagramLayout,
    cfg: ScaleConfig,
    warnings: Optional[List[str]] = None,
) -> str:
    """Print a laid-out figure at the scale of ``cfg``, its IR's scale."""
    sn, sd = cfg.scale.as_integer_ratio()
    # v * sn -> v layout units in em, memoized for this render
    em, exact = decimal_formatter(100 * QUANTUM * sd)
    em = cache(em)
    side_option = {
        LabelSide.ABOVE: "above",
        LabelSide.BELOW: "below",
        # an on-line label's knockout padding, 1pt times the scale: the
        # scale is what one em of layout (100 QUANTUM units) prints as
        LabelSide.ON_LINE: f"fill=white, inner sep={em(100 * QUANTUM * sn)}pt",
    }
    if warnings is not None and not exact:
        warnings.append(f"scale {cfg.scale} has no exact decimal em; coordinates "
                        "are rounded to six places")

    def at(p) -> str:
        return f"({em(p[0] * sn)}em,{em(p[1] * sn)}em)"

    lines: List[str] = ["\\begin{tikzpicture}[line cap=round]"]
    for placed in lay.nodes:
        if not placed.node.text:
            continue
        lines.append(f"\\node at {at(placed.center)} {{${placed.node.text}$}};")
    for path in lay.paths:
        options = style_of(path.arrow.style, "TikZ", warnings).tikz
        # TikZ places each label midway itself: its text and side are the arrow's
        labels = []
        if path.arrow.label and path.arrow.side is not LabelSide.NONE:
            labels.append((path.arrow.label, path.arrow.side))
        if path.arrow.label2:   # an inline arrow's second label, below
            labels.append((path.arrow.label2, LabelSide.BELOW))
        label_nodes = ""
        for text, side in labels:
            label_nodes += f" node[{side_option[side]}] {{$\\scriptstyle {text}$}}"
        lines.append(
            f"\\draw[{options}] {at(path.start)} --{label_nodes} {at(path.end)};"
        )
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"
