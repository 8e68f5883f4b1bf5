"""The per-arrow printers: the reference model of ``diagc.svg`` and
``diagc.tikz``.

These are ``render_svg`` and ``render_tikz`` as they stood before each
render kept one memo per coordinate axis and one row per style token:
a ``draw_path`` per arrow, an ``emit_line`` per line, a ``px``/``py`` or
``at`` call per coordinate through a cached formatter, and a
``style_of`` call per arrow.  They share the constants and the marker
definitions of ``diagc.svg``, which that change left as they were.  On
every layout whose texts XML can carry, each printer of ``diagc`` must
write the same bytes and the same warnings as its namesake here.
``decimal_formatter`` is the per-denominator formatter they used, kept
here as it stood before the printers' memos formatted each number
themselves.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from typing import Callable, Dict, List, Optional, Tuple

from diagc.geometry import ScaleConfig, format_decimal
from diagc.ir import LabelSide
from diagc.layout import QUANTUM, DiagramLayout, DrawablePath, left_perp
from diagc.styles import Style, style_of
from diagc.svg import (BASELINE_DROP, DOUBLE_GAP, LABEL_DROP, LABEL_FONT, STROKE_WIDTH,
                       _marker_defs)


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
        label_nodes = ""
        for label in path.labels:
            label_nodes += (
                f" node[{side_option[label.side]}] {{$\\scriptstyle {label.text}$}}"
            )
        lines.append(
            f"\\draw[{options}] {at(path.start)} --{label_nodes} {at(path.end)};"
        )
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"
