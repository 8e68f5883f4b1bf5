"""Deterministic SVG 1.1 backend.

Nodes become text elements, arrows become marker-terminated lines, the
y axis is flipped for screen space, and one centi-em maps to
0.01 x em_size x scale px.  All numbers are exact decimals of integer
ratios (the one px-per-centi-em ratio times integer layout lengths), so
output is byte-identical across runs and every coordinate scales
linearly with the configured scale.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .ir import DiagramIR
from .geometry import format_decimal
from .layout import QUANTUM, DrawablePath, layout_diagram, left_perp
from .metrics import DEFAULT_METRICS, FontMetrics
from .styles import (
    ArrowStyle,
    BODY_DASHED,
    BODY_DOTTED,
    BODY_DOUBLE,
    HEAD_DOUBLE,
    HEAD_NONE,
    TAIL_HEAD,
    TAIL_HOOK,
    decode_style,
)

STROKE_WIDTH = 5        # centi-em
DOUBLE_GAP = 5          # half-gap between double shafts, centi-em
HEAD_LEN = 35           # marker length, centi-em (0.35 em)
HEAD_HALF_WIDTH = 14    # marker half-width, centi-em
BASELINE_DROP = 35      # text baseline below box center, centi-em


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _marker_defs(f: Callable[[int], str]) -> Dict[str, str]:
    """Marker elements by id; ``f`` formats a length given in centi-em."""
    h = HEAD_LEN
    w = HEAD_HALF_WIDTH
    sw = STROKE_WIDTH

    def marker(name: str, width: int, ref_x: int, body: str) -> str:
        return (
            f'<marker id="{name}" markerUnits="userSpaceOnUse"'
            f' markerWidth="{f(width)}" markerHeight="{f(2 * w)}"'
            f' refX="{f(ref_x)}" refY="{f(w)}" orient="auto">{body}</marker>'
        )

    fwd = f'<path d="M 0 0 L {f(h)} {f(w)} L 0 {f(2 * w)} Z"/>'
    fwd2 = (
        f'<path d="M 0 0 L {f(h)} {f(w)} L 0 {f(2 * w)} Z"/>'
        f'<path d="M {f(h)} 0 L {f(2 * h)} {f(w)} L {f(h)} {f(2 * w)} Z"/>'
    )
    rev = f'<path d="M {f(h)} 0 L 0 {f(w)} L {f(h)} {f(2 * w)} Z"/>'
    rev2 = (
        f'<path d="M {f(h)} 0 L 0 {f(w)} L {f(h)} {f(2 * w)} Z"/>'
        f'<path d="M {f(2 * h)} 0 L {f(h)} {f(w)} L {f(2 * h)} {f(2 * w)} Z"/>'
    )
    hook = (
        f'<path d="M {f(h)} 0 A {f(w)} {f(w)} 0 0 0 {f(h)} {f(2 * w)}"'
        f' fill="none" stroke="black" stroke-width="{f(sw)}"/>'
    )
    return {
        "dg-head": marker("dg-head", h, h, fwd),
        "dg-head2": marker("dg-head2", 2 * h, 2 * h, fwd2),
        "dg-rhead": marker("dg-rhead", h, 0, rev),
        "dg-rhead2": marker("dg-rhead2", 2 * h, 0, rev2),
        "dg-mono": marker("dg-mono", h, 0, fwd),
        "dg-rmono": marker("dg-rmono", h, h, rev),
        "dg-hook": marker("dg-hook", h, 0, hook),
    }


def _path_markers(style: ArrowStyle) -> Tuple[str, str]:
    """(marker-start, marker-end) ids for a decoded style."""
    start = ""
    end = ""
    if style.reversed:
        if style.head == HEAD_DOUBLE:
            start = "dg-rhead2"
        elif style.head != HEAD_NONE:
            start = "dg-rhead"
        if style.tail == TAIL_HEAD:
            end = "dg-rmono"
        elif style.tail == TAIL_HOOK:
            end = "dg-hook"
        return start, end
    if style.head == HEAD_DOUBLE:
        end = "dg-head2"
    elif style.head != HEAD_NONE:
        end = "dg-head"
    if style.tail == TAIL_HEAD:
        start = "dg-mono"
    elif style.tail == TAIL_HOOK:
        start = "dg-hook"
    return start, end


def render_svg(
    d: DiagramIR,
    metrics: FontMetrics = DEFAULT_METRICS,
    warnings: Optional[List[str]] = None,
) -> str:
    lay = layout_diagram(d, metrics)
    cfg = d.scale
    un, ud = (cfg.em_size * cfg.scale / 100).as_integer_ratio()  # px per centi-em
    ln, ld = cfg.label_scale.as_integer_ratio()
    x0, y0, x1, y1 = lay.bbox
    left, top = QUANTUM * x0, QUANTUM * y1

    def f(length: int, den: int = 1) -> str:
        """A length of length/den centi-em, in px."""
        return format_decimal(length * un, den * ud)

    def px(x: int, den: int = 1) -> str:
        """Screen x of x/den layout units."""
        return f(x - left * den, QUANTUM * den)

    def py(y: int, den: int = 1) -> str:
        """Screen y of y/den layout units; the y axis flips."""
        return f(top * den - y, QUANTUM * den)

    node_font = f(100)
    label_font = f(100 * ln, ld)
    sw = f(STROKE_WIDTH)

    used_markers: set = set()
    arrow_elems: List[str] = []
    label_elems: List[str] = []

    def emit_line(a, b, extra: str = "", den: int = 1) -> None:
        arrow_elems.append(
            f'<line x1="{px(a[0], den)}" y1="{py(a[1], den)}"'
            f' x2="{px(b[0], den)}" y2="{py(b[1], den)}"'
            f' stroke="black" stroke-width="{sw}"{extra}/>'
        )

    def shaft_attr(style: ArrowStyle) -> str:
        if style.body == BODY_DASHED:
            return f' stroke-dasharray="{f(20)} {f(12)}"'
        if style.body == BODY_DOTTED:
            return f' stroke-dasharray="{f(2)} {f(10)}" stroke-linecap="round"'
        return ""

    def draw_path(path: DrawablePath) -> None:
        arrow = path.arrow
        style = decode_style(arrow.style)
        if style.needs_fallback:
            if warnings is not None:
                warnings.append(
                    f"style {arrow.style!r} not supported by the SVG backend; "
                    "drawn as a solid arrow"
                )
            style = decode_style(">")
        mk_start, mk_end = _path_markers(style)
        used_markers.update(m for m in (mk_start, mk_end) if m)
        marker_attr = ""
        if mk_start:
            marker_attr += f' marker-start="url(#{mk_start})"'
        if mk_end:
            marker_attr += f' marker-end="url(#{mk_end})"'
        spans = path.shaft
        if style.body == BODY_DOUBLE:
            dx, dy = path.direction
            gx, gy, gd = left_perp(dx, dy, QUANTUM)
            gx, gy = gx * DOUBLE_GAP * QUANTUM, gy * DOUBLE_GAP * QUANTUM
            for a, b in spans:
                a, b = (a[0] * gd, a[1] * gd), (b[0] * gd, b[1] * gd)
                emit_line((a[0] + gx, a[1] + gy), (b[0] + gx, b[1] + gy), den=gd)
                emit_line((a[0] - gx, a[1] - gy), (b[0] - gx, b[1] - gy), den=gd)
            if marker_attr:
                arrow_elems.append(
                    f'<line x1="{px(path.start[0])}" y1="{py(path.start[1])}"'
                    f' x2="{px(path.end[0])}" y2="{py(path.end[1])}"'
                    f' stroke="none"{marker_attr}/>'
                )
        else:
            dash = shaft_attr(style)
            for i, (a, b) in enumerate(spans):
                attr = dash
                if mk_start and i == 0 and a == path.start:
                    attr += f' marker-start="url(#{mk_start})"'
                if mk_end and i == len(spans) - 1 and b == path.end:
                    attr += f' marker-end="url(#{mk_end})"'
                emit_line(a, b, attr)
            if not spans and marker_attr:
                # shaft fully knocked out: keep the arrow tips
                arrow_elems.append(
                    f'<line x1="{px(path.start[0])}" y1="{py(path.start[1])}"'
                    f' x2="{px(path.end[0])}" y2="{py(path.end[1])}"'
                    f' stroke="none"{marker_attr}/>'
                )
        for label in path.labels:
            cx, cy = label.center
            baseline = f((top - cy) * ld + BASELINE_DROP * QUANTUM * ln, QUANTUM * ld)
            label_elems.append(
                f'<text class="label" x="{px(cx)}" y="{baseline}"'
                f' font-size="{label_font}" text-anchor="middle">'
                f"{_xml_escape(label.text)}</text>"
            )

    node_elems: List[str] = []
    for placed in lay.nodes:
        if not placed.node.text:
            continue
        cx, cy = placed.center
        baseline = f(top - cy + BASELINE_DROP * QUANTUM, QUANTUM)
        node_elems.append(
            f'<text class="node" x="{px(cx)}" y="{baseline}"'
            f' font-size="{node_font}" text-anchor="middle">'
            f"{_xml_escape(placed.node.text)}</text>"
        )

    for path in lay.paths:
        draw_path(path)

    defs = _marker_defs(f)
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
        for name in sorted(used_markers):
            out.append(defs[name])
        out.append("</defs>")
    out.append('<g font-family="serif" fill="black">')
    out.extend(node_elems)
    out.extend(arrow_elems)
    out.extend(label_elems)
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
