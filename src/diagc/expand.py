"""Command expansion: replay each command's integer coordinate program.

Every shape is a fixed sequence of positioned arrows.  Drawing order
and cursor arithmetic are part of the language's contract: both are
observable in the token-stream output, so each expansion performs the
exact integer program, shared corners drawn repeatedly and deduplicated
later by merge_duplicate_nodes.
"""
from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .diagnostics import Diagnostic, ExpandError
from .geometry import (
    DEFAULT_MARGIN,
    Point,
    ScaleConfig,
    ratchet,
    tex_div,
)
from .ir import (
    KIND_POS,
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
from .layout import resolve_label_side
from .metrics import DEFAULT_METRICS, FontMetrics, text_width
from .parser import COMMANDS, Command, Figure

def measure_morphism_width(
    node_a: str,
    node_b: str,
    label: str,
    m: FontMetrics = DEFAULT_METRICS,
    label_scale: Fraction = Fraction(7, 10),
) -> int:
    """Width needed by one edge: half the measured text, margined.

    Measures the two node texts at full size and the label twice at
    label size, halves (truncating), adds 350, floors at 500.
    """
    total = (
        text_width(node_a, 1, m)
        + 2 * text_width(label, label_scale, m)
        + text_width(node_b, 1, m)
    )
    return ratchet(tex_div(total, 2) + 350, 500)


class _Builder:
    """Accumulates nodes and arrows with creation-order seq numbers."""

    def __init__(self, cfg: ScaleConfig, metrics: FontMetrics, filename: str):
        self.cfg = cfg
        self.metrics = metrics
        self.filename = filename
        self.nodes: List[Node] = []
        self.arrows: List[Arrow] = []
        self.warnings: List[Diagnostic] = []
        self.seq = 0
        self.group = -1

    def _next(self) -> int:
        s = self.seq
        self.seq += 1
        return s

    def error(self, cmd: Command, message: str) -> ExpandError:
        return ExpandError(
            Diagnostic("error", message, self.filename, cmd.line, cmd.col)
        )

    def warn(self, cmd: Command, message: str) -> None:
        self.warnings.append(
            Diagnostic("warning", message, self.filename, cmd.line, cmd.col)
        )

    def node(
        self, x: int, y: int, text: str, align: str = "", standalone: bool = False
    ) -> None:
        self.nodes.append(
            Node(Point(x, y), text, self._next(), align=align, standalone=standalone)
        )

    def arrow(self, **kw) -> None:
        self.arrows.append(Arrow(seq=self._next(), **kw))

    def morphism(
        self,
        cmd: Command,
        x: int,
        y: int,
        placement: str,
        style: str,
        dx: int,
        dy: int,
        text_a: str,
        text_b: str,
        label: str,
        end: Optional[Tuple[int, int]] = None,
    ) -> None:
        """One positioned arrow drawing both of its node texts.

        An empty style token suppresses the edge entirely (shared edges
        of the double-square shapes are emitted only once).
        """
        if style == "":
            return
        if end is None:
            end = (x + dx, y + dy)
        if dx == 0 and dy == 0:
            raise self.error(cmd, f"\\{cmd.kind}: degenerate arrow (zero displacement)")
        self.node(x, y, text_a)
        self.node(end[0], end[1], text_b)
        side = resolve_label_side(placement, dx, dy)
        if side is LabelSide.ON_LINE and label == "":
            side = LabelSide.NONE
        elif side is LabelSide.NONE and label:
            # only unknown (or missing) placements land here with a label
            self.warn(
                cmd,
                f"\\{cmd.kind}: unknown placement {placement!r}, label dropped",
            )
        self.arrow(
            start=Point(x, y),
            end=Point(end[0], end[1]),
            style=style,
            label=label,
            side=side,
            kind=KIND_POS,
            start_text=text_a,
            end_text=text_b,
        )

    def stub(
        self,
        cmd: Command,
        x: int,
        y: int,
        text: str,
        dx: int,
        dy: int,
        style: str = ">",
        free_at_start: bool = False,
    ) -> None:
        """Boundary stub: one end on a node, the other end free."""
        if dx == 0 and dy == 0:
            raise self.error(cmd, f"\\{cmd.kind}: degenerate stub (zero extent)")
        if free_at_start:
            self.node(x + dx, y + dy, text)
            start_text, end_text = "", text
        else:
            self.node(x, y, text)
            start_text, end_text = text, ""
        self.arrow(
            start=Point(x, y),
            end=Point(x + dx, y + dy),
            style=style,
            label="",
            side=LabelSide.NONE,
            kind=KIND_POS,
            start_text=start_text,
            end_text=end_text,
        )


# -- shape programs ------------------------------------------------------


def _square(
    b: _Builder,
    cmd: Command,
    origin: Point,
    placements: str,
    styles: Sequence[str],
    extent: Tuple[int, int],
    nodes: Sequence[str],
    labels: Sequence[str],
) -> Tuple[int, int]:
    """Corners A top-left, B top-right, C bottom-left, D bottom-right;
    drawn bottom, left, top, right.  Returns the final cursor (top-right).
    """
    x, y = origin
    dx, dy = extent
    if dx == 0 or dy == 0:
        raise b.error(cmd, f"\\{cmd.kind}: degenerate edge (zero extent)")
    pa, pb, pc, pd = placements
    sa, sb, sc, sd = styles
    na, nb, nc, nd = nodes
    la, lb, lc, ld = labels
    b.morphism(cmd, x, y, pd, sd, dx, 0, nc, nd, ld)
    y += dy
    b.morphism(cmd, x, y, pb, sb, 0, -dy, na, nc, lb)
    b.morphism(cmd, x, y, pa, sa, dx, 0, na, nb, la)
    x += dx
    b.morphism(cmd, x, y, pc, sc, 0, -dy, nb, nd, lc)
    return x, y


def _expand_square(b: _Builder, cmd: Command) -> None:
    _square(
        b, cmd, cmd.origin, cmd.placements, cmd.styles,
        (cmd.extent[0], cmd.extent[1]), cmd.nodes, cmd.labels,
    )


def _auto_width(b: _Builder, nodes: Sequence[str], labels: Sequence[str]) -> int:
    """Top and bottom edges measured; the wider one wins."""
    top = measure_morphism_width(
        nodes[0], nodes[1], labels[0], b.metrics, b.cfg.label_scale
    )
    bot = measure_morphism_width(
        nodes[2], nodes[3], labels[3], b.metrics, b.cfg.label_scale
    )
    return ratchet(top, bot)


def _expand_auto_square(b: _Builder, cmd: Command) -> None:
    width = _auto_width(b, cmd.nodes, cmd.labels)
    _square(
        b, cmd, cmd.origin, cmd.placements, cmd.styles,
        (width, cmd.extent[0]), cmd.nodes, cmd.labels,
    )


def _expand_morphism(b: _Builder, cmd: Command) -> None:
    dx, dy = cmd.extent
    b.morphism(
        cmd, cmd.origin.x, cmd.origin.y, cmd.placements,
        cmd.styles[0], dx, dy, cmd.nodes[0], cmd.nodes[1], cmd.labels[0],
    )


def _expand_vector(b: _Builder, cmd: Command) -> None:
    dx, dy = cmd.extent
    if dx == 0 and dy == 0:
        raise b.error(cmd, "\\vector: degenerate arrow (zero displacement)")
    start = cmd.origin
    b.arrow(
        start=start,
        end=Point(start.x + dx, start.y + dy),
        style=cmd.styles[0],
        label="",
        side=LabelSide.NONE,
        kind=KIND_VECTOR,
    )


def _expand_place(b: _Builder, cmd: Command) -> None:
    b.node(cmd.origin.x, cmd.origin.y, cmd.nodes[0], align=cmd.align, standalone=True)


def _expand_triangle(b: _Builder, cmd: Command) -> None:
    x, y = cmd.origin
    dx, dy = cmd.extent
    if dx == 0 or dy == 0:
        raise b.error(cmd, f"\\{cmd.kind}: degenerate extent")
    pa, pb, pc = cmd.placements
    sa, sb, sc = cmd.styles
    na, nb, nc = cmd.nodes
    la, lb, lc = cmd.labels
    kind = cmd.kind[0]
    if kind == "p":
        y += dy
        b.morphism(cmd, x, y, pa, sa, dx, 0, na, nb, la)
        b.morphism(cmd, x, y, pb, sb, 0, -dy, na, nc, lb)
        x += dx
        b.morphism(cmd, x, y, pc, sc, -dx, -dy, nb, nc, lc)
    elif kind == "q":
        y += dy
        b.morphism(cmd, x, y, pa, sa, dx, 0, na, nb, la)
        b.morphism(cmd, x, y, pb, sb, dx, -dy, na, nc, lb)
        x += dx
        b.morphism(cmd, x, y, pc, sc, 0, -dy, nb, nc, lc)
    elif kind == "d":
        b.morphism(cmd, x, y, pc, sc, dx, 0, nb, nc, lc)
        y += dy
        x += dx
        b.morphism(cmd, x, y, pa, sa, -dx, -dy, na, nb, la)
        b.morphism(cmd, x, y, pb, sb, 0, -dy, na, nc, lb)
    elif kind == "b":
        b.morphism(cmd, x, y, pc, sc, dx, 0, nb, nc, lc)
        y += dy
        b.morphism(cmd, x, y, pa, sa, 0, -dy, na, nb, la)
        b.morphism(cmd, x, y, pb, sb, dx, -dy, na, nc, lb)
    elif kind == "A":
        # base doubled for the bottom edge, apex halfway up
        b.morphism(cmd, x, y, pc, sc, 2 * dx, 0, nb, nc, lc)
        y += dy
        x += dx
        b.morphism(cmd, x, y, pa, sa, -dx, -dy, na, nb, la)
        b.morphism(cmd, x, y, pb, sb, dx, -dy, na, nc, lb)
    elif kind == "V":
        y += dy
        b.morphism(cmd, x, y, pb, sb, dx, -dy, na, nc, lb)
        b.morphism(cmd, x, y, pa, sa, 2 * dx, 0, na, nb, la)
        x += 2 * dx
        b.morphism(cmd, x, y, pc, sc, -dx, -dy, nb, nc, lc)
    elif kind == "C":
        # height doubled for the long vertical edge
        y += dy
        b.morphism(cmd, x, y, pc, sc, dx, -dy, nb, nc, lc)
        y += dy
        x += dx
        b.morphism(cmd, x, y, pa, sa, -dx, -dy, na, nb, la)
        b.morphism(cmd, x, y, pb, sb, 0, -2 * dy, na, nc, lb)
    else:  # "D"
        x += dx
        y += dy
        b.morphism(cmd, x, y, pc, sc, -dx, -dy, nb, nc, lc)
        x -= dx
        y += dy
        b.morphism(cmd, x, y, pb, sb, dx, -dy, na, nb, lb)
        b.morphism(cmd, x, y, pa, sa, 0, -2 * dy, na, nc, la)


def _expand_triangle_pair(b: _Builder, cmd: Command) -> None:
    x, y = cmd.origin
    dx, dy = cmd.extent
    if dx == 0 or dy == 0:
        raise b.error(cmd, f"\\{cmd.kind}: degenerate extent")
    pa, pb, pc, pd, pe = cmd.placements
    sa, sb, sc, sd, se = cmd.styles
    na, nb, nc, nd = cmd.nodes
    la, lb, lc, ld, le = cmd.labels
    kind = cmd.kind[0]
    if kind == "A":
        b.morphism(cmd, x, y, pd, sd, dx, 0, nb, nc, ld)
        x += dx
        b.morphism(cmd, x, y, pe, se, dx, 0, nc, nd, le)
        y += dy
        b.morphism(cmd, x, y, pa, sa, -dx, -dy, na, nb, la)
        b.morphism(cmd, x, y, pb, sb, 0, -dy, na, nc, lb)
        b.morphism(cmd, x, y, pc, sc, dx, -dy, na, nd, lc)
    elif kind == "V":
        y += dy
        b.morphism(cmd, x, y, pa, sa, dx, 0, na, nb, la)
        b.morphism(cmd, x, y, pc, sc, dx, -dy, na, nd, lc)
        x += dx
        b.morphism(cmd, x, y, pb, sb, dx, 0, nb, nc, lb)
        b.morphism(cmd, x, y, pd, sd, 0, -dy, nb, nd, ld)
        x += dx
        b.morphism(cmd, x, y, pe, se, -dx, -dy, nc, nd, le)
    elif kind == "C":
        y += dy
        b.morphism(cmd, x, y, pe, se, 0, -dy, nc, nd, le)
        x -= dx
        b.morphism(cmd, x, y, pc, sc, dx, 0, nb, nc, lc)
        b.morphism(cmd, x, y, pd, sd, dx, -dy, nb, nd, ld)
        y += dy
        x += dx
        b.morphism(cmd, x, y, pa, sa, -dx, -dy, na, nb, la)
        b.morphism(cmd, x, y, pb, sb, 0, -dy, na, nc, lb)
    else:  # "D"
        y += dy
        b.morphism(cmd, x, y, pc, sc, dx, 0, nb, nc, lc)
        b.morphism(cmd, x, y, pd, sd, 0, -dy, nb, nd, ld)
        y += dy
        b.morphism(cmd, x, y, pa, sa, 0, -dy, na, nb, la)
        b.morphism(cmd, x, y, pb, sb, dx, -dy, na, nc, lb)
        y -= dy
        x += dx
        b.morphism(cmd, x, y, pe, se, -dx, -dy, nc, nd, le)


def _expand_hsquares(b: _Builder, cmd: Command) -> None:
    """Two auto-width squares abreast; the shared vertical edge is the
    first square's right edge, width measured per square."""
    height = cmd.extent[0]
    p = cmd.placements
    s = cmd.styles
    n = cmd.nodes
    lb = cmd.labels
    first_nodes = (n[0], n[1], n[3], n[4])
    first_labels = (lb[0], lb[2], lb[3], lb[5])
    w1 = _auto_width(b, first_nodes, first_labels)
    _square(
        b, cmd, cmd.origin, p[0] + p[2] + p[3] + p[5],
        (s[0], s[2], s[3], s[5]), (w1, height), first_nodes, first_labels,
    )
    second_nodes = (n[1], n[2], n[4], n[5])
    second_labels = (lb[1], "", lb[4], lb[6])
    w2 = _auto_width(b, second_nodes, second_labels)
    _square(
        b, cmd, Point(cmd.origin.x + w1, cmd.origin.y),
        p[1] + p[3] + p[4] + p[6], (s[1], "", s[4], s[6]), (w2, height),
        second_nodes, second_labels,
    )


def _expand_vsquares(b: _Builder, cmd: Command) -> None:
    """Two stacked squares; width is the max of the three horizontal-edge
    measurements; heights are <bottom,top>."""
    bottom_h, top_h = cmd.extent
    p = cmd.placements
    s = cmd.styles
    n = cmd.nodes
    lb = cmd.labels
    width = measure_morphism_width(n[0], n[1], lb[0], b.metrics, b.cfg.label_scale)
    width = ratchet(
        width, measure_morphism_width(n[2], n[3], lb[3], b.metrics, b.cfg.label_scale)
    )
    width = ratchet(
        width, measure_morphism_width(n[4], n[5], lb[6], b.metrics, b.cfg.label_scale)
    )
    _square(
        b, cmd, cmd.origin, p[3] + p[4] + p[5] + p[6],
        ("", s[4], s[5], s[6]), (width, bottom_h),
        (n[2], n[3], n[4], n[5]), ("", lb[4], lb[5], lb[6]),
    )
    _square(
        b, cmd, Point(cmd.origin.x, cmd.origin.y + bottom_h),
        p[0] + p[1] + p[2] + p[3], (s[0], s[1], s[2], s[3]), (width, top_h),
        (n[0], n[1], n[2], n[3]), (lb[0], lb[1], lb[2], lb[3]),
    )


def _expand_cube(b: _Builder, cmd: Command) -> None:
    """Outer square, inner square, then connectors in corner order
    B, A, C, D, each running outer corner to inner corner."""
    inner = cmd.inner
    assert inner is not None
    odx, ody = cmd.extent
    idx, idy = inner.extent
    bx, by = _square(
        b, cmd, cmd.origin, cmd.placements, cmd.styles, (odx, ody),
        cmd.nodes, cmd.labels,
    )
    ex, ey = _square(
        b, cmd, inner.origin, inner.placements, inner.styles, (idx, idy),
        inner.nodes, inner.labels,
    )
    c1, c2, c3, c4 = cmd.conn_placements
    t1, t2, t3, t4 = cmd.conn_styles
    l1, l2, l3, l4 = cmd.conn_labels
    outer_n, inner_n = cmd.nodes, inner.nodes
    b.morphism(cmd, bx, by, c2, t2, ex - bx, ey - by, outer_n[1], inner_n[1], l2)
    bx -= odx
    ex -= idx
    b.morphism(cmd, bx, by, c1, t1, ex - bx, ey - by, outer_n[0], inner_n[0], l1)
    by -= ody
    ey -= idy
    b.morphism(cmd, bx, by, c3, t3, ex - bx, ey - by, outer_n[2], inner_n[2], l3)
    bx += odx
    ex += idx
    b.morphism(cmd, bx, by, c4, t4, ex - bx, ey - by, outer_n[3], inner_n[3], l4)
    if not (
        cmd.origin.x <= inner.origin.x
        and cmd.origin.y <= inner.origin.y
        and inner.origin.x + idx <= cmd.origin.x + odx
        and inner.origin.y + idy <= cmd.origin.y + ody
    ):
        b.warn(cmd, "\\cube: inner square does not lie inside the outer square")


def _expand_pullback(b: _Builder, cmd: Command) -> None:
    """Square plus the trident node reaching its three near corners."""
    tri = cmd.trident
    assert tri is not None
    dx, dy = cmd.extent
    x, y = _square(
        b, cmd, cmd.origin, cmd.placements, cmd.styles, (dx, dy),
        cmd.nodes, cmd.labels,
    )
    p7, p8 = tri.offset
    x -= dx
    x -= p7
    y += p8
    na, nb, nc = cmd.nodes[0], cmd.nodes[1], cmd.nodes[2]
    b.morphism(cmd, x, y, tri.placements[0], tri.styles[0], dx + p7, -p8,
               tri.node, nb, tri.labels[0])
    b.morphism(cmd, x, y, tri.placements[1], tri.styles[1], p7, -p8,
               tri.node, na, tri.labels[1])
    b.morphism(cmd, x, y, tri.placements[2], tri.styles[2], p7, -(dy + p8),
               tri.node, nc, tri.labels[2])


def _expand_grid3x3(b: _Builder, cmd: Command) -> None:
    """3x3 lattice with twelve labeled arrows plus masked boundary stubs.

    Bits, LSB upward: right stubs out of rows bottom/middle/top, left
    stubs into rows bottom/middle/top, downward stubs out of the bottom
    row, upward stubs into the top row.
    """
    x, y = cmd.origin
    dx, dy = cmd.extent
    if dx == 0 or dy == 0:
        raise b.error(cmd, "\\iiixiii: degenerate extent")
    sx, sy = cmd.stub
    p = cmd.placements
    s = cmd.styles
    n = cmd.nodes
    lb = cmd.labels
    bit = [bool(cmd.mask >> i & 1) for i in range(12)]
    # 0=zl 1=zk 2=zj 3=zi 4=zh 5=zg 6=zf 7=ze 8=zd 9=zc 10=zb 11=za
    b.morphism(cmd, x, y, p[4], s[4], dx, 0, n[6], n[7], lb[4])
    if bit[3]:
        b.stub(cmd, x, y, n[6], -sx, 0, style="<-")
    if bit[8]:
        b.stub(cmd, x, y, n[6], 0, -sy)
    x += dx
    b.morphism(cmd, x, y, p[5], s[5], dx, 0, n[7], n[8], lb[5])
    if bit[7]:
        b.stub(cmd, x, y, n[7], 0, -sy)
    x += dx
    if bit[6]:
        b.stub(cmd, x, y, n[8], 0, -sy)
    if bit[0]:
        b.stub(cmd, x, y, n[8], sx, 0)
    y += dy
    if bit[1]:
        b.stub(cmd, x, y, n[5], sx, 0)
    x -= dx
    b.morphism(cmd, x, y, p[3], s[3], dx, 0, n[4], n[5], lb[3])
    x -= dx
    b.morphism(cmd, x, y, p[2], s[2], dx, 0, n[3], n[4], lb[2])
    if bit[4]:
        b.stub(cmd, x, y, n[3], -sx, 0, style="<-")
    y += dy
    b.morphism(cmd, x, y, p[0], s[0], dx, 0, n[0], n[1], lb[0])
    if bit[5]:
        b.stub(cmd, x, y, n[0], -sx, 0, style="<-")
    if bit[11]:
        b.stub(cmd, x, y, n[0], 0, sy, style="<-")
    x += dx
    b.morphism(cmd, x, y, p[1], s[1], dx, 0, n[1], n[2], lb[1])
    if bit[10]:
        b.stub(cmd, x, y, n[1], 0, sy, style="<-")
    x += dx
    if bit[9]:
        b.stub(cmd, x, y, n[2], 0, sy, style="<-")
    if bit[2]:
        b.stub(cmd, x, y, n[2], sx, 0)
    b.morphism(cmd, x, y, p[8], s[8], 0, -dy, n[2], n[5], lb[8])
    x -= dx
    b.morphism(cmd, x, y, p[7], s[7], 0, -dy, n[1], n[4], lb[7])
    x -= dx
    b.morphism(cmd, x, y, p[6], s[6], 0, -dy, n[0], n[3], lb[6])
    y -= dy
    b.morphism(cmd, x, y, p[9], s[9], 0, -dy, n[3], n[6], lb[9])
    x += dx
    b.morphism(cmd, x, y, p[10], s[10], 0, -dy, n[4], n[7], lb[10])
    x += dx
    b.morphism(cmd, x, y, p[11], s[11], 0, -dy, n[5], n[8], lb[11])


def _expand_grid3x2(b: _Builder, cmd: Command) -> None:
    """2x3 lattice; left stubs shift the whole lattice right by the stub
    length (the cursor advance is unconditional).

    Bits, LSB upward: into top-left, out of top-right, into bottom-left,
    out of bottom-right.
    """
    x, y = cmd.origin
    dx, dy = cmd.extent
    if dx == 0 or dy == 0:
        raise b.error(cmd, "\\iiixii: degenerate extent")
    sx = cmd.stub[0]
    p = cmd.placements
    s = cmd.styles
    n = cmd.nodes
    lb = cmd.labels
    bit = [bool(cmd.mask >> i & 1) for i in range(4)]  # za zb zc zd
    if bit[2]:
        b.stub(cmd, x, y, n[3], sx, 0, free_at_start=True)
    x += sx
    b.morphism(cmd, x, y, p[2], s[2], dx, 0, n[3], n[4], lb[2])
    x += dx
    b.morphism(cmd, x, y, p[3], s[3], dx, 0, n[4], n[5], lb[3])
    x += dx
    if bit[3]:
        b.stub(cmd, x, y, n[5], sx, 0)
    x -= sx + 2 * dx
    y += dy
    if bit[0]:
        b.stub(cmd, x, y, n[0], sx, 0, free_at_start=True)
    x += sx
    b.morphism(cmd, x, y, p[0], s[0], dx, 0, n[0], n[1], lb[0])
    b.morphism(cmd, x, y, p[4], s[4], 0, -dy, n[0], n[3], lb[4])
    x += dx
    b.morphism(cmd, x, y, p[1], s[1], dx, 0, n[1], n[2], lb[1])
    b.morphism(cmd, x, y, p[5], s[5], 0, -dy, n[1], n[4], lb[5])
    x += dx
    b.morphism(cmd, x, y, p[6], s[6], 0, -dy, n[2], n[5], lb[6])
    if bit[1]:
        b.stub(cmd, x, y, n[2], sx, 0)


def _inline_auto_length(
    b: _Builder, labels: Iterable[str], floor: int
) -> int:
    width = max(text_width(l, b.cfg.label_scale, b.metrics) for l in labels)
    return ratchet(width + DEFAULT_MARGIN, floor)


def _expand_inline(b: _Builder, cmd: Command) -> None:
    """Horizontal inline arrows from (0,0); auto length is the widest
    label plus a margin, floored at 200 (single/pair) or 300 (triple)."""
    if cmd.length < 0:
        raise b.error(cmd, f"\\{cmd.kind}: negative explicit length")
    floor = 300 if cmd.kind == "three" else 200
    length = cmd.length or _inline_auto_length(b, cmd.labels, floor)
    end = Point(length, 0)
    group = b.group
    if cmd.kind == "to":
        sup, sub = cmd.labels
        b.arrow(
            start=Point(0, 0), end=end, style=cmd.styles[0], label=sup,
            side=LabelSide.ABOVE, kind=KIND_TO, label2=sub, group=group,
        )
        return
    if cmd.kind == "two":
        sup, sub = cmd.labels
        b.arrow(
            start=Point(0, 0), end=end, style=cmd.styles[0], label=sup,
            side=LabelSide.ABOVE, kind=KIND_TWO,
            offset_pt=Fraction(5, 2), group=group,
        )
        b.arrow(
            start=Point(0, 0), end=end, style=cmd.styles[1], label=sub,
            side=LabelSide.BELOW, kind=KIND_TWO,
            offset_pt=Fraction(-5, 2), group=group,
        )
        return
    sup, mid, sub = cmd.labels
    b.arrow(
        start=Point(0, 0), end=end, style=cmd.styles[1], label=mid,
        side=LabelSide.ON_LINE if mid else LabelSide.NONE,
        kind=KIND_THREE, group=group,
    )
    b.arrow(
        start=Point(0, 0), end=end, style=cmd.styles[0], label=sup,
        side=LabelSide.ABOVE, kind=KIND_THREE,
        offset_pt=Fraction(9, 2), group=group,
    )
    b.arrow(
        start=Point(0, 0), end=end, style=cmd.styles[2], label=sub,
        side=LabelSide.BELOW, kind=KIND_THREE,
        offset_pt=Fraction(-9, 2), group=group,
    )


def two_cell_endpoint(i: int, j: int) -> Tuple[int, int]:
    """The 2-cell arrow's integer endpoint for direction (i, j).

    With D = 3(i^2+j^2) and M = 3|i|+|j| if |i|>|j| else |i|+3|j|:
    x = 1500 i / M + 500 i M / D, truncating each quotient; same for y.
    """
    if i == 0 and j == 0:
        raise ValueError("zero direction")
    ai, aj = abs(i), abs(j)
    d = 3 * (i * i + j * j)
    m = 3 * ai + aj if ai > aj else ai + 3 * aj
    x = tex_div(500 * i * 3, m) + tex_div(500 * i * m, d)
    y = tex_div(500 * j * 3, m) + tex_div(500 * j * m, d)
    return x, y


def _expand_twoar(b: _Builder, cmd: Command) -> None:
    i, j = cmd.direction
    if i == 0 and j == 0:
        raise b.error(cmd, "\\twoar: zero direction")
    x, y = two_cell_endpoint(i, j)
    b.arrow(
        start=Point(0, 0), end=Point(x, y), style="=>", label="",
        side=LabelSide.NONE, kind=KIND_TWOAR,
        local_scale=Fraction(1, 10), group=b.group,
    )


# each shape program by its name in the command table: ``_expand_<name>``
_PROGRAMS = {f.__name__[len("_expand_"):]: f for f in (
    _expand_morphism, _expand_vector, _expand_place, _expand_square, _expand_auto_square,
    _expand_triangle, _expand_triangle_pair, _expand_hsquares, _expand_vsquares,
    _expand_cube, _expand_pullback, _expand_grid3x3, _expand_grid3x2, _expand_inline,
    _expand_twoar,
)}
_EXPANDERS = {
    kind: _PROGRAMS[chain.program] for kind, chain in COMMANDS.items() if chain.program
}


def expand_figure(
    figure: Figure,
    cfg: Optional[ScaleConfig] = None,
    metrics: Optional[FontMetrics] = None,
    filename: str = "<input>",
) -> Tuple[DiagramIR, List[Diagnostic]]:
    """Expand a figure into a DiagramIR.

    Scale-factor commands multiply the figure's render scale; expansion
    coordinates stay integer regardless.
    """
    cfg = cfg or ScaleConfig()
    metrics = metrics or DEFAULT_METRICS
    b = _Builder(cfg, metrics, filename)
    scale = cfg.scale
    for index, cmd in enumerate(figure.commands):
        if cmd.kind == "scalefactor":
            scale = scale * cmd.factor
            continue
        b.group = index
        _EXPANDERS[cmd.kind](b, cmd)
    if scale != cfg.scale:
        cfg = replace(cfg, scale=scale)
    return DiagramIR(tuple(b.nodes), tuple(b.arrows), cfg), b.warnings
