"""Command expansion: every shape is data, drawn by one loop.

A shape is a node lattice and a drawing program, one row of ``_SHAPES``.
Each payload node sits at the command's origin plus a multiple (i, j) of
its extent, and the program lists the shape's edges, each from one node
to another, in drawing order.  Drawing order is part of the language's
contract: it is observable in the token-stream output.  Every edge draws
both of its nodes, so shared corners are drawn repeatedly and
deduplicated later by merge_duplicate_nodes.

One writer, ``_draw``, draws every edge: two node records and an arrow
record appended in turn, with the label side looked up in a table.  A
placement's side depends only on the signs of the edge's displacement,
so a shape keeps, for each sign pair of its extent, its program with one
side table per edge, made the first time a command draws it.  A
``\\morphism``, the ``\\cube`` connectors and the ``\\pullback`` trident
join points that no lattice places: their edges take the table of their
own displacement, and a zero one is an error.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import count
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .diagnostics import Diagnostic, ExpandError
from .geometry import DEFAULT_MARGIN, LABEL_SCALE, Point, ScaleConfig, exact, ratchet, tex_div
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
from .metrics import DEFAULT_METRICS, FontMetrics, text_width
from .parser import COMMANDS, Command, Figure

# builds a record from its fields without the Python-level __new__ of a
# named tuple
_new = tuple.__new__
_NONE, _ON_LINE = LabelSide.NONE, LabelSide.ON_LINE


def resolve_label_side(placement: str, dx: int, dy: int) -> LabelSide:
    """Which side of travel a label sits on, by placement character.

    Strict comparisons: at zero the else branch applies ('l' and 'r'
    both land Below on a horizontal arrow, 'a' and 'b' Below on a
    vertical one).  Unknown placements carry no label.
    """
    if placement == "l":
        return LabelSide.ABOVE if dy > 0 else LabelSide.BELOW
    if placement == "m":
        return LabelSide.ON_LINE
    if placement == "r":
        return LabelSide.ABOVE if dy < 0 else LabelSide.BELOW
    if placement == "a":
        return LabelSide.ABOVE if dx > 0 else LabelSide.BELOW
    if placement == "b":
        return LabelSide.ABOVE if dx < 0 else LabelSide.BELOW
    return LabelSide.NONE


def measure_morphism_width(
    node_a: str,
    node_b: str,
    label: str,
    m: FontMetrics = DEFAULT_METRICS,
) -> int:
    """Width needed by one edge: half the measured text, margined.

    Measures the two node texts at full size and the label twice at
    label size, halves (truncating), adds 350, floors at 500.
    """
    total = (
        text_width(node_a, 1, m)
        + 2 * text_width(label, LABEL_SCALE, m)
        + text_width(node_b, 1, m)
    )
    return ratchet(tex_div(total, 2) + 350, 500)


class _Builder:
    """Accumulates nodes and arrows with creation-order seq numbers;
    ``group`` is the index of the command being expanded, and
    ``positions`` holds each command's position."""

    def __init__(self, metrics: FontMetrics, filename: str,
                 positions: Sequence[Tuple[int, int]]):
        self.metrics = metrics
        self.filename = filename
        self.positions = positions
        self.nodes: List[Node] = []
        self.arrows: List[Arrow] = []
        self.warnings: List[Diagnostic] = []
        self.group = -1
        self.seq = count()  # nodes and arrows number in creation order

    def error(self, message: str) -> ExpandError:
        return ExpandError(Diagnostic("error", message, self.filename,
                                      *self.positions[self.group]))

    def warn(self, message: str) -> None:
        self.warnings.append(Diagnostic("warning", message, self.filename,
                                        *self.positions[self.group]))

    def node(
        self, at: Point, text: str, align: str = "", standalone: bool = False
    ) -> None:
        self.nodes.append(_new(Node, (at, text, next(self.seq), align, standalone)))

    def arrow(self, start: Point, end: Point, style: str, label: str, side: LabelSide,
              kind: str = KIND_POS, start_text: str = "", end_text: str = "",
              label2: str = "", offset_pt: Union[int, Fraction] = 0,
              local_scale: Union[int, Fraction] = 1, group: int = -1) -> None:
        self.arrows.append(_new(Arrow, (
            start, end, style, label, side, next(self.seq), kind, start_text, end_text,
            label2, offset_pt, local_scale, group)))

    def stub(self, cmd: Command, at: Point, text: str, step: _Stub) -> None:
        """Grid stub: one end on a node, the other free at the step's
        direction times the command's stub lengths; a ``to_node`` stub is
        drawn from the free end to the node.  An \\iiixii stub has one
        length, no height, and only runs sideways."""
        dx, dy = step.dx * cmd.stub[0], step.dy * cmd.stub[-1]
        if dx == 0 and dy == 0:
            raise self.error(f"\\{cmd.kind}: degenerate stub (zero extent)")
        free = Point(at.x + dx, at.y + dy)
        self.node(at, text)
        start, end, ends = (free, at, ("", text)) if step.to_node else (at, free, (text, ""))
        self.arrow(start=start, end=end, style=step.style, label="", side=LabelSide.NONE,
                   kind=KIND_POS, start_text=ends[0], end_text=ends[1])


# -- shapes as data ------------------------------------------------------


class _Edge(NamedTuple):
    slot: int  # which placement, style and label draw it
    a: int     # from node a to node b, by payload index
    b: int


class _Stub(NamedTuple):
    bit: int   # drawn when this mask bit is set
    node: int
    dx: int    # the free end, in stub lengths from the node
    dy: int
    style: str
    to_node: bool


class _Shape(NamedTuple):
    lattice: Tuple[Tuple[int, int], ...]  # node k at origin + (i*dx, j*dy)
    program: tuple                       # _Edge and _Stub steps in drawing order
    degenerate: str                      # the error for a zero dx or dy
    # the steps to draw by the signs (dx > 0, dy > 0) of the extent, made
    # on first use
    drawn: Dict[Tuple[bool, bool], tuple]


# Grid stub directions: out of the right side and the bottom; into the
# left side and the top, drawn from the node with a reversed tip; and
# "i", into the left side drawn to the node.
_STUBS = {
    "r": (1, 0, ">", False),
    "d": (0, -1, ">", False),
    "l": (-1, 0, "<-", False),
    "u": (0, 1, "<-", False),
    "i": (-1, 0, ">", True),
}


def _program(text: str) -> tuple:
    """Steps from their notation: "cBD" draws slot c (the third
    placement, style and label) from node B (the second payload node) to
    node D; the grid stub "11Au" draws, if mask bit 11 is set, a stub on
    node A going by ``_STUBS["u"]``."""
    return tuple(
        _Stub(int(s[:-2]), ord(s[-2]) - 65, *_STUBS[s[-1]]) if s[0].isdigit()
        else _Edge(ord(s[0]) - 97, ord(s[1]) - 65, ord(s[2]) - 65)
        for s in text.split()
    )


def _shape(lattice: str, program: str, degenerate: str = "degenerate extent") -> _Shape:
    """A row from its notation: the lattice is "i,j" per payload node."""
    points = tuple(tuple(int(v) for v in p.split(",")) for p in lattice.split())
    return _Shape(points, _program(program), degenerate, {})


_SQUARE_LATTICE = "0,1 1,1 0,0 1,0"  # A top-left, B top-right, C bottom-left, D bottom-right
_EDGE = "degenerate edge (zero extent)"

_SHAPES = {
    "square": _shape(_SQUARE_LATTICE, "dCD bAC aAB cBD", _EDGE),  # bottom, left, top, right
    "ptriangle": _shape("0,1 1,1 0,0", "aAB bAC cBC"),
    "qtriangle": _shape("0,1 1,1 1,0", "aAB bAC cBC"),
    "dtriangle": _shape("1,1 0,0 1,0", "cBC aAB bAC"),
    "btriangle": _shape("0,1 0,0 1,0", "cBC aAB bAC"),
    "Atriangle": _shape("1,1 0,0 2,0", "cBC aAB bAC"),
    "Vtriangle": _shape("0,1 2,1 1,0", "bAC aAB cBC"),
    "Ctriangle": _shape("1,2 0,1 1,0", "cBC aAB bAC"),
    "Dtriangle": _shape("0,2 1,1 0,0", "cBC bAB aAC"),
    "Atrianglepair": _shape("1,1 0,0 1,0 2,0", "dBC eCD aAB bAC cAD"),
    "Vtrianglepair": _shape("0,1 1,1 2,1 1,0", "aAB cAD bBC dBD eCD"),
    "Ctrianglepair": _shape("0,2 -1,1 0,1 0,0", "eCD cBC dBD aAB bAC"),
    "Dtrianglepair": _shape("0,2 0,1 1,1 0,0", "cBC dBD aAB bAC eCD"),
    # mask bits, LSB upward: right stubs out of rows bottom/middle/top,
    # left stubs into rows bottom/middle/top, downward stubs out of the
    # bottom row, upward stubs into the top row
    "iiixiii": _shape(
        "0,2 1,2 2,2 0,1 1,1 2,1 0,0 1,0 2,0",
        "eGH 3Gl 8Gd fHI 7Hd 6Id 0Ir 1Fr dEF cDE 4Dl aAB 5Al 11Au bBC 10Bu 9Cu 2Cr"
        " iCF hBE gAD jDG kEH lFI",
    ),
    # mask bits, LSB upward: into top-left, out of top-right, into
    # bottom-left, out of bottom-right
    "iiixii": _shape("0,1 1,1 2,1 0,0 1,0 2,0", "2Di cDE dEF 3Fr 0Ai aAB eAD bBC fBE gCF 1Cr"),
}
_SQUARE = _SHAPES["square"]
# Double squares: each half is a square over its own four corners; the
# shared edge is in one half's program only.
_HSQUARES = (_shape(_SQUARE_LATTICE, "fCD cAC aAB dBD", _EDGE),
             _shape(_SQUARE_LATTICE, "gCD bAB eBD", _EDGE))
_VSQUARES_BOTTOM = _shape(_SQUARE_LATTICE, "gCD eAC fBD", _EDGE)
# over the outer corners A-D then the inner ones E-H, and over the
# square's corners then the trident's node E
_CONNECTORS = _program("bBF aAE cCG dDH")
_TRIDENT = _program("aEB bEA cEC")
_MORPHISM = _program("aAB")


# the side of each known placement for a displacement of signs (sx, sy);
# an unknown placement has no entry
_SIDES = {(sx, sy): {p: resolve_label_side(p, sx, sy) for p in "lmrab"}
          for sx in (-1, 0, 1) for sy in (-1, 0, 1)}


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _sided(program: tuple, pts: Sequence[Point]) -> tuple:
    """The steps of ``program`` over nodes at ``pts``: each edge as (slot,
    node a, node b, the side table of its displacement), each grid stub
    as (its _Stub, its node, its node, None)."""
    return tuple(
        (step, step.node, step.node, None) if type(step) is _Stub else
        (step.slot, step.a, step.b, _SIDES[_sign(pts[step.b].x - pts[step.a].x),
                                           _sign(pts[step.b].y - pts[step.a].y)])
        for step in program
    )


def _draw(b: _Builder, cmd: Command, steps: Sequence[tuple], pts: Sequence[Point],
          texts: Sequence[str], placements: Sequence[str], styles: Sequence[str],
          labels: Sequence[str]) -> None:
    """The one edge writer: each edge of ``steps`` over nodes at ``pts``
    named ``texts``, with the placement, style and label of its slot, as
    its two nodes and then its arrow; each grid stub whose bit is set in
    the command's mask.  An empty style token draws nothing; an unknown
    placement draws no label and warns if there was one."""
    add_node, add_arrow, seq = b.nodes.append, b.arrows.append, b.seq
    for slot, i, j, sides in steps:
        if sides is None:  # a grid stub, ``slot`` its _Stub
            if cmd.mask >> slot.bit & 1:
                b.stub(cmd, pts[i], texts[i], slot)
            continue
        style = styles[slot]
        if not style:
            continue
        start, end, text_a, text_b, label = pts[i], pts[j], texts[i], texts[j], labels[slot]
        add_node(_new(Node, (start, text_a, next(seq), "", False)))
        add_node(_new(Node, (end, text_b, next(seq), "", False)))
        side = sides.get(placements[slot])
        if side is None:
            if label:
                b.warn(f"\\{cmd.kind}: unknown placement {placements[slot]!r}, label dropped")
            side = _NONE
        elif side is _ON_LINE and not label:
            side = _NONE
        add_arrow(_new(Arrow, (start, end, style, label, side, next(seq), KIND_POS,
                               text_a, text_b, "", 0, 1, -1)))


def _draw_free(b: _Builder, cmd: Command, program: tuple, pts: Sequence[Point],
               texts: Sequence[str], placements: Sequence[str], styles: Sequence[str],
               labels: Sequence[str]) -> None:
    """Draw the edges of ``program`` between points that no lattice
    places (a \\morphism's ends, the \\cube connectors, the \\pullback
    trident): each takes the side table of its own displacement, and an
    edge that draws must have one."""
    for slot, i, j in program:
        if pts[i] == pts[j] and styles[slot]:
            raise b.error(f"\\{cmd.kind}: degenerate arrow (zero displacement)")
    _draw(b, cmd, _sided(program, pts), pts, texts, placements, styles, labels)


def _run(b: _Builder, cmd: Command, shape: _Shape, origin: Point, extent: Sequence[int],
         part: Optional[Command] = None,
         texts: Optional[Sequence[str]] = None) -> List[Point]:
    """Place ``shape`` at origin and extent and draw its program with the
    sections of ``part`` (default: the command); returns the node points."""
    dx, dy = extent
    if dx == 0 or dy == 0:
        raise b.error(f"\\{cmd.kind}: {shape.degenerate}")
    x, y = origin
    pts = [_new(Point, (x + i * dx, y + j * dy)) for i, j in shape.lattice]
    part = part or cmd
    signs = dx > 0, dy > 0
    steps = shape.drawn.get(signs)
    if steps is None:  # each edge's displacement has signs that only these fix
        steps = shape.drawn[signs] = _sided(shape.program, pts)
    _draw(b, cmd, steps, pts, texts or part.nodes, part.placements, part.styles, part.labels)
    return pts


def _width(b: _Builder, cmd: Command, *edges: Tuple[int, int, int]) -> int:
    """Auto width: the widest of the horizontal edges (node, node, label)."""
    n, lb = cmd.nodes, cmd.labels
    return max(
        measure_morphism_width(n[i], n[j], lb[k], b.metrics) for i, j, k in edges
    )


def _expand_shape(b: _Builder, cmd: Command) -> None:
    """A square, triangle, triangle pair or 3x3 grid: its row of _SHAPES."""
    _run(b, cmd, _SHAPES[cmd.kind], cmd.origin, cmd.extent)


def _expand_grid3x2(b: _Builder, cmd: Command) -> None:
    """Left stubs shift the whole lattice right by the stub length, drawn
    or not."""
    x, y = cmd.origin
    _run(b, cmd, _SHAPES[cmd.kind], Point(x + cmd.stub[0], y), cmd.extent)


def _expand_auto_square(b: _Builder, cmd: Command) -> None:
    """Top and bottom edges measured; the wider one wins."""
    _run(b, cmd, _SQUARE, cmd.origin, (_width(b, cmd, (0, 1, 0), (2, 3, 3)), cmd.extent[0]))


def _expand_hsquares(b: _Builder, cmd: Command) -> None:
    """Two auto-width squares abreast, each measured on its own top and
    bottom edges; the second leaves out the shared vertical edge."""
    (x, y), height, n = cmd.origin, cmd.extent[0], cmd.nodes
    w1 = _width(b, cmd, (0, 1, 0), (3, 4, 5))
    _run(b, cmd, _HSQUARES[0], cmd.origin, (w1, height), texts=n[:2] + n[3:5])
    w2 = _width(b, cmd, (1, 2, 1), (4, 5, 6))
    _run(b, cmd, _HSQUARES[1], Point(x + w1, y), (w2, height), texts=n[1:3] + n[4:])


def _expand_vsquares(b: _Builder, cmd: Command) -> None:
    """Two stacked squares <bottom,top> high, as wide as the widest of
    their three horizontal edges; the bottom one leaves out the shared
    edge."""
    (x, y), (bottom, top), n = cmd.origin, cmd.extent, cmd.nodes
    width = _width(b, cmd, (0, 1, 0), (2, 3, 3), (4, 5, 6))
    _run(b, cmd, _VSQUARES_BOTTOM, cmd.origin, (width, bottom), texts=n[2:])
    _run(b, cmd, _SQUARE, Point(x, y + bottom), (width, top), texts=n[:4])


def _expand_cube(b: _Builder, cmd: Command) -> None:
    """Outer square, inner square, then connectors in corner order
    B, A, C, D, each running outer corner to inner corner."""
    inner, connectors = cmd.parts
    pts = _run(b, cmd, _SQUARE, cmd.origin, cmd.extent)
    pts += _run(b, cmd, _SQUARE, inner.origin, inner.extent, inner)
    _draw_free(b, cmd, _CONNECTORS, pts, cmd.nodes + inner.nodes, connectors.placements,
               connectors.styles, connectors.labels)
    (ox, oy), (odx, ody) = cmd.origin, cmd.extent
    (ix, iy), (idx, idy) = inner.origin, inner.extent
    if not (ox <= ix and oy <= iy and ix + idx <= ox + odx and iy + idy <= oy + ody):
        b.warn("\\cube: inner square does not lie inside the outer square")


def _expand_pullback(b: _Builder, cmd: Command) -> None:
    """Square plus the trident node, <p7,p8> left of and above corner A,
    reaching corners B, A and C."""
    (trident,) = cmd.parts
    pts = _run(b, cmd, _SQUARE, cmd.origin, cmd.extent)
    pts.append(Point(pts[0].x - trident.extent[0], pts[0].y + trident.extent[1]))
    _draw_free(b, cmd, _TRIDENT, pts, cmd.nodes + trident.nodes, trident.placements,
               trident.styles, trident.labels)


def _expand_morphism(b: _Builder, cmd: Command) -> None:
    """A one-edge program whose one placement is the whole placement
    section."""
    (x, y), (dx, dy) = cmd.origin, cmd.extent
    _draw_free(b, cmd, _MORPHISM, (cmd.origin, _new(Point, (x + dx, y + dy))), cmd.nodes,
               (cmd.placements,), cmd.styles, cmd.labels)


def _expand_vector(b: _Builder, cmd: Command) -> None:
    dx, dy = cmd.extent
    if dx == 0 and dy == 0:
        raise b.error("\\vector: degenerate arrow (zero displacement)")
    start = cmd.origin
    b.arrow(start=start, end=Point(start.x + dx, start.y + dy), style=cmd.styles[0],
            label="", side=LabelSide.NONE, kind=KIND_VECTOR)


def _expand_place(b: _Builder, cmd: Command) -> None:
    b.node(cmd.origin, cmd.nodes[0], align=cmd.align, standalone=True)


# Inline arrows by command: kind, auto-length floor, and in drawing
# order each arrow's style and label slot, side and parallel offset (pt).
# \to carries its second label on its one arrow.
_INLINE = {
    "to": (KIND_TO, 200, ((0, LabelSide.ABOVE, 0),)),
    "two": (KIND_TWO, 200, ((0, LabelSide.ABOVE, Fraction(5, 2)),
                            (1, LabelSide.BELOW, Fraction(-5, 2)))),
    "three": (KIND_THREE, 300, ((1, LabelSide.ON_LINE, 0),
                                (0, LabelSide.ABOVE, Fraction(9, 2)),
                                (2, LabelSide.BELOW, Fraction(-9, 2)))),
}


def _expand_inline(b: _Builder, cmd: Command) -> None:
    """Horizontal inline arrows from (0,0); auto length is the widest
    label plus a margin, ratcheted to the command's floor.  An on-line
    label that is empty leaves the arrow unlabeled."""
    if cmd.length < 0:
        raise b.error(f"\\{cmd.kind}: negative explicit length")
    kind, floor, arrows = _INLINE[cmd.kind]
    labels = cmd.labels
    length = cmd.length or ratchet(DEFAULT_MARGIN + max(
        text_width(l, LABEL_SCALE, b.metrics) for l in labels), floor)
    label2 = labels[1] if cmd.kind == "to" else ""
    for slot, side, offset in arrows:
        if side is LabelSide.ON_LINE and not labels[slot]:
            side = LabelSide.NONE
        b.arrow(start=Point(0, 0), end=Point(length, 0), style=cmd.styles[slot],
                label=labels[slot], side=side, kind=kind, label2=label2,
                offset_pt=offset, group=b.group)


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
        raise b.error("\\twoar: zero direction")
    x, y = two_cell_endpoint(i, j)
    b.arrow(start=Point(0, 0), end=Point(x, y), style="=>", label="", side=LabelSide.NONE,
            kind=KIND_TWOAR, local_scale=Fraction(1, 10), group=b.group)


# each shape program by its name in the command table: ``_expand_<name>``
_PROGRAMS = {f.__name__[len("_expand_"):]: f for f in (
    _expand_morphism, _expand_vector, _expand_place, _expand_shape, _expand_auto_square,
    _expand_hsquares, _expand_vsquares, _expand_cube, _expand_pullback, _expand_grid3x2,
    _expand_inline, _expand_twoar,
)}
_EXPANDERS = {
    kind: _PROGRAMS[chain.program] for kind, chain in COMMANDS.items() if chain.program
}


_DEFAULT_CONFIG = ScaleConfig()


def expand_figure(
    figure: Figure,
    cfg: Optional[ScaleConfig] = None,
    metrics: Optional[FontMetrics] = None,
    filename: str = "<input>",
    starts: Optional[List[int]] = None,
) -> Tuple[DiagramIR, List[Diagnostic]]:
    """Expand a figure into a DiagramIR.

    Scale-factor commands multiply the figure's render scale; expansion
    coordinates stay integer regardless.  ``starts``, if given, gets the
    first seq of each command, the one it draws first if it draws.
    """
    cfg = cfg or _DEFAULT_CONFIG
    b = _Builder(metrics or DEFAULT_METRICS, filename, figure.positions)
    starts = [] if starts is None else starts
    scale = None  # the figure's scale once a \scalefactor has multiplied it
    for index, cmd in enumerate(figure.commands):
        starts.append(len(b.nodes) + len(b.arrows))  # each seq numbers one node or arrow
        if cmd.kind == "scalefactor":
            scale = (cfg.scale if scale is None else scale) * cmd.factor
            continue
        b.group = index
        _EXPANDERS[cmd.kind](b, cmd)
    if scale is not None:
        cfg = ScaleConfig(exact(scale), cfg.em_size)
    return DiagramIR(tuple(b.nodes), tuple(b.arrows), cfg), b.warnings
