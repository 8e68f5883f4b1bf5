"""The edge walk: the reference model of shape drawing in ``diagc.expand``.

This is expansion as it stood before one edge writer replaced the
per-edge calls: ``_Builder.morphism`` works out each edge's label side
from its displacement and draws its two nodes and its arrow by keyword,
``_draw`` walks a shape's program step by step, and ``_run`` places the
shape.  The shape table, the inline arrows, vectors and placed nodes
come from ``diagc.expand``.  On every figure, ``expand_figure`` must give
the same nodes, arrows, warnings and errors as ``expand_figure`` here.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import count
from typing import List, Optional, Sequence, Tuple, Union

from diagc.diagnostics import Diagnostic, ExpandError
from diagc.expand import (
    _CONNECTORS,
    _HSQUARES,
    _SHAPES,
    _SQUARE,
    _TRIDENT,
    _VSQUARES_BOTTOM,
    _Edge,
    _Shape,
    _expand_inline,
    _expand_place,
    _expand_twoar,
    _expand_vector,
    measure_morphism_width,
    resolve_label_side,
)
from diagc.geometry import Point, ScaleConfig, exact
from diagc.ir import KIND_POS, Arrow, DiagramIR, LabelSide, Node
from diagc.metrics import DEFAULT_METRICS, FontMetrics
from diagc.parser import COMMANDS, Command, Figure

_new = tuple.__new__


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

    def morphism(self, cmd: Command, start: Point, end: Point, placement: str,
                 style: str, text_a: str, text_b: str, label: str) -> None:
        """One positioned arrow drawing both of its node texts.

        An empty style token draws nothing: no arrow, no nodes.
        """
        if style == "":
            return
        dx, dy = end.x - start.x, end.y - start.y
        if dx == 0 and dy == 0:
            raise self.error(f"\\{cmd.kind}: degenerate arrow (zero displacement)")
        self.node(start, text_a)
        self.node(end, text_b)
        side = resolve_label_side(placement, dx, dy)
        if side is LabelSide.ON_LINE and label == "":
            side = LabelSide.NONE
        elif side is LabelSide.NONE and label:
            # only unknown (or missing) placements land here with a label
            self.warn(f"\\{cmd.kind}: unknown placement {placement!r}, label dropped")
        self.arrow(start=start, end=end, style=style, label=label, side=side,
                   kind=KIND_POS, start_text=text_a, end_text=text_b)

    def stub(self, cmd: Command, at: Point, text: str, dx: int, dy: int, style: str,
             to_node: bool) -> None:
        """Boundary stub: one end on a node, the other free at (dx, dy)
        from it; ``to_node`` draws it from the free end to the node."""
        if dx == 0 and dy == 0:
            raise self.error(f"\\{cmd.kind}: degenerate stub (zero extent)")
        free = Point(at.x + dx, at.y + dy)
        self.node(at, text)
        start, end, ends = (free, at, ("", text)) if to_node else (at, free, (text, ""))
        self.arrow(start=start, end=end, style=style, label="", side=LabelSide.NONE,
                   kind=KIND_POS, start_text=ends[0], end_text=ends[1])


def _draw(b: _Builder, cmd: Command, program: tuple, pts: Sequence[Point],
          texts: Sequence[str], part: Command, mask: int = 0,
          stub: Sequence[int] = ()) -> None:
    """Draw each step of ``program`` over nodes at ``pts`` named ``texts``
    with the placements, styles and labels of ``part``."""
    placements, styles, labels = part.placements, part.styles, part.labels
    for step in program:
        if type(step) is _Edge:
            slot, i, j = step
            b.morphism(cmd, pts[i], pts[j], placements[slot], styles[slot],
                       texts[i], texts[j], labels[slot])
        elif mask >> step.bit & 1:
            b.stub(cmd, pts[step.node], texts[step.node], step.dx * stub[0],
                   step.dy * stub[1], step.style, step.to_node)


def _run(b: _Builder, cmd: Command, shape: _Shape, origin: Point, extent: Sequence[int],
         part: Optional[Command] = None,
         texts: Optional[Sequence[str]] = None) -> List[Point]:
    """Place ``shape`` at origin and extent and draw its program with the
    sections of ``part`` (default: the command); returns the node points."""
    dx, dy = extent
    if dx == 0 or dy == 0:
        raise b.error(f"\\{cmd.kind}: {shape.degenerate}")
    x, y = origin
    pts = [Point(x + i * dx, y + j * dy) for i, j in shape.lattice]
    part = part or cmd
    # an \iiixii stub has no height
    _draw(b, cmd, shape.program, pts, texts or part.nodes, part, cmd.mask, (*cmd.stub, 0))
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
    _draw(b, cmd, _CONNECTORS, pts, cmd.nodes + inner.nodes, connectors)
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
    _draw(b, cmd, _TRIDENT, pts, cmd.nodes + trident.nodes, trident)


def _expand_morphism(b: _Builder, cmd: Command) -> None:
    (x, y), (dx, dy) = cmd.origin, cmd.extent
    b.morphism(cmd, cmd.origin, Point(x + dx, y + dy), cmd.placements,
               cmd.styles[0], cmd.nodes[0], cmd.nodes[1], cmd.labels[0])


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
