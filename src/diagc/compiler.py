"""Front-to-back compilation: source text to rendered figures.

``compile_source`` parses and expands each figure; expansion keeps each
node once, and each ``\\place`` node apart for the token stream.
``render_figure`` lays a figure out once, with the metrics it was
expanded with, and hands the layout to the SVG or TikZ printer; the
Xy-pic token stream and the IR text need no layout.  TikZ places and
pads its labels itself and has no canvas box, so its layout is ends
only: a full layout that placed no label and kept no box, with the same
node centres, clipped ends and errors as SVG's.  Layout is exact
integers, and so is the gap of SVG's double shaft, so an arrow of any
length draws.  A render error is placed by ``position_of`` at the
command that drew the node or arrow at fault, or else at the figure,
as it is in a figure built by hand around an IR from ``parse_ir``,
which has no ``starts``.

Layout, the printers and the IR text load on first use: each is a
stand-in here until its first call imports its module and puts the stage
in its place, so an Xy-pic run loads no layout, styles, SVG, TikZ or IR
text, and an SVG run no TikZ, Xy-pic or IR text.

The records made for every figure skip a named tuple's Python-level
``__new__``: ``compile_source`` builds each ``CompiledFigure`` by
``tuple.__new__`` (``geometry._new``), as the parser builds each
``Figure``, expansion each ``DiagramIR``, ``Node`` and ``Arrow``, and
``parse_ir`` the records it reads.  The token stream prints an IR of
the ``placed`` nodes and the figure's arrows and scale, built the same
way rather than by ``_replace``.
"""
from __future__ import annotations

from bisect import bisect_right
from importlib import import_module
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .diagnostics import Diagnostic, LayoutError, RenderError
from .expand import expand_figure
from .geometry import MAX_DIGITS, ScaleConfig, _new
from .ir import DiagramIR, Node
from .metrics import DEFAULT_METRICS, FontMetrics
from .parser import parse_source

# each output format and the extension of its files
FORMATS = {"svg": ".svg", "tikz": ".tex", "xypic": ".xy", "ir": ".ir"}


def _on_first_use(home: str, name: str):
    """A stand-in for stage ``name`` of module ``home``: its first call
    puts the stage in its place, unless a patch has taken that place or
    the module's own attribute is a patch (a tracer's wrapper, say)."""
    module = f"{__package__}.{home}"

    def load(*args, **kwargs):
        stage = getattr(import_module(module), name)
        if globals()[name] is load and stage.__module__ == module:
            globals()[name] = stage
        return stage(*args, **kwargs)

    return load


# the stages that only some formats run, each imported when first called
emit_ir = _on_first_use("irtext", "emit_ir")
layout_diagram = _on_first_use("layout", "layout_diagram")
render_svg = _on_first_use("svg", "render_svg")
render_tikz = _on_first_use("tikz", "render_tikz")
render_xypic = _on_first_use("xypic", "render_xypic")


class CompiledFigure(NamedTuple):
    ir: DiagramIR        # each node once
    placed: Sequence[Node]  # every \place node; the token stream prints each
    warnings: List[Diagnostic]
    line: int            # of the figure's \bfig, or of its first command
    col: int
    filename: str
    metrics: FontMetrics  # the widths it was expanded with, and is laid out with
    # per command, in source order: its (line, col), made when read from
    # a parsed figure's Positions, and the first seq it draws; empty in a
    # figure built by hand around an IR from parse_ir
    positions: Sequence[Tuple[int, int]] = ()
    starts: Sequence[int] = ()

    def position_of(self, seq: Optional[int]) -> Tuple[int, int]:
        """The (line, col) of the command that drew node or arrow ``seq``;
        the figure's own where ``seq`` is None or it has no ``starts``."""
        if seq is None or not self.starts:
            return self.line, self.col
        return self.positions[bisect_right(self.starts, seq) - 1]


def compile_source(
    text: str,
    filename: str = "<input>",
    cfg: Optional[ScaleConfig] = None,
    metrics: Optional[FontMetrics] = None,
) -> List[CompiledFigure]:
    """Parse and expand every figure in a source text; a figure that draws
    nothing is a LayoutError at its ``\\bfig`` (or first command), and a
    ``cfg`` that ``ScaleConfig.checked`` rejects is a ValueError."""
    if cfg is not None:
        cfg = cfg.checked()
    metrics = metrics or DEFAULT_METRICS
    figures = parse_source(text, filename)
    out: List[CompiledFigure] = []
    for figure in figures:
        starts: List[int] = []
        placed: List[Node] = []
        ir, warnings = expand_figure(figure, cfg, metrics, filename, starts, placed)
        if not ir.nodes and not ir.arrows:
            raise LayoutError(Diagnostic("error", "empty diagram: nothing to draw",
                                         filename, figure.line, figure.col))
        out.append(_new(CompiledFigure, (ir, tuple(placed), warnings, figure.line, figure.col,
                                         filename, metrics, figure.positions, starts)))
    return out


def _first_too_long(ir: DiagramIR) -> Optional[int]:
    """The seq of the first node or arrow with a coordinate of more than
    MAX_DIGITS digits; None where only the scale makes a number that long."""
    big = 10 ** MAX_DIGITS
    ends = [(node.seq, node.anchor) for node in ir.nodes]
    ends += [(arrow.seq, end) for arrow in ir.arrows for end in (arrow.start, arrow.end)]
    return min((seq for seq, (x, y) in ends if max(abs(x), abs(y)) >= big), default=None)


def render_figure(
    figure: CompiledFigure,
    fmt: str,
    warnings: Optional[List[str]] = None,
) -> str:
    """Render one compiled figure in the requested format; a layout error,
    SVG text that XML cannot carry, or a number of more digits than
    ``str`` writes names the file, line and column of the command that
    drew the node or arrow at fault, or else of the figure."""
    try:
        if fmt == "xypic":
            ir = figure.ir  # printed with every placed node
            return render_xypic(_new(DiagramIR, (figure.placed, ir.arrows, ir.scale)))
        if fmt == "ir":
            return emit_ir(figure.ir)
        if fmt != "svg" and fmt != "tikz":
            raise ValueError(f"unknown format {fmt!r}")
        # the warning list goes third, by position: perfbench/tracing.py counts args[2]
        lay = layout_diagram(figure.ir, figure.metrics, ends_only=fmt == "tikz")
        printer = render_svg if fmt == "svg" else render_tikz
        return printer(lay, figure.ir.scale, warnings)
    except (LayoutError, RenderError) as exc:
        error = exc
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        error = RenderError(Diagnostic(
            "error", f"number too long to write: more than {MAX_DIGITS} digits"),
            _first_too_long(figure.ir))
    line, col = figure.position_of(error.seq)
    raise type(error)(Diagnostic("error", error.diagnostic.message, figure.filename,
                                 line, col), error.seq) from None
