"""Front-to-back compilation: source text to rendered figures.

``compile_source`` parses, expands and merges each figure.
``render_figure`` lays a figure out once, with the metrics it was
expanded with, and hands the layout to the SVG or TikZ printer; the
Xy-pic token stream and the IR text need no layout.
"""
from __future__ import annotations

from bisect import bisect_right
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .diagnostics import Diagnostic, LayoutError, RenderError
from .expand import expand_figure
from .geometry import ScaleConfig
from .ir import DiagramIR, merge_duplicate_nodes
from .irtext import emit_ir
from .layout import layout_diagram
from .metrics import DEFAULT_METRICS, FontMetrics
from .parser import parse_source
from .svg import render_svg
from .tikz import render_tikz
from .xypic import render_xypic

# each output format and the extension of its files
FORMATS = {"svg": ".svg", "tikz": ".tex", "xypic": ".xy", "ir": ".ir"}


class CompiledFigure(NamedTuple):
    ir: DiagramIR        # duplicate corner nodes merged
    raw_ir: DiagramIR    # as expanded; the token backend wants overdraws
    warnings: List[Diagnostic]
    line: int            # of the figure's \bfig, or of its first command
    col: int
    filename: str
    metrics: FontMetrics  # the widths it was expanded with, and is laid out with
    # per command, in source order: its (line, col) and the first seq it
    # draws; empty in a figure built by hand around an IR from parse_ir
    positions: Sequence[Tuple[int, int]] = ()
    starts: Sequence[int] = ()


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
        raw_ir, warnings = expand_figure(figure, cfg, metrics, filename, starts)
        if not raw_ir.nodes and not raw_ir.arrows:
            raise LayoutError(Diagnostic("error", "empty diagram: nothing to draw",
                                         filename, figure.line, figure.col))
        # each conflict warning names the command that drew its later node
        merge_notes: List[str] = []
        merge_seqs: List[int] = []
        ir = merge_duplicate_nodes(raw_ir, merge_notes, merge_seqs)
        warnings = list(warnings) + [
            Diagnostic("warning", note, filename,
                       *figure.positions[bisect_right(starts, seq) - 1])
            for note, seq in zip(merge_notes, merge_seqs)
        ]
        out.append(CompiledFigure(ir, raw_ir, warnings, figure.line, figure.col,
                                  filename, metrics, figure.positions, starts))
    return out


def render_figure(
    figure: CompiledFigure,
    fmt: str,
    warnings: Optional[List[str]] = None,
) -> str:
    """Render one compiled figure in the requested format; a layout error,
    or SVG text that XML cannot carry, names the file, line and column of
    the command that drew the node or arrow at fault, or else of the
    figure."""
    if fmt == "xypic":
        return render_xypic(figure.raw_ir)
    if fmt == "ir":
        return emit_ir(figure.ir)
    if fmt != "svg" and fmt != "tikz":
        raise ValueError(f"unknown format {fmt!r}")
    # the warning list goes third, by position: perfbench/tracing.py counts args[2]
    printer = render_svg if fmt == "svg" else render_tikz
    try:
        return printer(layout_diagram(figure.ir, figure.metrics), figure.ir.scale, warnings)
    except (LayoutError, RenderError) as exc:
        line, col = figure.line, figure.col
        if exc.seq is not None and figure.starts:
            line, col = figure.positions[bisect_right(figure.starts, exc.seq) - 1]
        raise type(exc)(Diagnostic("error", exc.diagnostic.message, figure.filename,
                                   line, col), exc.seq) from None
