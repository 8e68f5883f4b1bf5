"""Front-to-back compilation: source text to rendered figures."""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .diagnostics import Diagnostic, LayoutError
from .expand import expand_figure
from .geometry import ScaleConfig
from .ir import DiagramIR, merge_duplicate_nodes
from .irtext import emit_ir
from .metrics import DEFAULT_METRICS, FontMetrics
from .parser import parse_source
from .svg import render_svg
from .tikz import render_tikz
from .xypic import render_xypic

FORMATS = ("svg", "tikz", "xypic", "ir")


@dataclass
class CompiledFigure:
    ir: DiagramIR        # duplicate corner nodes merged
    raw_ir: DiagramIR    # as expanded; the token backend wants overdraws
    warnings: List[Diagnostic]
    line: int            # of the figure's \bfig, or of its first command
    col: int


def compile_source(
    text: str,
    filename: str = "<input>",
    cfg: Optional[ScaleConfig] = None,
    metrics: Optional[FontMetrics] = None,
) -> List[CompiledFigure]:
    """Parse and expand every figure in a source text; a figure that draws
    nothing is a LayoutError at its ``\\bfig`` (or first command)."""
    figures = parse_source(text, filename)
    out: List[CompiledFigure] = []
    for figure in figures:
        raw_ir, warnings = expand_figure(figure, cfg, metrics, filename)
        if not raw_ir.nodes and not raw_ir.arrows:
            raise LayoutError(Diagnostic("error", "empty diagram: nothing to draw",
                                         filename, figure.line, figure.col))
        merge_notes: List[str] = []
        ir = merge_duplicate_nodes(raw_ir, merge_notes)
        warnings = list(warnings) + [
            Diagnostic("warning", note, filename, figure.line, figure.col)
            for note in merge_notes
        ]
        out.append(CompiledFigure(ir, raw_ir, warnings, figure.line, figure.col))
    return out


def render_figure(
    figure: CompiledFigure,
    fmt: str,
    metrics: Optional[FontMetrics] = None,
    warnings: Optional[List[str]] = None,
) -> str:
    """Render one compiled figure in the requested format."""
    metrics = metrics or DEFAULT_METRICS
    if fmt == "svg":
        return render_svg(figure.ir, metrics, warnings)
    if fmt == "tikz":
        return render_tikz(figure.ir, metrics, warnings)
    if fmt == "xypic":
        return render_xypic(figure.raw_ir)
    if fmt == "ir":
        return emit_ir(figure.ir)
    raise ValueError(f"unknown format {fmt!r}")
