"""diagc: compiler for a TeX-flavored commutative-diagram command language.

Pipeline: parse_source -> expand_figure, which keeps each node once ->
layout_diagram -> render_svg / render_tikz, or, with no layout,
render_xypic / emit_ir.  compile_source runs the front half per figure
and render_figure the back half.  merge_duplicate_nodes applies
expansion's rule to an IR built by hand.
"""

from .compiler import CompiledFigure, compile_source, render_figure
from .diagnostics import Diagnostic, DiagramError, ExpandError, LayoutError, ParseError
from .expand import (expand_figure, measure_morphism_width, merge_duplicate_nodes,
                     resolve_label_side, two_cell_endpoint)
from .geometry import Point, ScaleConfig, ratchet, tex_div
from .ir import Arrow, DiagramIR, LabelSide, Node
from .irtext import emit_ir, parse_ir
from .layout import layout_diagram
from .metrics import DEFAULT_METRICS, FontMetrics, load_metrics, text_width
from .parser import Command, Figure, format_command, parse_command, parse_source
from .svg import render_svg
from .tikz import render_tikz
from .xypic import render_xypic

__version__ = "0.1.0"

__all__ = [
    "Arrow",
    "Command",
    "CompiledFigure",
    "DEFAULT_METRICS",
    "DiagramError",
    "DiagramIR",
    "Diagnostic",
    "ExpandError",
    "Figure",
    "FontMetrics",
    "LabelSide",
    "LayoutError",
    "Node",
    "ParseError",
    "Point",
    "ScaleConfig",
    "compile_source",
    "emit_ir",
    "expand_figure",
    "format_command",
    "layout_diagram",
    "load_metrics",
    "measure_morphism_width",
    "merge_duplicate_nodes",
    "parse_command",
    "parse_ir",
    "parse_source",
    "ratchet",
    "render_figure",
    "render_svg",
    "render_tikz",
    "render_xypic",
    "resolve_label_side",
    "tex_div",
    "text_width",
    "two_cell_endpoint",
]
