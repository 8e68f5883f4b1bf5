"""diagc: compiler for a TeX-flavored commutative-diagram command language.

Pipeline: parse_source -> expand_figure, which keeps each node once ->
layout_diagram -> render_svg / render_tikz, or, with no layout,
render_xypic / emit_ir.  compile_source runs the front half per figure
and render_figure the back half.  merge_duplicate_nodes applies
expansion's rule to an IR built by hand.

Each public name and submodule loads on first use: ``import diagc`` runs
no stage module, and reading ``diagc.render_svg`` imports ``diagc.svg``,
with the layout and styles it prints, then keeps the function here.
"""
from importlib import import_module

__version__ = "0.1.0"

# each public name, in the order of __all__, and the module it lives in
_HOMES = {
    "Arrow": "ir", "Command": "parser", "CompiledFigure": "compiler",
    "DEFAULT_METRICS": "metrics", "DiagramError": "diagnostics", "DiagramIR": "ir",
    "Diagnostic": "diagnostics", "ExpandError": "diagnostics", "Figure": "parser",
    "FontMetrics": "metrics", "LabelSide": "ir", "LayoutError": "diagnostics",
    "Node": "ir", "ParseError": "diagnostics", "Point": "geometry",
    "ScaleConfig": "geometry", "compile_source": "compiler", "emit_ir": "irtext",
    "expand_figure": "expand", "format_command": "parser", "layout_diagram": "layout",
    "load_metrics": "metrics", "measure_morphism_width": "expand",
    "merge_duplicate_nodes": "expand", "parse_command": "parser", "parse_ir": "irtext",
    "parse_source": "parser", "ratchet": "geometry", "render_figure": "compiler",
    "render_svg": "svg", "render_tikz": "tikz", "render_xypic": "xypic",
    "resolve_label_side": "expand", "tex_div": "geometry", "text_width": "metrics",
    "two_cell_endpoint": "expand",
}
__all__ = list(_HOMES)
# every submodule, each a name of the package once loaded
_MODULES = {*_HOMES.values(), "cli", "lexer", "styles"}


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
