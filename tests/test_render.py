"""Backends: SVG structure, token-stream templates, TikZ, IR round-trip."""
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree

import pytest

import diagc.metrics
from diagc import (
    CompiledFigure,
    LabelSide,
    LayoutError,
    ScaleConfig,
    compile_source,
    emit_ir,
    layout_diagram,
    merge_duplicate_nodes,
    parse_ir,
    render_figure,
    render_svg,
    render_tikz,
    render_xypic,
)
from diagc.cli import main
from diagc.diagnostics import RenderError
from diagc.geometry import decimal_base
from diagc.styles import STYLES, style_of
from opcode_count import opcodes
from test_layout import _grid
from test_properties import CORPUS


def _one(source, **kw):
    figures = compile_source(source, **kw)
    assert len(figures) == 1
    return figures[0]


def _printed(printer, ir, warnings=None):
    """``ir`` laid out, then printed by ``render_svg`` or ``render_tikz``."""
    return printer(layout_diagram(ir), ir.scale, warnings)


GEOMETRIC_ATTRS = {
    "x", "y", "x1", "y1", "x2", "y2", "width", "height", "font-size",
    "refX", "refY", "markerWidth", "markerHeight", "stroke-width",
    "viewBox", "stroke-dasharray", "d",
}

_ATTR_RE = re.compile(r'([\w-]+)="([^"]*)"')
_NUM_RE = re.compile(r"-?\d+(?:\.\d+)?")


def geom_numbers(svg):
    """(skeleton, numbers): geometric attribute values masked and listed."""
    numbers = []

    def mask(match):
        name, value = match.group(1), match.group(2)
        if name not in GEOMETRIC_ATTRS:
            return match.group(0)
        numbers.extend(Fraction(v) for v in _NUM_RE.findall(value))
        return f'{name}="{_NUM_RE.sub("#", value)}"'

    return _ATTR_RE.sub(mask, svg), numbers


def test_svg_square_structure():
    svg = render_figure(_one("\\square[A`B`C`D;f`g`h`k]"), "svg")
    assert svg.count('class="node"') == 4
    assert svg.count('marker-end="url') == 4
    assert svg.count('class="label"') == 4
    assert svg.startswith('<?xml version="1.0"')


def test_svg_two_parallel_lines_50_centiem_apart():
    svg = render_figure(_one("\\two"), "svg")
    ys = [Fraction(m) for m in re.findall(r'y1="([-0-9.]+)"', svg)]
    assert len(ys) == 2
    # 50 centi-em at 10pt em, scale 1: 5 px
    assert abs(ys[0] - ys[1]) == Fraction(5)


def test_svg_empty_diagram_errors():
    with pytest.raises(LayoutError, match="empty"):
        render_figure(_one("\\scalefactor{2}"), "svg")


def test_an_unknown_format_is_a_value_error():
    with pytest.raises(ValueError, match="^unknown format 'png'$"):
        render_figure(_one("\\square[A`B`C`D;f`g`h`k]"), "png")


@pytest.mark.parametrize("fmt", ["svg", "tikz"])
def test_layout_errors_name_the_figure_in_the_library(fmt):
    # the second arrow is 1 centi-em long, inside the boxes of its nodes:
    # the error names the command that drew it
    fig = _one("\\morphism(0,0)[A`B;f]\n\\morphism(0,0)<1,0>[A`B;g]\n", filename="ov.dg")
    with pytest.raises(LayoutError) as caught:
        render_figure(fig, fmt)
    assert str(caught.value) == (
        "ov.dg:2:1: error: overlapping objects: arrow fully swallowed by its endpoints")
    assert render_figure(fig, "xypic")


SWALLOWED = "\\morphism(0,0)<1,0>[A`B;g]"   # its arrow lies inside its nodes' boxes


@pytest.mark.parametrize("source, where", [
    # commands that draw nothing come before the one at fault
    (f"\\scalefactor{{2}}\n\\morphism(0,0)[A`B;f]\n{SWALLOWED}\n", "3:1"),
    (f"\\morphism(0,0)[A`B;f]\n\\scalefactor{{2}}\n  {SWALLOWED}\n", "3:3"),
    (f"\\morphism(0,0)//[A`B;f]\n\\scalefactor{{2}}\n{SWALLOWED}\n", "3:1"),
    # the command at fault comes first in its figure, and others follow
    (f"%\n\\bfig\n{SWALLOWED}\n\\morphism(0,0)[A`B;f]\n\\efig\n", "3:1"),
])
def test_layout_errors_name_the_command_that_drew_the_arrow(source, where):
    fig = _one(source, filename="ov.dg")
    with pytest.raises(LayoutError) as caught:
        render_figure(fig, "svg")
    assert str(caught.value).startswith(f"ov.dg:{where}: error: overlapping objects")


@pytest.mark.parametrize("style, label, fmt, error", [
    (">", "f", "svg", LayoutError),      # the label's offset from the line
    (">", "f", "tikz", LayoutError),
    ("=>", "", "svg", RenderError),      # the gap between the two lines
])
def test_an_arrow_too_long_for_a_float_direction_names_its_command(style, label, fmt, error):
    source = f"\\morphism(0,0)[A`B;f]\n  \\morphism(0,0)/{style}/<{'9' * 400},1>[C`D;{label}]\n"
    fig = _one(source, filename="big.dg")
    with pytest.raises(error) as caught:
        render_figure(fig, fmt)
    assert str(caught.value) == (
        "big.dg:2:3: error: arrow too long: its direction overflows a float")
    assert caught.value.seq == fig.ir.arrows[1].seq


def test_layout_errors_of_an_ir_read_back_name_the_figure():
    # an IR read back holds no command positions: the figure's is named
    fig = _one(f"\\morphism(0,0)[A`B;f]\n{SWALLOWED}\n", filename="ov.dg")
    ir = parse_ir(emit_ir(fig.ir))
    read_back = CompiledFigure(ir, ir, [], 4, 2, "ov.ir", fig.metrics)
    with pytest.raises(LayoutError) as caught:
        render_figure(read_back, "svg")
    assert str(caught.value).startswith("ov.ir:4:2: error: overlapping objects")


def test_layout_runs_once_per_render_and_printers_take_warnings_third(monkeypatch):
    # wrap each stage wherever a diagc module refers to it, as
    # perfbench/tracing.py does, which reads the warnings as args[2]
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, args, kwargs))
            return fn(*args, **kwargs)
        return wrapped

    for attr in ("layout_diagram", "render_svg", "render_tikz", "render_xypic", "emit_ir"):
        original = getattr(diagc, attr)
        wrapper = spy(attr, original)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "diagc" and getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, wrapper)
    fig = _one("\\square[A`B`C`D;f`g`h`k]")
    for fmt, stage in [("svg", "render_svg"), ("tikz", "render_tikz"),
                       ("xypic", "render_xypic"), ("ir", "emit_ir")]:
        calls.clear()
        notes = []
        render_figure(fig, fmt, notes)
        if fmt in ("svg", "tikz"):
            assert [name for name, _, _ in calls] == ["layout_diagram", stage]
            _, args, kwargs = calls[1]
            assert len(args) == 3 and args[2] is notes and not kwargs
        else:
            assert [name for name, _, _ in calls] == [stage]


def test_svg_deterministic():
    fig = _one("\\cube[A`B`C`D;f`g`h`k][a`b`c`d;p`q`r`s][w`x`y`z]")
    assert render_figure(fig, "svg") == render_figure(fig, "svg")


def test_svg_raw_style_falls_back_with_warning():
    fig = _one("\\morphism(0,0)|a|/{@{>}@/^1em/}/<500,0>[A`B;f]")
    notes = []
    render_figure(fig, "svg", notes)
    assert notes and "solid" in notes[0]
    # each arrow drawn in an unknown style warns
    fig = _one("\\square/@{>}`@{>}`>`@{>}/[A`B`C`D;f`g`h`k]")
    notes = []
    render_figure(fig, "svg", notes)
    assert notes == ["style '@{>}' not supported by the SVG backend; drawn as a solid arrow"] * 3


@pytest.mark.parametrize("fmt, backend", [("svg", "SVG"), ("tikz", "TikZ")])
def test_each_arrow_in_an_unsupported_style_warns(fmt, backend):
    # two arrows in one unsupported style and two in one the table has: a
    # render keeps a style's row only for a token it can draw
    fig = _one("\\morphism(0,0)/@{>}/<500,0>[A`B;f]\n"
               "\\morphism(0,500)/-->/<500,0>[C`D;g]\n"
               "\\morphism(0,1000)/@{>}/<500,0>[E`F;h]\n"
               "\\morphism(0,1500)/-->/<500,0>[G`H;k]")
    notes = []
    render_figure(fig, fmt, notes)
    assert notes == [f"style '@{{>}}' not supported by the {backend} backend; "
                     "drawn as a solid arrow"] * 2


# characters that XML 1.0 cannot carry, escaped or not, and some that it can
NOT_XML = ["\x00", "\x08", "\x0b", "\x0c", "\x0e", "\x1f", "\ud800", "\udfff", "\ufffe",
           "\uffff"]
XML_CHARS = ["\t", "\x7f", "\x85", "\u2028", "\ud7ff", "\ue000", "\ufffd", "\U0001f600"]


@pytest.mark.parametrize("char", NOT_XML)
@pytest.mark.parametrize("draw, text, where", [
    ("  \\morphism(0,900)[P{c}`Q;f]", "P{c}", "2:3"),           # a node
    ("\\morphism(0,900)|m|[P`Q;f{c}g]", "f{c}g", "2:1"),        # an on-line label
    ("\\to^{{x}}_{{y{c}}}", "y{c}", "2:1"),                     # an inline arrow's second
])
def test_svg_text_that_xml_cannot_carry_is_an_error_at_its_command(char, draw, text, where):
    fig = _one("\\square[A`B`C`D;f`g`h`k]\n" + draw.format(c=char) + "\n\\morphism(0,-900)[R`S;h]",
               filename="x.dg")
    with pytest.raises(RenderError) as caught:
        render_figure(fig, "svg")
    assert str(caught.value) == (f"x.dg:{where}: error: text {text.format(c=char)!r} holds "
                                 f"U+{ord(char):04X}, which SVG (XML 1.0) cannot carry")
    # the other formats keep the text verbatim
    for fmt in ("tikz", "xypic", "ir"):
        assert text.format(c=char) in render_figure(fig, fmt)


def test_svg_text_check_is_the_xml_char_production():
    # each code point at an edge of the ranges of XML 1.0's Char, and
    # every C0 and C1 control
    def is_xml_char(char):
        return (char in "\t\n\r" or " " <= char <= "\ud7ff" or "\ue000" <= char <= "\ufffd"
                or char >= "\U00010000")

    for char in map(chr, [*range(0xA0), *range(0xD7F0, 0xE010), *range(0xFFF0, 0x10010),
                          0x10FFFF]):
        try:
            escaped = diagc.svg._xml_text("a" + char)
        except RenderError:
            assert not is_xml_char(char)
        else:
            assert is_xml_char(char)
            parsed = ElementTree.fromstring(f"<t>{escaped}</t>".encode("utf-8")).text
            assert parsed == "a" + char.replace("\r", "\n")  # XML reads a CR as LF


def test_svg_carries_every_character_that_xml_can():
    text = "".join(XML_CHARS) + "&<>"
    fig = _one(f"\\morphism[A{text}`B;f{text}]")
    root = ElementTree.fromstring(render_figure(fig, "svg").encode("utf-8"))
    assert [e.text for e in root.iter("{http://www.w3.org/2000/svg}text")] == [
        node.text for node in fig.ir.nodes] + [fig.ir.arrows[0].label]


def test_svg_marker_variants():
    fig = _one(
        "\\square|alrb|/>->`->>`<-`-->/[A`B`C`D;f`g`h`k]\n"
        "\\morphism(0,600)|a|/<-</<500,0>[X`Y;u]\n"
        "\\morphism(0,1200)|a|/<<-/<500,0>[P`Q;v]"
    )
    svg = render_figure(fig, "svg")
    for marker in ("dg-head", "dg-head2", "dg-mono", "dg-rmono", "dg-rhead",
                   "dg-rhead2"):
        assert f'id="{marker}"' in svg, marker
    assert "stroke-dasharray" in svg


def test_svg_double_shaft_and_knockout():
    fig = _one("\\morphism(0,0)|m|/=>/<600,0>[A`B;mid]")
    svg = render_figure(fig, "svg")
    # knocked-out double shaft: two spans x two lines, plus the marker line
    assert svg.count("<line") == 5
    assert svg.count('stroke="none"') == 1


def test_svg_builds_only_the_markers_it_uses(monkeypatch):
    built = []
    real = diagc.svg._marker_defs

    def recording(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(diagc.svg, "_marker_defs", recording)
    svg = render_figure(_one("\\square[A`B`C`D;f`g`h`k]"), "svg")
    assert re.findall(r'<marker id="([\w-]+)"', str(built)) == ["dg-head"]
    assert 'marker-end="url(#dg-head)"' in svg


def _factorings(step):
    """Denominators factored, calls of ``decimal_base``, while ``step()`` runs."""
    code = decimal_base.__code__
    count = 0

    def on_call(frame, event, arg):
        nonlocal count
        count += frame.f_code is code

    sys.settrace(on_call)
    try:
        step()
    finally:
        sys.settrace(None)
    return count


@pytest.mark.parametrize("render", [render_svg, render_tikz])
def test_render_factors_its_denominators_once(render):
    # 4x the numbers on the larger grid, the same factorings: one per
    # render, shared by every memo over its denominator
    small, large = _grid(8), _grid(16)
    count = _factorings(lambda: _printed(render, small))
    assert count == _factorings(lambda: _printed(render, large)) == 1


def test_a_double_shaft_factors_once_per_gap_denominator():
    # two diagonal double shafts of one direction share the denominator
    # of their gap's unit vector; an axis-aligned one uses the render's
    fig = _one("\\morphism(0,0)/=>/<600,300>[A`B;]\n\\morphism(0,900)/=>/<600,300>[C`D;]\n"
               "\\morphism(0,1800)/=>/<600,0>[E`F;]")
    lay = layout_diagram(fig.ir)
    assert _factorings(lambda: render_svg(lay, fig.ir.scale)) == 2


_THIRD_SOURCES = {
    "--scale 1/3": ("\\square[A`B`C`D;f`g`h`k]", Fraction(1, 3)),
    "\\scalefactor{1/3}": ("\\scalefactor{1/3}\n\\square[A`B`C`D;f`g`h`k]", 1),
}


@pytest.mark.parametrize("how", sorted(_THIRD_SOURCES))
@pytest.mark.parametrize("render", [render_svg, render_tikz])
def test_non_exact_scale_warns_once_per_render(render, how):
    source, scale = _THIRD_SOURCES[how]
    fig = _one(source, cfg=ScaleConfig(scale=scale))
    notes = []
    out = _printed(render, fig.ir, notes)
    assert len(notes) == 1
    assert "scale 1/3" in notes[0] and "rounded to six places" in notes[0]
    assert out == _printed(render, fig.ir)  # the warning changes no output byte


@pytest.mark.parametrize("render", [render_svg, render_tikz])
def test_exact_scale_is_silent(render):
    notes = []
    _printed(render, _one("\\square[A`B`C`D;f`g`h`k]",
                          cfg=ScaleConfig(scale=Fraction(1, 2))).ir, notes)
    assert notes == []


def test_strict_fails_a_non_exact_scale(tmp_path, capsys):
    src = tmp_path / "s.dg"
    src.write_text("\\square[A`B`C`D;f`g`h`k]\n", encoding="utf-8")
    assert main([str(src), "--scale", "1/3", "-o", str(tmp_path)]) == 0
    assert "rounded to six places" in capsys.readouterr().err
    assert main([str(src), "--scale", "1/3", "--strict", "-o", str(tmp_path)]) == 1
    assert main([str(src), "--scale", "0.5", "--strict", "-o", str(tmp_path)]) == 0


def test_svg_measures_each_text_once(monkeypatch):
    # f labels five arrows, on both the axis-aligned and the general path
    fig = _one(
        "\\square[A`B`C`D;f`f`g`f]\n"
        "\\morphism(0,900)|m|/=>/<600,0>[P`Q;f]\n"
        "\\morphism(0,1500)|x|/>/<600,0>[R`S;none]\n"
        "\\to^{u}_{f}"
    )
    original = diagc.metrics.text_width
    calls = []

    def counting(text, scale, *args):
        calls.append((text, scale))
        return original(text, scale, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("diagc") and getattr(module, "text_width", None) is original:
            monkeypatch.setattr(module, "text_width", counting)
    render_figure(fig, "svg")
    arrows = fig.ir.arrows
    labels = ([a.label for a in arrows if a.label and a.side is not LabelSide.NONE]
              + [a.label2 for a in arrows if a.label2])
    assert len(set(labels)) < len(labels)
    # one layout measures each node text and each distinct label text
    # once, at scale 1; LABEL_SCALE is applied to the measured width
    assert sorted(calls) == sorted([(n.text, 1) for n in fig.ir.nodes]
                                   + [(text, 1) for text in set(labels)])


@pytest.mark.parametrize("render, bound", [(render_svg, 170), (render_tikz, 105)])
def test_printer_cost_per_arrow_is_bounded(render, bound):
    # the printer alone, given the layout; formatting every number anew
    # cost about 476 (SVG) and 273 (TikZ) instructions per arrow, a
    # cached formatter behind a call per coordinate and a style lookup
    # per arrow about 305 and 147, and a memo per axis with one row per
    # style token, so that a common arrow calls no Python code, about
    # 138 and 84
    large = _grid(16)
    lay = layout_diagram(large)
    assert opcodes(lambda: render(lay, large.scale, [])) <= bound * len(large.arrows)


def test_svg_costs_at_most_5x_the_token_stream_on_the_corpus():
    # the SVG printer over the corpus layouts against the Xy-pic token
    # stream of the same figures: about 5.35x with a formatter call per
    # constant length and a factoring per memo, about 4.37x with one
    # Decimals memo per kind over one factoring per render
    figures = [figure for path in sorted(CORPUS.glob("*.dg"))
               for figure in compile_source(path.read_text(encoding="utf-8"), path.name)]
    laid = [(layout_diagram(figure.ir), figure.ir.scale) for figure in figures]
    svg = opcodes(lambda: [render_svg(lay, scale, []) for lay, scale in laid])
    xypic = opcodes(lambda: [render_xypic(figure.raw_ir) for figure in figures])
    assert len(figures) == 29 and svg <= 5.03 * xypic


def test_xypic_cost_per_arrow_is_bounded():
    # the per-kind builders cost about 158 instructions per arrow here,
    # one arrow writer called per line about 126, one f-string per
    # positioned line about 85
    large = _grid(16)
    assert opcodes(lambda: render_xypic(large)) <= 98 * len(large.arrows)


def _fresh_render(source, fmt, scale):
    """The one figure of ``source`` at ``scale``, compiled and printed by a
    new interpreter, which holds nothing an earlier render left."""
    code = ("import sys\nfrom diagc import ScaleConfig, compile_source, render_figure\n"
            "from diagc.geometry import read_positive\n"
            "(fig,) = compile_source(sys.argv[1], cfg=ScaleConfig(read_positive(sys.argv[3], 's')))\n"
            "sys.stdout.write(render_figure(fig, sys.argv[2]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(diagc.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, source, fmt, str(scale)], env=env,
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("fmt", ["svg", "tikz"])
def test_no_memo_outlives_its_render(fmt):
    # one figure printed at 1/3, 1 and 1/3 again in one process: each
    # output is what a fresh process prints at that scale, and each 1/3
    # render warns once
    source = "\\square[A`B`C`D;f`g`h`k]\n\\morphism(0,900)|m|<600,0>[P`Q;f]"
    third = Fraction(1, 3)
    fresh = {k: _fresh_render(source, fmt, k) for k in (1, third)}
    fig = _one(source)
    for k in (third, 1, third):
        notes = []
        at_k = fig._replace(ir=fig.ir._replace(scale=ScaleConfig(scale=k)))
        assert render_figure(at_k, fmt, notes) == fresh[k]
        assert len(notes) == (k == third)
        assert all("rounded to six places" in note for note in notes)


def test_xypic_default_morphism_template():
    out = render_figure(_one("\\morphism[A`B;f]"), "xypic")
    assert out == (
        "\\POS(0,0)*+!!<0ex,.75ex>{A}\\ar@{>}^-{f}"
        " (500,0)*+!!<0ex,.75ex>{B}\n"
    )


def test_xypic_m_placement_empty_label_has_no_modifier():
    out = render_figure(_one("\\morphism(0,0)|m|/>/<500,0>[A`B;]"), "xypic")
    assert out == (
        "\\POS(0,0)*+!!<0ex,.75ex>{A}\\ar@{>}"
        " (500,0)*+!!<0ex,.75ex>{B}\n"
    )


def test_xypic_m_placement_knockout_modifier():
    out = render_figure(_one("\\morphism(0,0)|m|/>/<500,0>[A`B;f]"), "xypic")
    assert "\\ar@{>}|-*+<1pt,4pt>{\\labelstyle f}" in out


def test_xypic_raw_style_passthrough():
    out = render_figure(
        _one("\\morphism(0,0)|a|/{@/^1em/}/<500,0>[A`B;f]"), "xypic"
    )
    assert "\\ar@/^1em/^-{f}" in out


def test_xypic_vector_uses_style_verbatim():
    out = render_figure(_one("\\vector(0,0)/>/<500,0>"), "xypic")
    assert out == "\\POS(0,0)\\ar> (500,0)\n"


def test_xypic_place_lines():
    out = render_figure(_one("\\place(250,250)[X]\n\\place[r](0,0)[Y]"), "xypic")
    assert out == (
        "\\POS(250,250)*+!!<0ex,.75ex>{X}\n"
        "\\POS(0,0)*+!!<0ex,.75ex>!r{Y}\n"
    )


def test_xypic_inline_templates():
    assert render_figure(_one("\\to"), "xypic") == "\\xy\\ar@{>}^{}_{}(200,0) \\endxy\n"
    assert render_figure(_one("\\two"), "xypic") == (
        "\\xy\\ar@{>}@<2.5pt>^{}(200,0)\\ar@{>}@<-2.5pt>_{}(200,0)\\endxy\n"
    )
    assert render_figure(_one("\\three^a|b_c"), "xypic") == (
        "\\xy \\ar@{>}|{b}(300,0) \\ar@{>}@<4.5pt>^{a}(300,0)"
        " \\ar@{>}@<-4.5pt>_{c}(300,0)\\endxy\n"
    )
    assert render_figure(_one("\\twoar(1,1)"), "xypic") == (
        "{\\scalefactor{0.1}\\xy \\ar@{=>}(708,708) \\endxy}\n"
    )


def _two_from_ir(edit):
    """The IR of ``\\two^a_b`` read back after ``edit`` of its dump's lines."""
    return parse_ir("\n".join(edit(emit_ir(_one("\\two^a_b").ir).split("\n"))))


def test_xypic_inline_group_of_any_size_from_ir():
    # a two group read back with one arrow is one group line, not a traceback
    one = _two_from_ir(lambda lines: [l for l in lines if "label={b}" not in l])
    assert render_xypic(one) == "\\xy\\ar@{>}@<2.5pt>^{a}(200,0)\\endxy\n"


@pytest.mark.parametrize("offset, printed", [
    ("1/1073741824", "0.000000000931322574615478515625"),
    ("1/3", "0.333333"),
    ("-5/2", "-2.5"),
])
def test_xypic_offset_is_a_decimal(offset, printed):
    # exact where the decimal ends, six places where it does not, as SVG
    # and TikZ print; never the exponent form TeX cannot read
    ir = _two_from_ir(lambda lines: [l.replace("offset=5/2", f"offset={offset}") for l in lines])
    assert f"\\ar@{{>}}@<{printed}pt>^{{a}}(200,0)" in render_xypic(ir)
    # only an IR read back gives a positioned arrow an offset
    ir = _two_from_ir(lambda lines: [l.replace("offset=5/2", f"offset={offset}")
                                     .replace("kind=two", "kind=pos").replace("start={}", "start={A}")
                                     for l in lines if "label={b}" not in l])
    assert render_xypic(ir) == (f"\\POS(0,0)*+!!<0ex,.75ex>{{A}}\\ar@{{>}}@<{printed}pt>^-{{a}}"
                                " (200,0)*+!!<0ex,.75ex>{}\n")


def test_xypic_scale_prefix():
    out = render_figure(_one("\\scalefactor{0.5}\n\\to"), "xypic")
    assert out.splitlines()[0] == "\\scalefactor{1/2}"


def test_xypic_grid_stub_has_empty_free_end():
    out = render_figure(
        _one("\\iiixii{1}<400>[A`B`C`D`E`F;f`g`h`i`j`k`l]"), "xypic"
    )
    assert "\\POS(0,500)*+!!<0ex,.75ex>{}\\ar@{>} (400,500)*+!!<0ex,.75ex>{A}" in out


def test_tikz_square_structure():
    tikz = render_figure(_one("\\square[A`B`C`D;f`g`h`k]"), "tikz")
    assert tikz.count("\\node") == 4
    assert tikz.count("\\draw") == 4
    assert tikz.count("node[") == 4  # labels ride the draws
    assert tikz.startswith("\\begin{tikzpicture}")
    assert tikz.rstrip().endswith("\\end{tikzpicture}")


def test_tikz_style_map():
    fig = _one("\\morphism(0,0)|a|/-->/<500,0>[A`B;f]")
    assert "dashed" in render_figure(fig, "tikz")
    fig = _one("\\morphism(0,0)|a|/=>/<500,0>[A`B;f]")
    assert "double" in render_figure(fig, "tikz")
    notes = []
    fig = _one("\\morphism(0,0)|a|/{@{>}}/<500,0>[A`B;f]")
    render_figure(fig, "tikz", notes)
    assert notes


_SHAFT = '<line x1="13" y1="13.5" x2="52" y2="13.5" stroke="black" stroke-width="0.5"'
_DOUBLE = [f'<line x1="13" y1="{y}" x2="52" y2="{y}" stroke="black" stroke-width="0.5"/>'
           for y in (13, 14)]
_HEAD = ' marker-end="url(#dg-head)"/>'


# source spelling -> (SVG <line> elements, TikZ \draw options, whether it
# falls back with a warning), as drawn for a 500-long horizontal \morphism
@pytest.mark.parametrize("spelling, lines, options, fallback", [
    (">", [_SHAFT + _HEAD], "->", False),
    ("->", [_SHAFT + _HEAD], "->", False),
    (">->", [_SHAFT + ' marker-start="url(#dg-mono)"' + _HEAD], ">->", False),
    ("->>", [_SHAFT + ' marker-end="url(#dg-head2)"/>'], "->>", False),
    ("<-", [_SHAFT + ' marker-start="url(#dg-rhead)"/>'], "<-", False),
    ("<-<", [_SHAFT + ' marker-start="url(#dg-rhead)" marker-end="url(#dg-rmono)"/>'],
     "<-<", False),
    ("<<-", [_SHAFT + ' marker-start="url(#dg-rhead2)"/>'], "<<-", False),
    ("=", _DOUBLE, "double", False),
    ("=>", _DOUBLE + ['<line x1="13" y1="13.5" x2="52" y2="13.5" stroke="none"' + _HEAD],
     "double, ->", False),
    ("-->", [_SHAFT + ' stroke-dasharray="2 1.2"' + _HEAD], "->, dashed", False),
    (".>", [_SHAFT + ' stroke-dasharray="0.2 1" stroke-linecap="round"' + _HEAD],
     "->, dotted", False),
    ("(->", [_SHAFT + ' marker-start="url(#dg-hook)"' + _HEAD], "right hook->", False),
    (" >->", [_SHAFT + ' marker-start="url(#dg-mono)"' + _HEAD], ">->", False),
    ("<-< ", [_SHAFT + ' marker-start="url(#dg-rhead)" marker-end="url(#dg-rmono)"/>'],
     "<-<", False),
    ("{@{>}}", [_SHAFT + _HEAD], "->", True),
    ("?!?", [_SHAFT + _HEAD], "->", True),
])
def test_every_style_draws_its_lines_and_options(spelling, lines, options, fallback):
    ir = _one(f"\\morphism(0,0)|a|/{spelling}/<500,0>[A`B;f]").ir
    svg_notes, tikz_notes = [], []
    svg = _printed(render_svg, ir, svg_notes)
    tikz = _printed(render_tikz, ir, tikz_notes)
    assert re.findall(r"<line [^>]*/>", svg) == lines
    assert [line for line in tikz.splitlines() if line.startswith("\\draw")] == [
        f"\\draw[{options}] (0.55em,0em) -- node[above] {{$\\scriptstyle f$}} (4.45em,0em);"
    ]
    token = ir.arrows[0].style
    assert svg_notes == ([f"style {token!r} not supported by the SVG backend; drawn as a "
                          "solid arrow"] if fallback else [])
    assert tikz_notes == ([f"style {token!r} not supported by the TikZ backend; drawn as a "
                           "solid arrow"] if fallback else [])


def test_style_decoding_table():
    assert len(STYLES) == 12
    assert style_of(">", "SVG", None) == ("solid", "", "dg-head", "->")
    # alignment spaces are stripped before the lookup
    assert style_of(" >->", "SVG", None) is STYLES[">->"]
    assert style_of("<-< ", "SVG", None) is STYLES["<-<"]
    assert STYLES["<-<"][1:3] == ("dg-rhead", "dg-rmono")
    assert STYLES["<<-"].marker_start == "dg-rhead2"
    assert STYLES["="] == ("double", "", "", "double")
    assert STYLES[".>"].body == "dotted"
    assert STYLES["(->"][1:] == ("dg-hook", "dg-head", "right hook->")
    # raw '@...' material and unknown tokens fall back to the solid row
    for raw in ("@/^1em/", "?!?", ""):
        notes = []
        assert style_of(raw, "TikZ", notes) is STYLES[">"]
        assert notes == [f"style {raw!r} not supported by the TikZ backend; "
                         "drawn as a solid arrow"]


def test_style_markers_and_warnings_match_their_readers():
    named = {m for style in STYLES.values() for m in style[1:3]} - {""}
    assert named == set(diagc.svg._MARKERS)
    # perfbench/tracing.py counts fallbacks by these phrases
    for backend in ("SVG", "TikZ"):
        notes = []
        style_of("@{>}", backend, notes)
        assert f"not supported by the {backend} backend" in notes[0]


def test_ir_round_trip_fixpoint():
    fig = _one(
        "\\square[A`B`C`D;f`g`h`k]\n\\place[l](9,9)[Z]\n\\to^{u}_{v}\n\\twoar(2,1)"
    )
    text = emit_ir(fig.ir)
    again = parse_ir(text)
    assert again == fig.ir
    assert emit_ir(again) == text


def test_ir_emit_stable_across_recompiles():
    src = "\\pullback[A`B`C`D;f`g`h`k][E;p`q`r]\n\\two^{a}_{b}"
    first = emit_ir(_one(src).ir)
    second = emit_ir(_one(src).ir)
    assert first == second


def test_ir_merged_vs_unmerged_differ_only_in_nodes():
    fig = _one("\\square[A`B`C`D;f`g`h`k]")
    assert fig.ir.arrows == fig.raw_ir.arrows
    assert len(fig.ir.nodes) < len(fig.raw_ir.nodes)
    remerged = merge_duplicate_nodes(fig.raw_ir)
    assert remerged == fig.ir


def test_cross_backend_consistency_counts():
    fig = _one("\\pullback[A`B`C`D;f`g`h`k][E;p`q`r]")
    svg = render_figure(fig, "svg")
    tikz = render_figure(fig, "tikz")
    ir_text = render_figure(fig, "ir")
    assert svg.count('class="node"') == 5
    assert tikz.count("\\node") == 5
    assert ir_text.count("\nnode ") == 5
    assert tikz.count("\\draw") == 7
    assert ir_text.count("\narrow ") == 7


def test_svg_scaling_is_exact():
    base_cfg = ScaleConfig()
    double_cfg = ScaleConfig(scale=2)
    src = "\\pullback[A`B`C`D;f`g`h`k][E;p`q`r]"
    svg1 = render_figure(_one(src, cfg=base_cfg), "svg")
    svg2 = render_figure(_one(src, cfg=double_cfg), "svg")
    skeleton1, nums1 = geom_numbers(svg1)
    skeleton2, nums2 = geom_numbers(svg2)
    assert skeleton1 == skeleton2
    assert len(nums1) == len(nums2)
    assert all(b == 2 * a for a, b in zip(nums1, nums2))


_CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.dg"))
_GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "fmt, inputs, golden, scale",
    [
        ("svg", _CORPUS, "svg", "1"),
        ("tikz", _CORPUS, "tikz", "1"),
        # 1/3 has a denominator outside 2^a 5^b: the six-place fallback
        ("svg", [p for p in _CORPUS if p.stem == "25_kitchen_sink"], "scale_1_3", "1/3"),
        ("tikz", [p for p in _CORPUS if p.stem == "25_kitchen_sink"], "scale_1_3", "1/3"),
    ],
)
def test_svg_and_tikz_goldens(fmt, inputs, golden, scale):
    assert inputs
    argv = [str(p) for p in inputs] + [
        "--format", fmt, "--scale", scale, "--check", str(_GOLDEN / golden),
    ]
    assert main(argv) == 0
