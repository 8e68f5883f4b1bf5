"""IR text: malformed input raises IRSyntaxError; escaped braces round-trip."""
from pathlib import Path

import pytest

from opcode_count import opcodes

from diagc import compile_source, emit_ir, parse_ir
from diagc.irtext import IRSyntaxError

GOOD = emit_ir(compile_source("\\to^{f}_{g}\n\\place(0,0)[X]")[0].ir)
NODE = next(line for line in GOOD.splitlines() if line.startswith("node "))
ARROW = next(line for line in GOOD.splitlines() if line.startswith("arrow "))


def _with(old, new):
    assert old in GOOD
    return GOOD.replace(old, new, 1)


@pytest.mark.parametrize("text, line", [
    (_with(NODE, NODE.replace(" x=0", "")), NODE.replace(" x=0", "")),
    (_with(NODE, NODE.replace("y=0", "y=zero")), NODE.replace("y=0", "y=zero")),
    (_with(ARROW, ARROW.replace("side=above", "side=left")),
     ARROW.replace("side=above", "side=left")),
    (_with(ARROW, ARROW.replace("offset=0", "offset=1/0")),
     ARROW.replace("offset=0", "offset=1/0")),
    (_with(ARROW, ARROW.replace("lscale=1", "lscale=x")),
     ARROW.replace("lscale=1", "lscale=x")),
    (_with("em 10\n", "em ten\n"), "em ten"),
    (_with("scale 1\n", "scale 0\n"), "scale"),
    (_with("em 10\n", ""), "'em'"),
    (_with(NODE, NODE.replace("text={X}", "text={X")), NODE.replace("text={X}", "text={X")),
    (_with(NODE, NODE + " junk"), NODE + " junk"),
    (_with(NODE, NODE.replace(" text=", " bogus=1 text=")), NODE.replace(" text=", " bogus=1 text=")),
    (_with(NODE, NODE.replace("seq=1", "seq=0 seq=1")), NODE.replace("seq=1", "seq=0 seq=1")),
    (_with(NODE, NODE.replace("x=0 y=0", "y=0 x=0")), NODE.replace("x=0 y=0", "y=0 x=0")),
    (_with("em 10\nex-ratio 43/100\n", "ex-ratio 43/100\nem 10\n"), "ex-ratio 43/100"),
    (_with(NODE, NODE + "\n"), repr("")),
    (_with(NODE + "\n" + ARROW, ARROW + "\n" + NODE), NODE),
    (_with(NODE, NODE.replace(" x=0", "  x=0")), NODE.replace(" x=0", "  x=0")),
    (_with(NODE, NODE.replace("align=-", "align=}q")), NODE.replace("align=-", "align=}q")),
    (_with(ARROW, ARROW.replace("kind=to", "kind=bogus")), ARROW.replace("kind=to", "kind=bogus")),
    (_with(NODE, NODE.replace("x=0", "x=00")), NODE.replace("x=0", "x=00")),
    (_with(ARROW, ARROW.replace("lscale=1", "lscale=2/2")), ARROW.replace("lscale=1", "lscale=2/2")),
    (_with("ex-ratio 43/100\n", "ex-ratio -5\n"), "ex-ratio -5"),
    (_with("object-margin 30\n", "object-margin -400\n"), "object-margin -400"),
    (_with(ARROW, ARROW.replace("lscale=1", "lscale=-1")), ARROW.replace("lscale=1", "lscale=-1")),
    (_with(ARROW, ARROW.replace("lscale=1", "lscale=0")), ARROW.replace("lscale=1", "lscale=0")),
], ids=["missing field", "non-integer", "unknown side", "zero denominator",
        "bad fraction", "bad scalar", "non-positive scale", "missing scalar line",
        "unclosed brace", "field without value", "unknown key", "repeated key",
        "swapped fields", "reordered scale lines", "blank line", "node after arrow",
        "double space", "unknown align", "unknown kind", "non-canonical integer",
        "non-canonical fraction", "negative ex-ratio", "negative object-margin",
        "negative lscale", "zero lscale"])
def test_malformed_ir_raises_ir_syntax_error_naming_the_line(text, line):
    with pytest.raises(IRSyntaxError) as info:
        parse_ir(text)
    assert line in str(info.value) or repr(line) in str(info.value)


def test_zero_ex_ratio_and_object_margin_are_in_range():
    text = _with("ex-ratio 43/100\nlabel-scale 7/10\nobject-margin 30\n",
                 "ex-ratio 0\nlabel-scale 7/10\nobject-margin 0\n")
    ir = parse_ir(text)
    assert (ir.scale.ex_ratio, ir.scale.object_margin) == (0, 0)
    assert emit_ir(ir) == text


@pytest.mark.parametrize("source", [
    "\\morphism[a\\}`b;f]",
    "\\place(0,0)[\\{x]",
    "\\morphism[{\\{}`{x\\}};\\}]",
])
def test_escaped_braces_round_trip(source):
    ir = compile_source(source)[0].ir
    dump = emit_ir(ir)
    back = parse_ir(dump)
    assert back == ir
    assert emit_ir(back) == dump


@pytest.mark.parametrize("separator", ["\x0c", "\x85", "\u2028"])
def test_line_separators_in_text_round_trip(separator):
    ir = compile_source(f"\\place(0,0)[a{separator}b]\n\\to^{{f{separator}}}")[0].ir
    assert separator in ir.nodes[0].text
    dump = emit_ir(ir)
    back = parse_ir(dump)
    assert back == ir
    assert emit_ir(back) == dump


def test_parse_ir_cost_per_line_is_bounded():
    # a line is read field by field against its record, with no tokens
    corpus = sorted(Path(__file__).with_name("corpus").glob("*.dg"))
    dumps = [emit_ir(figure.ir) for path in corpus
             for figure in compile_source(path.read_text(encoding="utf-8"))]
    lines = sum(dump.count("\n") for dump in dumps)
    assert opcodes(lambda: [parse_ir(dump) for dump in dumps]) <= 900 * lines
