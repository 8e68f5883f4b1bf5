"""IR text: malformed input raises IRSyntaxError; escaped braces round-trip;
the reader agrees with the field walk of ``ir_walk``."""
import re
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ir_walk import parse_by_fields, parse_ir_by_fields
from opcode_count import opcodes
from test_properties import BOUNDED, SOURCES

from diagc import compile_source, emit_ir, irtext, parse_ir, render_figure
from diagc.irtext import _ARROW, _NODE, _RECORDS, IRSyntaxError
from diagc.lexer import group_end

GOOD = emit_ir(compile_source("\\to^{f}_{g}\n\\place(0,0)[X]")[0].ir)
NODE = next(line for line in GOOD.splitlines() if line.startswith("node "))
ARROW = next(line for line in GOOD.splitlines() if line.startswith("arrow "))


def _with(old, new):
    assert old in GOOD
    return GOOD.replace(old, new, 1)


MALFORMED = [
    (_with(NODE, NODE.replace(" x=0", "")), NODE.replace(" x=0", "")),
    (_with(NODE, NODE.replace("y=0", "y=zero")), NODE.replace("y=0", "y=zero")),
    (_with(ARROW, ARROW.replace("side=above", "side=left")),
     ARROW.replace("side=above", "side=left")),
    (_with(ARROW, ARROW.replace("offset=0", "offset=1/0")),
     ARROW.replace("offset=0", "offset=1/0")),
    (_with(ARROW, ARROW.replace("lscale=1", "lscale=x")),
     ARROW.replace("lscale=1", "lscale=x")),
    (_with("em 10\n", "em ten\n"), "em ten"),
    (_with("scale 1\n", "scale 0\n"), "scale 0"),
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
    (_with("em 10\n", "em 0\n"), "em 0"),
    (_with("em 10\n", "em -1\n"), "em -1"),
]
MALFORMED_IDS = [
    "missing field", "non-integer", "unknown side", "zero denominator", "bad fraction",
    "bad scalar", "non-positive scale", "missing scalar line", "unclosed brace",
    "field without value", "unknown key", "repeated key", "swapped fields",
    "reordered scale lines", "blank line", "node after arrow", "double space",
    "unknown align", "unknown kind", "non-canonical integer", "non-canonical fraction",
    "negative ex-ratio", "negative object-margin", "negative lscale", "zero lscale",
    "zero em", "negative em",
]


@pytest.mark.parametrize("text, line", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_ir_raises_ir_syntax_error_naming_the_line(text, line):
    with pytest.raises(IRSyntaxError) as info:
        parse_ir(text)
    assert line in str(info.value) or repr(line) in str(info.value)


@pytest.mark.parametrize("line", ["ex-ratio 0", "label-scale 1/3", "object-margin 0"])
def test_the_constant_lines_take_no_other_value(line):
    keyword = line.split()[0]
    text = re.sub(f"^{keyword} .*$", line, GOOD, count=1, flags=re.M)
    assert text != GOOD
    with pytest.raises(IRSyntaxError, match=re.escape(repr(line))):
        parse_ir(text)


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


# a backslash before a line break, read by each path that can take one
@pytest.mark.parametrize("source, text", [
    ("\\place(0,0)[a\\\nb]", "a\\ b"),  # a section, through lexer.tidy
    ("\\to^\\\n_x", "\\ "),             # a bare script token
    ("\\to^{a\\\nb}", "a\\ b"),         # a braced script
    ("\\place(0,0)[a\\\r\nb]", "a\\ b"),
    ("\\to^\\\r\n_x", "\\ "),
    ("\\to^{a\\\r\nb}", "a\\ b"),
    ("\\place(0,0)[a\\\rb]", "a\\ b"),
], ids=["section", "token", "group", "section-crlf", "token-crlf", "group-crlf",
        "section-cr"])
def test_a_backslash_before_a_line_break_is_a_control_space(source, text):
    figure = compile_source(source)[0]
    ir = figure.ir
    assert [n.text for n in ir.nodes if n.text] + [a.label for a in ir.arrows] == [text]
    assert "\r" not in render_figure(figure, "svg")
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
    # counted once the reader's patterns are compiled, so that the count
    # does not depend on which test read IR first: a line is read by one
    # whole-line match, about 134 instructions per corpus line; by one
    # pattern per run of fields between text fields it cost about 397
    corpus = sorted(Path(__file__).with_name("corpus").glob("*.dg"))
    dumps = [emit_ir(figure.ir) for path in corpus
             for figure in compile_source(path.read_text(encoding="utf-8"))]
    lines = sum(dump.count("\n") for dump in dumps)
    for dump in dumps:
        parse_ir(dump)
    assert opcodes(lambda: [parse_ir(dump) for dump in dumps]) <= 160 * lines


def test_emit_ir_cost_per_line_is_bounded():
    # counted after one warm-up render; a side is written as the string it
    # is, so an arrow line is one %-template over its attributes, about 21
    # instructions per corpus line; a side spelled from a map cost about 33
    corpus = sorted(Path(__file__).with_name("corpus").glob("*.dg"))
    irs = [figure.ir for path in corpus
           for figure in compile_source(path.read_text(encoding="utf-8"))]
    lines = sum(emit_ir(ir).count("\n") for ir in irs)
    assert opcodes(lambda: [emit_ir(ir) for ir in irs]) <= 26 * lines


CORPUS = sorted(Path(__file__).with_name("corpus").glob("*.dg"))
# every corpus figure, and one figure of every command kind
IRS = {f"{path.stem}-{i}": figure.ir for path in CORPUS
       for i, figure in enumerate(compile_source(path.read_text(encoding="utf-8")))}
IRS["every-kind"] = compile_source("\n".join(SOURCES.values()))[0].ir
DUMPS = [emit_ir(ir) for ir in IRS.values()]
GOOD_LINES = sorted({line for dump in DUMPS + [GOOD] for line in dump.split("\n")})

# values the writer never writes, and some it does
VALUES = ["0", "00", "+1", "-0", "1_0", "\u0663", "2/4", "1/0", "2/2", "0/3", "1.5", "-1",
          "7", "1/2", "-5/2", "x", "", "-", "l", "pos", "twoar", "above", "online", "{X}"]
ATOMS = ["\\{", "\\}", "{", "}", "\\", " ", "  ", "\t", "="]


@st.composite
def mutated_dumps(draw):
    """A dump with one of its record lines changed: fields edited to other
    spellings, swapped, repeated or dropped, spaces changed, and braces
    or escaped braces put in."""
    lines = draw(st.sampled_from(DUMPS)).split("\n")
    k = draw(st.integers(1, len(lines) - 3))  # a scale, node or arrow line
    fields = lines[k].split(" ")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(fields) - 1))
        j = draw(st.integers(0, len(fields) - 1))
        op = draw(st.sampled_from(["edit", "edit", "swap", "repeat", "drop", "space"]))
        if op == "edit":
            key, eq, _ = fields[i].partition("=")
            fields[i] = key + eq + draw(st.sampled_from(VALUES)) if eq else draw(
                st.sampled_from(VALUES))
        elif op == "swap":
            fields[i], fields[j] = fields[j], fields[i]
        elif op == "repeat":
            fields.insert(j, fields[i])
        elif op == "drop" and len(fields) > 1:
            del fields[i]
        elif op == "space":
            fields[i] = draw(st.sampled_from(["", " ", "\t"])).join(fields[i:i + 2])
            del fields[i + 1:i + 2]
    line = " ".join(fields)
    for atom in draw(st.lists(st.sampled_from(ATOMS), max_size=2)):
        at = draw(st.integers(0, len(line)))
        line = line[:at] + atom + line[at:]
    lines[k] = line
    return "\n".join(lines)


def _outcome(read, *args):
    """What a reader gives: its value, or IRSyntaxError."""
    try:
        return read(*args)
    except IRSyntaxError:
        return IRSyntaxError


def test_the_reader_agrees_with_the_field_walk_on_every_written_line():
    for row in _RECORDS:
        for line in GOOD_LINES:
            assert _outcome(row.parse, line) == _outcome(parse_by_fields, row, line), line


def _malformed_examples(test):
    for text, _ in MALFORMED:
        test = example(text=text)(test)
    return test


@BOUNDED
@given(text=mutated_dumps())
@_malformed_examples
def test_the_reader_agrees_with_the_field_walk(text):
    # every line the writer would not write, read against every record
    for line in sorted(set(text.split("\n")).difference(GOOD_LINES)):
        for row in _RECORDS:
            assert _outcome(row.parse, line) == _outcome(parse_by_fields, row, line), line
    assert _outcome(parse_ir, text) == _outcome(parse_ir_by_fields, text)


@pytest.mark.parametrize("name", IRS)
def test_a_record_read_back_is_the_compiled_record(name):
    ir = IRS[name]
    back = parse_ir(emit_ir(ir))
    assert back == ir
    for read, compiled in zip(back.nodes + back.arrows, ir.nodes + ir.arrows):
        assert type(read) is type(compiled)
        assert list(map(type, read)) == list(map(type, compiled))
        assert [type(v) for field in read if isinstance(field, tuple) for v in field] == [
            type(v) for field in compiled if isinstance(field, tuple) for v in field]



@contextmanager
def _group_end_calls():
    """The lines ``irtext`` hands to ``group_end`` while the block runs."""
    lines = []

    def counted(text, start):
        lines.append(text)
        return group_end(text, start)

    irtext.group_end = counted
    try:
        yield lines
    finally:
        irtext.group_end = group_end


def _nests(text):
    """Whether text holds a group: a ``{`` that no backslash escapes."""
    return "{" in re.sub(r"\\.", "", text, flags=re.S)


def test_reading_the_corpus_back_walks_groups_only_where_text_nests():
    # the one-match reader serves every line whose text fields are flat
    nested = set()
    for ir in IRS.values():
        for row, records in ((_NODE, ir.nodes), (_ARROW, ir.arrows)):
            texts = [a for a, kind in zip(row.attrs, row.kinds) if kind.pattern is None]
            nested.update(row.write(r)[:-1] for r in records
                          if any(_nests(getattr(r, a)) for a in texts))
    with _group_end_calls() as lines:
        for dump in DUMPS:
            parse_ir(dump)
    assert set(lines) == nested


# text atoms: letters, a control word, control symbols (the only tokens
# that hide a brace), a non-ASCII letter, a numeral and line separators
TEXT_ATOMS = ["a", "x", "\\times", "\\{", "\\}", "\\\\", "\\`", "é", "²", "\x85",
              "\u2028"]
FLAT_TEXT = st.lists(st.sampled_from(TEXT_ATOMS), max_size=3).map("".join)
GROUP = FLAT_TEXT.map("{{{}}}".format)
GROUPS = GROUP | st.tuples(FLAT_TEXT, GROUP, FLAT_TEXT).map("{%s%s%s}".__mod__)


@st.composite
def record_lines(draw):
    """A node or arrow line, and whether all its text fields are flat (no
    group, no lone backslash).  A field that is not text is a spelling
    its pattern takes.  A text field is atoms; in a "nested" line also
    groups one or two levels deep, and in a "lone" line at times a lone
    backslash before the closing brace."""
    row = draw(st.sampled_from([_NODE, _ARROW]))
    shape = draw(st.sampled_from(["flat", "nested", "lone"]))
    piece = st.sampled_from(TEXT_ATOMS)
    if shape == "nested":
        piece |= GROUPS
    flat, fields = True, []
    for prefix, kind in zip(row.prefixes, row.kinds):
        if kind.pattern is None:
            pieces = draw(st.lists(piece, max_size=4))
            lone = "\\" if shape == "lone" and draw(st.booleans()) else ""
            flat = flat and not lone and not any(p[0] == "{" for p in pieces)
            fields.append(f"{prefix}{{{''.join(pieces)}{lone}}}")
        else:
            fields.append(prefix + draw(st.from_regex(kind.pattern, fullmatch=True)))
    return row, "".join(fields), flat


@BOUNDED
@given(case=record_lines())
@example(case=(_ARROW, "arrow seq=32 kind=pos x1=0 y1=-3000 x2=500 y2=-3000 "
               "style={@{>}@/^1em/} label={raw} side=above label2={} start={A} end={B} "
               "offset=0 lscale=1 group=-1", False))
@example(case=(_NODE, "node seq=1 x=0 y=0 align=- standalone=0 text={A\\times B}", True))
@example(case=(_NODE, "node seq=1 x=0 y=0 align=- standalone=0 text={\\{a\\}}", True))
@example(case=(_NODE, "node seq=1 x=0 y=0 align=- standalone=0 text={a\\}", False))
def test_the_reader_agrees_with_the_field_walk_on_text_fields(case):
    row, line, flat = case
    with _group_end_calls() as calls:
        read = _outcome(row.parse, line)
    assert read == _outcome(parse_by_fields, row, line), line
    # a line with flat text is read in one match; any other falls back
    assert bool(calls) != flat, line
