"""IR text: malformed input raises IRSyntaxError; escaped braces round-trip;
the reader agrees with the field walk of ``ir_walk``."""
import re
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import render_ratios
from ir_walk import parse_by_fields, parse_ir_by_fields
from test_properties import BOUNDED, SOURCES

from diagc import (DEFAULT_METRICS, CompiledFigure, DiagramError, ScaleConfig, compile_source,
                   emit_ir, parse_ir, render_figure)
from diagc.compiler import FORMATS
from diagc.irtext import (_ARROW, _FRACTION, _INT, _NODE, _POSITIVE, _RECORDS, IRSyntaxError,
                          _Record)

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
    (_with("scale 1\nem 10\n", "em 10\nscale 1\n"), "em 10"),
    (_with(NODE, NODE + "\n"), repr("")),
    (_with(NODE + "\n" + ARROW, ARROW + "\n" + NODE), NODE),
    (_with(NODE, NODE.replace(" x=0", "  x=0")), NODE.replace(" x=0", "  x=0")),
    (_with(NODE, NODE.replace("align=-", "align=}q")), NODE.replace("align=-", "align=}q")),
    (_with(ARROW, ARROW.replace("kind=to", "kind=bogus")), ARROW.replace("kind=to", "kind=bogus")),
    (_with(NODE, NODE.replace("x=0", "x=00")), NODE.replace("x=0", "x=00")),
    (_with(ARROW, ARROW.replace("lscale=1", "lscale=2/2")), ARROW.replace("lscale=1", "lscale=2/2")),
    (_with(ARROW, ARROW.replace("lscale=1", "lscale=-1")), ARROW.replace("lscale=1", "lscale=-1")),
    (_with(ARROW, ARROW.replace("lscale=1", "lscale=0")), ARROW.replace("lscale=1", "lscale=0")),
    (_with("em 10\n", "em 0\n"), "em 0"),
    (_with("em 10\n", "em -1\n"), "em -1"),
    # a dump without its frame: the error says what is missing
    ("x\n", "missing IR header"),
    (GOOD[:-len("end\n")], "missing end marker: the last line must be 'end'"),
    ("diagc-ir 2\nend\n", "missing 'scale' line"),
    ("diagc-ir 2\nscale 1\nend\n", "missing 'em' line"),
]
MALFORMED_IDS = [
    "missing field", "non-integer", "unknown side", "zero denominator", "bad fraction",
    "bad scalar", "non-positive scale", "missing scalar line", "unclosed brace",
    "field without value", "unknown key", "repeated key", "swapped fields",
    "reordered scale lines", "blank line", "node after arrow", "double space",
    "unknown align", "unknown kind", "non-canonical integer", "non-canonical fraction",
    "negative lscale", "zero lscale", "zero em", "negative em", "no header", "no end marker",
    "no scale line", "no em line",
]


@pytest.mark.parametrize("text, line", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_ir_raises_ir_syntax_error_naming_the_line(text, line):
    with pytest.raises(IRSyntaxError) as info:
        parse_ir(text)
    assert line in str(info.value) or repr(line) in str(info.value)


def test_a_version_1_dump_is_refused_at_its_header():
    # version 1 wrote the language's constants as three lines after the scale
    old = GOOD.replace("diagc-ir 2\nscale 1\nem 10\n", "diagc-ir 1\nscale 1\nem 10\n"
                       "ex-ratio 43/100\nlabel-scale 7/10\nobject-margin 30\n", 1)
    assert old != GOOD
    with pytest.raises(IRSyntaxError) as info:
        parse_ir(old)
    assert str(info.value) == "missing IR header: the first line must be 'diagc-ir 2'"


@pytest.mark.parametrize("line", ["ex-ratio 43/100", "label-scale 7/10", "object-margin 30"])
def test_a_version_1_constant_line_is_refused_in_a_version_2_dump(line):
    # a dump given the new header but not stripped of an old line
    text = GOOD.replace("em 10\n", f"em 10\n{line}\n", 1)
    assert text != GOOD
    with pytest.raises(IRSyntaxError, match=re.escape(repr(line))):
        parse_ir(text)


def test_a_dump_begins_with_its_header_and_its_two_scale_lines():
    figure = compile_source("\\morphism[A`B;f]", cfg=ScaleConfig(Fraction(1, 3)))[0]
    assert emit_ir(figure.ir).startswith("diagc-ir 2\nscale 1/3\nem 10\nnode seq=0 ")


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
    # the lines of a record kind are read as one block, with no Python
    # code per line or field: about 32.3 instructions per corpus line on
    # 3.11, the cost of a block spread over the figure's lines; with one
    # match and a Python call per line and per field it cost about 134
    dumps = [emit_ir(figure.ir) for figure in render_ratios.corpus_figures()]
    assert render_ratios.parse_per_line(dumps) <= 33


def _subscripted_grid(k):
    """A k x k grid of squares whose node texts are ``W_{i,j}``."""
    w = "W_{{{},{}}}".format
    return compile_source("\n".join(
        f"\\square({500 * i},{500 * j})[{w(i, j + 1)}`{w(i + 1, j + 1)}`{w(i, j)}`"
        f"{w(i + 1, j)};f`g`h`k]" for i in range(k) for j in range(k)))[0].ir


def test_reading_back_subscripted_text_costs_no_more_per_line_than_the_corpus():
    # a text field nesting one group (W_{0,0}) is read in the one match,
    # so the 1320 lines of this grid cost about 0.5 instructions a line:
    # the blocks' cost, with no Python code per line; when every arrow
    # line fell back from the one match it cost about 704
    assert render_ratios.parse_per_line([emit_ir(_subscripted_grid(16))]) <= 1


def test_emit_ir_cost_per_line_is_bounded():
    # counted after one warm-up render; the lines of a record kind are one
    # map of its %-template over the records' attributes, with the node's
    # align spelled per column: about 5.5 instructions per corpus line;
    # with a Python call per record line it cost about 21
    irs = [figure.ir for figure in render_ratios.corpus_figures()]
    assert render_ratios.emit_per_line(irs) <= 6.2


GOLDEN_IR = sorted(Path(__file__).parent.joinpath("golden", "ir").glob("*.ir"))
GOLDEN_DUMPS = {golden.stem: golden.read_bytes().decode("utf-8") for golden in GOLDEN_IR}


@pytest.mark.parametrize("golden", GOLDEN_IR, ids=[p.stem for p in GOLDEN_IR])
def test_a_golden_dump_reads_back_and_writes_the_same_bytes(golden):
    dump = golden.read_bytes().decode("utf-8")
    assert emit_ir(parse_ir(dump)) == dump


def test_every_corpus_figure_has_a_golden_dump():
    assert len(GOLDEN_IR) == 29


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
    """A dump with one or two of its record lines changed (a scale, node
    or arrow line): fields edited to other spellings, swapped, repeated
    or dropped, spaces changed, and braces or escaped braces put in."""
    lines = draw(st.sampled_from(DUMPS)).split("\n")
    for k in sorted(draw(st.sets(st.integers(1, len(lines) - 3), min_size=1, max_size=2))):
        lines[k] = _mutated(draw, lines[k])
    return "\n".join(lines)


def _mutated(draw, line):
    """The line, changed as ``mutated_dumps`` says."""
    fields = line.split(" ")
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
    return line


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
    _names_the_line_the_walk_rejects(text)


def _names_the_line_the_walk_rejects(text):
    """Where the field walk rejects a line of the dump, reading it line by
    line, parse_ir's IRSyntaxError names that line; the line, or None."""
    try:
        parse_ir_by_fields(text)
    except IRSyntaxError as walk:
        line = getattr(walk, "line", None)  # None: a missing header or line
    else:
        return None
    with pytest.raises(IRSyntaxError) as info:
        parse_ir(text)
    if line is not None:
        assert repr(line) in str(info.value)
    return line


def _dump(source):
    return emit_ir(compile_source(source)[0].ir)


# nodes 0, 1, 3, 4; arrow 2 plain, arrow 5 with text nested two deep
TWO = _dump("\\morphism(0,0)[A`B;f]\n\\morphism(0,500)[{a{b{c}}}`D;g]")
# the same, arrow 2 nested two deep and arrow 5 plain
DEEP_FIRST = _dump("\\morphism(0,500)[{a{b{c}}}`D;g]\n\\morphism(0,0)[A`B;f]")
NO_NODES = _dump("\\to^{f}\n\\to^{g}")
NO_ARROWS = _dump("\\place(0,0)[X]\n\\place(0,500)[Y]")


def _line(dump, prefix):
    return next(line for line in dump.split("\n") if line.startswith(prefix))


def _edited(dump, *edits):
    """The dump with each (line prefix, old, new) edit made in its line,
    and the first line edited."""
    lines = []
    for prefix, old, new in edits:
        line = _line(dump, prefix)
        assert old in line
        dump = dump.replace(line, line.replace(old, new, 1), 1)
        lines.append(line.replace(old, new, 1))
    return dump, lines[0]


def _swapped(dump, first, second):
    """The dump with two adjacent lines swapped, and the first of them,
    which then comes after a line of higher seq."""
    a, b = _line(dump, first), _line(dump, second)
    assert a + "\n" + b in dump
    return dump.replace(a + "\n" + b, b + "\n" + a, 1), a


SQUARE = GOLDEN_DUMPS["05_square"]
BAD_BLOCKS = {
    "bad node and bad arrow": _edited(TWO, ("node seq=1 ", "x=500", "x=0500"),
                                      ("arrow seq=5 ", "kind=pos", "kind=bogus")),
    "two bad arrows": _edited(TWO, ("arrow seq=2 ", "offset=0", "offset=2/4"),
                              ("arrow seq=5 ", "lscale=1", "lscale=0")),
    "malformed arrow before a bad value": _edited(
        TWO, ("arrow seq=2 ", "lscale=1", "lscale=0"), ("arrow seq=5 ", "offset=0", "offset=2/4")),
    "bad value after text nested two deep": _edited(
        DEEP_FIRST, ("arrow seq=5 ", "offset=0", "offset=2/4")),
    "bad value in text nested two deep": _edited(
        DEEP_FIRST, ("arrow seq=2 ", "offset=0", "offset=2/4")),
    "no node lines": _edited(NO_NODES, ("arrow seq=1 ", "group=1", "group=01")),
    "no arrow lines": _edited(NO_ARROWS, ("node seq=1 ", "text={Y}", "text={Y")),
    "two node lines out of seq order": _swapped(SQUARE, "node seq=0 ", "node seq=1 "),
    "two arrow lines out of seq order": _swapped(SQUARE, "arrow seq=2 ", "arrow seq=5 "),
}


@pytest.mark.parametrize("text, line", BAD_BLOCKS.values(), ids=BAD_BLOCKS)
def test_a_block_read_names_its_first_bad_line(text, line):
    assert _names_the_line_the_walk_rejects(text) == line
    with pytest.raises(IRSyntaxError, match=re.escape(repr(line))):
        parse_ir(text)


@pytest.mark.parametrize("dump", [TWO, DEEP_FIRST, NO_NODES, NO_ARROWS],
                         ids=["two", "deep first", "no nodes", "no arrows"])
def test_a_dump_with_an_empty_or_deep_block_reads_back(dump):
    back = parse_ir(dump)
    assert back == parse_ir_by_fields(dump)
    assert emit_ir(back) == dump


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
def _fallback_lines():
    """The lines that fall back from the one match while the block runs."""
    lines = []
    fallback = _Record._fallback

    def counted(row, line):
        lines.append(line)
        return fallback(row, line)

    _Record._fallback = counted
    try:
        yield lines
    finally:
        _Record._fallback = fallback


def _depth(text):
    """How deep the groups of text nest, by the ``{`` and ``}`` that no
    backslash escapes: 0 for text with no group."""
    depth = deepest = 0
    for brace in re.sub(r"[^{}]", "", re.sub(r"\\.", "", text, flags=re.S)):
        depth += 1 if brace == "{" else -1
        deepest = max(deepest, depth)
    return deepest


def test_reading_the_corpus_back_walks_groups_only_where_text_nests():
    # the one match serves every line whose text nests at most one group
    # deep, such as the style {@{>}@/^1em/}; only deeper text falls back
    depths = {}
    for ir in IRS.values():
        for row, records in ((_NODE, ir.nodes), (_ARROW, ir.arrows)):
            texts = [a for a, kind in zip(row.attrs, row.kinds) if kind.pattern is None]
            for line, record in zip(row.lines(records), records):
                depths[line[:-1]] = max(_depth(getattr(record, a)) for a in texts)
    assert 1 in depths.values()
    with _fallback_lines() as lines:
        for dump in DUMPS:
            parse_ir(dump)
    assert set(lines) == {line for line, depth in depths.items() if depth > 1}


# text atoms: letters, a control word, control symbols (the only tokens
# that hide a brace), a non-ASCII letter, a numeral and line separators
TEXT_ATOMS = ["a", "x", "\\times", "\\{", "\\}", "\\\\", "\\`", "é", "²", "\x85",
              "\u2028"]
FLAT_TEXT = st.lists(st.sampled_from(TEXT_ATOMS), max_size=3).map("".join)
GROUP = FLAT_TEXT.map("{{{}}}".format)
GROUPS = GROUP | st.tuples(FLAT_TEXT, GROUP, FLAT_TEXT).map("{%s%s%s}".__mod__)


def _spellings(kind):
    """A strategy whose language is exactly the pattern of a field that
    is not text.  A ratio is drawn in any terms, so that the reader's
    refusals of 2/4 and 3/1 are drawn too; a flag or a word is one of
    the keys of the dict its ``read`` looks up."""
    ints, positives = st.integers().map(str), st.integers(min_value=1).map(str)
    if kind is _INT:
        return ints
    if kind is _FRACTION or kind is _POSITIVE:
        head = ints if kind is _FRACTION else positives
        return st.tuples(head, st.just("") | positives.map("/".__add__)).map("".join)
    return st.sampled_from(sorted(kind.read.__self__))


# each field pattern that is not text, and the strategy of its spellings
SPELLINGS = {kind.pattern: _spellings(kind) for row in (_NODE, _ARROW) for kind in row.kinds
             if kind.pattern is not None}


@st.composite
def record_lines(draw):
    """A node or arrow line, and whether it is read in the one match: its
    text fields nest at most one group deep and hold no lone backslash.
    A field that is not text is a spelling its pattern takes, drawn from
    ``SPELLINGS``.  A text field is atoms; in a "nested" line also groups
    one or two levels deep, and in a "lone" line at times a lone
    backslash before the closing brace."""
    row = draw(st.sampled_from([_NODE, _ARROW]))
    shape = draw(st.sampled_from(["flat", "nested", "lone"]))
    piece = st.sampled_from(TEXT_ATOMS)
    if shape == "nested":
        piece |= GROUPS
    shallow, fields = True, []
    for prefix, kind in zip(row.prefixes, row.kinds):
        if kind.pattern is None:
            pieces = draw(st.lists(piece, max_size=4))
            lone = "\\" if shape == "lone" and draw(st.booleans()) else ""
            shallow = shallow and not lone and all(_depth(p) <= 1 for p in pieces)
            fields.append(f"{prefix}{{{''.join(pieces)}{lone}}}")
        else:
            fields.append(prefix + draw(SPELLINGS[kind.pattern]))
    return row, "".join(fields), shallow


@BOUNDED
@given(case=record_lines())
@example(case=(_ARROW, "arrow seq=32 kind=pos x1=0 y1=-3000 x2=500 y2=-3000 "
               "style={@{>}@/^1em/} label={raw} side=above label2={} start={A} end={B} "
               "offset=0 lscale=1 group=-1", True))
@example(case=(_NODE, "node seq=1 x=0 y=0 align=- standalone=0 text={W_{0,0}}", True))
@example(case=(_NODE, "node seq=1 x=0 y=0 align=- standalone=0 text={a{b{c}}}", False))
@example(case=(_NODE, "node seq=1 x=0 y=0 align=- standalone=0 text={A\\times B}", True))
@example(case=(_NODE, "node seq=1 x=0 y=0 align=- standalone=0 text={\\{a\\}}", True))
@example(case=(_NODE, "node seq=1 x=0 y=0 align=- standalone=0 text={a\\}", False))
def test_the_reader_agrees_with_the_field_walk_on_text_fields(case):
    row, line, shallow = case
    with _fallback_lines() as calls:
        read = _outcome(row.parse, line)
    assert read == _outcome(parse_by_fields, row, line), line
    # a line whose text nests at most one group deep is read in one match;
    # any other falls back
    assert bool(calls) != shallow, line


# what a mutation of a golden dump puts into a line: numbers at and past
# the digit bound of int(), ratios that are not canonical, braces and
# escaped braces, a space, nothing, and spellings int() takes that the
# writer never writes
DUMP_ATOMS = ["0", "-1", "9" * 4300, "9" * 4301, "1/3", "0/1", "{", "}", "\\{", " ", "",
              "1_0", "\u0663"]


@st.composite
def mutated_golden_dumps(draw):
    """A golden dump with one to three mutations: two of its lines
    swapped, a field's value replaced by an atom, or an atom put into a
    line or up to 4 characters cut out of it."""
    lines = draw(st.sampled_from(sorted(GOLDEN_DUMPS.values()))).split("\n")
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["swap", "replace", "insert", "delete"]))
        if op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
            continue
        line = lines[k]
        if op == "replace":
            fields = line.split(" ")
            i = draw(st.integers(0, len(fields) - 1))
            key, eq, _ = fields[i].partition("=")
            atom = draw(st.sampled_from(DUMP_ATOMS))
            fields[i] = key + eq + atom if eq else atom
            lines[k] = " ".join(fields)
            continue
        at = draw(st.integers(0, len(line)))
        if op == "insert":
            lines[k] = line[:at] + draw(st.sampled_from(DUMP_ATOMS)) + line[at:]
        else:
            lines[k] = line[:at] + line[at + draw(st.integers(1, 4)):]
    return "\n".join(lines)


def _swap_examples(test):
    for name, (text, _) in BAD_BLOCKS.items():
        if "seq order" in name:
            test = example(text=text)(test)
    return test


@BOUNDED
@given(text=mutated_golden_dumps())
@_swap_examples
def test_a_mutated_golden_dump_is_refused_or_reads_back_and_renders(text):
    # the reader refuses a dump only with IRSyntaxError; a dump it takes
    # is one the writer writes, and its IR renders in every format or
    # fails with a DiagramError
    try:
        ir = parse_ir(text)
    except IRSyntaxError:
        return
    assert emit_ir(ir) == text
    placed = tuple(node for node in ir.nodes if node.standalone)
    figure = CompiledFigure(ir, placed, [], 1, 1, "x.ir", DEFAULT_METRICS)
    for fmt in FORMATS:
        try:
            render_figure(figure, fmt, [])
        except DiagramError:
            pass
