"""Seeded, time-bounded property tests of the shared lexical rule, the
command table, the one-match reader against the section reader on
mutated commands, the one match of a command's name, figure positions
made when read, the decimal formatter, the width sum, the two clipping
paths of layout and its bounding box, and exact scaling of the SVG and
TikZ printers, and those printers against their per-arrow reference,
and TikZ's ends-only layout against the full one.

Each property runs a fixed, derandomized set of examples, so a failure
repeats on every run and the suite's run time stays bounded.
"""
import math
import re
import sys
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from token_walk import split_top_by_tokens, tidy_by_tokens, tokens, top_level_end
import box_walk
import clip_walk
import expand_walk
import printer_walk
import xypic_walk

from diagc import (
    DEFAULT_METRICS,
    Arrow,
    DiagramError,
    DiagramIR,
    Figure,
    FontMetrics,
    LabelSide,
    LayoutError,
    Node,
    ParseError,
    Point,
    ScaleConfig,
    compile_source,
    emit_ir,
    expand_figure,
    parse_ir,
    parse_source,
    render_figure,
    render_svg,
    render_tikz,
    render_xypic,
    text_width,
)
from diagc import layout
from diagc.geometry import (Decimals, RoundedDecimals, decimal_base, format_decimal,
                            memo_class)
from diagc.ir import KIND_POS, KIND_VECTOR
from diagc.metrics import DEFAULT_CHAR_WIDTH, text_width
from diagc.lexer import group_end, kept_field, section_end, split_top, strip_group, token_at
from diagc.parser import (_COMMAND_HEAD, COMMANDS, Positions, _Chain, _command, _Reader, _where,
                          cut, format_command, parse_command)
from diagc.styles import STYLES

BOUNDED = settings(
    derandomize=True, database=None, max_examples=100, deadline=timedelta(seconds=1)
)

IR_ATOMS = ["\\{", "\\}", "\\\\", "\\alpha", "`", ";", "%", "a", "x", "²",
            "\x0c", "\x85", "\u2028"]
FIELD_ATOMS = [atom for atom in IR_ATOMS if atom != "%"]  # a parsed field holds no bare %
CORPUS = Path(__file__).with_name("corpus")
ROOT = Path(__file__).resolve().parents[1]


def balanced(atoms):
    """Text from ``atoms`` and balanced brace groups around such text."""
    return st.recursive(
        st.lists(st.sampled_from(atoms), max_size=4).map("".join),
        lambda inner: st.lists(
            st.one_of(st.sampled_from(atoms), inner.map(lambda t: "{" + t + "}")),
            max_size=4,
        ).map("".join),
        max_leaves=12,
    )


@BOUNDED
@given(texts=st.lists(balanced(IR_ATOMS), min_size=6, max_size=6))
def test_ir_text_fields_are_a_fixpoint(texts):
    node_text, style, label, label2, start, end = texts
    ir = DiagramIR(
        (Node(Point(0, 0), node_text, 0),),
        (Arrow(Point(0, 0), Point(500, 0), style, label, LabelSide.ABOVE, 1,
               start_text=start, end_text=end, label2=label2,
               offset_pt=Fraction(3, 2)),),
    )
    dump = emit_ir(ir)
    back = parse_ir(dump)
    assert back == ir
    assert emit_ir(back) == dump


BRACE_ATOMS = ["\\{", "\\}", "\\\\", "{", "}", "²", "é", "\\é", "%", "a"]


def strip_group_by_tokens(text):
    """``strip_group`` by a walk over the tokens: the reference for ``group_end``."""
    if text[:1] != "{" or text[-1:] != "}":
        return text
    toks = tokens(text, comments=False)
    return text[1:-1] if top_level_end(toks, 1, "") == len(toks) - 1 else text


@BOUNDED
@given(atoms=st.lists(st.sampled_from(BRACE_ATOMS), max_size=12), lone=st.booleans())
@example(atoms=["{", "\\{", "}"], lone=False)
@example(atoms=["{", "a"], lone=True)
def test_group_end_agrees_with_the_token_walk(atoms, lone):
    text = "".join(atoms) + "\\" * lone  # a lone backslash only at the very end
    toks = tokens(text, comments=False)
    starts = [len("".join(toks[:k])) for k in range(len(toks) + 1)]
    for k, tok in enumerate(toks):
        end = top_level_end(toks, k + 1, "") if tok == "{" else len(toks)
        assert group_end(text, starts[k]) == (starts[end + 1] if end < len(toks) else -1)
    assert strip_group(text) == strip_group_by_tokens(text)


SCAN_ATOMS = ["{", "}", "\\{", "\\}", "\\\\", "%", "\n", "\t", " ", "`", ";", "]", "|", "/",
              ")", ">", "²", "é", "\\é", "a", "\\`", "\\;", "\\]", "\\%", "\r", "\\\r"]
STOP_SETS = ["`", ";", "]", "|", "/", ")", ">", "}", "`;", "`/", "`;]"]


def where_by_tokens(toks, k):
    """Line and column where token ``k`` begins: CR LF, a lone CR and LF
    each end a line, and a token inside a CR LF begins the next line."""
    pos = len("".join(toks[:k]))
    ends = [m for m in re.finditer("\r\n|\r|\n", "".join(toks)) if m.start() < pos]
    start = min(ends[-1].end(), pos) if ends else 0
    return len(ends) + 1, pos - start + 1


@BOUNDED
@given(atoms=st.lists(st.sampled_from(SCAN_ATOMS), max_size=16), lone=st.booleans(),
       stops=st.sampled_from(STOP_SETS))
@example(atoms=["a", "%", "]", "\n", "]"], lone=False, stops="]")
@example(atoms=["{", "%", "}", "\n", "}", "]"], lone=True, stops="]")
@example(atoms=["a", "}"], lone=False, stops="}")  # a } with nothing to close
@example(atoms=["%", "a", "\r", "a", "%", "\r", "\n", "a"], lone=False, stops="]")  # CR, CR LF
def test_scans_agree_with_the_token_walk(atoms, lone, stops):
    text = "".join(atoms) + "\\" * lone  # a lone backslash only at the very end
    toks = tokens(text)
    for k in range(len(toks) + 1):
        start = len("".join(toks[:k]))
        end = top_level_end(toks, k, stops)
        assert section_end(text, start, stops) == len("".join(toks[:end]))
        assert token_at(text, start) == "".join(toks[k:k + 1])
    toks = tokens(text, comments=False)
    for k in range(len(toks) + 1):
        rest = "".join(toks[k:])
        assert split_top(rest, stops) == split_top_by_tokens(rest, stops)


@BOUNDED
@given(atoms=st.lists(st.sampled_from(SCAN_ATOMS), max_size=16), lone=st.booleans(),
       closer=st.sampled_from([s for s in STOP_SETS if len(s) == 1]))
@example(atoms=["a", "%", "]", "\n", "\t", "b", "]", "c"], lone=False, closer="]")
@example(atoms=["a", "\\}", "}"], lone=False, closer=")")
@example(atoms=["a", "{"], lone=True, closer="|")
@example(atoms=["a", "\\\r", "\n", " ", "b", "\\\r", "\n", "\\\r", "b", "]"], lone=False,
         closer="]")  # a backslash before CR LF, and before CR
@example(atoms=["\\%", "a", ")"], lone=False, closer=")")  # an escaped % starts no comment
def test_reader_sections_agree_with_the_token_walk(atoms, lone, closer):
    opener = "{" if closer == "}" else "("
    text = opener + "".join(atoms) + "\\" * lone
    toks = tokens(text)
    end = top_level_end(toks, 1, closer)
    r = _Reader(text)
    if end == len(toks):
        message = ("lone backslash at end of input" if toks[-1] == "\\"
                   else "unexpected end of input inside section (opened at 1:1)")
    elif toks[end] != closer:
        message = "unbalanced '}'"
    else:
        assert r.delimited(opener, closer, "a section") == tidy_by_tokens(toks[1:end])
        assert token_at(r.text, r.pos) == "".join(toks[end + 1:end + 2])
        assert _where(text, r.pos) == where_by_tokens(toks, end + 1)
        return
    with pytest.raises(ParseError) as info:
        r.delimited(opener, closer, "a section")
    d = info.value.diagnostic
    assert (d.message, (d.line, d.col)) == (message, where_by_tokens(toks, end))


# fields of a section: backticks, groups one and two deep, control symbols
# (an escaped backtick or brace among them) and single spaces
CUT_ATOMS = ["`", "a", "é", " ", "{", "}", "{}", "{a}", "{`}", "{{`}}", "\\{", "\\}", "\\\\",
             "\\`", "\\é", "\\ "]
CUT_TEXTS = st.lists(st.sampled_from(CUT_ATOMS), max_size=12).map("".join)


@BOUNDED
@given(text=CUT_TEXTS)
@example(text="")
@example(text="a`b c``")  # no group and no backslash
@example(text="{a}`{b`c}d`{{`}}")
@example(text="\\{`{\\}}`\\`")
def test_cut_agrees_with_split_top_and_strip_group(text):
    # the one match that cuts a section's fields, on the texts it is used on
    assume(re.fullmatch(kept_field(""), text))
    assert cut(text) == tuple(strip_group(p) for p in split_top(text, "`"))


@BOUNDED
@given(atoms=st.lists(st.sampled_from(SCAN_ATOMS), max_size=16))
@example(atoms=["a", "\\\r", "\n", "b", "\r", "\r\n"])  # a token at the LF of a CR LF
def test_where_agrees_with_the_token_walk_at_every_token(atoms):
    # every token's offset turned into a line and column at once, by the
    # table of line breaks that a figure's positions come from
    text = "".join(atoms)
    toks = tokens(text)
    starts = [len("".join(toks[:k])) for k in range(len(toks) + 1)]
    assert Positions(text, starts) == [where_by_tokens(toks, k)
                                       for k in range(len(toks) + 1)]


NAME_ATOMS = ["\\to", "\\bfig", "\\é", "\\a²", "\\{", "\\", " ", "\t", "\r", "\n", "\r\n",
              "%", "a", "²"]


@BOUNDED
@given(atoms=st.lists(st.sampled_from(NAME_ATOMS), max_size=12))
@example(atoms=["%", "\r", "\\to", "\r"])  # a comment runs past a lone CR
def test_command_names_agree_with_the_token_walk(atoms):
    # from every token: skip whitespace and comments, then read one control
    # sequence; fail at a token that is none, or at the end after a lone \
    text = "".join(atoms)
    toks = tokens(text)
    for k in range(len(toks) + 1):
        after = next((j for j in range(k, len(toks)) if toks[j][0] not in " \t\r\n%"),
                     len(toks))
        tok = "".join(toks[after:after + 1])
        r = _Reader(text)
        r.pos = len("".join(toks[:k]))
        if tok == "\\" or tok[:1] not in ("", "\\"):
            with pytest.raises(ParseError) as info:
                r.name()
            d = info.value.diagnostic
            assert (d.message, (d.line, d.col)) == (
                ("lone backslash at end of input", where_by_tokens(toks, after + 1))
                if tok == "\\" else (f"unexpected character {tok[0]!r}", where_by_tokens(toks, after)))
            continue
        assert r.name() == tok
        assert r.pos == len("".join(toks[:after + 1]))


HEAD_ATOMS = ["\\bfig", "\\bfigé", "\\a²", "\\{", "\\", "%", "\r", "\n", "\r\n", " ", "a", "é"]


@BOUNDED
@given(atoms=st.lists(st.sampled_from(HEAD_ATOMS), max_size=12))
@example(atoms=["%", "\\bfig"])  # a name inside a comment, and nothing after it
@example(atoms=["%", "\\bfig", "\n", "\\{"])  # and a control symbol after its line end
@example(atoms=["\\a²"])  # a word of ASCII letters that the lexical rule reads on
def test_the_command_head_agrees_with_the_reader(atoms):
    # from every token: where the one match finds a name, the reader reads
    # the same name from the same start to the same end; it finds none
    # exactly where the reader fails, reaches the end, or reads a name that
    # is not a whole word of ASCII letters
    text = "".join(atoms)
    toks = tokens(text)
    for k in range(len(toks) + 1):
        r = _Reader(text)
        r.pos = len("".join(toks[:k]))
        m = _COMMAND_HEAD.match(text, r.pos)
        try:
            name = r.name()
        except ParseError:
            assert m is None
            continue
        start, end = r.pos - len(name), r.pos
        if re.fullmatch(r"\\[A-Za-z]+", name) and not re.match(r"[^\W\d_]", text[end:end + 1]):
            assert m is not None and (m[2], m.start(2), m.end()) == (name, start, end)
        else:
            assert m is None


# commands, some with a backslash before a line break in a section, and the
# gaps before them: whitespace, every line end, comments through one
POSITION_COMMANDS = ["\\to", "\\place(0,0)[X]", "\\to^\\\n", "\\to^\\\r\n", "\\to^\\\r",
                     "\\morphism[A`B;\\\r\nf]", "\\place(0,0)[a\\\rb]"]
POSITION_GAPS = [" ", "\t", "\n", "\r\n", "\r", "\n\r\n", "% c\r\n", "% c\r", "%\n"]
# groups of commands, each in a figure of its own or outside any figure
POSITION_SOURCES = st.lists(
    st.tuples(st.booleans(), st.sampled_from(POSITION_GAPS),
              st.lists(st.tuples(st.sampled_from(POSITION_GAPS),
                                 st.sampled_from(POSITION_COMMANDS)), min_size=1, max_size=3)),
    min_size=1, max_size=4)


@BOUNDED
@given(groups=POSITION_SOURCES)
@example(groups=[(False, " ", [(" ", "\\to")]), (True, "\r\n", [("\r", "\\to^\\\r\n")]),
                 (False, "\r", [("\n", "\\place(0,0)[X]")])])
def test_positions_agree_with_the_token_walk(groups):
    # every figure's line and column, and each of its positions read one by
    # one, as a list, by its length, by equality and as printed
    text, expected, top = "", [], []  # (offset of the figure, of its commands)
    for in_figure, gap, commands in groups:
        text += gap
        start = len(text)
        text += "\\bfig" * in_figure
        offsets = []
        for before, command in commands:
            text += before
            offsets.append(len(text))
            text += command
        if in_figure:
            text += "\n\\efig"
            expected.append((start, offsets))
        else:
            top += offsets
    if top:
        expected.append((top[0], top))
    toks = tokens(text)
    index = {len("".join(toks[:k])): k for k in range(len(toks))}
    figures = parse_source(text)
    assert len(figures) == len(expected)
    for figure, (start, offsets) in zip(figures, expected):
        pairs = [where_by_tokens(toks, index[at]) for at in offsets]
        assert (figure.line, figure.col) == where_by_tokens(toks, index[start])
        assert len(figure.positions) == len(pairs)
        assert [figure.positions[k] for k in range(len(pairs))] == pairs
        assert list(figure.positions) == pairs
        assert figure.positions == pairs and repr(figure.positions) == repr(pairs)


N4, L4 = "A`B`C`D", "f`g`h`k"
N6, L7 = "A`B`C`D`E`F", "f`g`h`i`j`k`l"
L12 = "a`b`c`d`e`f`g`h`i`j`k`l"
SOURCES = {  # one minimal source per command kind
    "morphism": "\\morphism[A`B;f]",
    "vector": "\\vector(0,0)/>/<500,0>",
    "place": "\\place(0,0)[X]",
    "square": f"\\square[{N4};{L4}]",
    "Square": f"\\Square[{N4};{L4}]",
    **{f"{k}triangle": f"\\{k}triangle[A`B`C;f`g`h]" for k in "pqdbAVCD"},
    **{f"{k}trianglepair": f"\\{k}trianglepair[{N4};f`g`h`i`j]" for k in "AVCD"},
    "hSquares": f"\\hSquares[{N6};{L7}]",
    "vSquares": f"\\vSquares[{N6};{L7}]",
    "iiixiii": f"\\iiixiii[A`B`C`D`E`F`G`H`I;{L12}]",
    "iiixii": f"\\iiixii[{N6};{L7}]",
    "cube": f"\\cube[{N4};{L4}][a`b`c`d;p`q`r`s][w`x`y`z]",
    "pullback": f"\\pullback[{N4};{L4}][E;p`q`r]",
    "to": "\\to",
    "two": "\\two",
    "three": "\\three",
    "twoar": "\\twoar(1,0)",
    "scalefactor": "\\scalefactor{2}",
}

STYLE_TOKENS = [">", "->", ">->", "->>", "<-", "<-<", "<<-", "=", "=>", "-->", ".>",
                "(->", " (->", "", "@{-->}", "@/^1ex/{>}", "@<2pt>{=>}", "{@{>}}", "a`b"]
ints = st.integers(-3000, 3000)
factors = st.fractions(min_value=Fraction(1, 1000), max_value=100, max_denominator=1000)


def test_every_command_kind_has_a_source():
    assert set(SOURCES) == set(COMMANDS)


@st.composite
def commands(draw, field=balanced(FIELD_ATOMS), kinds=tuple(sorted(SOURCES)), numbers=ints):
    """A command of one of ``kinds`` (any kind by default) with every
    field its sections fill drawn at random, each text field from
    ``field`` and each coordinate, extent and stub from ``numbers``."""
    kind = draw(st.sampled_from(kinds))
    strategies = {
        "origin": st.builds(Point, numbers, numbers),
        "placements": st.sampled_from("alrbmx"),
        "styles": st.one_of(st.sampled_from(STYLE_TOKENS), field),
        "nodes": field,
        "labels": field,
        "align": st.sampled_from(["", "l", "r", "u", "d"]),
        "mask": st.integers(0, 15 if kind == "iiixii" else 4095),
        "length": ints,
        "factor": factors,
    }

    def fresh(obj, chain):
        changes = {}
        parts = iter(obj.parts)
        for sec in chain.sections:
            if hasattr(sec, "chain"):  # the inner square, the connectors, the trident
                part = fresh(next(parts), sec.chain)
                changes["parts"] = changes.get("parts", ()) + (part,)
                continue
            for name in sec.fields:
                value = getattr(obj, name)
                if name == "placements":
                    n = draw(st.integers(0, 1)) if kind == "morphism" else len(value)
                    changes[name] = "".join(draw(strategies[name]) for _ in range(n))
                elif isinstance(value, tuple) and not isinstance(value, Point):
                    # extents, stubs, directions, styles, nodes, labels
                    each = strategies.get(name, numbers)
                    changes[name] = tuple(draw(each) for _ in value)
                else:
                    changes[name] = draw(strategies[name])
        return obj._replace(**changes)

    return fresh(parse_command(SOURCES[kind]), COMMANDS[kind])


@BOUNDED
@given(cmd=commands())
def test_format_command_reparses_to_the_same_command(cmd):
    printed = format_command(cmd)
    again = parse_command(printed)
    assert again == cmd
    assert format_command(again) == printed
    try:
        expand_figure(Figure([cmd], [(1, 1)]))
    except DiagramError:
        pass


# what a mutation puts into a command's printed text: whitespace, a
# comment, line breaks, braces, control symbols that hide a stop, and
# sections a command may lack
MUTATIONS = [" ", "  ", "\t", "%c\n", "\r", "\r\n", "\n", "{", "}", "\\{", "\\`", "\\%", "`",
             ";", "a", "[l]", "(1,2)", "|a|", "/>/", "<5>", "{3}", "^a"]


@st.composite
def mutated_commands(draw):
    """A command's canonical text, short fields in it, with up to three
    insertions after its name, a span wrapped in 0-3 brace groups, and
    maybe a trailing ``\\``."""
    text = format_command(draw(commands(field=st.sampled_from(
        ["", "f", "{a}", "\\alpha", "a`b", "x_{1}", "{{a}}", "\\{"]))))
    start = len(token_at(text, 0))
    i, j = sorted(draw(st.lists(st.integers(start, len(text)), min_size=2, max_size=2)))
    depth = draw(st.integers(0, 3))
    text = text[:i] + "{" * depth + text[i:j] + "}" * depth + text[j:]
    for at in sorted(draw(st.lists(st.integers(start, len(text)), max_size=3)), reverse=True):
        text = text[:at] + draw(st.sampled_from(MUTATIONS)) + text[at:]
    return text + "\\" * draw(st.booleans())


def read_command(text):
    """The command at the start of ``text`` and where its reader ends, or
    the error it is, with the figures of ``text`` or their error."""
    def error(exc):
        d = exc.diagnostic
        return d.message, d.line, d.col
    r = _Reader(text)
    try:
        cmd = _command(r, r.token(), 0)
        command = cmd, repr(cmd), r.pos
    except ParseError as exc:
        command = error(exc)
    try:
        figures = parse_source(text)
        return command, figures, repr(figures)
    except ParseError as exc:
        return command, error(exc)


@BOUNDED
@given(text=mutated_commands())
@example(text="\\to/>/ <500>")  # the pattern stops before a section the reader reads
@example(text="\\three^a|b |c")
@example(text="\\square[{{{A}}}`B`C`D;f`g`h`k]")
@example(text="\\cube[A`B`C`D;f`g`h`k][a`b`c`d;p`q`r`s] [w`x`y`z\\`]")
@example(text="\\place(0,0)[a;b]")  # a ; in a payload of one half
@example(text="\\morphism[A  B`C;f]")  # a run of spaces that the reader makes one
@example(text="\\vector(0,0)/>/<1,1>[A]")  # a section the command lacks
@example(text="\\three/\\%>`>`>/<0>^{}|{}_{}")  # an escaped % in a section the reader reads
@example(text="\\to x")  # no script: the reader, like the match, ends before the space
def test_the_one_match_agrees_with_the_section_reader(text):
    matched = read_command(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Chain, "take", lambda self, m, kind: None)  # every command falls back
        assert read_command(text) == matched


def test_the_common_spellings_are_read_by_one_match():
    # a minimal source of every kind, the front_end benchmark's template of
    # every kind filled in, and the corpus: none falls back
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    taken = _Chain.take

    def must_take(self, m, kind):
        values = taken(self, m, kind)
        assert values is not None, f"\\{kind} falls back at {m.string[m.start():]!r}"
        return values

    sources = [*SOURCES.values(), *(text for _, text in workloads.front_end_sources(1)),
               *(path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.dg")))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Chain, "take", must_take)
        for source in sources:
            parse_source(source)


# short text fields, empty ones among them; half of the commands from the
# kinds with a line of their own: inline groups, vectors, placed nodes
_WRITER_COMMANDS = st.one_of(
    commands(field=st.sampled_from(["", "f", "{a}", "\\alpha", "a`b"])),
    commands(field=st.sampled_from(["", "f", "{a}"]),
             kinds=("to", "two", "three", "twoar", "vector", "place", "morphism")),
)


@BOUNDED
@given(cmds=st.lists(_WRITER_COMMANDS, min_size=1, max_size=5))
def test_xypic_agrees_with_the_group_walk(cmds):
    # the one arrow writer against the per-kind builders it replaced, on
    # figures of every kind, with inline groups side by side, each placed
    # node among them as render_figure prints it
    placed = []
    try:
        ir, _ = expand_figure(Figure(cmds, [(1, 1)] * len(cmds)), placed=placed)
    except DiagramError:
        return
    ir = ir._replace(nodes=tuple(placed))
    assert render_xypic(ir) == xypic_walk.render_xypic(ir)


def _typed(value):
    """A value with the type of each field, nested records included."""
    if isinstance(value, tuple):
        return type(value), tuple(map(_typed, value))
    return type(value), value


def _expansion(expand, cmds):
    """What ``expand`` gives on a figure of ``cmds``: typed nodes, placed
    nodes and arrows, scale, warnings and command starts, or the
    error."""
    starts, placed = [], []
    try:
        ir, warnings = expand(Figure(cmds, [(k + 1, 1) for k in range(len(cmds))]),
                              filename="e.dg", starts=starts, placed=placed)
    except DiagramError as exc:
        return type(exc), exc.diagnostic, exc.seq
    return (_typed(ir.nodes), _typed(tuple(placed)), _typed(ir.arrows), ir.scale, warnings,
            starts)


# every command kind, \scalefactor included, with coordinates, extents,
# stubs and \twoar directions from a few values: extents of either sign
# and zero, \cube inner corners and the \pullback trident node on outer
# corners, are common
EXPAND_COMMANDS = commands(
    field=st.sampled_from(["", "f", "{a}"]),
    numbers=st.sampled_from([0, 500, -500, 1000]),
)


@BOUNDED
@given(cmds=st.lists(EXPAND_COMMANDS, min_size=1, max_size=3))
# a zero displacement draws nothing, and is no error, where the edge has
# no style: the \cube connector from C, the \pullback edge from E to A
@example(cmds=[parse_command(
    "\\cube[A`B`C`D;f`g`h`k](0,0)<500,500>[a`b`c`d;p`q`r`s]/>`>``>/[w`x`y`z]")])
@example(cmds=[parse_command("\\pullback[A`B`C`D;f`g`h`k]/>``>/<0,0>[E;p`q`r]")])
# grid stubs of two lengths, and every mask bit but the first
@example(cmds=[parse_command(f"\\iiixiii{{4095}}<400,300>[A`B`C`D`E`F`G`H`I;{L12}]")])
@example(cmds=[parse_command(f"\\iiixii{{14}}<400>[{N6};{L7}]")])
# one record apiece: an inline group with an on-line label left empty
@example(cmds=[parse_command("\\three<0>^a|{}_b"), parse_command("\\twoar(-1,2)"),
               parse_command("\\vector(5,5)/>/<-500,0>"), parse_command("\\place(1,2)[X]")])
def test_expansion_agrees_with_the_edge_walk(cmds):
    # the one writer and the record constructors against the per-edge and
    # keyword-builder calls they replaced, whose every drawn node the
    # oracle merges: the same records, field types included, scale,
    # warnings, starts and errors
    assert _expansion(expand_figure, cmds) == _expansion(expand_walk.expand_kept, cmds)


@st.composite
def placed_over_corners(draw):
    """Commands of every kind, then ``\\place`` commands over the nodes
    they draw: each at a drawn node's anchor, with its text or another."""
    cmds = draw(st.lists(EXPAND_COMMANDS, min_size=1, max_size=3))
    try:
        raw, _ = expand_walk.expand_figure(Figure(cmds, [(1, 1)] * len(cmds)))
    except DiagramError:
        return cmds
    drawn = raw.nodes or (Node(Point(0, 0), "f", 0),)
    place = parse_command(SOURCES["place"])
    for _ in range(draw(st.integers(1, 4))):
        at, text = draw(st.sampled_from(drawn))[:2]
        text = draw(st.sampled_from([text, "Z", "a", ""]))
        align = draw(st.sampled_from(["", "l", "d"]))
        cmds.append(place._replace(origin=at, nodes=(text,), align=align))
    return cmds


@BOUNDED
@given(cmds=placed_over_corners())
# a placed node with a drawn corner's text, one with a new text, and the
# new text placed again
@example(cmds=[parse_command(f"\\square[{N4};{L4}]"), parse_command("\\place(0,0)[C]"),
               parse_command("\\place(0,0)[Z]"), parse_command("\\place(0,0)[Z]")])
def test_expansion_keeps_each_corner_once(cmds):
    # the first node at each anchor and text is kept, each \place node is
    # placed, and each later text at an anchor is a conflict at the
    # command that drew it, as the oracle merge of the walk's nodes gives
    assert _expansion(expand_figure, cmds) == _expansion(expand_walk.expand_kept, cmds)


control_sequences = st.one_of(
    st.text(st.sampled_from("abzABZéαω"), min_size=1, max_size=8),
    st.sampled_from(list("{}%;`\\ 1_²")),
).map(lambda name: "\\" + name)


@BOUNDED
@given(cs=control_sequences, scale=st.sampled_from([1, Fraction(7, 10), 2]))
def test_a_control_sequence_measures_one_default_character(cs, scale):
    assert text_width(cs, scale) == text_width("x", scale)
    # a numeral that is not a letter ends a control word: \x² is \x then ²
    assert text_width(cs + "²", scale) == text_width("x²", scale)


def decimal_oracle(num, den=1):
    """format_decimal as it was before the per-denominator formatter,
    with an inexact value rounded from its exact Fraction."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    twos = (den & -den).bit_length() - 1
    d, fives = den >> twos, 0
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:   # six places, ties away from zero; a negative that rounds to 0 is -0
        millionths = math.floor(Fraction(abs(num), den) * 10**6 + Fraction(1, 2))
        text = f"{millionths // 10**6}.{millionths % 10**6:06d}".rstrip("0").rstrip(".")
        return "-" + text if num < 0 else text
    # in lowest terms, max(a, b) places hold num/den exactly, the last one nonzero
    shift = max(twos, fives)
    if not shift:
        return str(num)
    digits = str(abs(num) * 10**shift // den).rjust(shift + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


# numbers over den = 2^twos 5^fives odd, written plain and as mul num + shift
DECIMAL_CASES = dict(
    nums=st.lists(st.one_of(st.just(0), st.integers(-10**15, 10**15)), min_size=1, max_size=8),
    twos=st.integers(0, 12),
    fives=st.integers(0, 12),
    odd=st.sampled_from([1, 3, 7, 9, 13]),
    mul=st.integers(-10**6, 10**6),
    shift=st.integers(-10**12, 10**12),
)


@BOUNDED
@given(**DECIMAL_CASES)
@example(nums=[0, 1, -1, 6000, 7000], twos=0, fives=0, odd=1, mul=1, shift=0)  # den = 1
@example(nums=[6000, -6000, 7000, 0], twos=3, fives=3, odd=3, mul=1, shift=0)  # den = 3000
@example(nums=[0, 5, -5], twos=4, fives=1, odd=1, mul=-7, shift=35)  # a sign that flips
def test_decimal_memo_matches_format_decimal(nums, twos, fives, odd, mul, shift):
    den = 2**twos * 5**fives * odd
    base = decimal_base(den)
    assert bool(base[1]) == (odd == 1)   # exact exactly when den is 2^a 5^b
    memo = memo_class(base)
    assert memo is (Decimals if odd == 1 else RoundedDecimals)
    plain, scaled = memo(base, 1), memo(base, mul, shift)
    for num in nums:
        assert plain[num] == format_decimal(num, den) == decimal_oracle(num, den)
        assert scaled[num] == decimal_oracle(num * mul + shift, den)
    # each value is written once and read back from the memo
    assert len(plain) == len(set(nums)) and plain[nums[0]] == format_decimal(nums[0], den)


def width_by_tokens(text, scale, m):
    """text_width as the token walk over the whole text: a control
    sequence is one default character, a brace nothing, anything else
    its characters, scaled exactly and rounded once, ties away from zero."""
    total = 0
    for tok in tokens(text, comments=False):
        if tok[0] == "\\":
            total += DEFAULT_CHAR_WIDTH
        elif tok not in ("{", "}"):
            total += sum(m.widths.get(c, DEFAULT_CHAR_WIDTH) for c in tok)
    exact = total * Fraction(scale)
    rounded = math.floor(abs(exact) + Fraction(1, 2))
    return -rounded if exact < 0 else rounded


WIDTH_ATOMS = ["{", "}", " ", "  ", "\t", "\n \t", "%", "a", "Z", "7", ";", "`",
               "é", "²", "½", "Ⅻ", "\\", "\\alpha", "\\é²", "\\{", "\\ "]
# braces that would be wide if they were measured, a backslash and
# letters whose widths are not the default, so that a control sequence
# measured by its characters would show, and overlays on characters
# outside the default table
WIDE_BRACES = FontMetrics(widths={**DEFAULT_METRICS.widths, "{": 70, "}": 90, "\\": 61,
                                  "a": 62, "l": 63, "p": 64, "h": 65, "é": 33, "\t": 7})


@BOUNDED
@given(
    parts=st.lists(st.sampled_from(WIDTH_ATOMS), max_size=12),
    plain=st.booleans(),
    scale=st.sampled_from([1, 2, Fraction(7, 10), Fraction(1, 3), Fraction(1, 2)]),
    metrics=st.sampled_from([FontMetrics(), WIDE_BRACES]),
)
@example(parts=["{", "}"], plain=True, scale=1, metrics=WIDE_BRACES)
@example(parts=["a", "\t", "é", "\n \t", "½", "%"], plain=True, scale=Fraction(1, 3),
         metrics=WIDE_BRACES)
def test_text_width_matches_the_token_walk(parts, plain, scale, metrics):
    if plain:  # no backslash: the width is the table sum
        parts = [part for part in parts if "\\" not in part]
    text = "".join(parts)
    assert text_width(text, scale, metrics) == width_by_tokens(text, scale, metrics)


def _clip(clip, *args):
    """A clipped path's or layout's record, or its error message."""
    try:
        return clip(*args)
    except LayoutError as exc:
        return str(exc)


# a horizontal or vertical arrow between two optional nodes; an em size of
# 1000 pt rounds the 1 pt knockout padding to 0
AXIS_CASES = dict(
    start=st.builds(Point, st.integers(-600, 600), st.integers(-600, 600)),
    length=st.integers(-900, 900).filter(bool),
    horizontal=st.booleans(),
    kind=st.sampled_from([KIND_POS, KIND_VECTOR]),
    texts=st.tuples(*[st.one_of(st.none(), st.text("xw{}\\ ", max_size=14))] * 2),
    aligns=st.tuples(*[st.sampled_from(["", "l", "r", "u", "d"])] * 2),
    label=st.text("fgw\\{}", max_size=6),
    side=st.sampled_from(list(LabelSide)),
    em_size=st.sampled_from([Fraction(10), Fraction(12), Fraction(7, 2), Fraction(1, 3),
                             Fraction(1000)]),
)


@BOUNDED
@given(**AXIS_CASES)
@example(start=Point(0, 0), length=500, horizontal=True, kind=KIND_POS, texts=("A", "B"),
         aligns=("", ""), label="f", side=LabelSide.ABOVE, em_size=Fraction(10))
@example(start=Point(0, 0), length=-40, horizontal=False, kind=KIND_POS,
         texts=("wwwwww", None), aligns=("", ""), label="f", side=LabelSide.BELOW,
         em_size=Fraction(10))
@example(start=Point(0, 0), length=300, horizontal=True, kind=KIND_POS,
         texts=("wwwww", "wwwww"), aligns=("", ""), label="", side=LabelSide.NONE,
         em_size=Fraction(10))  # swallowed
@example(start=Point(0, 0), length=-500, horizontal=False, kind=KIND_POS,
         texts=("wwww", "B"), aligns=("", "d"), label="wwwwww", side=LabelSide.ABOVE,
         em_size=Fraction(10))  # decreasing vertical
@example(start=Point(100, -50), length=-500, horizontal=True, kind=KIND_POS,
         texts=("A", None), aligns=("r", ""), label="g", side=LabelSide.ABOVE,
         em_size=Fraction(12))  # decreasing horizontal
@example(start=Point(0, 0), length=60, horizontal=False, kind=KIND_VECTOR,
         texts=(None, "x"), aligns=("", ""), label="www", side=LabelSide.BELOW,
         em_size=Fraction(10))  # increasing vertical, its label past both ends
# an on-line label in each axis and direction, knocked out of the shaft
@example(start=Point(0, 0), length=600, horizontal=True, kind=KIND_POS, texts=("A", "B"),
         aligns=("", ""), label="f", side=LabelSide.ON_LINE, em_size=Fraction(10))
@example(start=Point(-30, 7), length=-501, horizontal=True, kind=KIND_POS, texts=("A", "wB"),
         aligns=("l", ""), label="g", side=LabelSide.ON_LINE, em_size=Fraction(12))
@example(start=Point(5, -11), length=701, horizontal=False, kind=KIND_POS, texts=("A", None),
         aligns=("", ""), label="f", side=LabelSide.ON_LINE, em_size=Fraction(7, 2))
@example(start=Point(0, 0), length=-600, horizontal=False, kind=KIND_POS, texts=("A", "B"),
         aligns=("", "u"), label="w", side=LabelSide.ON_LINE, em_size=Fraction(10))
# an on-line label wider than its arrow knocks the whole shaft out, and
# an empty one knocks nothing out
@example(start=Point(0, 0), length=80, horizontal=True, kind=KIND_VECTOR, texts=(None, None),
         aligns=("", ""), label="wwwwww", side=LabelSide.ON_LINE, em_size=Fraction(10))
@example(start=Point(0, 0), length=500, horizontal=True, kind=KIND_POS, texts=("A", "B"),
         aligns=("", ""), label="", side=LabelSide.ON_LINE, em_size=Fraction(10))
# in each axis and direction, an on-line label whose padded box: has no
# width ({} measures 0, and at 1000 pt per em the padding rounds to 0),
# which leaves a horizontal shaft whole and still cuts a vertical one;
# is exactly as long as the free shaft, which it knocks out whole; and
# leaves 500 layout units of shaft at each end, the least the grid
# allows, as every end, anchor and box edge on an axis is a multiple of
# 500
@example(start=Point(0, 0), length=500, horizontal=True, kind=KIND_POS, texts=("A", "B"),
         aligns=("", ""), label="{}", side=LabelSide.ON_LINE, em_size=Fraction(1000))
@example(start=Point(3, -7), length=55, horizontal=True, kind=KIND_POS, texts=(None, None),
         aligns=("", ""), label="w", side=LabelSide.ON_LINE, em_size=Fraction(10))
@example(start=Point(3, -7), length=56, horizontal=True, kind=KIND_POS, texts=(None, None),
         aligns=("", ""), label="w", side=LabelSide.ON_LINE, em_size=Fraction(10))
@example(start=Point(0, 0), length=-500, horizontal=True, kind=KIND_POS, texts=("A", "B"),
         aligns=("", ""), label="{}", side=LabelSide.ON_LINE, em_size=Fraction(1000))
@example(start=Point(3, -7), length=-55, horizontal=True, kind=KIND_POS, texts=(None, None),
         aligns=("", ""), label="w", side=LabelSide.ON_LINE, em_size=Fraction(10))
@example(start=Point(3, -7), length=-56, horizontal=True, kind=KIND_POS, texts=(None, None),
         aligns=("", ""), label="w", side=LabelSide.ON_LINE, em_size=Fraction(10))
@example(start=Point(0, 0), length=500, horizontal=False, kind=KIND_POS, texts=("A", "B"),
         aligns=("", ""), label="{}", side=LabelSide.ON_LINE, em_size=Fraction(1000))
@example(start=Point(3, -7), length=150, horizontal=False, kind=KIND_POS, texts=(None, None),
         aligns=("", ""), label="f", side=LabelSide.ON_LINE, em_size=Fraction(10))
@example(start=Point(3, -7), length=151, horizontal=False, kind=KIND_POS, texts=(None, None),
         aligns=("", ""), label="f", side=LabelSide.ON_LINE, em_size=Fraction(10))
@example(start=Point(0, 0), length=-500, horizontal=False, kind=KIND_POS, texts=("A", "B"),
         aligns=("", ""), label="{}", side=LabelSide.ON_LINE, em_size=Fraction(1000))
@example(start=Point(3, -7), length=-150, horizontal=False, kind=KIND_POS, texts=(None, None),
         aligns=("", ""), label="f", side=LabelSide.ON_LINE, em_size=Fraction(10))
@example(start=Point(3, -7), length=-151, horizontal=False, kind=KIND_POS, texts=(None, None),
         aligns=("", ""), label="f", side=LabelSide.ON_LINE, em_size=Fraction(10))
def test_axis_aligned_clipping_matches_the_general_path(
    start, length, horizontal, kind, texts, aligns, label, side, em_size,
):
    end = Point(start.x + length, start.y) if horizontal else Point(start.x, start.y + length)
    cfg = ScaleConfig(em_size=em_size)
    frame = layout._Frame.of(cfg, DEFAULT_METRICS)
    nodes = tuple(Node(at, text, seq, align)
                  for seq, (at, text, align) in enumerate(zip((start, end), texts, aligns))
                  if text is not None)
    arrow = Arrow(start, end, ">", label, side, 2, kind=kind)
    # the general path reads the reach of each node, its half width and
    # the margin, as layout_diagram measures it; the two anchors differ,
    # so each node is the first at its anchor; layout clips an on-line
    # label's arrow inline too, and knocks the label out of its shaft
    reach = {node.anchor: text_width(node.text, 1, DEFAULT_METRICS) * layout.QUANTUM // 2
             + layout.MARGIN for node in nodes}
    laid = _clip(layout.layout_diagram, DiagramIR(nodes, (arrow,), cfg))
    general = _clip(layout.clip_general, arrow, reach, frame)
    if isinstance(laid, str):   # swallowed
        assert laid == general
        return
    assert laid.paths[0] == general
    # the running extremes of each branch against a second walk
    assert laid.bbox == box_walk.bounding_box(laid.nodes, laid.paths, DEFAULT_METRICS)


def _clipped(clip, *args):
    """A clipped path's record, or the kind, message and seq of its error."""
    try:
        return clip(*args)
    except LayoutError as exc:
        return type(exc), str(exc), exc.seq


coordinates = st.integers(-900, 900)
# the half width of a node box, margin included, in layout units: most
# from real text, some far wider than a short arrow; its half height is
# always layout.NODE_HALF_H and the margin
reach_widths = st.one_of(st.integers(layout.MARGIN, layout.MARGIN + 200 * layout.QUANTUM),
                         st.integers(0, 2000 * layout.QUANTUM))
# any arrow, between two optional nodes; an em size of 1000 pt rounds the
# 1 pt knockout padding to 0, so a label that measures 0 has a box of no
# width
GENERAL_CLIP_CASES = dict(
    start=st.builds(Point, coordinates, coordinates),
    delta=st.one_of(st.tuples(coordinates, coordinates),
                    st.tuples(coordinates, st.just(0)), st.tuples(st.just(0), coordinates)),
    kind=st.sampled_from([KIND_POS, KIND_VECTOR]),
    reach_at=st.tuples(*[st.one_of(st.none(), reach_widths)] * 2),
    label=st.text("fgw\\{}", max_size=6),
    side=st.sampled_from(list(LabelSide)),
    label2=st.sampled_from(["", "u", "ww"]),
    offset_pt=st.sampled_from([0, 3, -3, Fraction(5, 2), Fraction(-1, 3)]),
    local_scale=st.sampled_from([1, Fraction(1, 10), Fraction(3, 7), 2]),
    em_size=st.sampled_from([10, 12, Fraction(7, 2), Fraction(1, 3), 1000]),
)


@BOUNDED
@given(**GENERAL_CLIP_CASES)
@example(start=Point(0, 0), delta=(500, 0), kind=KIND_POS, reach_at=(55000, 55000),
         label="f", side=LabelSide.ON_LINE, label2="", offset_pt=0, local_scale=1, em_size=10)
@example(start=Point(0, 0), delta=(100, 100), kind=KIND_POS, reach_at=(200000, 200000),
         label="", side=LabelSide.NONE, label2="", offset_pt=0, local_scale=1,
         em_size=10)  # swallowed
@example(start=Point(-88, -1), delta=(176, 2), kind=KIND_POS, reach_at=(None, None),
         label="f", side=LabelSide.ON_LINE, label2="u", offset_pt=0, local_scale=1,
         em_size=10)  # a cut on a tie of the layout grid
@example(start=Point(0, 0), delta=(700, 700), kind=KIND_POS, reach_at=(55000, None),
         label="f", side=LabelSide.ABOVE, label2="ww", offset_pt=Fraction(5, 2),
         local_scale=Fraction(3, 7), em_size=Fraction(7, 2))
@example(start=Point(0, 0), delta=(1000, 0), kind=KIND_POS, reach_at=(None, None),
         label="{}", side=LabelSide.ON_LINE, label2="", offset_pt=0, local_scale=1,
         em_size=1000)  # a knockout box of no width
def test_general_clipping_matches_the_per_call_walk(
    start, delta, kind, reach_at, label, side, label2, offset_pt, local_scale, em_size,
):
    # the inline general path against the per-call clipping it replaced:
    # the same record, or the same swallow error for the same arrow
    _clips_agree(start, delta, kind, reach_at, label, side, label2, offset_pt, local_scale,
                 em_size)


def _clips_agree(start, delta, kind, reach_at, label, side, label2, offset_pt, local_scale,
                 em_size):
    """``clip_general`` and the per-call walk give the same record, or the
    same error, for an arrow from ``start`` by ``delta``."""
    end = Point(start.x + delta[0], start.y + delta[1])
    arrow = Arrow(start, end, ">", label, side, 7, kind=kind, label2=label2,
                  offset_pt=offset_pt, local_scale=local_scale)
    reach = {}
    for at, half_w in zip((start, end), reach_at):
        if half_w is not None:
            reach.setdefault(at, half_w)
    cfg = ScaleConfig(em_size=em_size)
    frame = layout._Frame.of(cfg, DEFAULT_METRICS)
    walk_frame = layout._Frame.of(cfg, DEFAULT_METRICS)
    assert _clipped(layout.clip_general, arrow, reach, frame) == _clipped(
        clip_walk.clip_general, arrow, reach, walk_frame, {})


@st.composite
def pythagorean(draw):
    """A multiple of a Pythagorean triple's legs, (m² - k², 2mk) j, in any
    order and signs: a diagonal whose unit normal is rational."""
    m = draw(st.integers(2, 30))
    k, j = draw(st.integers(1, m - 1)), draw(st.integers(1, 40))
    legs = [(m * m - k * k) * j * draw(st.sampled_from([1, -1])),
            2 * m * k * j * draw(st.sampled_from([1, -1]))]
    return tuple(draw(st.permutations(legs)))


nonzero = st.integers(-900, 900).filter(bool)
# past the largest float (1.8e308), and within it though the length of
# two such components is not
huge = st.one_of(st.integers(2 * 10 ** 308, 10 ** 400), st.integers(-(10 ** 400), -2 * 10 ** 308))
near_huge = st.integers(127 * 10 ** 306, 179 * 10 ** 306).map(lambda v: v * (-1) ** (v & 1))
# a diagonal across which a label or a parallel offset moves its points:
# any, Pythagorean, one with a component or a length past the largest
# float, or none at all
# (a zero-length path, whose normal points down); the offset is any
# rational, as parse_ir reads it
DIAGONAL_CASES = dict(
    start=st.builds(Point, coordinates, coordinates),
    delta=st.one_of(st.tuples(nonzero, nonzero), pythagorean(),
                    st.tuples(huge, st.one_of(huge, nonzero)), st.tuples(nonzero, huge),
                    st.tuples(near_huge, near_huge), st.just((0, 0))),
    kind=st.sampled_from([KIND_POS, KIND_VECTOR]),
    reach_at=st.tuples(*[st.one_of(st.none(), reach_widths)] * 2),
    side=st.sampled_from(list(LabelSide)),
    label2=st.sampled_from(["", "u"]),
    offset_pt=st.one_of(st.fractions(-40, 40, max_denominator=600), st.just(0)),
    local_scale=st.sampled_from([1, Fraction(3, 7), 2]),
)


@BOUNDED
@given(**DIAGONAL_CASES)
@example(start=Point(0, 0), delta=(15 * 10 ** 307, 15 * 10 ** 307), kind=KIND_POS,
         reach_at=(55000, 55000), side=LabelSide.ABOVE, label2="", offset_pt=0,
         local_scale=1)  # a length past the largest float
@example(start=Point(3, -2), delta=(300, -400), kind=KIND_VECTOR, reach_at=(None, None),
         side=LabelSide.BELOW, label2="u", offset_pt=Fraction(5, 2),
         local_scale=1)  # a rational normal: 3/5 and 4/5
@example(start=Point(7, 7), delta=(0, 0), kind=KIND_VECTOR, reach_at=(None, None),
         side=LabelSide.ABOVE, label2="u", offset_pt=Fraction(-7, 3),
         local_scale=Fraction(3, 7))  # no length: the normal points down
@example(start=Point(0, 0), delta=(10 ** 400, 1), kind=KIND_POS, reach_at=(55000, None),
         side=LabelSide.ABOVE, label2="", offset_pt=3, local_scale=1)  # past a float
@example(start=Point(0, 0), delta=(300, 200), kind=KIND_VECTOR, reach_at=(None, None),
         side=LabelSide.NONE, label2="", offset_pt=Fraction(5, 2),
         local_scale=1)  # an irrational offset, left and up: a floor of each sign
@example(start=Point(0, -100), delta=(400, 300), kind=KIND_POS, reach_at=(2, None),
         side=LabelSide.ABOVE, label2="", offset_pt=Fraction(5, 2),
         local_scale=1)  # a rational offset whose start's y is a tie, -79998.5
def test_points_across_a_diagonal_are_exact(start, delta, kind, reach_at, side, label2,
                                            offset_pt, local_scale):
    # each label centre and offset end across a diagonal, p + c/√n rounded
    # once, from the layout's floor identity against the exact walk's
    # comparisons of squares
    _clips_agree(start, delta, kind, reach_at, "f", side, label2, offset_pt, local_scale, 10)


# a \scalefactor with only 2 and 5 in its denominator keeps every px and
# em an exact decimal
exact_factors = st.builds(Fraction, st.integers(1, 40), st.sampled_from([1, 2, 4, 5, 8, 25, 40]))
# text is measured, not scaled: a few widths are enough
short_texts = st.sampled_from(["", "a", "fg", "\\alpha", "{x`y}", "wwwwww"])


def _box_pair(ir):
    """The layout's box and the two-walk box of its nodes and paths, each
    swallowed arrow left out, or None for a diagram left empty."""
    while True:
        try:
            laid = layout.layout_diagram(ir)
        except LayoutError as exc:
            if exc.seq is None:
                return None
            ir = ir._replace(arrows=tuple(a for a in ir.arrows if a.seq != exc.seq))
            continue
        return laid.bbox, box_walk.bounding_box(laid.nodes, laid.paths, DEFAULT_METRICS)


LAYOUT_COMMANDS = st.lists(commands(field=short_texts), min_size=1, max_size=4)


@BOUNDED
@given(cmds=LAYOUT_COMMANDS)
def test_layout_box_agrees_with_the_two_walk_box(cmds):
    # the running extremes of the one layout walk against a second walk
    # over every node box, path and label it built
    try:
        ir, _ = expand_figure(Figure(cmds, [(1, 1)] * len(cmds)))
    except DiagramError:
        return
    pair = _box_pair(ir)
    if pair is not None:
        assert pair[0] == pair[1]


def test_layout_box_agrees_with_the_two_walk_box_on_the_corpus():
    figures = [figure for path in sorted(CORPUS.glob("*.dg"))
               for figure in compile_source(path.read_text(encoding="utf-8"), path.name)]
    pairs = [_box_pair(figure.ir) for figure in figures]
    assert len(pairs) == 29 and None not in pairs
    assert all(box == walked for box, walked in pairs)


@st.composite
def exactly_scaled_sources(draw):
    """Source text of generated commands and such \\scalefactor's, in any order."""
    cmds = draw(st.lists(commands(short_texts), min_size=1, max_size=2))
    cmds += [parse_command("\\scalefactor{1}")] * draw(st.integers(0, 2))
    lines = [format_command(cmd._replace(factor=draw(exact_factors))
                            if cmd.kind == "scalefactor" else cmd) for cmd in cmds]
    return "\n".join(draw(st.permutations(lines)))


# a number the printers scale: in SVG every number but those of the
# versions and the namespace, in TikZ every coordinate in em and the
# padding in pt of an on-line label
_SCALED = {"svg": re.compile(r"(?<![\w.#-])-?[0-9]+(?:\.[0-9]+)?"),
           "tikz": re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?=em[,)]|pt\])")}
_UNSCALED = re.compile(r' (?:version|xmlns)="[^"]*"')


def _printed_at(text, k):
    """Each figure's SVG and TikZ at render scale k and their warnings, or
    the error."""
    notes = []
    try:
        out = [(fmt, render_figure(figure, fmt, notes))
               for figure in compile_source(text, cfg=ScaleConfig(scale=k))
               for fmt in ("svg", "tikz")]
    except DiagramError as exc:
        return str(exc), []
    return out, notes


@BOUNDED
@given(text=exactly_scaled_sources(), k=st.sampled_from([2, Fraction(1, 2), 5]))
@example(text="\\scalefactor{3/8}\n\\square[A`B`C`D;f`g`h`k]\n\\to^{x}_{y}\n\\two", k=5)
@example(text="\\morphism[A`B;f]\n\\morphism(0,0)|m|/=>/<500,-500>[A`C;g]", k=Fraction(1, 2))
def test_svg_and_tikz_scale_exactly(text, k):
    one, one_notes = _printed_at(text, 1)
    many, many_notes = _printed_at(text, k)
    assert many_notes == one_notes
    assert not any("rounded" in note for note in one_notes)
    if isinstance(one, str):  # an error is the same at every scale
        assert many == one
        return
    assert len(many) == len(one)
    for (fmt, a), (_, b) in zip(one, many):
        a, b = _UNSCALED.sub("", a), _UNSCALED.sub("", b)
        number = _SCALED[fmt]
        assert number.sub("#", a) == number.sub("#", b)  # the same skeleton
        assert [k * Fraction(n) for n in number.findall(a)] == list(
            map(Fraction, number.findall(b)))


# anchors 600 centi-em apart on a 3 x 3 grid: a node at some, free ends at
# the others, and diagonals of two slopes between them
SPOTS = [Point(600 * i, 600 * j) for i in range(3) for j in range(3)]
# every token of the table, one with alignment spaces and one outside it
PRINTED_STYLES = sorted(STYLES) + [" (->", "@{-->}"]
# texts to escape, and a label wide enough to knock a shaft out whole
PRINTED_TEXTS = ["", "f", "A&B", "<x>", "\\alpha", "wwwwwwwwwwwwwwwwwwww"]


@st.composite
def printed_irs(draw):
    """An IR of nodes and arrows between grid anchors, in any style, with
    any label side, offset and local scale, at scale 1, 1/2 or 1/3 and em
    size 10, 12, 20 or 21/2: scale 1/2 at em 20 has the default px ratio,
    and em 12 one whose pen each render makes."""
    spots = draw(st.lists(st.sampled_from(SPOTS), min_size=1, max_size=5, unique=True))
    texts = st.sampled_from(PRINTED_TEXTS)
    nodes = tuple(Node(spot, draw(texts), seq) for seq, spot in enumerate(spots))
    arrows = []
    for seq in range(len(nodes), len(nodes) + draw(st.integers(1, 6))):
        start = draw(st.sampled_from(SPOTS))
        end = draw(st.sampled_from(SPOTS).filter(lambda spot: spot != start))
        arrows.append(Arrow(
            start, end, draw(st.sampled_from(PRINTED_STYLES)), draw(texts),
            draw(st.sampled_from(list(LabelSide))), seq,
            kind=draw(st.sampled_from([KIND_POS, KIND_VECTOR])),
            label2=draw(st.sampled_from(["", "g"])),
            offset_pt=draw(st.sampled_from([0, Fraction(3, 2), -5])),
            local_scale=draw(st.sampled_from([1, Fraction(1, 2), 2]))))
    scale = ScaleConfig(draw(st.sampled_from([1, Fraction(1, 2), Fraction(1, 3)])),
                        draw(st.sampled_from([10, 12, 20, Fraction(21, 2)])))
    return DiagramIR(nodes, tuple(arrows), scale)


def _printed_both_ways(ir):
    """Each printer's output and warnings and its reference's, for the
    layout of ``ir`` with each swallowed arrow left out."""
    while True:
        try:
            laid = layout.layout_diagram(ir)
        except LayoutError as exc:
            ir = ir._replace(arrows=tuple(a for a in ir.arrows if a.seq != exc.seq))
            continue
        break
    pairs = []
    for printer, reference in ((render_svg, printer_walk.render_svg),
                               (render_tikz, printer_walk.render_tikz)):
        notes, reference_notes = [], []
        pairs.append(((printer(laid, ir.scale, notes), notes),
                      (reference(laid, ir.scale, reference_notes), reference_notes)))
    return pairs


NINES = int("9" * 400)   # centi-em: past the largest float


def _double_ir(*arrows, scale=ScaleConfig()):
    """A figure of no node whose arrows are free double vectors."""
    return DiagramIR((), tuple(Arrow(start, end, "=>", label, side, seq, kind=KIND_VECTOR)
                               for seq, (start, end, label, side) in enumerate(arrows)), scale)


@BOUNDED
@given(ir=printed_irs())
# a double shaft's gap: (-4000, 3000) exactly, across a Pythagorean diagonal
@example(ir=_double_ir((Point(0, 0), Point(300, 400), "", LabelSide.NONE)))
# a diagonal double shaft cut in two by an on-line label
@example(ir=_double_ir((Point(0, 0), Point(-900, 300), "f", LabelSide.ON_LINE)))
# one whose extent is past the largest float, at 1/3
@example(ir=_double_ir((Point(0, 0), Point(NINES, 1), "f", LabelSide.ABOVE),
                       scale=ScaleConfig(Fraction(1, 3))))
# one of no length, read back from IR text: its lines lie above and below it
@example(ir=parse_ir(emit_ir(_double_ir((Point(300, 600), Point(300, 600), "", LabelSide.NONE)))))
@example(ir=DiagramIR(  # double shafts uncut and cut in two on a diagonal, and knocked
    # out whole on an axis, at 1/3
    (Node(Point(0, 0), "A", 0), Node(Point(600, 1200), "B", 1)),
    (Arrow(Point(0, 0), Point(600, 1200), "=>", "f", LabelSide.ABOVE, 2),
     Arrow(Point(0, 0), Point(600, 1200), " =", "wwwwwwwwwwwwwwwwwwww", LabelSide.ON_LINE, 3,
           offset_pt=Fraction(3, 2)),
     Arrow(Point(0, 0), Point(600, 0), "@{-->}", "A&B", LabelSide.ON_LINE, 4,
           kind=KIND_VECTOR),
     Arrow(Point(0, 0), Point(600, 0), "=>", "wwwwwwwwwwwwwwwwwwww", LabelSide.ON_LINE, 5)),
    ScaleConfig(Fraction(1, 3))))
def test_printers_agree_with_the_per_arrow_reference(ir):
    # one memo per axis and one row per style token against a call per
    # coordinate and a style lookup per arrow: the same bytes and warnings
    for printed, reference in _printed_both_ways(ir):
        assert printed == reference


def test_printers_agree_with_the_per_arrow_reference_on_the_corpus():
    figures = [figure for path in sorted(CORPUS.glob("*.dg"))
               for figure in compile_source(path.read_text(encoding="utf-8"), path.name)]
    for figure in figures:
        for scale in (1, Fraction(1, 2), Fraction(1, 3)):
            ir = figure.ir._replace(scale=ScaleConfig(scale, figure.ir.scale.em_size))
            for printed, reference in _printed_both_ways(ir):
                assert printed == reference


def _draws_no_label(arrow):
    return not (arrow.label and arrow.side is not LabelSide.NONE or arrow.label2)


def _tikz_of_each_layout(ir):
    """For the ends-only and then the full layout of ``ir``: its node
    centres, each path's ends, or its whole record where its arrow draws
    no label, and the TikZ of it with its warnings, or the type, message
    and seq of the error that layout or printer raised."""
    out = []
    for ends_only in (True, False):
        try:
            laid = layout.layout_diagram(ir, ends_only=ends_only)
            notes = []
            printed = render_tikz(laid, ir.scale, notes)
        except DiagramError as exc:
            out.append((type(exc), str(exc), exc.seq))
            continue
        if ends_only:   # a full layout that placed no label
            assert all(path.labels == () and path.shaft is None for path in laid.paths)
        out.append(([node.center for node in laid.nodes],
                    [path if _draws_no_label(path.arrow) else (path.start, path.end)
                     for path in laid.paths], printed, notes))
    return out


# every corpus figure at scale 1 and, as --scale 1/3 gives it, at 1/3
CORPUS_IRS = [figure.ir for scale in (1, Fraction(1, 3)) for path in sorted(CORPUS.glob("*.dg"))
              for figure in compile_source(path.read_text(encoding="utf-8"), path.name,
                                           cfg=ScaleConfig(scale))]
# an arrow end moved onto its start, onto a corpus anchor, or past the
# largest float
MOVED_ENDS = [Point(0, 0), Point(1000, 0), Point(0, -1000), Point(500, 700),
              Point(10 ** 400, 1)]
ARROW_MUTATIONS = {
    "side": st.sampled_from(list(LabelSide)),
    "label": short_texts,
    "label2": st.sampled_from(["", "g", "wwwwww"]),
    "offset_pt": st.sampled_from([0, 3, Fraction(-5, 2)]),
    "local_scale": st.sampled_from([1, Fraction(1, 2), Fraction(3, 7)]),
    "kind": st.sampled_from([KIND_POS, KIND_VECTOR]),
}


@st.composite
def mutated_corpus_irs(draw):
    """A corpus figure's IR, at scale 1 or 1/3, with up to three changes
    to its arrows: a field of ``ARROW_MUTATIONS`` redrawn, or an end
    moved onto its start or one of ``MOVED_ENDS``."""
    ir = draw(st.sampled_from(CORPUS_IRS))
    arrows = list(ir.arrows)
    for _ in range(draw(st.integers(0, 3)) if arrows else 0):
        k = draw(st.integers(0, len(arrows) - 1))
        field = draw(st.sampled_from(sorted(ARROW_MUTATIONS) + ["end"]))
        value = (draw(st.sampled_from([arrows[k].start] + MOVED_ENDS)) if field == "end"
                 else draw(ARROW_MUTATIONS[field]))
        arrows[k] = arrows[k]._replace(**{field: value})
    return ir._replace(arrows=tuple(arrows))


@st.composite
def generated_irs(draw):
    """The IR of up to four generated commands of any kind, at scale 1
    or 1/3, or None where expansion refuses them."""
    cmds = draw(LAYOUT_COMMANDS)
    cfg = ScaleConfig(draw(st.sampled_from([1, Fraction(1, 3)])))
    try:
        return expand_figure(Figure(cmds, [(1, 1)] * len(cmds)), cfg)[0]
    except DiagramError:
        return None


TIKZ_IRS = st.one_of(generated_irs(), mutated_corpus_irs())


@BOUNDED
@given(ir=TIKZ_IRS)
# a labelled diagonal past the largest float, and one with no label
@example(ir=DiagramIR((), (Arrow(Point(0, 0), Point(10 ** 400, 1), ">", "f", LabelSide.ABOVE, 0),),
                      ScaleConfig()))
@example(ir=DiagramIR((), (Arrow(Point(0, 0), Point(10 ** 400, 1), ">", "", LabelSide.NONE, 0),),
                      ScaleConfig(Fraction(1, 3))))
# an on-line label on an axis and on an offset diagonal, and an arrow
# swallowed by its nodes
@example(ir=DiagramIR(
    (Node(Point(0, 0), "A", 0), Node(Point(400, 0), "B", 1)),
    (Arrow(Point(0, 0), Point(400, 0), ">", "wwwwww", LabelSide.ON_LINE, 2),
     Arrow(Point(0, 0), Point(400, 300), ">", "f", LabelSide.ON_LINE, 3, offset_pt=3)),
    ScaleConfig(Fraction(1, 3))))
@example(ir=DiagramIR(
    (Node(Point(0, 0), "A", 0), Node(Point(20, 0), "C", 1)),
    (Arrow(Point(0, 0), Point(20, 0), ">", "g", LabelSide.ABOVE, 2),), ScaleConfig()))
def test_the_ends_only_layout_agrees_with_the_full_one(ir):
    # TikZ's layout skips the label centres, knockouts and box that only
    # SVG reads: the same node centres, ends, TikZ bytes and warnings, and
    # the same record of a path with no label, or the same error with the
    # same seq
    if ir is not None:
        ends_only, full = _tikz_of_each_layout(ir)
        assert ends_only == full
