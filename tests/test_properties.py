"""Seeded, time-bounded property tests of the shared lexical rule, the
command table, the one-match reader against the section reader on
mutated commands, the decimal formatter, the width sum, the two clipping
paths of layout and its bounding box, and exact scaling of the SVG and
TikZ printers, and those printers against their per-arrow reference.

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
from hypothesis import example, given, settings
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
    merge_duplicate_nodes,
    parse_ir,
    parse_source,
    render_figure,
    render_svg,
    render_tikz,
    render_xypic,
    text_width,
)
from diagc import layout
from diagc.geometry import Decimals, decimal_base, format_decimal
from diagc.ir import KIND_POS, KIND_VECTOR
from diagc.metrics import DEFAULT_CHAR_WIDTH
from diagc.lexer import group_end, section_end, split_top, strip_group, token_at
from diagc.parser import COMMANDS, _Chain, _command, _Reader, format_command, parse_command
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
                   else "unexpected end of input inside section")
    elif toks[end] != closer:
        message = "unbalanced '}'"
    else:
        assert r.delimited(opener, closer, "a section") == tidy_by_tokens(toks[1:end])
        assert token_at(r.text, r.pos) == "".join(toks[end + 1:end + 2])
        assert r.where() == where_by_tokens(toks, end + 1)
        return
    with pytest.raises(ParseError) as info:
        r.delimited(opener, closer, "a section")
    d = info.value.diagnostic
    assert (d.message, (d.line, d.col)) == (message, where_by_tokens(toks, end))


@BOUNDED
@given(atoms=st.lists(st.sampled_from(SCAN_ATOMS), max_size=16))
@example(atoms=["a", "\\\r", "\n", "b", "\r", "\r\n"])  # a token at the LF of a CR LF
def test_where_agrees_with_the_token_walk_at_every_token(atoms):
    # every token's offset turned into a line and column at once, by the
    # table of line breaks that a figure's positions come from
    text = "".join(atoms)
    toks = tokens(text)
    starts = [len("".join(toks[:k])) for k in range(len(toks) + 1)]
    assert _Reader(text).positions(starts) == [where_by_tokens(toks, k)
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
    # figures of every kind, with inline groups side by side
    try:
        raw_ir, _ = expand_figure(Figure(cmds, [(1, 1)] * len(cmds)))
    except DiagramError:
        return
    assert render_xypic(raw_ir) == xypic_walk.render_xypic(raw_ir)


def _typed(value):
    """A value with the type of each field, nested records included."""
    if isinstance(value, tuple):
        return type(value), tuple(map(_typed, value))
    return type(value), value


def _expansion(expand, cmds):
    """What ``expand`` gives on a figure of ``cmds``: typed nodes and
    arrows, scale, warnings and command starts, or the error."""
    starts = []
    try:
        ir, warnings = expand(Figure(cmds, [(k + 1, 1) for k in range(len(cmds))]),
                              filename="e.dg", starts=starts)
    except DiagramError as exc:
        return type(exc), exc.diagnostic, exc.seq
    return _typed(ir.nodes), _typed(ir.arrows), ir.scale, warnings, starts


# every kind that draws edges, with coordinates, extents and stubs from a
# few values: extents of either sign and zero, \cube inner corners and the
# \pullback trident node on outer corners, are common
_EDGE_COMMANDS = commands(
    field=st.sampled_from(["", "f", "{a}"]),
    kinds=tuple(sorted(k for k, chain in COMMANDS.items() if chain.program in (
        "morphism", "shape", "auto_square", "hsquares", "vsquares", "cube", "pullback",
        "grid3x2"))),
    numbers=st.sampled_from([0, 500, -500, 1000]),
)


@BOUNDED
@given(cmds=st.lists(_EDGE_COMMANDS, min_size=1, max_size=3))
# a zero displacement draws nothing, and is no error, where the edge has
# no style: the \cube connector from C, the \pullback edge from E to A
@example(cmds=[parse_command(
    "\\cube[A`B`C`D;f`g`h`k](0,0)<500,500>[a`b`c`d;p`q`r`s]/>`>``>/[w`x`y`z]")])
@example(cmds=[parse_command("\\pullback[A`B`C`D;f`g`h`k]/>``>/<0,0>[E;p`q`r]")])
# grid stubs of two lengths, and every mask bit but the first
@example(cmds=[parse_command(f"\\iiixiii{{4095}}<400,300>[A`B`C`D`E`F`G`H`I;{L12}]")])
@example(cmds=[parse_command(f"\\iiixii{{14}}<400>[{N6};{L7}]")])
def test_expansion_agrees_with_the_edge_walk(cmds):
    # the one edge writer against the per-edge calls it replaced: the
    # same records, field types included, warnings, starts and errors
    assert _expansion(expand_figure, cmds) == _expansion(expand_walk.expand_figure, cmds)


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
    plain, scaled = Decimals(base, 1), Decimals(base, mul, shift)
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
    """A clipped path's record, or its error message."""
    try:
        return clip(*args)
    except LayoutError as exc:
        return str(exc)


def _first_path(ir):
    return layout.layout_diagram(ir).paths[0]


@BOUNDED
@given(
    start=st.builds(Point, st.integers(-600, 600), st.integers(-600, 600)),
    length=st.integers(-900, 900).filter(bool),
    horizontal=st.booleans(),
    kind=st.sampled_from([KIND_POS, KIND_VECTOR]),
    texts=st.tuples(*[st.one_of(st.none(), st.text("xw{}\\ ", max_size=14))] * 2),
    aligns=st.tuples(*[st.sampled_from(["", "l", "r", "u", "d"])] * 2),
    label=st.text("fgw\\{}", max_size=6),
    side=st.sampled_from(list(LabelSide)),
    em_size=st.sampled_from([Fraction(10), Fraction(12), Fraction(7, 2), Fraction(1, 3)]),
)
@example(start=Point(0, 0), length=500, horizontal=True, kind=KIND_POS, texts=("A", "B"),
         aligns=("", ""), label="f", side=LabelSide.ABOVE, em_size=Fraction(10))
@example(start=Point(0, 0), length=-40, horizontal=False, kind=KIND_POS,
         texts=("wwwwww", None), aligns=("", ""), label="f", side=LabelSide.BELOW,
         em_size=Fraction(10))
@example(start=Point(0, 0), length=300, horizontal=True, kind=KIND_POS,
         texts=("wwwww", "wwwww"), aligns=("", ""), label="", side=LabelSide.NONE,
         em_size=Fraction(10))  # swallowed
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
    # the general path reads the reach of each node that layout placed;
    # an on-line label is knocked out of the shaft, so layout sends it to
    # the general path too
    placed = layout.layout_diagram(DiagramIR(nodes, (), cfg)).nodes if nodes else []
    reach = ({p.node.anchor: p.half_w + layout.MARGIN for p in placed},
             {p.node.anchor: p.half_h + layout.MARGIN for p in placed})
    assert _clip(_first_path, DiagramIR(nodes, (arrow,), cfg)) == _clip(
        layout.clip_general, arrow, reach, frame
    )


def _clipped(clip, *args):
    """A clipped path's record, or the kind, message and seq of its error."""
    try:
        return clip(*args)
    except LayoutError as exc:
        return type(exc), str(exc), exc.seq


coordinates = st.integers(-900, 900)
# half extents of a node box, margin included, in layout units: most
# from real text, some far wider than a short arrow
reach_extents = st.one_of(st.integers(layout.MARGIN, layout.MARGIN + 200 * layout.QUANTUM),
                          st.integers(0, 2000 * layout.QUANTUM))


@BOUNDED
@given(
    start=st.builds(Point, coordinates, coordinates),
    delta=st.one_of(st.tuples(coordinates, coordinates),
                    st.tuples(coordinates, st.just(0)), st.tuples(st.just(0), coordinates)),
    kind=st.sampled_from([KIND_POS, KIND_VECTOR]),
    reach_at=st.tuples(*[st.one_of(st.none(), st.tuples(reach_extents, reach_extents))] * 2),
    label=st.text("fgw\\{}", max_size=6),
    side=st.sampled_from(list(LabelSide)),
    label2=st.sampled_from(["", "u", "ww"]),
    offset_pt=st.sampled_from([0, 3, -3, Fraction(5, 2), Fraction(-1, 3)]),
    local_scale=st.sampled_from([1, Fraction(1, 10), Fraction(3, 7), 2]),
    em_size=st.sampled_from([10, 12, Fraction(7, 2), Fraction(1, 3)]),
)
@example(start=Point(0, 0), delta=(500, 0), kind=KIND_POS,
         reach_at=((55000, 80000), (55000, 80000)), label="f", side=LabelSide.ON_LINE,
         label2="", offset_pt=0, local_scale=1, em_size=10)
@example(start=Point(0, 0), delta=(300, 300), kind=KIND_POS,
         reach_at=((200000, 200000), (200000, 200000)), label="", side=LabelSide.NONE,
         label2="", offset_pt=0, local_scale=1, em_size=10)  # swallowed
@example(start=Point(-88, -1), delta=(176, 2), kind=KIND_POS, reach_at=(None, None),
         label="f", side=LabelSide.ON_LINE, label2="u", offset_pt=0, local_scale=1,
         em_size=10)  # a cut on a tie of the layout grid
@example(start=Point(0, 0), delta=(700, 700), kind=KIND_POS,
         reach_at=((55000, 80000), None), label="f", side=LabelSide.ABOVE, label2="ww",
         offset_pt=Fraction(5, 2), local_scale=Fraction(3, 7), em_size=Fraction(7, 2))
def test_general_clipping_matches_the_per_call_walk(
    start, delta, kind, reach_at, label, side, label2, offset_pt, local_scale, em_size,
):
    # the inline general path against the per-call clipping it replaced:
    # the same record, or the same swallow error for the same arrow
    end = Point(start.x + delta[0], start.y + delta[1])
    arrow = Arrow(start, end, ">", label, side, 7, kind=kind, label2=label2,
                  offset_pt=offset_pt, local_scale=local_scale)
    reach = ({}, {})
    for at, extents in zip((start, end), reach_at):
        if extents is not None and at not in reach[0]:
            reach[0][at], reach[1][at] = extents
    cfg = ScaleConfig(em_size=em_size)
    frame = layout._Frame.of(cfg, DEFAULT_METRICS)
    walk_frame = layout._Frame.of(cfg, DEFAULT_METRICS)
    assert _clipped(layout.clip_general, arrow, reach, frame) == _clipped(
        clip_walk.clip_general, arrow, reach, walk_frame, {})


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
        return laid.bbox, box_walk.bounding_box(laid.nodes, laid.paths)


@BOUNDED
@given(cmds=st.lists(commands(field=short_texts), min_size=1, max_size=4))
def test_layout_box_agrees_with_the_two_walk_box(cmds):
    # the running extremes of the one layout walk against a second walk
    # over every node box, path and label it built
    try:
        raw_ir, _ = expand_figure(Figure(cmds, [(1, 1)] * len(cmds)))
    except DiagramError:
        return
    pair = _box_pair(merge_duplicate_nodes(raw_ir))
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
    any label side, offset and local scale, at scale 1, 1/2 or 1/3."""
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
    scale = ScaleConfig(draw(st.sampled_from([1, Fraction(1, 2), Fraction(1, 3)])))
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


@BOUNDED
@given(ir=printed_irs())
@example(ir=DiagramIR(  # double shafts on a diagonal, one knocked out whole, at 1/3
    (Node(Point(0, 0), "A", 0), Node(Point(600, 1200), "B", 1)),
    (Arrow(Point(0, 0), Point(600, 1200), "=>", "f", LabelSide.ABOVE, 2),
     Arrow(Point(0, 0), Point(600, 1200), " =", "wwwwwwwwwwwwwwwwwwww", LabelSide.ON_LINE, 3,
           offset_pt=Fraction(3, 2)),
     Arrow(Point(0, 0), Point(600, 0), "@{-->}", "A&B", LabelSide.ON_LINE, 4,
           kind=KIND_VECTOR)),
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
