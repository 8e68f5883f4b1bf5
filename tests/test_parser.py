"""Grammar: optional sections, payload splitting, round-trips, arity."""
import re
from fractions import Fraction
from pathlib import Path

import pytest
from opcode_count import opcodes

from diagc import (ParseError, Point, compile_source, format_command, merge_duplicate_nodes,
                   parse_command, parse_source, render_figure)
from diagc import lexer, parser


def test_square_defaults():
    cmd = parse_command("\\square[A`B`C`D;f`g`h`k]")
    assert cmd.kind == "square"
    assert cmd.origin == Point(0, 0)
    assert cmd.placements == "alrb"
    assert cmd.styles == (">", ">", ">", ">")
    assert cmd.extent == (500, 500)
    assert cmd.nodes == ("A", "B", "C", "D")
    assert cmd.labels == ("f", "g", "h", "k")


def test_morphism_raw_style_stays_atomic():
    cmd = parse_command("\\morphism(0,0)|a|/{@{>}@/^1em/}/<500,0>[A`B;f]")
    assert cmd.styles == ("@{>}@/^1em/",)
    assert cmd.extent == (500, 0)


def test_bare_inline_to():
    cmd = parse_command("\\to")
    assert cmd.kind == "to"
    assert cmd.styles == (">",)
    assert cmd.length == 0
    assert cmd.labels == ("", "")


def test_inline_scripts():
    cmd = parse_command("\\to^{f}_{g}")
    assert cmd.labels == ("f", "g")
    cmd = parse_command("\\two/->`->/")
    assert cmd.styles == ("->", "->")
    cmd = parse_command("\\three<600>^a|b_c")
    assert cmd.length == 600
    assert cmd.labels == ("a", "b", "c")


@pytest.mark.parametrize(
    "source, where",
    [("\\to^}_{\\alpha}", (1, 5)), ("\\bfig\n  \\two^{a}_ }\n\\efig", (2, 13))],
)
def test_stray_close_brace_is_no_script(source, where):
    with pytest.raises(ParseError) as info:
        parse_source(source)
    d = info.value.diagnostic
    assert ((d.line, d.col), d.message) == (where, "unbalanced '}'")


def test_inline_spaced_style_token():
    cmd = parse_command("\\to/ >->/")
    assert cmd.styles == (" >->",)


def test_payload_splitting():
    cmd = parse_command("\\morphism[A`B;f]")
    assert (cmd.nodes, cmd.labels) == (("A", "B"), ("f",))
    assert parse_command("\\morphism[A`B;{f`g}]").labels == ("f`g",)
    cmd = parse_command("\\square[```;```]")
    assert (cmd.nodes, cmd.labels) == (("",) * 4, ("",) * 4)


def test_payload_brace_stripping_one_level():
    cmd = parse_command("\\morphism[{{A}}`B;{f;g}]")
    assert cmd.nodes == ("{A}", "B")
    assert cmd.labels == ("f;g",)


def test_payload_control_symbols_are_atomic():
    cmd = parse_command(r"\morphism[{\{a\}}`B;{f\`g}]")
    assert cmd.nodes == (r"\{a\}", "B")
    assert cmd.labels == (r"f\`g",)


def test_payload_unbalanced_braces():
    with pytest.raises(ParseError):
        parse_command("\\morphism[{A`B;f]")


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("[a`b]  ", (1, 16), "payload needs exactly one top-level ';' between nodes and labels"),
        ("[a;b;c]\n ", (1, 18), "payload needs exactly one top-level ';' between nodes and labels"),
        ("[a\\;b]", (1, 17), "payload needs exactly one top-level ';' between nodes and labels"),
        ("[a`b;f] x", (1, 19), "trailing text after command"),
        ("[a;b", (1, 15), "unexpected end of input inside section"),
        ("a;b]", (1, 11), "expected '[' to open a payload"),
    ],
)
def test_payload_diagnostics(text, where, message):
    # the payload of a \morphism, which takes two nodes and one label
    with pytest.raises(ParseError) as info:
        parse_command("\\morphism " + text)
    d = info.value.diagnostic
    assert ((d.line, d.col), d.message) == (where, message)


@pytest.mark.parametrize(
    "source, where, message",
    [
        ("\\square/>`>/[A`B`C`D;f`g`h`k]", (1, 13), "expected 4 style token(s), got 2"),
        ("\\scalefactor", (1, 13), "unexpected end of input"),
        ("\\to^", (1, 5), "unexpected end of input"),
    ],
)
def test_section_diagnostics(source, where, message):
    with pytest.raises(ParseError) as info:
        parse_source(source)
    d = info.value.diagnostic
    assert ((d.line, d.col), d.message) == (where, message)


NINE = "[A`B`C`D`E`F`G`H`I;f`g`h`i`j`k`l`m`n`o`p`q]"


@pytest.mark.parametrize(
    "source, where, message",
    [
        ("\\square(1_0,0)[A`B`C`D;f`g`h`k]", (1, 15), "malformed integer in '1_0,0'"),
        ("\\square(\u0663,0)[A`B`C`D;f`g`h`k]", (1, 13), "malformed integer in '\u0663,0'"),
        ("\\vector(0,0)/>/<500,\uff10>", (1, 23), "malformed integer in '500,\uff10'"),
        ("\\iiixiii{1_5}" + NINE, (1, 14), "malformed mask '1_5'"),
        ("\\iiixii \u0663[A`B`C`D`E`F;f`g`h`i`j`k`l]", (1, 10), "malformed mask '\u0663'"),
        ("\\scalefactor{1_0}", (1, 18), "malformed scale factor '1_0'"),
        ("\\scalefactor{1e3}", (1, 18), "malformed scale factor '1e3'"),
        ("\\scalefactor{\u0663}", (1, 16), "malformed scale factor '\u0663'"),
    ],
)
def test_source_numbers_are_ascii(source, where, message):
    # int() and Fraction() alone read each of these numbers
    with pytest.raises(ParseError) as info:
        parse_command(source)
    d = info.value.diagnostic
    assert ((d.line, d.col), d.message) == (where, message)


LONG = "9" * 4301   # one digit more than int() reads and str() writes


@pytest.mark.parametrize(
    "source, where, message",
    [
        # one match: _Ints.take and _Mask.take refuse, and the section
        # reader names the section
        (f"\\morphism(0,0)<{LONG},0>[A`B;f]", (1, 4320), "integer of more than 4300 digits"),
        (f"\\morphism(-{LONG},0)[A`B;f]", (1, 4316), "integer of more than 4300 digits"),
        (f"\\iiixiii{{{LONG}}}" + NINE, (1, 4312), "mask must be in 0..4095"),
        (f"\\iiixiii{{1}}<{LONG},400>" + NINE, (1, 4319), "integer of more than 4300 digits"),
        # the section reader alone: _Ints.read and _Mask.read
        (f"\\morphism(0,0) <+{LONG},0>[A`B;f]", (1, 4322), "integer of more than 4300 digits"),
        (f"\\iiixiii {{{LONG}}}" + NINE, (1, 4313), "mask must be in 0..4095"),
        (f"\\iiixiii{{1}} <{LONG},400>" + NINE, (1, 4320), "integer of more than 4300 digits"),
        # geometry.read_positive, by either path: a run of digits, leading zeros too
        (f"\\scalefactor{{{LONG}}}", (1, 4316), "scale factor has more than 4300 digits in a row"),
        (f"\\scalefactor {{1/0{LONG}}}", (1, 4320),
         "scale factor has more than 4300 digits in a row"),
    ],
    ids=["extent", "origin", "mask", "stub", "extent-read", "mask-read", "stub-read", "factor",
         "factor-read"],
)
def test_an_integer_of_more_than_4300_digits_is_a_parse_error(source, where, message):
    with pytest.raises(ParseError) as info:
        parse_command(source)
    d = info.value.diagnostic
    assert ((d.line, d.col), d.message) == (where, message)


@pytest.mark.parametrize("fmt", ["svg", "tikz", "xypic", "ir"])
@pytest.mark.parametrize("spacing", ["", " "])
def test_an_integer_of_4300_digits_compiles(fmt, spacing):
    (fig,) = compile_source(f"\\morphism(0,0){spacing}<{'9' * 4300},0>[A`B;f]")
    assert fig.ir.arrows[0].end == Point(int("9" * 4300), 0)
    assert render_figure(fig, fmt)
    with pytest.raises(ParseError):
        compile_source(f"\\morphism(0,0){spacing}<{LONG},0>[A`B;f]")


def test_ascii_number_spellings():
    assert parse_command("\\twoar( +5 ,-007)").direction == (5, -7)
    assert parse_command("\\iiixiii{ 015 }" + NINE).mask == 15
    for text, factor in [("3/4", Fraction(3, 4)), (" -1.50", Fraction(-3, 2)),
                         (".5", Fraction(1, 2)), ("2.", Fraction(2)), ("+2/04", Fraction(1, 2)),
                         ("9" * 4300, int("9" * 4300)), ("1/" + "0" * 4299 + "2", Fraction(1, 2))]:
        source = "\\scalefactor{" + text + "}"
        if factor > 0:
            assert parse_command(source).factor == factor
        else:
            with pytest.raises(ParseError, match="must be positive"):
                parse_command(source)
    with pytest.raises(ParseError, match="malformed scale factor"):
        parse_command("\\scalefactor{1/00}")


def test_place_variants():
    cmd = parse_command("\\place(250,250)[X]")
    assert (cmd.origin, cmd.align, cmd.nodes) == (Point(250, 250), "", ("X",))
    cmd = parse_command("\\place[r](0,0)[Y]")
    assert cmd.align == "r"
    with pytest.raises(ParseError, match="alignment"):
        parse_command("\\place[z](0,0)[Y]")


def test_vector_sections_required():
    cmd = parse_command("\\vector(100,100)/<-/<0,400>")
    assert cmd.origin == Point(100, 100)
    assert cmd.styles == ("<-",)
    assert cmd.extent == (0, 400)
    with pytest.raises(ParseError):
        parse_command("\\vector(0,0)<500,0>")


def test_grid_mask_and_stub_sections():
    src = "\\iiixii" + "[A`B`C`D`E`F;f`g`h`i`j`k`l]"
    cmd = parse_command(src)
    assert (cmd.mask, cmd.stub) == (0, (0,))
    cmd = parse_command("\\iiixii{5}<400>[A`B`C`D`E`F;f`g`h`i`j`k`l]")
    assert (cmd.mask, cmd.stub) == (5, (400,))
    cmd = parse_command("\\iiixii7[A`B`C`D`E`F;f`g`h`i`j`k`l]")
    assert (cmd.mask, cmd.stub) == (7, (400,))
    nine = "[A`B`C`D`E`F`G`H`I;f`g`h`i`j`k`l`m`n`o`p`q]"
    cmd = parse_command("\\iiixiii{2048}" + nine)
    assert (cmd.mask, cmd.stub) == (2048, (400, 400))
    cmd = parse_command("\\iiixiii" + nine)
    assert (cmd.mask, cmd.stub) == (0, (0, 0))
    with pytest.raises(ParseError, match="mask"):
        parse_command("\\iiixiii{4096}" + nine)


def test_cube_and_pullback_sections():
    cmd = parse_command("\\cube[A`B`C`D;f`g`h`k][a`b`c`d;p`q`r`s][w`x`y`z]")
    assert cmd.extent == (1500, 1500)
    inner, connectors = cmd.parts
    assert inner.origin == Point(500, 500)
    assert inner.extent == (500, 500)
    assert connectors.placements == "mmmm"
    assert connectors.labels == ("w", "x", "y", "z")
    cmd = parse_command("\\pullback[A`B`C`D;f`g`h`k][E;p`q`r]")
    (trident,) = cmd.parts
    assert trident.placements == "amb"
    assert trident.styles == (">", ">", ">")
    assert trident.extent == (500, 500)
    assert trident.nodes == ("E",)


def test_a_command_without_its_parts_writes_their_defaults():
    square = parse_command("\\square[A`B`C`D;f`g`h`k]")
    cube = square._replace(kind="cube", extent=(1500, 1500))
    assert format_command(cube).endswith(
        "[A`B`C`D;f`g`h`k](500,500)|alrb|/>`>`>`>/<500,500>[]|mmmm|/>`>`>`>/[]")
    pullback = square._replace(kind="pullback")
    assert format_command(pullback).endswith("[A`B`C`D;f`g`h`k]|amb|/>`>`>/<500,500>[]")
    with pytest.raises(ValueError, match="^cannot format command kind 'nosuch'$"):
        format_command(square._replace(kind="nosuch"))


def test_whitespace_between_sections_is_free():
    tight = parse_command("\\square(0,0)|alrb|/>`>`>`>/<500,500>[A`B`C`D;f`g`h`k]")
    airy = parse_command(
        "\\square (0,0)\n  |alrb|  % placements\n />`>`>`>/ <500,500>\n [A`B`C`D;f`g`h`k]"
    )
    assert tight == airy


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_comment_suppresses_newline_inside_payload(end):
    cmd = parse_command(f"\\morphism[A%x{end}B`C;f]")
    assert cmd.nodes == ("AB", "C")
    cmd = parse_command(f"\\morphism[A %x{end}B`C;f]")
    assert cmd.nodes == ("A B", "C")


def test_arity_mutations_raise():
    good = "\\square[A`B`C`D;f`g`h`k]"
    assert parse_command(good)
    with pytest.raises(ParseError, match="node field"):
        parse_command("\\square[A`B`C;f`g`h`k]")
    with pytest.raises(ParseError, match="node field"):
        parse_command("\\square[A`B`C`D`E;f`g`h`k]")
    with pytest.raises(ParseError, match="label field"):
        parse_command("\\square[A`B`C`D;f`g`h`k`x]")
    with pytest.raises(ParseError, match="label field"):
        parse_command("\\morphism[A`B;f`g]")
    with pytest.raises(ParseError, match="at most 1 placement"):
        parse_command("\\morphism|ab|[A`B;f]")
    with pytest.raises(ParseError, match="expected 4 placement character"):
        parse_command("\\square|alr|[A`B`C`D;f`g`h`k]")


def test_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_source("\\square[A`B`C`D;f`g`h`k]\n\\bogus", "ex.dg")
    diag = info.value.diagnostic
    assert (diag.filename, diag.line, diag.col) == ("ex.dg", 2, 1)
    with pytest.raises(ParseError, match="end of input"):
        parse_command("\\square[A`B")
    with pytest.raises(ParseError) as info:
        parse_command("x")
    diag = info.value.diagnostic
    assert (diag.line, diag.col, diag.message) == (1, 1, "expected '\\\\' to start a command")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_each_line_end_counts_once(end):
    """CR LF, a lone CR and LF each end one line; a backslash before one
    puts a token boundary inside a CR LF, and the count holds across it."""
    for source, where in ((f"\\place(0,0)[a]{end}\\bogus", (2, 1)),
                          (f"\\place(0,0)[a] % note{end}\\bogus", (2, 1)),
                          (f"\\place(0,0)[a\\{end}b]{end}\\bogus", (3, 1)),
                          (f"\\to^\\{end}_x{end} \\bogus", (3, 2)),
                          (f"\\scalefactor\\{end}", (2, 1))):  # at the LF of a CR LF
        with pytest.raises(ParseError) as info:
            parse_source(source, "x.dg")
        d = info.value.diagnostic
        assert (d.line, d.col) == where, source
    figure = parse_source(f"\\place(0,0)[a]{end}{end}  \\place(0,0)[a]")[0]
    assert figure.positions == [(1, 1), (3, 3)]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_positions_by_line_end(end):
    """Figure positions and the positions of the figure-level errors, under
    each line ending."""
    source = (f"\\scalefactor{{2}}{end}\\place(0,0)[a]{end}\\bfig{end}  \\place(0,0)[a]\\to{end}"
              f"\t\\square[A`B`C`D;f`g`h`k] \\place(0,0)[a\\{end}b]{end}\\efig{end}")
    inner, outer = parse_source(source)
    assert (inner.positions, inner.line, inner.col) == ([(4, 3), (4, 17), (5, 2), (5, 27)], 3, 1)
    assert (outer.positions, outer.line, outer.col) == ([(1, 1), (2, 1)], 1, 1)
    for tail, message in ((f"\\bfig{end}  \\bfig", "9:3: error: nested \\bfig"),
                          (f"{end} \\efig", "9:2: error: \\efig without \\bfig"),
                          (f"{end} \\bogus", "9:2: error: unknown command \\bogus")):
        with pytest.raises(ParseError) as info:
            parse_source(source + tail, "x.dg")
        assert str(info.value) == "x.dg:" + message


def test_positions_live_on_the_figure():
    figure, = parse_source("\\bfig\n\\place(0,0)[A]\n  \\place(0,0)[A] \\to\n\\efig")
    assert (figure.line, figure.col) == (1, 1)
    assert figure.positions == [(2, 1), (3, 3), (3, 18)]
    first, second, _ = figure.commands
    assert first == second == parse_command(format_command(first))


def test_figure_blocks():
    figs = parse_source("\\bfig \\to \\efig \\bfig \\two \\efig")
    assert [[c.kind for c in f.commands] for f in figs] == [["to"], ["two"]]
    # the top-level commands make one figure, after the explicit ones
    figs = parse_source("\\to \\bfig \\two \\efig \\three")
    assert [[c.kind for c in f.commands] for f in figs] == [["two"], ["to", "three"]]
    with pytest.raises(ParseError, match="efig"):
        parse_source("\\bfig \\to")
    with pytest.raises(ParseError, match="without"):
        parse_source("\\efig")
    with pytest.raises(ParseError, match="nested"):
        parse_source("\\bfig \\bfig")


ROUND_TRIP_SOURCES = [
    "\\morphism[A`B;f]",
    "\\morphism(30,-40)|m|/ >->/<0,-700>[{A`B}`C;{f;g}]",
    "\\morphism(0,0)||/{@{>}@/^1em/}/<500,0>[A`B;f]",
    "\\vector(0,0)/>/<500,0>",
    "\\place[l](10,20)[X]",
    "\\square(1,2)|mrab|/->`>->`<-`-->/<700,300>[A`B`C`D;f`g`h`k]",
    "\\Square[A`B`C`D;f`morphism`h`k]",
    "\\ptriangle[A`B`C;f`g`h]",
    "\\Dtriangle(5,5)|bar|/=`=>`.>/<600,400>[A`B`C;f`g`h]",
    "\\Ctrianglepair[A`B`C`D;f`g`h`i`j]",
    "\\hSquares[A`B`C`D`E`F;f`g`h`i`j`k`l]",
    "\\vSquares(0,0)|alrmlrb|/>`>`>`>`>`>`>/<300,700>[A`B`C`D`E`F;f`g`h`i`j`k`l]",
    "\\cube[A`B`C`D;f`g`h`k](400,400)|alrb|/>`>`>`>/<600,600>[a`b`c`d;p`q`r`s]|mmam|/>`<-`>`>/[w`x`y`z]",
    "\\pullback(0,0)|alrb|/>`>`>`>/<600,400>[A`B`C`D;f`g`h`k]|amb|/>`>`>/<200,300>[E;p`q`r]",
    "\\iiixiii{2730}<350,450>[A`B`C`D`E`F`G`H`I;f`g`h`i`j`k`l`m`n`o`p`q]",
    "\\iiixii{15}<400>[A`B`C`D`E`F;f`g`h`i`j`k`l]",
    "\\to/ >->/<0>^{fg}_{}",
    "\\two/->`->/<250>^{a}_{b}",
    "\\three/>`>`>/<0>^{a}|{b}_{c}",
    "\\twoar(-3,2)",
    "\\scalefactor{1/2}",
]


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_pretty_print_reparse_fixpoint(source):
    cmd = parse_command(source)
    printed = format_command(cmd)
    again = parse_command(printed)
    assert again == cmd
    assert format_command(again) == printed


def test_more_whitespace_between_sections():
    pairs = [
        ("\\iiixii {5} <400> [A`B`C`D`E`F;f`g`h`i`j`k`l]",
         "\\iiixii{5}<400>[A`B`C`D`E`F;f`g`h`i`j`k`l]"),
        ("\\to /<-/ <250> ^{a} _{b}", "\\to/<-/<250>^{a}_{b}"),
        ("\\pullback [A`B`C`D;f`g`h`k] |amb| /{>}`{>}`{>}/ <500,500> [E;p`q`r]",
         "\\pullback[A`B`C`D;f`g`h`k]|amb|/{>}`{>}`{>}/<500,500>[E;p`q`r]"),
        ("\\cube [A`B`C`D;f`g`h`k]\n[a`b`c`d;p`q`r`s]\n[w`x`y`z]",
         "\\cube[A`B`C`D;f`g`h`k][a`b`c`d;p`q`r`s][w`x`y`z]"),
    ]
    for airy, tight in pairs:
        assert parse_command(airy) == parse_command(tight)


def _square_grid(k):
    """A k x k grid of squares; each node is named by its grid point."""
    def node(i, j):
        return f"X_{{{i},{j}}}"
    squares = (f"\\square({500 * j},{500 * i})"
               f"[{node(i + 1, j)}`{node(i + 1, j + 1)}`{node(i, j)}`{node(i, j + 1)};f`g`h`k]"
               for i in range(k) for j in range(k))
    return "\\bfig\n" + "\n".join(squares) + "\n\\efig\n"


def test_parse_cost_per_byte_is_bounded():
    # the section reader alone costs about 27 instructions per grid byte and
    # 37 per corpus byte; one match per command, about 6.9 and 15.0
    def per_byte(texts):
        def parse():
            return [parse_source(t) for t in texts]
        parse()  # the scan patterns are compiled on first use
        return opcodes(parse) / sum(map(len, texts))

    small, large = per_byte([_square_grid(10)]), per_byte([_square_grid(20)])
    assert large <= 7.5
    assert large <= 1.1 * small
    corpus = sorted(Path(__file__).parent.joinpath("corpus").glob("*.dg"))
    assert per_byte([p.read_text(encoding="utf-8") for p in corpus]) <= 15.5


def test_pattern_compile_cost_is_bounded():
    # every process that parses compiles these once, on first use: about
    # 188000 instructions, most of them the shared section pattern
    patterns = (parser._sections, parser._command_name, parser._line_break, lexer._cutter)

    def compile_all():
        for pattern in patterns:
            pattern()

    for pattern in patterns:
        pattern.cache_clear()
    re.purge()
    assert opcodes(compile_all) <= 230_000


def test_compile_cost_per_arrow_is_bounded():
    # parse, expand and merge: about 314 instructions per arrow on the 20x20
    # grid, 170 of them expansion (412 and 265 with five Python calls per
    # edge, 634 with the section reader alone)
    def per_arrow(k):
        text = _square_grid(k)
        compile_source(text)  # the scan patterns are compiled on first use
        arrows = len(compile_source(text)[0].raw_ir.arrows)
        return opcodes(lambda: compile_source(text)) / arrows

    small, large = per_arrow(10), per_arrow(20)
    assert large <= 349
    assert large <= 1.05 * small


def test_merge_cost_per_node_is_bounded():
    # the merge looks at each node once: about 16.7 instructions per node
    # on the 20x20 grid's 3200 drawn nodes
    def per_node(k):
        raw = compile_source(_square_grid(k))[0].raw_ir
        return opcodes(lambda: merge_duplicate_nodes(raw, [])) / len(raw.nodes)

    small, large = per_node(10), per_node(20)
    assert large <= 18.4
    assert large <= 1.05 * small
