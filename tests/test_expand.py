"""Expansion: the traced coordinate table, widths, grids, properties."""
import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from shape_fixtures import FIXTURES

from diagc import (
    DiagramIR,
    ExpandError,
    LabelSide,
    LayoutError,
    Node,
    Point,
    ScaleConfig,
    compile_source,
    measure_morphism_width,
    merge_duplicate_nodes,
    two_cell_endpoint,
)


def _expand_one(source, cfg=None):
    figures = compile_source(source, cfg=cfg)
    assert len(figures) == 1
    return figures[0]


def _arrow_rows(ir):
    return [
        (a.start_text, a.end_text, tuple(a.start), tuple(a.end),
         a.style, a.label, a.side.value)
        for a in ir.arrows
    ]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_traced_fixture_table(name):
    fx = FIXTURES[name]
    ir = _expand_one(fx["source"]).ir
    assert {n.text: (n.anchor.x, n.anchor.y) for n in ir.nodes} == fx["nodes"]
    assert _arrow_rows(ir) == [tuple(row) for row in fx["arrows"]]
    if "offsets_pt" in fx:
        assert [a.offset_pt for a in ir.arrows] == [
            Fraction(s) for s in fx["offsets_pt"]
        ]
    if "local_scale" in fx:
        assert all(
            a.local_scale == Fraction(fx["local_scale"]) for a in ir.arrows
        )


def test_morphism_side_cases():
    fig = _expand_one("\\morphism(0,0)|l|/>/<0,-500>[A`B;f]")
    assert fig.ir.arrows[0].side is LabelSide.BELOW
    fig = _expand_one("\\morphism(0,0)|x|/>/<500,0>[A`B;f]")
    assert fig.ir.arrows[0].side is LabelSide.NONE
    assert any("label dropped" in w.message for w in fig.warnings)
    fig = _expand_one("\\morphism(0,0)|m|/>/<500,0>[A`B;]")
    assert fig.ir.arrows[0].side is LabelSide.NONE
    assert not fig.warnings
    fig = _expand_one("\\morphism(0,0)||/>/<500,0>[A`B;f]")
    assert fig.ir.arrows[0].side is LabelSide.NONE
    assert any("label dropped" in w.message for w in fig.warnings)
    fig = _expand_one("\\morphism(0,0)||/>/<500,0>[A`B;]")
    assert not fig.warnings


def test_degenerate_morphism_names_command():
    with pytest.raises(ExpandError, match="morphism"):
        compile_source("\\morphism(0,0)|a|/>/<0,0>[A`B;f]")
    with pytest.raises(ExpandError, match="vector"):
        compile_source("\\vector(0,0)/>/<0,0>")
    with pytest.raises(ExpandError, match="square"):
        compile_source("\\square<0,500>[A`B`C`D;f`g`h`k]")


def test_place_empty_text_is_anchor_only():
    ir = _expand_one("\\place(3,4)[]").ir
    assert len(ir.nodes) == 1 and ir.nodes[0].text == ""
    assert ir.nodes[0].standalone


def test_square_custom_extent_scales_offsets():
    ir = _expand_one("\\square<700,300>[A`B`C`D;f`g`h`k]").ir
    coords = {n.text: tuple(n.anchor) for n in ir.nodes}
    assert coords == {"A": (0, 300), "B": (700, 300), "C": (0, 0), "D": (700, 0)}


def test_square_empty_labels_keep_arrows():
    ir = _expand_one("\\square[A`B`C`D;```]").ir
    assert len(ir.arrows) == 4
    assert all(a.label == "" for a in ir.arrows)


def test_square_merges_duplicate_corners():
    fig = _expand_one("\\square[A`B`C`D;f`g`h`k]")
    assert len(fig.raw_ir.nodes) == 8
    assert len(fig.ir.nodes) == 4
    assert fig.ir.arrows == fig.raw_ir.arrows


def test_merge_place_over_corner_with_same_text():
    fig = _expand_one("\\square[A`B`C`D;f`g`h`k]\n\\place(0,0)[C]")
    at_origin = [n for n in fig.ir.nodes if n.anchor == Point(0, 0)]
    assert len(at_origin) == 1 and at_origin[0].text == "C"
    assert not fig.warnings


def test_grid3x3_full_mask_count():
    ir = _expand_one("\\iiixiii{4095}" + GRID33).ir
    assert len(ir.arrows) == 24


def test_incidence_invariant_under_extents():
    shapes = [
        ("square", "[A`B`C`D;f`g`h`k]"),
        ("ptriangle", "[A`B`C;f`g`h]"),
        ("Vtriangle", "[A`B`C;f`g`h]"),
        ("Dtrianglepair", "[A`B`C`D;f`g`h`i`j]"),
        ("iiixiii", "[A`B`C`D`E`F`G`H`I;f`g`h`i`j`k`l`m`n`o`p`q]"),
    ]
    rng = random.Random(11)
    for name, payload in shapes:
        base = _expand_one(f"\\{name}{payload}").ir
        incidence = [(a.start_text, a.end_text, a.label) for a in base.arrows]
        for _ in range(3):
            dx, dy = rng.randint(1, 1500), rng.randint(1, 1500)
            ir = _expand_one(f"\\{name}<{dx},{dy}>{payload}").ir
            assert len(ir.nodes) == len(base.nodes)
            got = [(a.start_text, a.end_text, a.label) for a in ir.arrows]
            assert got == incidence, (name, dx, dy)
            anchors = {n.text: n.anchor for n in ir.nodes}
            for arrow in ir.arrows:
                if arrow.start_text:
                    assert arrow.start == anchors[arrow.start_text]
                if arrow.end_text:
                    assert arrow.end == anchors[arrow.end_text]


def test_merge_idempotent_and_warns_on_text_conflict():
    fig = _expand_one("\\square[A`B`C`D;f`g`h`k]\n\\place(0,0)[Z]")
    notes, seqs = [], []
    merged = merge_duplicate_nodes(fig.raw_ir, notes, seqs)
    assert merged == merge_duplicate_nodes(merged)
    texts_at_origin = {n.text for n in merged.nodes if n.anchor == Point(0, 0)}
    assert texts_at_origin == {"C", "Z"}
    assert notes == ["two nodes at (0,0) with different text: 'C' and 'Z'"]
    assert seqs == [fig.raw_ir.nodes[-1].seq]  # the placed Z, drawn last


def test_merge_keeps_the_first_node_per_anchor_and_text_in_order():
    a, b, c = Point(0, 0), Point(500, 0), Point(0, 500)
    nodes = [Node(b, "B", 0), Node(a, "A", 1), Node(b, "B", 2), Node(a, "X", 3),
             Node(c, "C", 4), Node(a, "A", 5), Node(a, "X", 6), Node(a, "Y", 7)]
    notes, seqs = [], []
    merged = merge_duplicate_nodes(DiagramIR(tuple(nodes), ()), notes, seqs)
    assert [n.seq for n in merged.nodes] == [0, 1, 3, 4, 7]
    assert notes == ["two nodes at (0,0) with different text: 'A' and 'X'",
                     "two nodes at (0,0) with different text: 'A' and 'Y'"]
    assert seqs == [3, 7]


def test_text_conflict_warning_names_the_command_of_the_later_node():
    source = ("\\bfig\n\\morphism(0,0)[A`B;f]\n\n  \\morphism(0,0)/@{~>}/<500,0>[A`B;g]\n"
              "\\morphism(0,0)<0,500>[X`C;h]\n\\efig\n")
    (fig,) = compile_source(source, "w.dg")
    assert [d.format() for d in fig.warnings] == [
        "w.dg:5:1: warning: two nodes at (0,0) with different text: 'A' and 'X'"]


def test_measure_morphism_width_examples():
    assert measure_morphism_width("A", "B", "f") == 500
    assert measure_morphism_width("A", "B", "morphism") == 680
    assert measure_morphism_width("", "", "") == 500


def test_auto_square_width_from_bottom_edge():
    ir = _expand_one("\\Square[A`B`C`D;f`g`h`morphism]").ir
    xs = {n.anchor.x for n in ir.nodes}
    assert xs == {0, 680}
    ir = _expand_one("\\Square[A`B`C`D;```]").ir
    assert {tuple(n.anchor) for n in ir.nodes} == {
        (0, 500), (500, 500), (0, 0), (500, 0)}


def test_auto_square_explicit_height():
    ir = _expand_one("\\Square<300>[A`B`C`D;f`g`h`k]").ir
    assert {n.anchor.y for n in ir.nodes} == {0, 300}


def test_vsquares_extents_are_bottom_then_top():
    ir = _expand_one(
        "\\vSquares<300,700>[A`B`C`D`E`F;f`g`h`i`j`k`l]"
    ).ir
    ys = {n.text: n.anchor.y for n in ir.nodes}
    assert ys == {"A": 1000, "B": 1000, "C": 300, "D": 300, "E": 0, "F": 0}


def test_vsquares_shared_width_ratchets_all_three_edges():
    ir = _expand_one(
        "\\vSquares[A`B`C`D`E`F;f`g`h`morphism`j`k`l]"
    ).ir
    assert {n.anchor.x for n in ir.nodes} == {0, 680}
    # widest measurement is the middle edge label (slot 4): shared width
    ir = _expand_one(
        "\\vSquares[A`B`C`D`E`F;f`g`h`i`j`k`morphism]"
    ).ir
    assert {n.anchor.x for n in ir.nodes} == {0, 680}


def test_hsquares_widths_measured_independently():
    ir = _expand_one(
        "\\hSquares[A`B`C`D`E`F;morphism`g`h`i`j`k`l]"
    ).ir
    xs = {n.text: n.anchor.x for n in ir.nodes}
    assert xs == {"A": 0, "B": 680, "C": 1180, "D": 0, "E": 680, "F": 1180}


def test_cube_custom_inner_origin_recomputes_connectors():
    ir = _expand_one(
        "\\cube[A`B`C`D;f`g`h`k](400,400)[a`b`c`d;p`q`r`s][w`x`y`z]"
    ).ir
    rows = _arrow_rows(ir)
    assert ("B", "b", (1500, 1500), (900, 900), ">", "x", "online") in rows
    assert ("A", "a", (0, 1500), (400, 900), ">", "w", "online") in rows
    assert ("C", "c", (0, 0), (400, 400), ">", "y", "online") in rows
    assert ("D", "d", (1500, 0), (900, 400), ">", "z", "online") in rows


def test_cube_outside_inner_square_warns():
    fig = _expand_one(
        "\\cube[A`B`C`D;f`g`h`k](1400,1400)[a`b`c`d;p`q`r`s][w`x`y`z]"
    )
    assert any("inner square" in w.message for w in fig.warnings)


def test_pullback_custom_offset():
    ir = _expand_one(
        "\\pullback<600,400>[A`B`C`D;f`g`h`k]<200,300>[E;p`q`r]"
    ).ir
    rows = _arrow_rows(ir)
    assert ("E", "B", (-200, 700), (600, 400), ">", "p", "above") in rows
    assert ("E", "A", (-200, 700), (0, 400), ">", "q", "online") in rows
    assert ("E", "C", (-200, 700), (0, 0), ">", "r", "below") in rows


GRID32 = "[A`B`C`D`E`F;f`g`h`i`j`k`l]"
GRID33 = "[A`B`C`D`E`F`G`H`I;f`g`h`i`j`k`l`m`n`o`p`q]"


def test_grid3x2_popcount_exhaustive():
    for mask in range(16):
        src = f"\\iiixii{{{mask}}}<400>{GRID32}"
        ir = _expand_one(src).ir
        assert len(ir.arrows) == 7 + bin(mask).count("1"), mask


def test_grid3x2_left_stub_shifts_lattice():
    ir = _expand_one("\\iiixii{1}<400>" + GRID32).ir
    stubs = [a for a in ir.arrows if a.start_text == ""]
    assert len(stubs) == 1
    stub = stubs[0]
    assert stub.end_text == "A"
    assert (tuple(stub.start), tuple(stub.end)) == ((0, 500), (400, 500))
    # the cursor advance is unconditional: the whole lattice shifts right
    anchors = {n.text: tuple(n.anchor) for n in ir.nodes}
    assert anchors["A"] == (400, 500)
    assert anchors["D"] == (400, 0)


def test_grid3x2_stub_defaults_to_400_after_a_mask():
    assert _expand_one("\\iiixii{1}" + GRID32).ir == _expand_one("\\iiixii{1}<400>" + GRID32).ir


def test_grid3x2_zero_stub_with_mask_is_degenerate():
    with pytest.raises(ExpandError, match="stub"):
        compile_source("\\iiixii{1}<0>" + GRID32)


def test_grid3x3_single_bit_stubs_traced():
    # bit -> (node text, displacement, style)
    expected = {
        0: ("I", (400, 0), ">"),
        1: ("F", (400, 0), ">"),
        2: ("C", (400, 0), ">"),
        3: ("G", (-400, 0), "<-"),
        4: ("D", (-400, 0), "<-"),
        5: ("A", (-400, 0), "<-"),
        6: ("I", (0, -400), ">"),
        7: ("H", (0, -400), ">"),
        8: ("G", (0, -400), ">"),
        9: ("C", (0, 400), "<-"),
        10: ("B", (0, 400), "<-"),
        11: ("A", (0, 400), "<-"),
    }
    for bit, (text, disp, style) in expected.items():
        ir = _expand_one(f"\\iiixiii{{{1 << bit}}}{GRID33}").ir
        assert len(ir.arrows) == 13
        stubs = [a for a in ir.arrows if a.end_text == ""]
        assert len(stubs) == 1
        stub = stubs[0]
        anchors = {n.text: n.anchor for n in ir.nodes}
        assert stub.start == anchors[text], bit
        assert stub.displacement == disp, bit
        assert stub.style == style, bit


def test_grid3x3_popcount_random_masks():
    rng = random.Random(1234)
    masks = [rng.randrange(4096) for _ in range(100)]
    for mask in masks:
        ir = _expand_one(f"\\iiixiii{{{mask}}}{GRID33}").ir
        assert len(ir.arrows) == 12 + bin(mask).count("1"), mask


def test_inline_lengths():
    assert _expand_one("\\to").ir.arrows[0].end == Point(200, 0)
    assert _expand_one("\\to^{morphism}").ir.arrows[0].end == Point(430, 0)
    assert _expand_one("\\three").ir.arrows[0].end == Point(300, 0)
    assert _expand_one("\\two<650>").ir.arrows[0].end == Point(650, 0)
    with pytest.raises(ExpandError, match="negative"):
        compile_source("\\to<-5>")


def test_inline_to_carries_both_labels():
    arrow = _expand_one("\\to^{f}_{g}").ir.arrows[0]
    assert (arrow.label, arrow.label2) == ("f", "g")
    assert arrow.side is LabelSide.ABOVE


def test_three_middle_label_on_line_only_when_present():
    middle = _expand_one("\\three^a|b_c").ir.arrows[0]
    assert middle.label == "b" and middle.side is LabelSide.ON_LINE
    middle = _expand_one("\\three^a_c").ir.arrows[0]
    assert middle.side is LabelSide.NONE


def _two_cell_oracle(i, j):
    # independent re-implementation with explicit truncating division
    def trunc(a, b):
        q, r = divmod(a, b)
        if r and (a < 0) != (b < 0):
            q += 1
        return q

    big = 3 * (i * i + j * j)
    small = 3 * abs(i) + abs(j) if abs(i) > abs(j) else abs(i) + 3 * abs(j)
    return (
        trunc(1500 * i, small) + trunc(500 * i * small, big),
        trunc(1500 * j, small) + trunc(500 * j * small, big),
    )


def test_two_cell_examples_and_oracle():
    assert two_cell_endpoint(1, 0) == (1000, 0)
    assert two_cell_endpoint(1, 1) == (708, 708)
    assert two_cell_endpoint(0, -1) == (0, -1000)
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            if (i, j) == (0, 0):
                continue
            assert two_cell_endpoint(i, j) == _two_cell_oracle(i, j), (i, j)
    with pytest.raises(ExpandError, match="zero direction"):
        compile_source("\\twoar(0,0)")
    with pytest.raises(ValueError, match="^zero direction$"):
        two_cell_endpoint(0, 0)


def test_scalefactor_multiplies_figure_scale():
    fig = _expand_one("\\scalefactor{0.5}\n\\square[A`B`C`D;f`g`h`k]")
    assert fig.ir.scale.scale == Fraction(1, 2)
    cfg = ScaleConfig(scale=Fraction(2))
    figures = compile_source("\\scalefactor{0.5}\n\\to", cfg=cfg)
    assert figures[0].ir.scale.scale == 1


def test_translation_equivariance():
    rng = random.Random(5150)
    # (command name, trailing sections); origin is inserted between them
    shapes = [
        ("square", "[A`B`C`D;f`g`h`k]"),
        ("Square", "[A`B`C`D;f`g`h`k]"),
        ("ptriangle", "[A`B`C;f`g`h]"),
        ("Dtriangle", "[A`B`C;f`g`h]"),
        ("Atrianglepair", "[A`B`C`D;f`g`h`i`j]"),
        ("Ctrianglepair", "[A`B`C`D;f`g`h`i`j]"),
        ("hSquares", "[A`B`C`D`E`F;f`g`h`i`j`k`l]"),
        ("vSquares", "[A`B`C`D`E`F;f`g`h`i`j`k`l]"),
        ("pullback", "[A`B`C`D;f`g`h`k][E;p`q`r]"),
        ("iiixii", "{5}<400>" + GRID32),
        ("iiixiii", "{2730}" + GRID33),
        ("morphism", "[A`B;f]"),
        ("vector", "/>/<500,0>"),
    ]
    for name, rest in shapes:
        base = _expand_one(f"\\{name}(0,0){rest}").ir
        for _ in range(3):
            ox, oy = rng.randint(-900, 900), rng.randint(-900, 900)
            moved = _expand_one(f"\\{name}({ox},{oy}){rest}").ir
            base_nodes = sorted(
                (n.text, n.anchor.x + ox, n.anchor.y + oy) for n in base.nodes
            )
            got_nodes = sorted((n.text, n.anchor.x, n.anchor.y) for n in moved.nodes)
            assert base_nodes == got_nodes, name
            base_arrows = [
                (a.start.x + ox, a.start.y + oy, a.end.x + ox, a.end.y + oy)
                for a in base.arrows
            ]
            got_arrows = [
                (a.start.x, a.start.y, a.end.x, a.end.y) for a in moved.arrows
            ]
            assert base_arrows == got_arrows, name


def test_translation_equivariance_cube_moves_both_origins():
    # the inner origin is absolute, so translating a cube means shifting both
    base = _expand_one(
        "\\cube(0,0)[A`B`C`D;f`g`h`k](500,500)[a`b`c`d;p`q`r`s][w`x`y`z]"
    ).ir
    moved = _expand_one(
        "\\cube(100,-200)[A`B`C`D;f`g`h`k](600,300)[a`b`c`d;p`q`r`s][w`x`y`z]"
    ).ir
    shifted = sorted((n.text, n.anchor.x + 100, n.anchor.y - 200) for n in base.nodes)
    assert shifted == sorted((n.text, n.anchor.x, n.anchor.y) for n in moved.nodes)


def test_side_duality_properties():
    from diagc import resolve_label_side

    rng = random.Random(77)
    for _ in range(1000):
        dx = rng.randint(-600, 600)
        dy = rng.randint(-600, 600)
        if dx == 0 and dy == 0:
            continue
        assert resolve_label_side("l", dx, dy) == resolve_label_side("r", dx, -dy)
        assert resolve_label_side("a", dx, dy) == resolve_label_side("b", -dx, dy)


def test_auto_width_nondecreasing_in_label_length():
    widths = [
        measure_morphism_width("A", "B", "x" * n) for n in range(0, 20)
    ]
    assert widths == sorted(widths)
    assert widths[0] == 500


def test_empty_style_token_omits_its_edge():
    # the grammar accepts an empty style token: the edge it styles is not
    # drawn, and neither are that edge's two nodes
    fig = _expand_one("\\square/`>`>`>/[A`B`C`D;f`g`h`k]")
    assert [(a.start_text, a.end_text, a.label) for a in fig.raw_ir.arrows] == [
        ("C", "D", "k"), ("A", "C", "g"), ("B", "D", "h")]
    assert len(fig.raw_ir.nodes) == 6 and not fig.warnings
    # a figure whose only edge is omitted draws nothing
    with pytest.raises(LayoutError, match="empty diagram: nothing to draw") as err:
        compile_source("\\morphism//[A`B;f]")
    assert (err.value.diagnostic.line, err.value.diagnostic.col) == (1, 1)
    # the double squares draw their shared edge once
    ir = _expand_one("\\hSquares[A`B`C`D`E`F;f`g`h`i`j`k`l]").ir
    assert len(ir.arrows) == 7
    assert ("B", "E") in {(a.start_text, a.end_text) for a in ir.arrows}


SQUARE4 = "[A`B`C`D;f`g`h`k]"
INNER = "[a`b`c`d;p`q`r`s][w`x`y`z]"


@pytest.mark.parametrize("command, message", [
    ("\\square<0,500>" + SQUARE4, "degenerate edge (zero extent)"),
    ("\\Square<0>" + SQUARE4, "degenerate edge (zero extent)"),
    ("\\hSquares<0>" + GRID32, "degenerate edge (zero extent)"),
    ("\\vSquares<0,500>" + GRID32, "degenerate edge (zero extent)"),
    ("\\vSquares<500,0>" + GRID32, "degenerate edge (zero extent)"),
    ("\\pullback<500,0>" + SQUARE4 + "[E;p`q`r]", "degenerate edge (zero extent)"),
    ("\\cube<0,1500>" + SQUARE4 + INNER, "degenerate edge (zero extent)"),
    ("\\cube" + SQUARE4 + "(500,500)<500,0>" + INNER, "degenerate edge (zero extent)"),
    ("\\ptriangle<500,0>[A`B`C;f`g`h]", "degenerate extent"),
    ("\\Dtriangle<0,500>[A`B`C;f`g`h]", "degenerate extent"),
    ("\\Ctrianglepair<0,500>[A`B`C`D;f`g`h`i`j]", "degenerate extent"),
    ("\\iiixiii<500,0>" + GRID33, "degenerate extent"),
    ("\\iiixii<0,500>" + GRID32, "degenerate extent"),
    ("\\cube" + SQUARE4 + "(0,0)<1500,1500>" + INNER, "degenerate arrow (zero displacement)"),
    ("\\pullback" + SQUARE4 + "<0,0>[E;p`q`r]", "degenerate arrow (zero displacement)"),
    ("\\iiixiii{8}<0,400>" + GRID33, "degenerate stub (zero extent)"),
    ("\\iiixii{1}<0>" + GRID32, "degenerate stub (zero extent)"),
])
def test_degenerate_diagnostics_text_and_position(command, message):
    # the failing command sits at line 2, column 3, after a good one
    with pytest.raises(ExpandError) as err:
        compile_source("\\place(0,0)[X]\n  " + command)
    d = err.value.diagnostic
    kind = re.match(r"\\(\w+)", command).group(1)
    assert (d.message, d.line, d.col) == (f"\\{kind}: {message}", 2, 3)


def test_shape_fixtures_import_nothing_from_diagc():
    # the traced table is an oracle only while it is written by hand, so
    # it may never be generated from the expander's own shape table
    path = Path(__file__).with_name("shape_fixtures.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "diagc" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0 and (node.module or "").split(".")[0] != "diagc"
