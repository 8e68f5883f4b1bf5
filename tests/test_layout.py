"""Label sides, clipping, parallel offsets, boxes.

Layout coordinates are integers in layout units, QUANTUM per centi-em.
"""
import random
from fractions import Fraction

import pytest

from opcode_count import opcodes

from diagc import (
    Arrow,
    DiagramIR,
    LabelSide,
    LayoutError,
    Node,
    Point,
    ScaleConfig,
    compile_source,
    layout_diagram,
    render_figure,
    resolve_label_side,
)
from box_walk import bounding_box
from diagc.geometry import LABEL_SCALE, round_div
from diagc.ir import KIND_VECTOR
from diagc.layout import LABEL_GAP, DrawablePath, PlacedLabel, PlacedNode, _Frame
from diagc.layout import QUANTUM as Q
from diagc.metrics import DEFAULT_METRICS, FontMetrics, text_width

# the full conditional ladder: placement x (sign dx, sign dy) -> side
LADDER = {
    "l": {(1, 1): "above", (0, 1): "above", (-1, 1): "above",
          (1, 0): "below", (-1, 0): "below",
          (1, -1): "below", (0, -1): "below", (-1, -1): "below"},
    "r": {(1, 1): "below", (0, 1): "below", (-1, 1): "below",
          (1, 0): "below", (-1, 0): "below",
          (1, -1): "above", (0, -1): "above", (-1, -1): "above"},
    "a": {(1, 1): "above", (1, 0): "above", (1, -1): "above",
          (0, 1): "below", (0, -1): "below",
          (-1, 1): "below", (-1, 0): "below", (-1, -1): "below"},
    "b": {(1, 1): "below", (1, 0): "below", (1, -1): "below",
          (0, 1): "below", (0, -1): "below",
          (-1, 1): "above", (-1, 0): "above", (-1, -1): "above"},
    "m": {pattern: "online" for pattern in
          [(1, 1), (0, 1), (-1, 1), (1, 0), (-1, 0), (1, -1), (0, -1), (-1, -1)]},
}


def test_label_side_ladder_full_table():
    for placement, table in LADDER.items():
        for (sx, sy), want in table.items():
            got = resolve_label_side(placement, 300 * sx, 300 * sy)
            assert got.value == want, (placement, sx, sy)


def test_label_side_spot_checks():
    assert resolve_label_side("a", 500, 0) is LabelSide.ABOVE
    assert resolve_label_side("l", 0, -500) is LabelSide.BELOW
    assert resolve_label_side("x", 500, 0) is LabelSide.NONE


def _layout_of(source, **kw):
    figures = compile_source(source, **kw)
    return figures[0].ir, layout_diagram(figures[0].ir)


def test_clip_single_char_nodes():
    # half width 25 plus margin 30: the 500-long arrow runs 55..445, and
    # its label sits LABEL_GAP above the midpoint of the clipped segment
    ir, lay = _layout_of("\\morphism[A`B;f]")
    path = lay.paths[0]
    assert path.start == (55 * Q, 0)
    assert path.end == (445 * Q, 0)
    assert [label.center for label in path.labels] == [(250 * Q, LABEL_GAP * Q)]


def test_clip_free_stub_untouched():
    ir, lay = _layout_of("\\vector(10,20)/>/<300,0>")
    path = lay.paths[0]
    assert path.start == (10 * Q, 20 * Q)
    assert path.end == (310 * Q, 20 * Q)


def test_clip_overlapping_objects_error():
    with pytest.raises(LayoutError, match="overlapping"):
        _layout_of("\\morphism<300,0>[wwwwwwwwww`wwwwwwwwww;f]")


def test_clip_zero_length_arrow_at_a_node_is_swallowed():
    # only an IR read back can hold one: expansion rejects zero displacement
    arrow = Arrow(Point(0, 0), Point(0, 0), ">", "f", LabelSide.ABOVE, 1)
    with pytest.raises(LayoutError, match="overlapping"):
        layout_diagram(DiagramIR((Node(Point(0, 0), "A", 0),), (arrow,)))


def test_clip_diagonal_exits_box():
    ir, lay = _layout_of("\\morphism|a|/>/<400,400>[A`B;f]")
    path = lay.paths[0]
    # exits the 55-high box at t = 55/400 (height limit binds first: 80/400)
    assert path.start[0] == path.start[1]
    assert 50 * Q < path.start[0] < 90 * Q


def test_baseline_offset_values():
    def baseline(cfg):
        node = Node(Point(0, 0), "A", 0)
        return layout_diagram(DiagramIR((node,), (), cfg)).nodes[0].center[1]

    assert baseline(ScaleConfig()) == 32 * Q
    # render scale does not touch the intermediate representation shift
    assert baseline(ScaleConfig(scale=2)) == 32 * Q


def _free_path(x1, y1, x2, y2, offset_pt=0, label="", side=LabelSide.NONE):
    """A bare vector arrow, laid out alone with its parallel offset in points."""
    arrow = Arrow(
        start=Point(x1, y1), end=Point(x2, y2), style=">", label=label,
        side=side, seq=0, kind=KIND_VECTOR, offset_pt=Fraction(offset_pt),
    )
    return layout_diagram(DiagramIR((), (arrow,))).paths[0]


def test_offset_parallel_conversion():
    path = _free_path(0, 0, 400, 0)
    up = _free_path(0, 0, 400, 0, Fraction(5, 2))
    assert up.start == (0, 25 * Q)
    assert up.end == (400 * Q, 25 * Q)
    same = _free_path(0, 0, 400, 0, 0)
    assert (same.start, same.end) == (path.start, path.end)
    down = _free_path(0, 0, 400, 0, Fraction(-9, 2))
    assert down.start == (0, -45 * Q)


def _direction(path):
    return path.end[0] - path.start[0], path.end[1] - path.start[1]


def test_offset_parallel_round_trip_and_length():
    rng = random.Random(31)
    for _ in range(50):
        x2, y2 = rng.randint(-500, 500), rng.randint(-500, 500)
        if (x2, y2) == (0, 0):
            continue
        path = _free_path(0, 0, x2, y2)
        up, down = _free_path(0, 0, x2, y2, 3), _free_path(0, 0, x2, y2, -3)
        for a, b, mid in ((up.start, down.start, path.start), (up.end, down.end, path.end)):
            assert (a[0] + b[0], a[1] + b[1]) == (2 * mid[0], 2 * mid[1])
        assert up.start != path.start
        assert _direction(_free_path(0, 0, x2, y2, 7)) == _direction(path)


def test_bounding_box_examples():
    ir, lay = _layout_of("\\square[A`B`C`D;f`g`h`k]")
    x0, y0, x1, y1 = lay.bbox
    assert x0 <= 0 and y0 <= 0 and x1 >= 500 and y1 >= 500
    ir, lay = _layout_of("\\place(0,0)[X]")
    assert lay.bbox[2] - lay.bbox[0] <= 300
    ir, lay = _layout_of("\\Ctrianglepair[A`B`C`D;f`g`h`i`j]")
    assert lay.bbox[0] < -500


def test_bounding_box_empty_diagram():
    with pytest.raises(LayoutError, match="empty"):
        layout_diagram(DiagramIR((), ()))


def test_bounding_box_monotone_under_additions():
    ir1, lay1 = _layout_of("\\morphism[A`B;f]")
    ir2, lay2 = _layout_of("\\morphism[A`B;f]\n\\place(900,900)[Z]")
    assert lay2.bbox[0] <= lay1.bbox[0] and lay2.bbox[1] <= lay1.bbox[1]
    assert lay2.bbox[2] >= lay1.bbox[2] and lay2.bbox[3] >= lay1.bbox[3]


def test_label_widths_follow_the_metrics_of_each_layout():
    # a width measured in one layout is not reused by the next: the box
    # oracle measures each label with the metrics it is given, and the
    # on-line label's knockout gap is its padded width
    ir = compile_source("\\square[A`B`C`D;f`f`f`f]\n\\morphism(0,900)|m|<600,0>[P`Q;f]")[0].ir
    wide = FontMetrics({**DEFAULT_METRICS.widths, "f": 200})
    pad_w = _Frame.of(ir.scale, DEFAULT_METRICS).pad_w
    boxes = []
    for metrics in (DEFAULT_METRICS, wide, DEFAULT_METRICS):
        half_w = text_width("f", LABEL_SCALE, metrics) * Q // 2
        lay = layout_diagram(ir, metrics)
        assert sum(len(path.labels) for path in lay.paths) == 5
        assert lay.bbox == bounding_box(lay.nodes, lay.paths, metrics)
        (online,) = [path for path in lay.paths if path.arrow.side is LabelSide.ON_LINE]
        (_, cut_in), (cut_out, _) = online.shaft
        assert cut_out[0] - cut_in[0] == 2 * (half_w + pad_w)
        boxes.append(lay.bbox)
    assert boxes[0] == boxes[2] != boxes[1]


def test_label_center_sides():
    def center(side):
        path = _free_path(0, 0, 400, 0, label="f", side=side)
        (label,) = path.labels
        return path, label.center

    # an on-line label sits on the rounded midpoint of the clipped
    # segment; the others LABEL_GAP across it, above to the left of travel
    path, above = center(LabelSide.ABOVE)
    _, below = center(LabelSide.BELOW)
    _, online = center(LabelSide.ON_LINE)
    mid = tuple(round_div(a + b, 2) for a, b in zip(path.start, path.end))
    assert online == mid == (200 * Q, 0)
    assert above == (mid[0], mid[1] + LABEL_GAP * Q)
    assert below == (mid[0], mid[1] - LABEL_GAP * Q)


def test_the_layout_records_hold_only_what_the_printers_draw():
    assert PlacedNode._fields == ("node", "center")
    assert PlacedLabel._fields == ("text", "center")
    assert DrawablePath._fields == ("start", "end", "arrow", "labels", "shaft")
    assert not hasattr(DrawablePath, "direction")
    # one meaning per field in both walks: labels a tuple, () where none
    # was placed, and a shaft None unless an on-line label's knockout cuts it
    (figure,) = compile_source("\\morphism[A`B;f]\n\\morphism(0,600)|m|<600,0>[C`D;g]\n"
                               "\\morphism(0,1200)<600,0>[E`F;]")
    full, ends = (layout_diagram(figure.ir, ends_only=ends_only).paths
                  for ends_only in (False, True))
    assert [(len(path.labels), path.shaft is None) for path in full] == [
        (1, True), (1, False), (0, True)]
    assert all(path.labels == () and path.shaft is None for path in ends)
    assert full[2] == ends[2]


def test_knockout_splits_horizontal_path():
    path = _free_path(0, 0, 400, 0, label="f", side=LabelSide.ON_LINE)
    spans = path.shaft
    assert len(spans) == 2
    (a1, b1), (a2, b2) = spans
    assert a1 == path.start and b2 == path.end
    assert b1[0] < a2[0]  # a gap remains beneath the label


def test_knockout_keeps_the_whole_shaft_where_the_padded_box_has_no_width():
    # {} measures 0, and at 1000 pt per em the 1 pt padding rounds to 0
    # centi-em: the box has no width, so one shaft line is drawn, with its
    # head; at 10 pt per em the padding alone cuts a gap
    def shaft(em):
        (figure,) = compile_source("\\morphism(0,0)|m|<1000,0>[A`B;{{}}]",
                                   cfg=ScaleConfig(em_size=em))
        return [line for line in render_figure(figure, "svg").splitlines()
                if line.startswith("<line")]

    (whole,) = shaft(1000)
    assert whole.startswith('<line x1="1300" y1="1320" x2="10200" y2="1320" ')
    assert whole.endswith('marker-end="url(#dg-head)"/>')
    assert len(shaft(10)) == 2


def test_knockout_rounds_the_whole_sum():
    # the padded box of "f" (half width 27.5 centi-em) cuts the path from
    # (-88,-1) to (88,1) at y = -0.3125 centi-em, a tie on the layout grid:
    # the whole sum rounds away from zero to -313, where rounding only the
    # step from the start, -1000 + round(687.5), would give -312
    path = _free_path(-88, -1, 88, 1, label="f", side=LabelSide.ON_LINE)
    (a1, b1), (a2, b2) = path.shaft
    assert (a1, b2) == (path.start, path.end)
    assert b1 == (-27500, -313)
    assert a2 == (27500, 313)


def test_knockout_swallows_short_path_entirely():
    # the padded label box covers the whole path: no shaft remains
    path = _free_path(0, 0, 20, 0, label="wide", side=LabelSide.ON_LINE)
    assert path.shaft == ()


def test_place_alignment_shifts_drawn_box():
    ir, lay = _layout_of("\\place[r](0,0)[Y]")
    placed = lay.nodes[0]
    assert placed.center[0] == -25 * Q  # right edge on the anchor
    ir, lay = _layout_of("\\place[l](0,0)[Y]")
    assert lay.nodes[0].center[0] == 25 * Q


def _grid(k, placement=""):
    squares = (
        f"\\square({500 * i},{500 * j}){placement}[x`x`x`x;f`g`h`k]"
        for i in range(k) for j in range(k)
    )
    return compile_source("\n".join(squares))[0].ir


def test_layout_cost_is_linear_in_diagram_size():
    # doubling the side: 3.6x the nodes, 4x the arrows; a cost that grows
    # with nodes x arrows measures about 4.8 here
    small, large = _grid(8), _grid(16)
    assert 4 * len(small.arrows) == len(large.arrows)
    ratio = opcodes(lambda: layout_diagram(large)) / opcodes(lambda: layout_diagram(small))
    assert ratio <= 4.3


def test_layout_cost_per_arrow_is_bounded():
    # every grid edge is axis-aligned, so it is clipped in integer shifts
    # in a branch for its axis and direction, which updates the box only
    # where the branch can move it: about 250 instructions per arrow on
    # Python 3.11 to 3.13; one branch for both axes that sorts each
    # path's ends costs about 300, a call per edge and a second walk for
    # the box about 404, the general path on every edge about 1030
    large = _grid(16)
    assert opcodes(lambda: layout_diagram(large)) <= 280 * len(large.arrows)


def test_layout_cost_per_arrow_with_on_line_labels_is_bounded():
    # every grid edge carries an on-line label, knocked out of its shaft
    # inline by the axis branch at two exact integers: about 304-308
    # instructions per arrow on Python 3.10 to 3.13, where a _knockout
    # call per label, with its loop over both axes, cost about 483-510
    large = _grid(16, "|mmmm|")
    assert all(arrow.side is LabelSide.ON_LINE for arrow in large.arrows)
    assert opcodes(lambda: layout_diagram(large)) <= 330 * len(large.arrows)


def test_tikz_layout_cost_is_linear_in_diagram_size():
    small, large = _grid(8), _grid(16)
    ratio = (opcodes(lambda: layout_diagram(large, ends_only=True))
             / opcodes(lambda: layout_diagram(small, ends_only=True)))
    assert ratio <= 4.3


def test_tikz_layout_cost_per_arrow_is_bounded():
    # TikZ's ends-only walk clips every edge as the full walk does, then
    # goes on before the box and the label: about 141-146 instructions
    # per arrow on Python 3.10 to 3.13, where the full walk, which SVG
    # reads, costs about 240-246
    large = _grid(16)
    assert opcodes(lambda: layout_diagram(large, ends_only=True)) <= 150 * len(large.arrows)


def _triangles(k):
    """k x k triangles beside |m|-labelled diagonal morphisms: half of
    the arrows leave the axis-aligned path."""
    cmds = []
    for i in range(k):
        for j in range(k):
            x, y = 1500 * i, 1500 * j
            cmds.append(f"\\ptriangle({x},{y})[A`B`C;f`g`h]")
            cmds.append(f"\\morphism({x + 700},{y})|m|<400,600>[P`Q;m]")
    return compile_source("\n".join(cmds))[0].ir


def test_general_clipping_cost_per_arrow_is_bounded():
    # the general path written out inline, about 642 instructions per
    # arrow of this layout; a call per exit parameter, clipped point and
    # label, with a label measured through a Fraction scale, about 816
    ir = _triangles(8)
    general = [a for a in ir.arrows if a.start.x != a.end.x and a.start.y != a.end.y
               or a.side is LabelSide.ON_LINE]
    assert 2 * len(general) == len(ir.arrows)
    assert opcodes(lambda: layout_diagram(ir)) <= 740 * len(ir.arrows)


def _diagonals(k):
    """k x k pairs of diagonal morphisms, one labelled above and one below."""
    cmds = []
    for i in range(k):
        for j in range(k):
            x, y = 1000 * i, 1000 * j
            cmds.append(f"\\morphism({x},{y})|a|<400,600>[P`Q;f]")
            cmds.append(f"\\morphism({x},{y + 600})|b|<500,-300>[R`S;g]")
    return compile_source("\n".join(cmds))[0].ir


def test_tikz_layout_cost_per_labelled_diagonal_is_bounded():
    # TikZ reads each label from its arrow, so its ends-only walk returns
    # from clip_general right after the clip: about 522-548 instructions
    # per arrow on Python 3.10 to 3.13, where making each label's record
    # and centre through a float unit vector cost about 677-723
    ir = _diagonals(8)
    assert opcodes(lambda: layout_diagram(ir, ends_only=True)) <= 565 * len(ir.arrows)
