"""Random search of the path-agreement properties of the parser, the
lexer's scans, the IR reader, the decimal printer, the layout,
expansion and the CLI's command-line reader.

The suite runs each property on a fixed, derandomized set of 100
examples.  This script runs the same test bodies on fresh random
examples:

- the one match against the section reader, on mutated commands;
- the one match of a command's name against the reader's ``name``;
- figure positions, made when read, against the token walk;
- the section reader against the token walk, on scanned sections;
- ``section_end``, ``token_at`` and ``split_top`` against the token walk;
- ``group_end`` and ``strip_group`` against the token walk;
- ``cut`` against ``split_top`` and ``strip_group``, on the fields that
  ``kept_field`` matches;
- the IR reader against the field walk, on mutated dumps;
- the IR reader against the field walk, on lines whose text fields
  nest groups, or end in a lone backslash;
- the IR reader and writer, and the four printers, on mutated golden
  dumps;
- the decimal memos and ``format_decimal`` against the exact
  decimal oracle, on values past a float's 53 bits;
- the inline clipping of a horizontal or vertical arrow against
  ``clip_general``, and its box against the two-walk box;
- ``clip_general`` against the per-call clipping walk, on any arrow;
- label centres and offset ends across a diagonal against the exact
  walk, on any and Pythagorean directions, ones with a component or a
  length past the largest float, and ones of no length, with any
  rational offset;
- the layout's running box against the two-walk box, on generated
  commands;
- TikZ's ends-only layout against the full one, on generated commands
  of every kind and on mutated corpus figures, at scale 1 and 1/3;
- the SVG and TikZ printers against the per-arrow reference printers,
  whose double shafts round each gap point by the exact walk, on
  generated layouts at three scales and four em sizes;
- expansion against the edge walk, whose drawn nodes the oracle
  merges, on figures of every command kind, and on such figures with
  nodes placed over drawn corners, with their text or another;
- the CLI's command-line reader against argparse, on command lines of
  every spelling of every flag.

Run it from the repository root:

    PYTHONPATH=src python tests/fuzz_paths.py [SCALE]

Each property runs its own count of examples, chosen so that the whole
search takes at most about 160 s on one core of an Intel Xeon (103 s with
Python 3.11.7, of which the mutated golden dumps take 3.5 s and ``cut``
6 s, and then the command head 3.5 s, the positions 2.7 s and the
ends-only layout 5 s more; with the per-arrow printers, 7-8 s, one run
on a busier machine took 130 s; the points across a diagonal add
8.6 s, the nodes placed over drawn corners 9 s, and the command-line
reader 13 s); ``SCALE``
multiplies every count (default 1).  It exits non-zero
at the first disagreement, which Hypothesis prints shrunk.  Its name
keeps it out of pytest's collection.
"""
import sys
import time

from hypothesis import given, settings
from hypothesis import strategies as st

import test_cli as cli
import test_irtext as ir
import test_properties as props

PROPERTIES = [  # each property, and its examples at scale 1
    (given(text=props.mutated_commands())(
        props.test_the_one_match_agrees_with_the_section_reader.hypothesis.inner_test), 3000),
    (given(atoms=st.lists(st.sampled_from(props.HEAD_ATOMS), max_size=12))(
        props.test_the_command_head_agrees_with_the_reader.hypothesis.inner_test), 2000),
    (given(groups=props.POSITION_SOURCES)(
        props.test_positions_agree_with_the_token_walk.hypothesis.inner_test), 1000),
    (given(atoms=st.lists(st.sampled_from(props.SCAN_ATOMS), max_size=16), lone=st.booleans(),
           closer=st.sampled_from([s for s in props.STOP_SETS if len(s) == 1]))(
        props.test_reader_sections_agree_with_the_token_walk.hypothesis.inner_test), 3000),
    (given(atoms=st.lists(st.sampled_from(props.SCAN_ATOMS), max_size=16), lone=st.booleans(),
           stops=st.sampled_from(props.STOP_SETS))(
        props.test_scans_agree_with_the_token_walk.hypothesis.inner_test), 3000),
    (given(atoms=st.lists(st.sampled_from(props.BRACE_ATOMS), max_size=12), lone=st.booleans())(
        props.test_group_end_agrees_with_the_token_walk.hypothesis.inner_test), 3000),
    (given(text=props.CUT_TEXTS)(
        props.test_cut_agrees_with_split_top_and_strip_group.hypothesis.inner_test), 2000),
    (given(text=ir.mutated_dumps())(
        ir.test_the_reader_agrees_with_the_field_walk.hypothesis.inner_test), 3000),
    (given(case=ir.record_lines())(
        ir.test_the_reader_agrees_with_the_field_walk_on_text_fields.hypothesis.inner_test),
     1500),
    (given(text=ir.mutated_golden_dumps())(
        ir.test_a_mutated_golden_dump_is_refused_or_reads_back_and_renders.hypothesis.inner_test),
     2000),
    (given(**props.DECIMAL_CASES)(
        props.test_decimal_memo_matches_format_decimal.hypothesis.inner_test), 3000),
    (given(**props.AXIS_CASES)(
        props.test_axis_aligned_clipping_matches_the_general_path.hypothesis.inner_test), 3000),
    (given(**props.GENERAL_CLIP_CASES)(
        props.test_general_clipping_matches_the_per_call_walk.hypothesis.inner_test), 2000),
    (given(**props.DIAGONAL_CASES)(
        props.test_points_across_a_diagonal_are_exact.hypothesis.inner_test), 2000),
    (given(cmds=props.LAYOUT_COMMANDS)(
        props.test_layout_box_agrees_with_the_two_walk_box.hypothesis.inner_test), 1000),
    (given(ir=props.TIKZ_IRS)(
        props.test_the_ends_only_layout_agrees_with_the_full_one.hypothesis.inner_test), 1000),
    (given(ir=props.printed_irs())(
        props.test_printers_agree_with_the_per_arrow_reference.hypothesis.inner_test), 1000),
    (given(cmds=st.lists(props.EXPAND_COMMANDS, min_size=1, max_size=3))(
        props.test_expansion_agrees_with_the_edge_walk.hypothesis.inner_test), 3000),
    (given(cmds=props.placed_over_corners())(
        props.test_expansion_keeps_each_corner_once.hypothesis.inner_test), 2000),
    (given(argv=cli.CLI_ARGVS)(cli.test_the_reader_agrees_with_argparse.hypothesis.inner_test),
     5000),
]


def main(scale: float) -> None:
    for prop, examples in PROPERTIES:
        examples = max(1, round(examples * scale))
        start = time.perf_counter()
        settings(derandomize=False, database=None, max_examples=examples, deadline=None)(prop)()
        print(f"{prop.__name__}: {examples} random examples agree "
              f"({time.perf_counter() - start:.1f} s)")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 1)
