"""Random search of the path-agreement properties of the parser, the
lexer's scans and the IR reader.

The suite runs each property on a fixed, derandomized set of 100
examples.  This script runs the same test bodies on fresh random
examples:

- the one match against the section reader, on mutated commands;
- the section reader against the token walk, on scanned sections;
- ``section_end``, ``token_at`` and ``split_top`` against the token walk;
- ``group_end`` and ``strip_group`` against the token walk;
- the IR reader against the field walk, on mutated dumps;
- the IR reader against the field walk, on lines whose text fields
  nest groups, or end in a lone backslash;
- the ``Decimals`` memo and ``format_decimal`` against the exact
  decimal oracle, on values past a float's 53 bits.

Run it from the repository root:

    PYTHONPATH=src python tests/fuzz_paths.py [SCALE]

Each property runs its own count of examples, chosen so that the whole
search takes about 65 s on one core of an Intel Xeon; ``SCALE``
multiplies every count (default 1).  It exits non-zero at the first
disagreement, which Hypothesis prints shrunk.  Its name keeps it out of
pytest's collection.
"""
import sys
import time

from hypothesis import given, settings
from hypothesis import strategies as st

import test_irtext as ir
import test_properties as props

PROPERTIES = [  # each property, and its examples at scale 1
    (given(text=props.mutated_commands())(
        props.test_the_one_match_agrees_with_the_section_reader.hypothesis.inner_test), 3000),
    (given(atoms=st.lists(st.sampled_from(props.SCAN_ATOMS), max_size=16), lone=st.booleans(),
           closer=st.sampled_from([s for s in props.STOP_SETS if len(s) == 1]))(
        props.test_reader_sections_agree_with_the_token_walk.hypothesis.inner_test), 3000),
    (given(atoms=st.lists(st.sampled_from(props.SCAN_ATOMS), max_size=16), lone=st.booleans(),
           stops=st.sampled_from(props.STOP_SETS))(
        props.test_scans_agree_with_the_token_walk.hypothesis.inner_test), 3000),
    (given(atoms=st.lists(st.sampled_from(props.BRACE_ATOMS), max_size=12), lone=st.booleans())(
        props.test_group_end_agrees_with_the_token_walk.hypothesis.inner_test), 3000),
    (given(text=ir.mutated_dumps())(
        ir.test_the_reader_agrees_with_the_field_walk.hypothesis.inner_test), 3000),
    (given(case=ir.record_lines())(
        ir.test_the_reader_agrees_with_the_field_walk_on_text_fields.hypothesis.inner_test),
     1500),
    (given(**props.DECIMAL_CASES)(
        props.test_decimal_memo_matches_format_decimal.hypothesis.inner_test), 3000),
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
