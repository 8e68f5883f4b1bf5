"""Random search of the two path-agreement properties of the parser.

The suite runs each property on a fixed, derandomized set of 100
examples.  This script runs the same test bodies on fresh random
examples, 3000 each by default:

- the one match against the section reader, on mutated commands;
- the section reader against the token walk, on scanned sections.

Run it from the repository root:

    PYTHONPATH=src python tests/fuzz_paths.py [EXAMPLES]

It exits non-zero at the first disagreement, which Hypothesis prints
shrunk.  Its name keeps it out of pytest's collection.
"""
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import test_properties as props

PROPERTIES = [
    given(text=props.mutated_commands())(
        props.test_the_one_match_agrees_with_the_section_reader.hypothesis.inner_test),
    given(atoms=st.lists(st.sampled_from(props.SCAN_ATOMS), max_size=16), lone=st.booleans(),
          closer=st.sampled_from([s for s in props.STOP_SETS if len(s) == 1]))(
        props.test_reader_sections_agree_with_the_token_walk.hypothesis.inner_test),
]


def main(examples: int) -> None:
    fuzz = settings(derandomize=False, database=None, max_examples=examples, deadline=None)
    for prop in PROPERTIES:
        fuzz(prop)()
        print(f"{prop.__name__}: {examples} random examples agree")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3000)
