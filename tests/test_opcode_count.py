"""The cost guards' counter: a count repeats, sees loops that make no
call, and is never 0."""
import pytest
from opcode_count import opcodes


def _loop(n):
    def step():
        for _ in range(n):
            pass
    return step


def test_a_count_repeats_from_the_first_run_and_grows_with_the_loop():
    # the first count is of code that has never run
    assert opcodes(_loop(10)) == opcodes(_loop(10)) < opcodes(_loop(20))


def test_a_step_that_runs_no_python_code_is_an_error():
    with pytest.raises(RuntimeError, match="counted no instructions"):
        opcodes(dict)
