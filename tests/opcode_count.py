"""Bytecode instructions executed while a step runs: the unit of the cost
guards, the same on every run of the same code.

Python 3.12 and later count with ``sys.monitoring`` instruction events.
There ``settrace``'s opcode events miss code that has not run yet, so a
first count could be 0.  Python 3.10 and 3.11 count with ``settrace``,
the counter every bound was set with.
"""
import sys


def opcodes(step):
    """Bytecode instructions executed while ``step()`` runs.  A count of 0
    is a RuntimeError, so that no guard passes without measuring."""
    count = (_monitored if hasattr(sys, "monitoring") else _traced)(step)
    if not count:
        raise RuntimeError("counted no instructions: the counter saw no code run")
    return count


def _traced(step):
    count = 0

    def on_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return on_opcode

    sys.settrace(on_call)
    try:
        step()
    finally:
        sys.settrace(None)
    return count


def _monitored(step):
    monitoring = sys.monitoring
    tool, instruction = monitoring.PROFILER_ID, monitoring.events.INSTRUCTION
    count = 0
    own = _monitored.__code__  # the lines around step() are not the step's

    def on_instruction(code, offset):
        nonlocal count
        if code is not own:
            count += 1

    monitoring.use_tool_id(tool, "opcode_count")
    try:
        monitoring.register_callback(tool, instruction, on_instruction)
        monitoring.set_events(tool, instruction)
        step()
    finally:
        monitoring.set_events(tool, 0)
        monitoring.register_callback(tool, instruction, None)
        monitoring.free_tool_id(tool)
    return count
