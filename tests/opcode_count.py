"""Bytecode instructions executed while a step runs: the unit of the cost
guards, the same on every run of the same code."""
import sys


def opcodes(step):
    """Bytecode instructions executed while ``step()`` runs."""
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
