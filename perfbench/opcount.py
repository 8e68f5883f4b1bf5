"""Count the bytecode instructions that Python code executes.

The count sees every instruction run in Python code, loops included,
and is the same on every run of the same code.  It does not see work
done inside one C function (a sort, ``in`` on a list, a file write),
nor time spent waiting.

``count(step)`` counts ``step()`` on the calling thread.  Run as a
script, this file runs a module as ``python -m`` would, counts it on
every thread, import included, and prints the total as the last line
of standard output:

    python3 perfbench/opcount.py diagc.cli FILE.dg --format svg
"""
from __future__ import annotations

import itertools
import runpy
import sys
import threading


def _tracer(tick):
    def local(frame, event, arg):
        if event == "opcode":
            tick()
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    return call


def count(step) -> int:
    """Bytecode instructions executed while ``step()`` runs."""
    counter = itertools.count()
    sys.settrace(_tracer(counter.__next__))
    try:
        step()
    finally:
        sys.settrace(None)
    return next(counter)


def main() -> int:
    module, sys.argv = sys.argv[1], sys.argv[1:]
    counter = itertools.count()
    tracer = _tracer(counter.__next__)
    threading.settrace(tracer)
    sys.settrace(tracer)
    status = 0
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(next(counter))
    return status


if __name__ == "__main__":
    sys.exit(main())
