"""Instruction ratios of the SVG and TikZ renders to the Xy-pic token
stream, over the 29 figures of the corpus, and their instructions per
corpus figure.

Each ratio divides the bytecode instructions of one step over every
figure by those of ``render_xypic`` over the same figures, with the
nodes the token stream prints, both counted by ``opcode_count``:

- ``svg``: ``render_figure(fig, "svg")``, its full layout included;
- ``tikz``: ``render_figure(fig, "tikz")``, its ends-only layout included;
- ``svg printer``: ``render_svg`` alone, given each full layout;
- ``tikz printer``: ``render_tikz`` alone, given each ends-only layout.

Beside them it counts the front half of a small figure: ``compile_source``
of a one-command source, then ``render_figure`` of its figure in Xy-pic
and in IR text, per figure over ``SMALL``, one figure of each of several
kinds.  Then it counts ``emit_ir`` and ``parse_ir`` per line of the
corpus figures' dumps, the compiling of the patterns the parser compiles
as it loads, then the CLI's start: ``import diagc.cli`` and ``main`` on
one small Xy-pic ``--check`` input, in a fresh process, and last the
library's: a bare ``import diagc``, in a fresh process.

The cost bounds of ``test_render.py`` read a step's count from ``cost``
and the small figure's from ``front_half``; those of ``test_irtext.py``
read the IR text's counts from ``emit_per_line`` and
``parse_per_line``, that of ``test_parser.py`` the patterns' from
``pattern_compile``, and those of ``test_cli.py`` the CLI's from
``cli_start`` and the library's from ``library_start``.  Run it from
the repository root:

    PYTHONPATH=src python tests/render_ratios.py

It prints each ratio, the two counts behind it and the step's count per
figure, the front half's count, the IR text's, the patterns', then the
CLI's start and the library's.  Its name keeps it out of pytest's
collection.
"""
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from diagc import (compile_source, emit_ir, layout_diagram, parse_ir, parser, render_figure,
                   render_svg, render_tikz, render_xypic)
from opcode_count import opcodes

TESTS = Path(__file__).resolve().parent
CORPUS = TESTS / "corpus"
STEPS = ("svg", "tikz", "svg printer", "tikz printer")
# one-command sources, each a figure of its own
SMALL = tuple(f"\\bfig\n{command}\n\\efig\n" for command in (
    "\\vector(0,0)/->/<400,-300>", "\\morphism[A`B;f]", "\\place(0,0)[A]",
    "\\square[A`B`C`D;f`g`h`k]", "\\to/->/^{f}_{g}", "\\twoar(1,1)"))


def corpus_figures() -> list:
    """Every figure of the corpus, compiled."""
    return [figure for path in sorted(CORPUS.glob("*.dg"))
            for figure in compile_source(path.read_text(encoding="utf-8"), path.name)]


def cost(step: str, figures: list) -> int:
    """The instructions of ``step`` over ``figures``."""
    if step in ("svg", "tikz"):
        return opcodes(lambda: [render_figure(figure, step, []) for figure in figures])
    printer = render_svg if step == "svg printer" else render_tikz
    laid = [(layout_diagram(figure.ir, figure.metrics, ends_only=printer is render_tikz),
             figure.ir.scale) for figure in figures]
    return opcodes(lambda: [printer(lay, scale, []) for lay, scale in laid])


def token_stream(figures: list) -> int:
    """The instructions of ``render_xypic`` over ``figures``."""
    printed = [figure.ir._replace(nodes=figure.placed) for figure in figures]
    return opcodes(lambda: [render_xypic(ir) for ir in printed])


def front_half() -> float:
    """The instructions of ``compile_source`` and the Xy-pic and IR text
    renders per figure of ``SMALL``."""
    def run() -> None:
        for source in SMALL:
            for figure in compile_source(source):
                render_figure(figure, "xypic")
                render_figure(figure, "ir")

    run()  # the coordinates' pattern is compiled on first use
    return opcodes(run) / len(SMALL)


def emit_per_line(irs: list) -> float:
    """The instructions of ``emit_ir`` per line it writes for ``irs``,
    counted after one run."""
    lines = sum(emit_ir(ir).count("\n") for ir in irs)
    return opcodes(lambda: [emit_ir(ir) for ir in irs]) / lines


def parse_per_line(dumps: list) -> float:
    """The instructions of ``parse_ir`` per line of ``dumps``, counted once
    the reader's patterns are compiled, so that the count does not depend
    on what read IR first."""
    for dump in dumps:
        parse_ir(dump)
    return opcodes(lambda: [parse_ir(dump) for dump in dumps]) / sum(
        dump.count("\n") for dump in dumps)


def pattern_compile() -> int:
    """The instructions to compile the patterns the parser compiles as it
    loads, from their pattern text and flags, with ``re``'s cache emptied."""
    patterns = [(p.pattern, p.flags) for p in (parser._SECTIONS, parser._COMMAND_HEAD,
                                               parser._LINE_BREAK, parser._CUTTER)]
    re.purge()
    return opcodes(lambda: [re.compile(*p) for p in patterns])


def _in_fresh_process(code: str, *argv: str) -> str:
    """What ``code``, run with ``argv``, prints in a fresh process.  Its
    bytecode caches go to a directory of their own: the first child
    writes them and the counted one, like a ``diagc`` run of an installed
    package, reads them, whether or not the checkout holds caches or may
    be written."""
    src = str(TESTS.parent / "src")
    with tempfile.TemporaryDirectory() as caches:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(TESTS)]),
                   PYTHONPYCACHEPREFIX=caches)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        for _ in range(2):
            out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                                 capture_output=True, text=True, check=True).stdout
    return out


def library_start() -> int:
    """The instructions of a bare ``import diagc``, counted in a fresh
    process that reads bytecode caches."""
    return int(_in_fresh_process("import importlib\n"
                            "from opcode_count import opcodes\n"
                            "print(opcodes(lambda: importlib.import_module('diagc')))\n"))


def cli_start() -> int:
    """The instructions of ``import diagc.cli`` and of ``main`` on one
    small Xy-pic ``--check`` input, counted in a fresh process that reads
    bytecode caches, so that the count holds every module the CLI loads
    and every pattern it compiles."""
    code = ("import importlib, sys\n"
            "from opcode_count import opcodes\n"
            "status = []\n"
            "count = opcodes(lambda: status.append("
            "importlib.import_module('diagc.cli').main(sys.argv[1:])))\n"
            "print(status[0], count)\n")
    status, count = map(int, _in_fresh_process(
        code, str(CORPUS / "05_square.dg"), "--format", "xypic",
        "--check", str(TESTS / "golden" / "xypic")).split())
    if status:
        raise RuntimeError(f"the CLI's --check run exited {status}")
    return count


def main() -> None:
    figures = corpus_figures()
    print(f"{len(figures)} corpus figures, Python {sys.version.split()[0]}")
    xypic = token_stream(figures)
    for step in STEPS:
        count = cost(step, figures)
        print(f"{step:>12}: {count / xypic:.2f}x the token stream ({count} / {xypic}), "
              f"{count / len(figures):.0f} per figure")
    print(f"  front half: {front_half():.0f} instructions per small figure "
          f"({len(SMALL)} figures)")
    irs = [figure.ir for figure in figures]
    dumps = [emit_ir(ir) for ir in irs]
    print(f"     emit_ir: {emit_per_line(irs):.2f} instructions per corpus line")
    print(f"    parse_ir: {parse_per_line(dumps):.2f} instructions per corpus line")
    print(f"    patterns: {pattern_compile()} instructions to compile the parser's patterns")
    print(f"   CLI start: {cli_start()} instructions to import diagc.cli and check "
          "one small Xy-pic figure")
    print(f"library start: {library_start()} instructions to import diagc")


if __name__ == "__main__":
    main()
