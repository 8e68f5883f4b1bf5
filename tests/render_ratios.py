"""Instruction ratios of the SVG and TikZ renders to the Xy-pic token
stream, over the 29 figures of the corpus.

Each ratio divides the bytecode instructions of one step over every
figure by those of ``render_xypic`` over the same figures, with the
nodes the token stream prints, both counted by ``opcode_count``:

- ``svg``: ``render_figure(fig, "svg")``, its full layout included;
- ``tikz``: ``render_figure(fig, "tikz")``, its ends-only layout included;
- ``svg printer``: ``render_svg`` alone, given each full layout;
- ``tikz printer``: ``render_tikz`` alone, given each ends-only layout.

The cost bounds of ``test_render.py`` read their ratios from ``ratio``
here.  Run it from the repository root:

    PYTHONPATH=src python tests/render_ratios.py

It prints each ratio and the two counts behind it.  Its name keeps it
out of pytest's collection.
"""
import sys
from pathlib import Path

from diagc import (compile_source, layout_diagram, render_figure, render_svg, render_tikz,
                   render_xypic)
from opcode_count import opcodes

CORPUS = Path(__file__).resolve().parent / "corpus"
STEPS = ("svg", "tikz", "svg printer", "tikz printer")


def corpus_figures() -> list:
    """Every figure of the corpus, compiled."""
    return [figure for path in sorted(CORPUS.glob("*.dg"))
            for figure in compile_source(path.read_text(encoding="utf-8"), path.name)]


def counts(step: str, figures: list) -> tuple:
    """The instructions of ``step`` over ``figures``, and of the token
    stream over the same figures."""
    if step in ("svg", "tikz"):
        cost = opcodes(lambda: [render_figure(figure, step, []) for figure in figures])
    else:
        printer = render_svg if step == "svg printer" else render_tikz
        laid = [(layout_diagram(figure.ir, figure.metrics, ends_only=printer is render_tikz),
                 figure.ir.scale) for figure in figures]
        cost = opcodes(lambda: [printer(lay, scale, []) for lay, scale in laid])
    printed = [figure.ir._replace(nodes=figure.placed) for figure in figures]
    return cost, opcodes(lambda: [render_xypic(ir) for ir in printed])


def ratio(step: str, figures: list) -> float:
    """``step``'s instructions per instruction of the token stream."""
    cost, xypic = counts(step, figures)
    return cost / xypic


def main() -> None:
    figures = corpus_figures()
    print(f"{len(figures)} corpus figures, Python {sys.version.split()[0]}")
    for step in STEPS:
        cost, xypic = counts(step, figures)
        print(f"{step:>12}: {cost / xypic:.2f}x the token stream ({cost} / {xypic})")


if __name__ == "__main__":
    main()
