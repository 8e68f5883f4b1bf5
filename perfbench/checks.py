"""Correctness checks, run untimed before any measurement.

Each check returns ``Check`` records; a failed one names what failed.
Expected values come from outside the compiler under test: the
committed Xy-pic goldens, the grid generator's own anchor table, the
IR text itself (fixpoint), a second render (determinism) and the
scale-1 render (exact x2 scaling).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import diagc as dg

from workloads import Output


@dataclass
class Check:
    name: str
    subject: str
    ok: bool
    detail: str = ""
    known: str = ""   # a known defect, listed in ROADMAP, that this failure shows

    def line(self) -> str:
        note = f" [known defect: {self.known}]" if self.known else ""
        return f"FAIL {self.name} {self.subject}: {self.detail}{note}"


# parse_ir counts the brace of \{ and \} (ROADMAP open item 4).  A failed
# fixpoint on a figure whose text holds one is this defect: it still
# counts as failed, but does not make the run incorrect.
KNOWN_IR_DEFECT = "ROADMAP item 4, parse_ir and escaped braces"


def _has_escaped_brace(ir) -> bool:
    texts = [n.text for n in ir.nodes]
    for a in ir.arrows:
        texts += [a.label, a.label2, a.start_text, a.end_text, a.style]
    return any("\\{" in t or "\\}" in t for t in texts)


def golden_name(source: str, index: int, count: int, ext: str = ".xy") -> str:
    """The CLI's output name: one file per figure, -N suffix when several."""
    stem = Path(source).stem
    return f"{stem}-{index + 1}{ext}" if count > 1 else f"{stem}{ext}"


def figure_counts(outputs: Iterable[Output]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for o in outputs:
        counts[o.source] = max(counts.get(o.source, 0), o.index + 1)
    return counts


def load_goldens(directory: Path) -> Dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(directory.glob("*.xy"))}


def check_goldens(outputs: Sequence[Output], goldens: Mapping[str, str]) -> List[Check]:
    counts = figure_counts(outputs)
    checks = []
    for o in outputs:
        if o.fmt != "xypic":
            continue
        name = golden_name(o.source, o.index, counts[o.source])
        expected = goldens.get(name)
        if expected is None:
            checks.append(Check("golden_xypic", name, False, "no golden file"))
        elif expected != o.text:
            checks.append(Check("golden_xypic", name, False, "differs from golden"))
        else:
            checks.append(Check("golden_xypic", name, True))
    return checks


def check_grid(ir, table: Mapping[Tuple[int, int], str], rows: int, cols: int) -> List[Check]:
    got = sorted(((n.anchor.x, n.anchor.y), n.text) for n in ir.nodes)
    want = sorted(table.items())
    checks = [Check(
        "grid_nodes", f"{rows}x{cols}", got == want,
        "" if got == want else f"{len(got)} merged nodes, {len(want)} expected"
        + ("" if len(got) != len(want) else ", anchors or texts differ"),
    )]
    n = len(ir.arrows)
    checks.append(Check("grid_arrows", f"{rows}x{cols}", n == 4 * rows * cols,
                        "" if n == 4 * rows * cols else f"{n} arrows, {4 * rows * cols} expected"))
    return checks


def _figures(outputs: Sequence[Output]) -> Dict[Tuple[str, int], Output]:
    figures: Dict[Tuple[str, int], Output] = {}
    for o in outputs:
        figures.setdefault((o.source, o.index), o)
    return figures


def check_ir_fixpoint(outputs: Sequence[Output]) -> List[Check]:
    """emit -> parse -> emit is a fixpoint and parse gives the same IR."""
    checks = []
    for (source, index), o in _figures(outputs).items():
        subject = f"{source}#{index + 1}"
        dump = dg.emit_ir(o.ir)
        try:
            back = dg.parse_ir(dump)
            ok = back == o.ir and dg.emit_ir(back) == dump
            detail = "" if ok else "round trip changed the IR"
        except Exception as exc:  # any escape is a failed round trip
            ok, detail = False, f"{type(exc).__name__}: {exc}"[:160]
        known = KNOWN_IR_DEFECT if not ok and _has_escaped_brace(o.ir) else ""
        checks.append(Check("ir_fixpoint", subject, ok, detail, known))
    return checks


def check_determinism(first: Sequence[Output], second: Sequence[Output]) -> List[Check]:
    """Two renders of every figure x format give the same text."""
    if len(first) != len(second):
        return [Check("determinism", "all", False,
                      f"{len(first)} outputs, then {len(second)}")]
    return [
        Check("determinism", f"{a.source}#{a.index + 1}.{a.fmt}",
              (a.source, a.index, a.fmt, a.text) == (b.source, b.index, b.fmt, b.text),
              "" if a.text == b.text else "second render differs")
        for a, b in zip(first, second)
    ]


_GEOMETRIC = {
    "x", "y", "x1", "y1", "x2", "y2", "width", "height", "font-size",
    "refX", "refY", "markerWidth", "markerHeight", "stroke-width",
    "viewBox", "stroke-dasharray", "d",
}
_ATTR = re.compile(r'([\w-]+)="([^"]*)"')
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


def svg_geometry(svg: str) -> Tuple[str, List[Fraction]]:
    """The SVG with geometric numbers masked, and those numbers in order."""
    numbers: List[Fraction] = []

    def mask(m: "re.Match") -> str:
        if m.group(1) not in _GEOMETRIC:
            return m.group(0)
        numbers.extend(Fraction(v) for v in _NUMBER.findall(m.group(2)))
        return f'{m.group(1)}="{_NUMBER.sub("#", m.group(2))}"'

    return _ATTR.sub(mask, svg), numbers


def scaled_exactly(svg1: str, svg2: str, factor) -> bool:
    """Same SVG structure, every geometric number times ``factor``."""
    skel1, nums1 = svg_geometry(svg1)
    skel2, nums2 = svg_geometry(svg2)
    return (skel1 == skel2 and len(nums1) == len(nums2) and bool(nums1)
            and all(b == factor * a for a, b in zip(nums1, nums2)))


def check_scaling(source: str, text: str, factor: int = 2) -> Check:
    """The first figure rendered at scale ``factor`` is the scale-1 SVG times ``factor``."""
    one = dg.compile_source(text, source, cfg=dg.ScaleConfig(scale=1))[0]
    big = dg.compile_source(text, source, cfg=dg.ScaleConfig(scale=factor))[0]
    ok = scaled_exactly(dg.render_figure(one, "svg"), dg.render_figure(big, "svg"), factor)
    return Check("scaling_x2", source, ok, "" if ok else "SVG coordinates are not exactly scaled")


def check_cli(write_status: int, check_status: int, written: Mapping[str, str],
              expected: Mapping[str, str]) -> List[Check]:
    """Both CLI children exit 0 and the written files are the library's output."""
    checks = [
        Check("cli_write_exit", "diagc --format svg", write_status == 0, f"exit {write_status}"),
        Check("cli_check_exit", "diagc --format xypic --check", check_status == 0,
              f"exit {check_status}"),
        Check("cli_outputs", "count", len(written) == len(expected),
              f"{len(written)} files written, {len(expected)} expected"),
    ]
    for path, text in sorted(expected.items()):
        got = written.get(path)
        checks.append(Check("cli_output", path, got == text,
                            "missing" if got is None else "differs from library render"))
    return checks
