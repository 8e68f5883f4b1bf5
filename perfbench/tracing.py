"""Spans around the public function of each compiler layer.

A span records name, start, end, parent span and pass id.  Spans stay
in memory until the run ends; ``self_times`` reduces them to each
layer's self time per pass (its duration minus its direct children's).
Layers are wrapped by patching every ``diagc`` module attribute that
refers to the layer function, and only for the duration of a traced
pass, so untraced passes run the compiler untouched.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, int, int]  # name, start, end, parent, pass id

WARNING_KINDS = (
    ("unknown_placement", "unknown placement"),
    ("cube_inner_outside", "inner square does not lie inside"),
    ("node_text_conflict", "with different text"),
    ("svg_style_fallback", "not supported by the SVG backend"),
    ("tikz_style_fallback", "not supported by the TikZ backend"),
)


def warning_kind(message: str) -> str:
    for kind, marker in WARNING_KINDS:
        if marker in message:
            return kind
    return "other"


def _count_warnings(counts: Counter, messages) -> None:
    for message in messages:
        counts["diagnostics.warnings." + warning_kind(message)] += 1


def _count_parse(args, result, counts: Counter) -> None:
    counts["parser.bytes"] += len(args[0].encode("utf-8"))
    counts["parser.commands"] += sum(len(f.commands) for f in result)


def _count_expand(args, result, counts: Counter) -> None:
    ir, diagnostics = result
    counts["expand.raw_nodes"] += len(ir.nodes)
    counts["expand.raw_arrows"] += len(ir.arrows)
    _count_warnings(counts, (d.message for d in diagnostics))


def _count_merge(args, result, counts: Counter) -> None:
    counts["ir.nodes"] += len(result.nodes)
    if len(args) > 1 and args[1] is not None:
        _count_warnings(counts, args[1])


def _bytes_counter(key: str, warnings_arg: Optional[int] = None):
    def count(args, result, counts: Counter) -> None:
        counts[key] += len(result.encode("utf-8"))
        if warnings_arg is not None and len(args) > warnings_arg and args[warnings_arg] is not None:
            _count_warnings(counts, args[warnings_arg])
    return count


def _count_layout(args, result, counts: Counter) -> None:
    counts["layout.paths"] += len(result.paths)


def _count_text_width(args, result, counts: Counter) -> None:
    counts["metrics.text_width_calls"] += 1


# public function -> (span name, counter); the layers of the compiler
LAYERS: Dict[str, Tuple[str, Optional[Callable]]] = {
    "parse_source": ("parser", _count_parse),
    "expand_figure": ("expand", _count_expand),
    "merge_duplicate_nodes": ("ir", _count_merge),
    "text_width": ("metrics", _count_text_width),
    "layout_diagram": ("layout", _count_layout),
    "render_svg": ("svg", _bytes_counter("svg.bytes", 2)),
    "render_tikz": ("tikz", _bytes_counter("tikz.bytes", 2)),
    "render_xypic": ("xypic", _bytes_counter("xypic.bytes")),
    "emit_ir": ("irtext.emit", _bytes_counter("irtext.bytes")),
    "parse_ir": ("irtext.parse", None),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()   # of the current pass
        self.pass_id = 0
        self._stack: List[int] = []

    def record(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller (a child process, say)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, start, end, parent, self.pass_id))

    def wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.pass_id)
            if count is not None:
                count(args, result, self.counts)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every layer function wherever a diagc module refers to it."""
        import diagc

        originals = {attr: getattr(diagc, attr) for attr in LAYERS}
        wrappers = {
            attr: self.wrap(name, originals[attr], count)
            for attr, (name, count) in LAYERS.items()
        }
        patched = []
        modules = [m for key, m in list(sys.modules.items())
                   if key == "diagc" or key.startswith("diagc.")]
        for module in modules:
            for attr, fn in originals.items():
                if getattr(module, attr, None) is fn:
                    setattr(module, attr, wrappers[attr])
                    patched.append((module, attr, fn))
        try:
            yield
        finally:
            for module, attr, fn in patched:
                setattr(module, attr, fn)

    def write(self, path, origin: float) -> None:
        """One JSON object per span, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pass_id in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": round(start - origin, 9),
                    "end": round(end - origin, 9), "parent": parent, "pass": pass_id,
                }) + "\n")


def self_times(spans: List[Span]) -> Dict[int, Counter]:
    """Per pass id: layer name -> summed self time in seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    per_pass: Dict[int, Counter] = defaultdict(Counter)
    for i, (name, start, end, parent, pass_id) in enumerate(spans):
        per_pass[pass_id][name] += (end - start) - child[i]
    return per_pass


def root_times(spans: List[Span]) -> Dict[int, Counter]:
    """Per pass id: layer name -> summed duration of its top-level spans."""
    per_pass: Dict[int, Counter] = defaultdict(Counter)
    for name, start, end, parent, pass_id in spans:
        if parent < 0:
            per_pass[pass_id][name] += end - start
    return per_pass
