"""Command-line front end: compile files, dump IR, run golden checks.

Exit status: 0 on success, 1 when --strict promotes warnings or a
--check comparison fails, 2 on parse, expansion, layout or SVG text
errors.  One output file per figure; multiple figures in one input get
a -N suffix.  Commands outside \\bfig blocks form one implicit figure,
compiled last.
Diagnostics go to standard error in input order.
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from .compiler import FORMATS, compile_source, render_figure
from .diagnostics import Diagnostic, DiagramError
from .geometry import ScaleConfig, read_positive
from .metrics import DEFAULT_METRICS, FontMetrics, MetricsError, load_metrics


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagc",
        description="Compile commutative-diagram source files.",
    )
    parser.add_argument("inputs", nargs="+", help="diagram source files")
    parser.add_argument(
        "--format", "-f", choices=FORMATS, default="svg",
        help="output format (default: svg)",
    )
    parser.add_argument(
        "-o", "--output", default=None,
        help="output file (single result) or directory",
    )
    parser.add_argument("--scale", default="1", help="render scale (default: 1)")
    parser.add_argument("--em", default="10", help="em size in points (default: 10)")
    parser.add_argument(
        "--metrics", default=os.environ.get("DIAGC_METRICS"),
        help="character width table (default: $DIAGC_METRICS)",
    )
    parser.add_argument(
        "--strict", action="store_true", help="treat warnings as errors"
    )
    parser.add_argument(
        "--check", metavar="GOLDEN_DIR", default=None,
        help="compare output against golden files instead of writing",
    )
    return parser


class _FileResult(NamedTuple):
    path: Path
    outputs: List[Tuple[str, str]]  # (name, text)
    diagnostics: List[Diagnostic]
    status: int


def _compile_file(
    path: Path, fmt: str, cfg: ScaleConfig, metrics: FontMetrics
) -> _FileResult:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return _FileResult(path, [], [Diagnostic("error", f"cannot read {path}: {exc}",
                                                 str(path))], 2)
    try:
        figures = compile_source(text, str(path), cfg, metrics)
    except DiagramError as exc:
        return _FileResult(path, [], [exc.diagnostic], 2)
    outputs: List[Tuple[str, str]] = []
    diagnostics: List[Diagnostic] = []
    status = 0
    ext = FORMATS[fmt]
    for index, figure in enumerate(figures):
        diagnostics.extend(figure.warnings)
        if len(figures) > 1:
            name = f"{path.stem}-{index + 1}{ext}"
        else:
            name = f"{path.stem}{ext}"
        render_warnings: List[str] = []
        try:
            rendered = render_figure(figure, fmt, render_warnings)
        except DiagramError as exc:
            diagnostics.append(exc.diagnostic)
            status = 2
            continue
        diagnostics.extend(
            Diagnostic("warning", note, str(path), figure.line, figure.col)
            for note in render_warnings
        )
        outputs.append((name, rendered))
    return _FileResult(path, outputs, diagnostics, status)


def _write_atomic(dest: Path, text: str) -> None:
    # no partial files: write to a sibling temp file, then rename over
    fd, tmp = tempfile.mkstemp(dir=str(dest.parent), prefix=dest.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, dest)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        cfg = ScaleConfig(read_positive(args.scale, "--scale"), read_positive(args.em, "--em"))
    except ValueError as exc:
        print(f"diagc: {exc}", file=sys.stderr)
        return 2
    try:
        metrics = load_metrics(args.metrics) if args.metrics else DEFAULT_METRICS
    except MetricsError as exc:
        print(f"diagc: {exc}", file=sys.stderr)
        return 2

    results = [_compile_file(Path(p), args.format, cfg, metrics) for p in args.inputs]

    status = 0
    total_outputs = sum(len(r.outputs) for r in results)
    out_arg = args.output
    single_file_output = (
        out_arg is not None
        and not out_arg.endswith(os.sep)
        and not Path(out_arg).is_dir()
    )
    if single_file_output and total_outputs > 1:
        print(
            "diagc: --output names a single file but there are "
            f"{total_outputs} outputs; pass a directory",
            file=sys.stderr,
        )
        return 2

    if args.check is None and not single_file_output:
        real: Dict[str, str] = {}  # output directory -> its resolved path
        writer: Dict[Tuple[str, str], Path] = {}  # (resolved directory, name) -> input
        for result in results:
            if result.status:
                continue  # a failed input writes nothing
            base = out_arg if out_arg is not None else str(result.path.parent)
            if base not in real:
                real[base] = os.path.realpath(base)
            for name, _ in result.outputs:
                first = writer.setdefault((real[base], name), result.path)
                if first is not result.path:
                    print(
                        f"diagc: {first} and {result.path} both write "
                        f"{Path(base) / name}; nothing written",
                        file=sys.stderr,
                    )
                    return 2

    for result in results:
        for diag in result.diagnostics:
            print(diag.format(), file=sys.stderr)
        status = max(status, result.status)
        if args.strict and any(d.severity == "warning" for d in result.diagnostics):
            status = max(status, 1)
        if result.status:
            continue
        for name, text in result.outputs:
            if args.check is not None:
                golden = Path(args.check) / name
                try:
                    expected = golden.read_bytes()
                except OSError:
                    print(f"diagc: missing golden file {golden}", file=sys.stderr)
                    status = max(status, 1)
                    continue
                if expected != text.encode("utf-8"):  # the bytes a write would give
                    print(f"diagc: golden mismatch for {name}", file=sys.stderr)
                    status = max(status, 1)
                continue
            if single_file_output:
                dest = Path(out_arg)
            else:
                base = Path(out_arg) if out_arg is not None else result.path.parent
                dest = base / name
            try:
                dest.parent.mkdir(parents=True, exist_ok=True)
                _write_atomic(dest, text)
            except OSError as exc:
                print(f"diagc: cannot write {dest}: {exc}", file=sys.stderr)
                status = max(status, 2)
    return status


if __name__ == "__main__":
    sys.exit(main())
