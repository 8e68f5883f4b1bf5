"""Command-line front end: compile files, dump IR, run golden checks.

Exit status: 0 on success, 1 when --strict promotes warnings or a
--check comparison fails, 2 on parse, expansion, layout or rendering
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
from typing import Dict, List, NamedTuple, Optional, Tuple

from .compiler import FORMATS, compile_source, render_figure
from .diagnostics import Diagnostic, DiagramError
from .geometry import Memo, ScaleConfig, read_positive
from .metrics import DEFAULT_METRICS, FontMetrics, load_metrics


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
    path: str
    outputs: List[Tuple[str, str]]  # (name, text)
    diagnostics: List[Diagnostic]
    status: int


def _compile_file(path: str, fmt: str, cfg: ScaleConfig, metrics: FontMetrics) -> _FileResult:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _FileResult(path, [], [Diagnostic("error", f"cannot read {path}: {exc}", path)], 2)
    try:
        figures = compile_source(text, path, cfg, metrics)
    except DiagramError as exc:
        return _FileResult(path, [], [exc.diagnostic], 2)
    outputs: List[Tuple[str, str]] = []
    diagnostics: List[Diagnostic] = []
    status = 0
    stem = os.path.basename(path)
    dot = stem.rfind(".")  # the last suffix goes, as pathlib's stem reads it
    stem = stem[:dot] if 0 < dot < len(stem) - 1 else stem
    ext = FORMATS[fmt]
    for index, figure in enumerate(figures):
        diagnostics.extend(figure.warnings)
        name = f"{stem}-{index + 1}{ext}" if len(figures) > 1 else stem + ext
        render_warnings: List[str] = []
        try:
            rendered = render_figure(figure, fmt, render_warnings)
        except DiagramError as exc:
            diagnostics.append(exc.diagnostic)
            status = 2
            continue
        diagnostics.extend(Diagnostic("warning", note, path, figure.line, figure.col)
                           for note in render_warnings)
        outputs.append((name, rendered))
    return _FileResult(path, outputs, diagnostics, status)


def _write_atomic(dest: str, text: str, mode: int) -> None:
    # no partial files: write to a sibling temp file, then rename over;
    # mkstemp makes it 0600, so it gets the mode a plain write would give
    directory, name = os.path.split(dest)
    fd, tmp = tempfile.mkstemp(dir=directory or ".", prefix=name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            os.chmod(tmp, mode)
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
        metrics = load_metrics(args.metrics) if args.metrics else DEFAULT_METRICS
    except ValueError as exc:  # a MetricsError is a ValueError
        print(f"diagc: {exc}", file=sys.stderr)
        return 2

    results = [_compile_file(path, args.format, cfg, metrics) for path in args.inputs]

    out, check = args.output, args.check
    single = out is not None and not out.endswith(os.sep) and not os.path.isdir(out or ".")
    total_outputs = sum(len(r.outputs) for r in results)
    if single and total_outputs > 1:
        print(f"diagc: --output names a single file but there are {total_outputs} outputs; "
              "pass a directory", file=sys.stderr)
        return 2

    # each input's destinations, one per output and none for a failed input:
    # the golden file, the one -o file or <directory>/<name>, where no two
    # inputs may write one file and no file written may be an input
    plan: List[List[str]] = []
    real = Memo(os.path.realpath)  # directory -> its resolved path
    writer: Dict[Tuple[str, str], _FileResult] = {}  # (resolved directory, name) -> input
    sources: Dict[Tuple[str, str], str] = {}  # (resolved directory, name) -> input
    for path in [] if check is not None else args.inputs:
        head, name = os.path.split(path)
        sources[real[head], name] = path
        if os.path.islink(path):  # the file it links to, by that file's own name, too
            sources[os.path.split(os.path.realpath(path))] = path
    for result in results:
        names = [] if result.status else [name for name, _ in result.outputs]
        if check is not None:
            plan.append([os.path.join(check, name) for name in names])
            continue
        if single:
            base, dests = os.path.dirname(out), [out] * len(names)
            names = [os.path.basename(out)] * len(names)
        else:
            base = os.path.dirname(result.path) if out is None else out
            dests = [os.path.join(base, name) for name in names]
        plan.append(dests)
        for name, dest in zip(names, dests):
            key = real[base], name
            source = sources.get(key)
            if source is not None:
                print(f"diagc: {result.path} writes {dest} over the input {source}; "
                      "nothing written", file=sys.stderr)
                return 2
            first = writer.setdefault(key, result)
            if first is not result:
                print(f"diagc: {first.path} and {result.path} both write {dest}; nothing written",
                      file=sys.stderr)
                return 2

    status = 0
    made = {""}  # the output directories made in this run; "" is the current one
    umask = os.umask(0)  # no call reads the umask without setting it
    os.umask(umask)
    mode = 0o666 & ~umask  # what a plain write gives a new file
    for result, dests in zip(results, plan):
        for diag in result.diagnostics:
            print(diag.format(), file=sys.stderr)
        status = max(status, result.status)
        if args.strict and any(d.severity == "warning" for d in result.diagnostics):
            status = max(status, 1)
        for (name, text), dest in zip(result.outputs, dests):
            if check is not None:
                try:
                    with open(dest, "rb") as fh:
                        same = fh.read() == text.encode("utf-8")  # the bytes a write would give
                    note = "" if same else f"golden mismatch for {name}"
                except OSError:
                    note = f"missing golden file {dest}"
                if note:
                    print(f"diagc: {note}", file=sys.stderr)
                    status = max(status, 1)
                continue
            directory = os.path.dirname(dest)
            try:
                if directory not in made:
                    os.makedirs(directory, exist_ok=True)
                    made.add(directory)
                _write_atomic(dest, text, mode)
            except OSError as exc:
                print(f"diagc: cannot write {dest}: {exc}", file=sys.stderr)
                status = max(status, 2)
    return status


if __name__ == "__main__":
    sys.exit(main())
