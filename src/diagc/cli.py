"""Command-line front end: compile files, dump IR, run golden checks.

Exit status: 0 on success, 1 when --strict promotes warnings or a
--check comparison fails, 2 on a command line that does not parse, an
unreadable input or one with no figure, a parse, expansion, layout or
rendering error, a bad --scale, --em or --metrics, one -o file for
several outputs, two inputs writing one file, an output over an input,
or a failed write.  One output
file per figure; multiple figures in one input get a -N suffix.
Commands outside \\bfig blocks form one implicit figure, compiled last.
Diagnostics go to standard error in input order.
"""
from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from .compiler import FORMATS, compile_source, render_figure
from .diagnostics import Diagnostic, DiagramError
from .geometry import Memo, ScaleConfig, read_positive
from .metrics import DEFAULT_METRICS, FontMetrics, load_metrics

if TYPE_CHECKING:
    import argparse


# every flag in the order --help lists them: its spellings, then what
# argparse is told of it.  Its longest spelling names its field, and
# only --strict, which stores True, takes no value.  --metrics, when not
# given, falls back on $DIAGC_METRICS in main.
_FLAGS = (
    (("--format", "-f"), {"choices": FORMATS, "default": "svg",
                          "help": "output format (default: svg)"}),
    (("-o", "--output"), {"default": None, "help": "output file (single result) or directory"}),
    (("--scale",), {"default": "1", "help": "render scale (default: 1)"}),
    (("--em",), {"default": "10", "help": "em size in points (default: 10)"}),
    (("--metrics",), {"default": None, "help": "character width table (default: $DIAGC_METRICS)"}),
    (("--strict",), {"action": "store_true", "default": False,
                     "help": "treat warnings as errors"}),
    (("--check",), {"metavar": "GOLDEN_DIR", "default": None,
                    "help": "compare output against golden files instead of writing"}),
)
# each flag's field, named by its longest spelling, and its value when not given
_DEFAULTS = {max(spellings, key=len)[2:]: keywords["default"] for spellings, keywords in _FLAGS}
# each spelling -> its flag's field, whether the flag takes no value, and
# the values it may take (None for any)
_SPELLINGS = {spelling: (field, "action" in keywords, keywords.get("choices"))
              for field, (spellings, keywords) in zip(_DEFAULTS, _FLAGS) for spelling in spellings}


def build_arg_parser() -> argparse.ArgumentParser:
    import argparse  # loaded only for the command lines read_args leaves to it

    parser = argparse.ArgumentParser(
        prog="diagc",
        description="Compile commutative-diagram source files.",
    )
    parser.add_argument("inputs", nargs="+", help="diagram source files")
    for spellings, keywords in _FLAGS:
        parser.add_argument(*spellings, **keywords)
    return parser


def read_args(argv: List[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse makes of a common command line: one run of
    inputs, each flag spelled in full, each value a token of its own that
    does not begin with "-", and each --format naming a format.  None
    for any other command line, which argparse then reads: --help,
    abbreviations, "=" and attached values, "--", "-" and errors."""
    fields = dict(_DEFAULTS)
    inputs: List[str] = []
    ended = False  # a flag has come after the run of inputs
    tokens = iter(argv)
    for token in tokens:
        if token[:1] != "-":
            if ended:
                return None
            inputs.append(token)
            continue
        ended = bool(inputs)
        field, switch, choices = _SPELLINGS.get(token, (None, False, None))
        if field is None:
            return None
        if switch:
            fields[field] = True
            continue
        value = next(tokens, "-")  # a flag with no value left is argparse's error
        # argparse checks each value against its choices as it reads it
        if value[:1] == "-" or choices is not None and value not in choices:
            return None
        fields[field] = value
    return SimpleNamespace(inputs=inputs, **fields) if inputs else None


class _FileResult(NamedTuple):
    path: str
    outputs: List[Tuple[str, str]]  # (name, text)
    diagnostics: List[Diagnostic]
    status: int


def _compile_file(path: str, filename: str, fmt: str, cfg: ScaleConfig,
                  metrics: FontMetrics) -> _FileResult:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _FileResult(path, [], [Diagnostic("error", f"cannot read {path}: {exc}", path)], 2)
    try:
        figures = compile_source(text, path, cfg, metrics)
    except DiagramError as exc:
        return _FileResult(path, [], [exc.diagnostic], 2)
    if not figures:
        return _FileResult(path, [], [Diagnostic("error", "no figure to draw", path)], 2)
    outputs: List[Tuple[str, str]] = []
    diagnostics: List[Diagnostic] = []
    status = 0
    dot = filename.rfind(".")  # the last suffix goes, as pathlib's stem reads it
    stem = filename[:dot] if 0 < dot < len(filename) - 1 else filename
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
        if render_warnings:
            diagnostics.extend(Diagnostic("warning", note, path, figure.line, figure.col)
                               for note in render_warnings)
        outputs.append((name, rendered))
    return _FileResult(path, outputs, diagnostics, status)


# mkstemp's flags: a new file, never one that is there or a link
_CREATE = (os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_NOFOLLOW", 0)
           | getattr(os, "O_BINARY", 0))


def _write_atomic(dest: str, data: bytes) -> None:
    # no partial files: write a new sibling file, then rename it over; the
    # umask applies to 0o666 there, as it does for a plain write
    while True:
        tmp = f"{dest}.{os.urandom(4).hex()}"  # as long as mkstemp's names
        try:
            fd = os.open(tmp, _CREATE, 0o666)
            break
        except FileExistsError:  # taken: another name, as mkstemp does
            pass
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, dest)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_args(argv) or build_arg_parser().parse_args(argv)
    table = os.environ.get("DIAGC_METRICS") if args.metrics is None else args.metrics
    try:
        cfg = ScaleConfig(read_positive(args.scale, "--scale"), read_positive(args.em, "--em"))
        metrics = load_metrics(table) if table else DEFAULT_METRICS
    except ValueError as exc:  # a MetricsError is a ValueError
        print(f"diagc: {exc}", file=sys.stderr)
        return 2

    splits = [os.path.split(path) for path in args.inputs]  # each input's (head, name)
    results = [_compile_file(path, name, args.format, cfg, metrics)
               for path, (_, name) in zip(args.inputs, splits)]

    out, check = args.output, args.check
    single = check is None and bool(out) and not out.endswith(os.sep) and not os.path.isdir(out)
    total_outputs = sum(len(r.outputs) for r in results)
    if single and total_outputs > 1:
        print(f"diagc: --output names a single file but there are {total_outputs} outputs; "
              "pass a directory", file=sys.stderr)
        return 2

    # each input's output directory and destinations, one per output and
    # none for a failed input: the golden file, the one -o file or
    # <directory>/<name>, where no two inputs may write one file and no
    # file written may be an input
    plan: List[Tuple[str, List[str]]] = []
    real = Memo(os.path.realpath)  # directory -> its resolved path
    writer: Dict[Tuple[str, str], _FileResult] = {}  # (resolved directory, name) -> input
    sources: Dict[Tuple[str, str], str] = {}  # (resolved directory, name) -> input
    for path, (head, name) in [] if check is not None else zip(args.inputs, splits):
        sources[real[head], name] = path
        if os.path.islink(path):  # the file it links to, by that file's own name, too
            sources[os.path.split(os.path.realpath(path))] = path
    # an output name has no directory, so the golden or -o directory joined
    # to "" once, and then each name added, is the two joined
    prefix = os.path.join(check if check is not None else out or "", "")
    into = os.path.dirname(prefix)  # the directory that -o dir/ names
    for result, (head, _) in zip(results, splits):
        names = [] if result.status else [name for name, _ in result.outputs]
        if check is not None:
            plan.append(("", [prefix + name for name in names]))
            continue
        if single:
            directory, dests = os.path.dirname(out), [out] * len(names)
            names = [os.path.basename(out)] * len(names)
        elif out is None:
            directory, dests = head, [os.path.join(head, name) for name in names]
        else:
            directory, dests = into, [prefix + name for name in names]
        plan.append((directory, dests))
        for name, dest in zip(names, dests):
            key = real[directory], name
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
    for result, (directory, dests) in zip(results, plan):
        for diag in result.diagnostics:
            print(diag.format(), file=sys.stderr)
        status = max(status, result.status)
        if args.strict and any(d.severity == "warning" for d in result.diagnostics):
            status = max(status, 1)
        for (name, text), dest in zip(result.outputs, dests):
            data = text.encode("utf-8")  # the bytes a write gives and a check compares
            if check is not None:
                try:
                    with open(dest, "rb") as fh:
                        same = fh.read() == data
                    note = "" if same else f"golden mismatch for {name}"
                except OSError:
                    note = f"missing golden file {dest}"
                if note:
                    print(f"diagc: {note}", file=sys.stderr)
                    status = max(status, 1)
                continue
            try:
                if directory not in made:
                    os.makedirs(directory, exist_ok=True)
                    made.add(directory)
                _write_atomic(dest, data)
            except OSError as exc:
                print(f"diagc: cannot write {dest}: {exc}", file=sys.stderr)
                status = max(status, 2)
    return status


if __name__ == "__main__":
    sys.exit(main())
