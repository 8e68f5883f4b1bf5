"""Seeded inputs, the closed-loop pass and the workloads of the benchmark.

Every workload runs in one process, one pass after the other (a closed
loop with one client).  Inputs depend on the seed, their sizes do not:
the seed picks texts, styles and orders, never how many commands or
characters there are, so runs on different seeds do the same work.

A pass runs ``compile_source`` and ``render_figure``, the functions the
CLI runs; the tracer wraps each layer where a ``diagc`` module refers
to it, without touching the compiler.
"""
from __future__ import annotations

import os
import random
import shutil
import signal
import string
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import diagc as dg

import opcount

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CORPUS_DIR = ROOT / "tests" / "corpus"
GOLDEN_DIR = ROOT / "tests" / "golden" / "xypic"

Source = Tuple[str, str]  # (name, text)

# -- library pass ------------------------------------------------------------


@dataclass
class Output:
    """One figure x format render, kept by a recorded pass."""

    source: str
    index: int       # figure number within its source
    fmt: str
    text: str
    ir: "dg.DiagramIR"   # merged, as the renderers other than Xy-pic see it


def library_pass(
    sources: Sequence[Source],
    formats: Sequence[str],
    read_back: bool = False,
    record: Optional[List[Output]] = None,
) -> None:
    """Compile every source and render each figure in every format, with
    ``compile_source`` and ``render_figure`` as the CLI does.

    ``read_back`` parses emitted IR again; ``record`` collects every output.
    """
    for name, text in sources:
        for index, figure in enumerate(dg.compile_source(text, name)):
            for fmt in formats:
                # a fresh warning list per call: the tracer counts what each call adds
                out = dg.render_figure(figure, fmt, warnings=[])
                if read_back and fmt == "ir":
                    dg.parse_ir(out)
                if record is not None:
                    record.append(Output(name, index, fmt, out, figure.ir))


# -- child processes -----------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# wait4 reports the larger of a child's own peak RSS and that of the
# process it was forked from, so peak RSS is read by a small launcher
# that spawns the child and prints what wait4 gives it.
_RSS_LAUNCHER = (
    "import os, signal, sys\n"
    "pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)\n"
    "signal.signal(signal.SIGTERM, lambda *_: os.kill(pid, signal.SIGKILL))\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(usage.ru_maxrss)\n"
    "sys.exit(os.waitstatus_to_exitcode(status))\n"
)


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float          # user + system time of the child
    status: int
    stdout: str
    stderr: str
    max_rss_kb: int = 0   # measured only when asked for


def run_child(argv: Sequence[str], env: Dict[str, str], workdir: Path,
              rss: bool = False) -> ChildRun:
    """Run one child to completion: wall and CPU time, exit status,
    output and, with ``rss``, its peak resident set size."""
    if rss:
        argv = [sys.executable, "-S", "-c", _RSS_LAUNCHER, *argv]
    out_path = workdir / f"child-{os.getpid()}.out"
    err_path = workdir / f"child-{os.getpid()}.err"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], list(argv), env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    out_path.unlink()
    err_path.unlink()
    max_rss_kb = int(stdout.split()[-1]) if rss and stdout.split() else 0
    return ChildRun(wall, usage.ru_utime + usage.ru_stime,
                    os.waitstatus_to_exitcode(status), stdout, stderr, max_rss_kb)


# -- generators ----------------------------------------------------------------

_WORDS = ("alpha", "gamma", "delta", "theta", "kappa", "sigma", "omega",
          "times", "oplus", "infty")
_SAFE_SYMBOLS = ("\\,", "\\;", "\\!", "\\|")
# parse_ir miscounts the brace of a control symbol (ROADMAP open item 4);
# front_end keeps a fixed number of figures with one, so the defect shows
_BRACE_SYMBOLS = ("\\{", "\\}")
# one slot per character: Letter, Word, Symbol, Brace symbol, Group, sub-Digit
_NODE_PATTERNS = ("L", "LD", "W", "GD", "LSL", "WG")
_LABEL_PATTERNS = ("L", "W", "LSL", "G", "WD", "LL")
# all the same length, and none falls back in any backend
_STYLES = (">->", "->>", "<-<", "<<-", "-->", "(->")
_PLACEMENTS = "albr"


class _Texts:
    """Seeded math texts whose length and width depend only on position."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.count = 0

    def slot(self, cls: str) -> str:
        rng = self.rng
        if cls == "L":
            return rng.choice(string.ascii_letters)
        if cls == "W":
            return "\\" + rng.choice(_WORDS)
        if cls == "S":
            return rng.choice(_SAFE_SYMBOLS)
        if cls == "B":
            return rng.choice(_BRACE_SYMBOLS)
        if cls == "G":
            return "{" + rng.choice(string.ascii_letters) + rng.choice(string.ascii_letters) + "}"
        if cls == "D":
            return "_{" + rng.choice(string.digits) + "}"
        raise ValueError(cls)

    def text(self, patterns: Sequence[str], extra: str = "") -> str:
        pattern = patterns[self.count % len(patterns)] + extra
        self.count += 1
        return "".join(self.slot(c) for c in pattern)


N4 = "{N}`{N}`{N}`{N}"
L4 = "{L}`{L}`{L}`{L}"
TRI = "[{N}`{N}`{N};{L}`{L}`{L}]"
PAIR = "[" + N4 + ";{L}`{L}`{L}`{L}`{L}]"
SIX = "[{N}`{N}`{N}`{N}`{N}`{N};{L}`{L}`{L}`{L}`{L}`{L}`{L}]"

# Every command kind once.  {N} node text, {L} label, {P} placement,
# {S} style; a list gives variants of different lengths, used in turn
# by copy number so that the total size does not depend on the seed.
FRONT_END_KINDS: Dict[str, object] = {
    "morphism": "\\morphism(0,0)|{P}|/{S}/<500,300>[{N}`{N};{L}]",
    "vector": "\\vector(0,0)/{S}/<400,-300>",
    "place": ["\\place(0,0)[{N}]", "\\place[l](0,0)[{N}]", "\\place[r](0,0)[{N}]",
              "\\place[u](0,0)[{N}]", "\\place[d](0,0)[{N}]"],
    "square": "\\square|{P}{P}{P}{P}|/{S}`{S}`{S}`{S}/<700,500>[" + N4 + ";" + L4 + "]",
    "Square": "\\Square[" + N4 + ";" + L4 + "]",
    "ptriangle": "\\ptriangle" + TRI,
    "qtriangle": "\\qtriangle" + TRI,
    "dtriangle": "\\dtriangle" + TRI,
    "btriangle": "\\btriangle" + TRI,
    "Atriangle": "\\Atriangle" + TRI,
    "Vtriangle": "\\Vtriangle" + TRI,
    "Ctriangle": "\\Ctriangle" + TRI,
    "Dtriangle": "\\Dtriangle" + TRI,
    "Atrianglepair": "\\Atrianglepair" + PAIR,
    "Vtrianglepair": "\\Vtrianglepair" + PAIR,
    "Ctrianglepair": "\\Ctrianglepair" + PAIR,
    "Dtrianglepair": "\\Dtrianglepair" + PAIR,
    "hSquares": "\\hSquares" + SIX,
    "vSquares": "\\vSquares" + SIX,
    "cube": "\\cube[" + N4 + ";" + L4 + "][" + N4 + ";" + L4 + "][" + L4 + "]",
    "pullback": "\\pullback[" + N4 + ";" + L4 + "][{N};{L}`{L}`{L}]",
    "iiixiii": ["\\iiixiii{4095}[{N}`{N}`{N}`{N}`{N}`{N}`{N}`{N}`{N};"
                "{L}`{L}`{L}`{L}`{L}`{L}`{L}`{L}`{L}`{L}`{L}`{L}]",
                "\\iiixiii{2730}[{N}`{N}`{N}`{N}`{N}`{N}`{N}`{N}`{N};"
                "{L}`{L}`{L}`{L}`{L}`{L}`{L}`{L}`{L}`{L}`{L}`{L}]"],
    "iiixii": ["\\iiixii{15}<400>" + SIX, "\\iiixii{10}<300>" + SIX, "\\iiixii" + SIX],
    "to": "\\to/{S}/^{{L}}_{{L}}",
    "two": "\\two/{S}`{S}/^{{L}}_{{L}}",
    "three": "\\three/{S}`{S}`{S}/^{{L}}|{{L}}_{{L}}",
    "twoar": ["\\twoar(1,0)", "\\twoar(0,1)", "\\twoar(-1,0)", "\\twoar(0,-1)",
              "\\twoar(1,1)", "\\twoar(1,-1)", "\\twoar(-1,1)", "\\twoar(-1,-1)"],
    "scalefactor": ["\\scalefactor{2}\n\\morphism[{N}`{N};{L}]",
                    "\\scalefactor{0.5}\n\\morphism[{N}`{N};{L}]",
                    "\\scalefactor{3}\n\\square[" + N4 + ";" + L4 + "]"],
}
FRONT_END_COPIES = 15      # 28 kinds x 15 = 420 figures
FRONT_END_BRACE_FIGURES = 24


def _fill(template: str, texts: _Texts, brace: Optional[bool]) -> str:
    """Fill one template; the first text of the figure gets one control
    symbol more, an escaped brace when ``brace`` is true."""
    out: List[str] = []
    first = True
    i = 0
    while i < len(template):
        if template[i] == "{" and template[i + 2:i + 3] == "}" and template[i + 1] in "NLPS":
            cls = template[i + 1]
            if cls == "P":
                out.append(texts.rng.choice(_PLACEMENTS))
            elif cls == "S":
                out.append(texts.rng.choice(_STYLES))
            else:
                extra = ""
                if first and brace is not None:
                    extra = "B" if brace else "S"
                    first = False
                out.append(texts.text(_NODE_PATTERNS if cls == "N" else _LABEL_PATTERNS, extra))
            i += 3
        else:
            out.append(template[i])
            i += 1
    return "".join(out)


def front_end_sources(seed: int) -> List[Source]:
    """420 one-figure sources, 15 of each command kind, in seeded order."""
    rng = random.Random(f"front_end/{seed}")
    slots = [(kind, copy) for kind in FRONT_END_KINDS for copy in range(FRONT_END_COPIES)]
    rng.shuffle(slots)

    def template(kind: str, copy: int) -> str:
        t = FRONT_END_KINDS[kind]
        return t[copy % len(t)] if isinstance(t, list) else t

    with_text = [i for i, (k, c) in enumerate(slots) if "{N}" in template(k, c) or "{L}" in template(k, c)]
    braced = set(rng.sample(with_text, FRONT_END_BRACE_FIGURES))
    sources: List[Source] = []
    for i, (kind, copy) in enumerate(slots):
        texts = _Texts(rng)
        brace = (i in braced) if i in with_text else None
        body = _fill(template(kind, copy), texts, brace)
        sources.append((f"fe{i:03d}_{kind}", "\\bfig\n" + body + "\n\\efig\n"))
    return sources


GRID_ROWS = 20
GRID_COLS = 20
GRID_STEP = 500


def grid_source(rows: int, cols: int, seed: int) -> Tuple[str, Dict[Tuple[int, int], str]]:
    """A rows x cols grid of \\square's; shared corners carry equal text.

    Returns the source and the expected merged nodes: anchor -> text for
    each of the (rows+1)(cols+1) grid points.
    """
    rng = random.Random(f"big_grid/{seed}")
    table = {
        (j * GRID_STEP, i * GRID_STEP):
            f"{rng.choice(string.ascii_uppercase)}_{{{i},{j}}}"
        for i in range(rows + 1) for j in range(cols + 1)
    }
    lines = ["\\bfig"]
    for i in range(rows):
        for j in range(cols):
            x, y = j * GRID_STEP, i * GRID_STEP
            a = table[(x, y + GRID_STEP)]
            b = table[(x + GRID_STEP, y + GRID_STEP)]
            c = table[(x, y)]
            d = table[(x + GRID_STEP, y)]
            labels = "`".join(rng.choice(string.ascii_lowercase) for _ in range(4))
            lines.append(f"\\square({x},{y})[{a}`{b}`{c}`{d};{labels}]")
    lines.append("\\efig")
    return "\n".join(lines) + "\n", table


def corpus_sources(seed: int) -> List[Source]:
    """The committed corpus, in seeded order, named by path as the CLI would."""
    paths = sorted(CORPUS_DIR.glob("*.dg"))
    random.Random(f"corpus/{seed}").shuffle(paths)
    return [(str(p.relative_to(ROOT)), p.read_text(encoding="utf-8")) for p in paths]


CLI_COPIES = 8


def cli_batch_layout(seed: int) -> List[str]:
    """Relative input paths of the CLI batch, in seeded argument order."""
    names = sorted(p.name for p in CORPUS_DIR.glob("*.dg"))
    files = [f"copy{k}/{name}" for k in range(CLI_COPIES) for name in names]
    random.Random(f"cli_batch/{seed}").shuffle(files)
    return files


# -- workloads -----------------------------------------------------------------


class LibraryWorkload:
    """Closed loop over the library: compile and render every source."""

    files = 0   # CLI input files per pass

    def __init__(self, name: str, sources: List[Source], formats: Sequence[str],
                 read_back: bool = False, scaling: Optional[Source] = None):
        self.name = name
        self.sources = sources
        self.formats = formats
        self.read_back = read_back
        self.scaling = scaling      # the source of the x2 scaling check

    def library_work(self, record: Optional[List[Output]] = None) -> None:
        library_pass(self.sources, self.formats, self.read_back, record)

    def record(self) -> List[Output]:
        out: List[Output] = []
        self.library_work(out)
        return out

    def library_s(self) -> float:
        start = time.perf_counter()
        self.library_work()
        return time.perf_counter() - start

    def run_pass(self) -> float:
        return self.library_s()

    def instructions(self) -> int:
        """Bytecode instructions of one pass."""
        return opcount.count(self.library_work)

    def traced_pass(self, tracer) -> float:
        """One pass with every layer in spans; returns the traced library time."""
        with tracer.installed():
            return self.library_s()

    def close(self) -> None:
        pass


class CliBatch(LibraryWorkload):
    """Copies of the corpus through two ``diagc`` child processes per pass:
    one writes SVG beside each input, one checks Xy-pic against the goldens.
    Its library work is the same files and formats compiled in-process."""

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir / "cli_batch"
        sources = []
        for rel in cli_batch_layout(seed):
            text = (CORPUS_DIR / Path(rel).name).read_text(encoding="utf-8")
            dest = self.dir / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text(text, encoding="utf-8")
            sources.append((rel, text))
        kitchen = next(s for s in sources if s[0].endswith("25_kitchen_sink.dg"))
        super().__init__("cli_batch", sources, ("svg", "xypic"), scaling=kitchen)
        self.files = len(sources)
        self.env = child_env()
        args = [str(self.dir / r) for r, _ in sources]
        self.write_args = args + ["--format", "svg"]
        self.check_args = args + ["--format", "xypic", "--check", str(GOLDEN_DIR)]

    def library_work(self, record: Optional[List[Output]] = None) -> None:
        library_pass(self.sources, ("svg",), record=record)
        library_pass(self.sources, ("xypic",), record=record)

    def children(self, rss: bool = False, counted: bool = False) -> Tuple[ChildRun, ChildRun]:
        """The writing child, then the checking one; ``counted`` runs both
        under ``opcount``, which prints their instruction counts."""
        if counted:
            cli = [sys.executable, str(Path(opcount.__file__).resolve()), "diagc.cli"]
        else:
            cli = [sys.executable, "-m", "diagc.cli"]
        return (run_child(cli + self.write_args, self.env, self.dir, rss),
                run_child(cli + self.check_args, self.env, self.dir, rss))

    def run_pass(self) -> float:
        write, check = self.children()
        _check_status(write, check)
        return write.wall_s + check.wall_s

    def instructions(self) -> int:
        write, check = self.children(counted=True)
        _check_status(write, check)
        return int(write.stdout.split()[-1]) + int(check.stdout.split()[-1])

    def traced_pass(self, tracer) -> float:
        """The two children, timed as ``cli`` spans, then the library work traced."""
        start = time.perf_counter()
        write, check = self.children()
        _check_status(write, check)
        tracer.record("cli.write", start, start + write.wall_s)
        tracer.record("cli.check", start + write.wall_s, start + write.wall_s + check.wall_s)
        return super().traced_pass(tracer)

    def written(self) -> Dict[str, str]:
        return {str(p.relative_to(self.dir)): p.read_text(encoding="utf-8")
                for p in sorted(self.dir.rglob("*.svg"))}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _check_status(write: ChildRun, check: ChildRun) -> None:
    if write.status or check.status:
        raise RuntimeError(f"diagc exited {write.status} / {check.status}: "
                           f"{(write.stderr + check.stderr)[:400]}")


def build(name: str, seed: int, workdir: Path) -> LibraryWorkload:
    if name == "corpus_mix":
        sources = corpus_sources(seed)
        kitchen = next(s for s in sources if s[0].endswith("25_kitchen_sink.dg"))
        return LibraryWorkload(name, sources, ("svg", "tikz", "xypic", "ir"),
                               read_back=True, scaling=kitchen)
    if name == "big_grid":
        source = ("big_grid.dg", grid_source(GRID_ROWS, GRID_COLS, seed)[0])
        return LibraryWorkload(name, [source], ("svg", "tikz", "xypic"), scaling=source)
    if name == "front_end":
        sources = front_end_sources(seed)
        square = next(s for s in sources if s[0].endswith("_square"))
        return LibraryWorkload(name, sources, ("xypic", "ir"), scaling=square)
    if name == "cli_batch":
        return CliBatch(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
