"""diagc benchmark: four workloads, end-to-end metrics, a traced per-layer run.

One workload, as the command in BENCHMARK.json runs it:

    python3 perfbench/run.py --workload corpus_mix --seed 1 --seconds 8 --trace 0

Every workload, untraced then traced, with tables at the end:

    python3 perfbench/run.py --seed 1 --seconds 8

A run imports the compiler from ``src/`` of the checkout it sits in,
runs the correctness checks untimed, then measures closed-loop passes
for ``--seconds``.  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer metrics, from spans around each layer's
public function.  The last line of standard output is one JSON object;
the lines before it name every failed check, give the sha256 digest of
each output format, the metrics, and the pass times.  Full results
(with Python version, nproc, seed and git commit) and the spans go to
``.perfbench/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing as T

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("corpus_mix", "big_grid", "front_end", "cli_batch")

# Pass times are printed and recorded but not gated: on a shared machine
# whose neighbours slow every process by up to 1.7x for stretches of
# 10-20 s, both the median and the 90th percentile of a 15 s run land in
# either state (run-to-run spread 30-35%), beyond any bound a regression
# gate can use; CPU time slows with wall time.  The compiler's cost is
# gated as a count instead: bytecode instructions in one pass, the same
# on every run.
END_TO_END = (
    ("instructions_per_pass", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_bytes", "B"),
    ("ok_ratio", "ratio"),
)

WARNING_METRICS = tuple(
    "diagnostics.warnings." + kind for kind in [k for k, _ in T.WARNING_KINDS] + ["other"]
)

PER_LAYER = (
    ("layout.s", "s"),
    ("layout.s_per_arrow", "s"),
    ("layout.paths", "count"),
    ("layout.growth_4x", "ratio"),
    ("svg.self_s", "s"),
    ("svg.bytes", "B"),
    ("tikz.self_s", "s"),
    ("tikz.bytes", "B"),
    ("parser.s", "s"),
    ("parser.bytes_per_s", "B/s"),
    ("parser.commands", "count"),
    ("expand.s", "s"),
    ("expand.raw_nodes", "count"),
    ("expand.raw_arrows", "count"),
    ("metrics.text_width_s", "s"),
    ("metrics.text_width_calls", "count"),
    ("ir.merge_s", "s"),
    ("ir.nodes", "count"),
    ("ir.merge_kept_ratio", "ratio"),
    ("xypic.s", "s"),
    ("xypic.bytes", "B"),
    ("irtext.emit_s", "s"),
    ("irtext.bytes", "B"),
    ("irtext.parse_s", "s"),
) + tuple((name, "count") for name in WARNING_METRICS) + (
    ("cli.write_s", "s"),
    ("cli.check_s", "s"),
    ("cli.self_s", "s"),
    ("cli.files", "count"),
    ("trace.untraced_pass_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# span name -> per-layer metric holding its median self time per pass
SELF_TIMES = {
    "layout": "layout.s", "svg": "svg.self_s", "tikz": "tikz.self_s",
    "parser": "parser.s", "expand": "expand.s", "metrics": "metrics.text_width_s",
    "ir": "ir.merge_s", "xypic": "xypic.s", "irtext.emit": "irtext.emit_s",
    "irtext.parse": "irtext.parse_s", "cli.write": "cli.write_s", "cli.check": "cli.check_s",
}
# per-layer metrics that are counts of one traced pass
COUNTS = ("layout.paths", "svg.bytes", "tikz.bytes", "parser.commands",
          "expand.raw_nodes", "expand.raw_arrows", "metrics.text_width_calls",
          "ir.nodes", "xypic.bytes", "irtext.bytes") + WARNING_METRICS

MIN_PASSES = 3        # per timing loop, however long a pass takes
SETUP_SECONDS = 2.0   # of fresh interpreters, for the CLI's own share

# setup_s reads in seconds of the machine the bounds were set on (a
# 2-vCPU Xeon VM, Python 3.11): the median over back-to-back pairs of the
# CPU time of a fresh interpreter that imports diagc over that of a bare
# one, times the bare one's CPU time there.  Neighbours on a shared
# machine slow both alike: over 5 minutes the median import time of 10 s
# spans varied by 1.36x, their median ratio by 1.04x.
BARE_START_S = 0.07


def _import_compiler():
    """Import diagc from this checkout's src/, and nothing else."""
    init = ROOT / "src" / "diagc" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no compiler source at {init}")
    sys.path.insert(0, str(ROOT / "src"))
    import diagc

    if Path(diagc.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported diagc from {diagc.__file__}, not {init}")
    return diagc


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(),
    }


# -- checks ------------------------------------------------------------------


def run_checks(work, seed: int):
    """Untimed: returns (outputs, checks, operations, failed operations, CLI RSS)."""
    failed_ops = 0
    cli_rss_kb = 0
    if isinstance(work, W.CliBatch):
        write, check = work.children(rss=True)
        cli_rss_kb = max(write.max_rss_kb, check.max_rss_kb)
        for child in (write, check):
            if child.status:
                failed_ops += work.files
                print(child.stderr.rstrip(), file=sys.stderr)
    try:
        outputs = work.record()
        second = work.record()
    except dg.DiagramError as exc:
        raise SystemExit(f"perfbench: {work.name}: operation failed: {exc}")
    operations = len(outputs) + 2 * work.files
    checks = []
    if work.name in ("corpus_mix", "cli_batch"):
        checks += C.check_goldens(outputs, C.load_goldens(W.GOLDEN_DIR))
    if work.name == "big_grid":
        _, table = W.grid_source(W.GRID_ROWS, W.GRID_COLS, seed)
        checks += C.check_grid(outputs[0].ir, table, W.GRID_ROWS, W.GRID_COLS)
    checks += C.check_ir_fixpoint(outputs)
    checks += C.check_determinism(outputs, second)
    checks.append(C.check_scaling(*work.scaling))
    if isinstance(work, W.CliBatch):
        counts = C.figure_counts(outputs)
        expected = {
            str(Path(o.source).parent / C.golden_name(o.source, o.index, counts[o.source], ".svg")):
                o.text
            for o in outputs if o.fmt == "svg"
        }
        checks += C.check_cli(write.status, check.status, work.written(), expected)
    return outputs, checks, operations, failed_ops, cli_rss_kb


def digests(outputs) -> dict:
    """sha256 per format over every output, in source and figure order."""
    by_format = {}
    for o in sorted(outputs, key=lambda o: (o.source, o.index, o.fmt)):
        h = by_format.setdefault(o.fmt, hashlib.sha256())
        h.update(f"{o.source}#{o.index}\n".encode("utf-8"))
        h.update(o.text.encode("utf-8") + b"\0")
    return {fmt: h.hexdigest() for fmt, h in sorted(by_format.items())}


# -- measurement ---------------------------------------------------------------


def setup_child(workdir: Path, code: str = "import diagc"):
    """A function running one fresh interpreter on ``code`` to its end."""
    argv = [sys.executable, "-c", code]
    env = W.child_env()
    W.run_child(argv, env, workdir)        # writes the bytecode cache once

    def start() -> "W.ChildRun":
        child = W.run_child(argv, env, workdir)
        if child.status:
            raise SystemExit(f"perfbench: {code} failed: {child.stderr[:400]}")
        return child

    return start


def measure_rss_kb(work, seed: int, workdir: Path) -> int:
    """Peak RSS of one untimed pass in a fresh child process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", work.name,
            "--seed", str(seed), "--rss-pass"]
    child = W.run_child(argv, W.child_env(), workdir, rss=True)
    if child.status:
        raise SystemExit(f"perfbench: RSS child failed: {child.stderr[:400]}")
    return child.max_rss_kb


def timed_loop(step, seconds: float):
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_PASSES or time.perf_counter() < deadline:
        samples.append(step())
    return samples


def growth_probe(seed: int) -> float:
    """Per-arrow layout time on the grid at 2R x 2C over that at R x C.

    The R x C layout runs before and after the larger one, so a change
    in machine speed during the probe shows in both.
    """
    per_arrow = {}
    for scale in (1, 2):
        text, _ = W.grid_source(W.GRID_ROWS * scale, W.GRID_COLS * scale, seed)
        per_arrow[scale] = dg.compile_source(text, "grid.dg")[0].ir
    walls = {1: [], 2: []}
    for scale in (1, 2, 1):
        ir = per_arrow[scale]
        start = time.perf_counter()
        dg.layout_diagram(ir)
        walls[scale].append((time.perf_counter() - start) / len(ir.arrows))
    return statistics.mean(walls[2]) / statistics.mean(walls[1])


def end_to_end(work, seed, seconds, workdir, outputs, cli_rss_kb, ok_ratio):
    """Counts and peak RSS, then passes alternating with set-up for ``seconds``.

    Set-up runs between passes, so that its median spans the whole run,
    for about half of it; ``BARE_START_S`` says how ``setup_s`` is made.
    The checks have already run every pass once, so no warm-up pass is
    needed.
    """
    instructions = work.instructions()
    rss_kb = cli_rss_kb or measure_rss_kb(work, seed, workdir)
    start_import = setup_child(workdir)
    start_bare = setup_child(workdir, "pass")
    passes, setups = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(work.run_pass())
        setup_until = time.perf_counter() + passes[-1]
        setups.append((start_import(), start_bare()))
        while time.perf_counter() < setup_until:
            setups.append((start_import(), start_bare()))
    metrics = {
        "instructions_per_pass": instructions,
        "setup_s": BARE_START_S * statistics.median(i.cpu_s / b.cpu_s for i, b in setups),
        "peak_rss_mb": rss_kb / 1024,
        "output_bytes": sum(len(o.text.encode("utf-8")) for o in outputs),
        "ok_ratio": ok_ratio,
    }
    p50 = statistics.median(passes)
    timing = {
        "passes": len(passes),
        "pass_s_p50": p50,
        "pass_s_p90": statistics.quantiles(passes, n=10)[8],
        "arrows_per_s": sum(len(o.ir.arrows) for o in outputs) / p50,
        "setup_pairs": len(setups),
        "import_cpu_s_p50": statistics.median(i.cpu_s for i, _ in setups),
        "import_wall_s_p50": statistics.median(i.wall_s for i, _ in setups),
        "bare_cpu_s_p50": statistics.median(b.cpu_s for _, b in setups),
    }
    return metrics, timing


def per_layer(work, seed, seconds, checks):
    """Untraced and traced library work in turn; spans reduced to self times.

    ``trace.untraced_pass_s`` is the untraced time of the work the traced
    passes cover: for ``cli_batch``, the library work alone.
    """
    tracer = T.Tracer()
    plain, traced, counts_seen = [], [], []
    origin = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() < origin + seconds:
        plain.append(work.library_s())
        tracer.pass_id = len(traced)
        tracer.counts = Counter()
        traced.append(work.traced_pass(tracer))
        counts_seen.append(tracer.counts)
    counts = counts_seen[0]
    same = all(c == counts for c in counts_seen)
    checks.append(C.Check("counts_repeat", work.name, same,
                          "" if same else "layer counts differ between passes"))
    tracer.write(OUT_DIR / f"{work.name}.spans.jsonl", origin)
    selfs = list(T.self_times(tracer.spans).values())

    m = {metric: statistics.median(s.get(span, 0.0) for s in selfs)
         for span, metric in SELF_TIMES.items()}
    m.update((name, counts[name]) for name in COUNTS)
    m["layout.s_per_arrow"] = m["layout.s"] / m["layout.paths"] if m["layout.paths"] else 0.0
    m["layout.growth_4x"] = growth_probe(seed) if work.name == "big_grid" else 0.0
    m["parser.bytes_per_s"] = counts["parser.bytes"] / m["parser.s"] if m["parser.s"] else 0.0
    raw = counts["expand.raw_nodes"]
    m["ir.merge_kept_ratio"] = counts["ir.nodes"] / raw if raw else 0.0
    m["cli.files"] = work.files
    m["cli.self_s"] = 0.0
    if isinstance(work, W.CliBatch):
        # CLI wall time less interpreter start and the same library work in-process
        start_interpreter = setup_child(OUT_DIR)
        setup_s = statistics.median(timed_loop(lambda: start_interpreter().wall_s,
                                               SETUP_SECONDS))
        cli_self = []
        for pass_id, r in T.root_times(tracer.spans).items():
            cli_self.append(r["cli.write"] + r["cli.check"] - 2 * setup_s - plain[pass_id])
        m["cli.self_s"] = statistics.median(cli_self)
    m["trace.untraced_pass_s"] = statistics.median(plain)
    m["trace.overhead_ratio"] = statistics.median(traced) / m["trace.untraced_pass_s"] - 1
    samples = {"traced_passes": len(traced), "untraced_passes": len(plain),
               "spans": len(tracer.spans)}
    return m, samples


# -- entry points ----------------------------------------------------------------


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> int:
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    work = W.build(args.workload, args.seed, workdir)
    try:
        if args.rss_pass:
            work.run_pass()
            return 0
        env = environment(args.seed)
        print(f"perfbench workload={work.name} trace={args.trace} "
              + " ".join(f"{k}={v}" for k, v in env.items()))
        outputs, checks, operations, failed_ops, cli_rss_kb = run_checks(work, args.seed)
        if args.trace:
            metrics, samples = per_layer(work, args.seed, args.seconds, checks)
            units = PER_LAYER
        failed_checks = [c for c in checks if not c.ok]
        attempted = operations + len(checks)
        failed = failed_ops + len(failed_checks)
        if not args.trace:
            metrics, samples = end_to_end(work, args.seed, args.seconds, workdir, outputs,
                                          cli_rss_kb, (attempted - failed) / attempted)
            units = END_TO_END
        # a failure that shows a defect listed in ROADMAP counts as failed,
        # but does not make the program's output incorrect for this run
        correct = failed_ops == 0 and all(c.known for c in failed_checks)
        for c in failed_checks:
            print(c.line())
        print(f"checks: {len(checks)} run, {len(failed_checks)} failed "
              f"({sum(1 for c in failed_checks if c.known)} known defects); "
              f"operations: {operations}, {failed_ops} failed; "
              f"fail_ratio {failed / attempted:.6g}")
        result_digests = digests(outputs)
        for fmt, digest in result_digests.items():
            print(f"sha256 {work.name} {fmt} {digest}")
        for name, unit in units:
            print(f"{name:40} {_fmt(metrics[name]):>14} {unit}")
        print("samples: " + ", ".join(f"{k} {_fmt(v)}" for k, v in samples.items()))
        final = {
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
        }
        record = dict(final, env=env, workload=work.name, trace=args.trace,
                      digests=result_digests, samples=samples,
                      failures=[c.line() for c in failed_checks])
        (OUT_DIR / f"{work.name}.trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(json.dumps(final))
        return 0
    finally:
        work.close()
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own process."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode or not lines:
                print(f"perfbench: {name} trace {trace} failed", file=sys.stderr)
                return 1
            results[(name, trace)] = json.loads(lines[-1])
    for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
        print()
        print(f"{'trace ' + str(trace):48}" + "".join(f"{w:>14}" for w in WORKLOADS))
        for metric, unit in table:
            row = "".join(f"{_fmt(results[(w, trace)]['metrics'][metric]['value']):>14}"
                          for w in WORKLOADS)
            print(f"{metric + ' (' + unit + ')':48}{row}")
    summary = {"env": environment(args.seed), "seconds": args.seconds,
               "results": {f"{w}.trace{t}": r for (w, t), r in results.items()}}
    (OUT_DIR / "summary.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, untraced and traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: a running child is killed and waited for, work files go
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # the compiler comes from this checkout; the modules that use it after
    global dg, C, W
    dg = _import_compiler()
    import checks as C
    import workloads as W

    os.chdir(ROOT)   # children import diagc from here too
    OUT_DIR.mkdir(exist_ok=True)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
