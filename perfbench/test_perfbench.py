"""Tests of the benchmark itself: seeded inputs, non-vacuous checks, spec."""
import json
import re
from pathlib import Path

import diagc as dg

import checks as C
import opcount
import run
import workloads as W

SPEC = json.loads((W.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _size(sources):
    return len(sources), sum(len(text.encode("utf-8")) for _, text in sources)


def test_same_seed_gives_identical_inputs():
    assert W.front_end_sources(7) == W.front_end_sources(7)
    assert W.grid_source(4, 3, 7) == W.grid_source(4, 3, 7)
    assert W.corpus_sources(7) == W.corpus_sources(7)
    assert W.cli_batch_layout(7) == W.cli_batch_layout(7)


def test_other_seed_gives_other_inputs_of_the_same_size():
    a, b = W.front_end_sources(7), W.front_end_sources(8)
    assert a != b and _size(a) == _size(b)
    grid_a, grid_b = W.grid_source(4, 3, 7)[0], W.grid_source(4, 3, 8)[0]
    assert grid_a != grid_b and len(grid_a) == len(grid_b)
    corpus_a, corpus_b = W.corpus_sources(7), W.corpus_sources(8)
    assert corpus_a != corpus_b and sorted(corpus_a) == sorted(corpus_b)
    layout_a, layout_b = W.cli_batch_layout(7), W.cli_batch_layout(8)
    assert layout_a != layout_b and sorted(layout_a) == sorted(layout_b)


def test_front_end_draws_every_kind_equally_and_keeps_the_brace_defect():
    sources = W.front_end_sources(3)
    kinds = [name.split("_", 1)[1] for name, _ in sources]
    assert sorted(set(kinds)) == sorted(W.FRONT_END_KINDS)
    assert {kinds.count(k) for k in W.FRONT_END_KINDS} == {W.FRONT_END_COPIES}
    braced = [t for _, t in sources if "\\{" in t or "\\}" in t]
    assert len(braced) == W.FRONT_END_BRACE_FIGURES


def _record(sources, formats):
    out = []
    W.library_pass(sources, formats, record=out)
    return out


def test_grid_check_fails_on_a_corrupted_table():
    text, table = W.grid_source(3, 2, 5)
    ir = dg.compile_source(text)[0].ir
    assert all(c.ok for c in C.check_grid(ir, table, 3, 2))
    wrong = dict(table)
    wrong[(0, 0)] += "x"
    assert not C.check_grid(ir, wrong, 3, 2)[0].ok
    assert not C.check_grid(ir, table, 3, 3)[1].ok


def test_golden_check_fails_on_a_corrupted_golden():
    path = W.CORPUS_DIR / "05_square.dg"
    outputs = _record([(str(path), path.read_text(encoding="utf-8"))], ("xypic",))
    goldens = C.load_goldens(W.GOLDEN_DIR)
    assert [c.ok for c in C.check_goldens(outputs, goldens)] == [True]
    goldens["05_square.xy"] = goldens["05_square.xy"].replace("500", "501", 1)
    assert [c.ok for c in C.check_goldens(outputs, goldens)] == [False]


def test_determinism_check_fails_on_a_changed_render():
    sources = W.front_end_sources(2)[:5]
    first, second = _record(sources, ("xypic", "ir")), _record(sources, ("xypic", "ir"))
    assert all(c.ok for c in C.check_determinism(first, second))
    second[3].text += " "
    assert [c.ok for c in C.check_determinism(first, second)].count(False) == 1


def test_scaling_check_fails_on_a_wrong_factor():
    text = "\\bfig\n\\square[A`B`C`D;f`g`h`k]\n\\efig\n"
    assert C.check_scaling("sq.dg", text).ok
    one, two = (dg.render_figure(dg.compile_source(text, cfg=dg.ScaleConfig(scale=k))[0], "svg")
                for k in (1, 2))
    assert C.scaled_exactly(one, two, 2)
    assert not C.scaled_exactly(one, two, 3)
    assert not C.scaled_exactly(one, one, 2)


def test_ir_fixpoint_failure_is_known_only_for_escaped_braces():
    sources = [("brace", "\\bfig\n\\morphism[a\\}`b;f]\n\\efig\n"),
               ("plain", "\\bfig\n\\morphism[a\\;`b;f]\n\\efig\n")]
    checks = {c.subject: c for c in C.check_ir_fixpoint(_record(sources, ("ir",)))}
    assert checks["plain#1"].ok
    brace = checks["brace#1"]
    assert brace.ok or brace.known


def test_instruction_count_repeats_and_sees_loops_without_calls():
    def loop(n):
        def step():
            total = 0
            for i in range(n):
                total += i * i
        return step

    small = opcount.count(loop(10))
    assert opcount.count(loop(10)) == small
    assert opcount.count(loop(1010)) >= small + 1000 * 4


def test_spec_matches_the_metrics_the_benchmark_prints():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


def test_spec_keeps_its_format_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert len(json.dumps(SPEC)) <= 64 * 1024
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(name.match(n) for n in names) and len(names) == len(set(names))
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and unit.match(m["unit"])
        assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and unit.match(m["unit"])
    for p in SPEC["paths"]:
        assert re.match(r"^[A-Za-z0-9_./-]{1,200}$", p) and (W.ROOT / p).is_dir()
    assert all(Path(p).parts[0] in SPEC["paths"] for p in SPEC["command"][1:])
