"""Command-line behavior: outputs, exit codes, golden checks, and the CLI
contract on mutated corpus sources."""
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
import render_ratios
from hypothesis import example, given
from hypothesis import strategies as st
from opcode_count import opcodes
from test_properties import BOUNDED, CORPUS

import diagc
from diagc import (DiagramError, ParseError, compile_source, layout_diagram, load_metrics,
                   render_figure)
from diagc.cli import _SPELLINGS, build_arg_parser, main, read_args
from diagc.compiler import FORMATS
from diagc.geometry import MAX_DIGITS, round_div
from diagc.metrics import MetricsError

GOOD = "\\bfig\n\\square[A`B`C`D;f`g`h`k]\n\\efig\n"
ARITY_BAD = "\\square[A`B`C;f`g`h`k]\n"
WARNING_SOURCE = "\\morphism(0,0)|x|/>/<500,0>[A`B;f]\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_happy_path_writes_svg(tmp_path, capsys):
    src = _write(tmp_path, "ex.dg", GOOD)
    out = tmp_path / "out"
    assert main([str(src), "--format", "svg", "-o", str(out) + os.sep]) == 0
    produced = out / "ex.svg"
    assert produced.is_file()
    assert produced.read_text(encoding="utf-8").startswith("<?xml")
    assert capsys.readouterr().err == ""


def test_default_output_next_to_input(tmp_path):
    src = _write(tmp_path, "ex.dg", GOOD)
    assert main([str(src), "--format", "tikz"]) == 0
    assert (tmp_path / "ex.tex").is_file()


def test_single_file_output(tmp_path):
    src = _write(tmp_path, "ex.dg", GOOD)
    dest = tmp_path / "picture.svg"
    assert main([str(src), "-o", str(dest)]) == 0
    assert dest.is_file()


def test_single_file_output_creates_its_directory(tmp_path, capsys):
    src = _write(tmp_path, "ex.dg", GOOD)
    dest = tmp_path / "new" / "deeper" / "picture.svg"
    assert main([str(src), "-o", str(dest)]) == 0
    assert dest.read_text(encoding="utf-8").startswith("<?xml")
    assert capsys.readouterr().err == ""
    # a check writes nothing, so it makes no directory either
    golden_dir = tmp_path / "golden"
    assert main([str(src), "-o", str(golden_dir / "ex.svg")]) == 0
    missing = tmp_path / "none" / "ex.svg"
    assert main([str(src), "-o", str(missing), "--check", str(golden_dir)]) == 0
    assert not missing.parent.exists()
    # --check ignores -o whatever the number of outputs
    other = _write(tmp_path, "other.dg", GOOD)
    assert main([str(other), "-o", str(golden_dir / "other.svg")]) == 0
    assert main([str(src), str(other), "-o", str(missing), "--check", str(golden_dir)]) == 0
    assert not missing.parent.exists()
    assert capsys.readouterr().err == ""


def test_arity_error_exits_2_and_writes_nothing(tmp_path, capsys):
    src = _write(tmp_path, "bad.dg", ARITY_BAD)
    out = tmp_path / "out"
    assert main([str(src), "-o", str(out) + os.sep]) == 2
    err = capsys.readouterr().err
    assert "bad.dg:1:" in err and "node field" in err
    assert not (out / "bad.svg").exists()


def test_strict_promotes_warnings(tmp_path, capsys):
    src = _write(tmp_path, "warn.dg", WARNING_SOURCE)
    out = tmp_path / "out"
    assert main([str(src), "-o", str(out) + os.sep]) == 0
    assert "warning" in capsys.readouterr().err
    assert main([str(src), "--strict", "-o", str(out) + os.sep]) == 1


@pytest.mark.parametrize("fmt", ["svg", "tikz"])
def test_render_warnings_name_their_figure(tmp_path, capsys, fmt):
    src = _write(tmp_path, "two.dg", "% two figures\n" + GOOD
                 + "\n  \\bfig\n\\morphism/@{-->}/[A`B;f]\n\\efig\n")
    out = tmp_path / "out"
    assert main([str(src), "-f", fmt, "--scale", "1/3", "-o", str(out) + os.sep]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": warning: ")[0] for line in err] == [
        f"{src}:2:1", f"{src}:6:3", f"{src}:6:3"]
    assert "scale 1/3" in err[0] and "not supported" in err[2]


PLACED_OVER_A_CORNER = ("\\bfig\n\\square[A`B`C`D;f`g`h`k]\n\\place(0,0)[C]\n\\place(0,0)[C]\n"
                        "\\place(0,0)[Z]\n\\efig\n")


def test_xypic_prints_every_placed_node(tmp_path, capsys):
    # a node placed over a drawn corner, with its text or another, is one
    # node of the IR, but the token stream prints each \place
    (fig,) = compile_source(PLACED_OVER_A_CORNER)
    xypic = render_figure(fig, "xypic")
    lines = xypic.splitlines()
    assert len(lines) == 7 and all("\\ar@{>}" in line for line in lines[:4])
    assert lines[4:] == [f"\\POS(0,0)*+!!<0ex,.75ex>{{{text}}}" for text in "CCZ"]
    src = _write(tmp_path, "p.dg", PLACED_OVER_A_CORNER)
    out = tmp_path / "out"
    for fmt in ("xypic", "ir"):
        assert main([str(src), "-f", fmt, "-o", str(out) + os.sep]) == 0
        assert capsys.readouterr().err == (
            f"{src}:5:1: warning: two nodes at (0,0) with different text: 'C' and 'Z'\n")
    assert (out / "p.xy").read_text(encoding="utf-8") == xypic
    nodes = [line for line in (out / "p.ir").read_text(encoding="utf-8").splitlines()
             if line.startswith("node ") and " x=0 y=0 " in line]
    assert [line.split(" text=")[1] for line in nodes] == ["{C}", "{Z}"]


@pytest.mark.parametrize("fmt", ["svg", "tikz"])
def test_layout_errors_name_their_file_and_figure(tmp_path, capsys, fmt):
    # the second arrow is 1 centi-em long, inside the boxes of its nodes:
    # the error names the command that drew it, not the \\bfig on line 5
    src = _write(tmp_path, "ov.dg", GOOD + "\n\\bfig\n\\morphism(0,0)[A`B;f]\n"
                 "  \\morphism(0,0)<1,0>[A`B;g]\n\\efig\n")
    out = tmp_path / "out"
    assert main([str(src), "-f", fmt, "-o", str(out) + os.sep]) == 2
    assert capsys.readouterr().err == (
        f"{src}:7:3: error: overlapping objects: arrow fully swallowed by its endpoints\n")
    assert not out.exists()
    assert main([str(src), "-f", "xypic", "-o", str(out) + os.sep]) == 0


NINES = "9" * 400   # an extent past the largest float


@pytest.mark.parametrize("command, fmts, where, message", [
    # an integer that int() does not read
    (f"\\morphism(0,0)<{'9' * 4301},0>[A`B;f]", ["svg", "tikz", "xypic", "ir"], "2:4322",
     "integer of more than 4300 digits"),
    # integers that int() reads, summing to an end that str() does not
    # write; SVG and TikZ print it from the corner of the figure's box
    (f"\\morphism({'9' * 4300},0)<500,0>[A`B;f]", ["xypic", "ir"], "2:3",
     "number too long to write: more than 4300 digits"),
    # a scale that makes every printed number too long: the figure's
    (f"\\scalefactor{{{'9' * 4300}}}\\morphism[A`B;f]", ["svg", "tikz"], "1:1",
     "number too long to write: more than 4300 digits"),
], ids=["digits", "sum", "scalefactor"])
def test_a_number_too_large_to_draw_exits_2_and_writes_nothing(tmp_path, capsys, command,
                                                              fmts, where, message):
    src = _write(tmp_path, "big.dg", f"\\bfig\n  {command}\n\\efig\n")
    out = tmp_path / "out"
    for fmt in FORMATS:
        status = main([str(src), "-f", fmt, "-o", str(out) + os.sep])
        err = capsys.readouterr().err
        if fmt in fmts:
            assert (status, err) == (2, f"{src}:{where}: error: {message}\n")
            assert not out.exists()
        else:   # the formats that print no such number
            assert status == 0 and err == ""
            shutil.rmtree(out)


def test_a_labelled_diagonal_past_the_largest_float_is_written(tmp_path, capsys):
    # its label centre is exact integers, with no float direction to
    # overflow: GAP to the left of travel along (10^400 - 1, 1) rounds to
    # straight above the rounded midpoint of the clipped path
    text = f"\\bfig\n  \\morphism(0,0)/>/<{NINES},1>[A`B;f]\n\\efig\n"
    src = _write(tmp_path, "big.dg", text)
    out = tmp_path / "out"
    for fmt in FORMATS:
        assert main([str(src), "-f", fmt, "-o", str(out) + os.sep]) == 0
        assert capsys.readouterr().err == ""
    (figure,) = compile_source(text)
    (((sx, sy), (ex, ey), _, (label,), _),) = layout_diagram(figure.ir).paths
    assert label.center == (round_div(sx + ex, 2), round_div(sy + ey, 2) + 50000)
    assert (out / "big.svg").read_text(encoding="utf-8") == render_figure(figure, "svg")


def test_a_double_shaft_past_the_largest_float_is_written(tmp_path, capsys):
    # its gap is exact integers, with no float direction to overflow: 5
    # centi-em to the left of travel along (10^400 - 1, 1) rounds to
    # 5000 layout units straight up, so its two lines are the clipped
    # path moved 0.5 px up and 0.5 px down
    text = f"\\bfig\n  \\morphism(0,0)/=>/<{NINES},1>[A`B;]\n\\efig\n"
    src = _write(tmp_path, "big.dg", text)
    out = tmp_path / "out"
    for fmt in FORMATS:
        assert main([str(src), "-f", fmt, "-o", str(out) + os.sep]) == 0
        assert capsys.readouterr().err == ""
    (figure,) = compile_source(text)
    lay = layout_diagram(figure.ir)
    (((sx, sy), (ex, ey), _, _, _),) = lay.paths
    x0, _, _, y1 = lay.bbox
    svg = (out / "big.svg").read_text(encoding="utf-8")
    assert svg == render_figure(figure, "svg")
    # 1/10000 px per layout unit from the box's top left
    lines = [tuple(map(Fraction, line)) for line in re.findall(
        r'<line x1="([^"]*)" y1="([^"]*)" x2="([^"]*)" y2="([^"]*)" stroke="black"', svg)]
    assert lines == [(Fraction(sx - 1000 * x0, 10000), Fraction(1000 * y1 - sy - dy, 10000),
                      Fraction(ex - 1000 * x0, 10000), Fraction(1000 * y1 - ey - dy, 10000))
                     for dy in (5000, -5000)]


@pytest.mark.parametrize("fmt, ext, drawn", [
    # node B, (10^400 - 1) / 300 em from A, and 75 centi-em past the
    # left edge at 1/30 px per centi-em
    ("tikz", ".tex", f"\\node at ({'3' * 398}.33em,0.106667em) {{$B$}};"),
    ("svg", ".svg", f'<text class="node" x="{"3" * 398}5.8" y="4.6"'),
], ids=["tikz", "svg"])
def test_an_extent_past_the_largest_float_is_written_at_an_inexact_scale(tmp_path, capsys, fmt,
                                                                         ext, drawn):
    # an axis-aligned arrow needs no unit vector, and each number that
    # does not end is rounded to six places in integers, every digit right
    src = _write(tmp_path, "big.dg", f"\\bfig\n  \\morphism(0,0)<{NINES},0>[A`B;f]\n\\efig\n")
    out = tmp_path / "out"
    assert main([str(src), "-f", fmt, "--scale", "1/3", "-o", str(out) + os.sep]) == 0
    assert "coordinates are rounded to six places" in capsys.readouterr().err
    assert drawn in (out / f"big{ext}").read_text(encoding="utf-8")


def test_svg_text_that_xml_cannot_carry_exits_2_and_writes_nothing(tmp_path, capsys):
    # a form feed in the second figure's node: no SVG of either figure is
    # written, and the error names the command that drew the node
    src = _write(tmp_path, "ff.dg", GOOD + "\\bfig\n\\morphism[A`B;f]\n"
                 "  \\morphism(0,900)[A\x0cB`C;g]\n\\efig\n")
    out = tmp_path / "out"
    assert main([str(src), "-o", str(out) + os.sep]) == 2
    assert capsys.readouterr().err == (
        f"{src}:6:3: error: text 'A\\x0cB' holds U+000C, which SVG (XML 1.0) cannot carry\n")
    assert not out.exists()
    # TikZ, Xy-pic and IR keep the text verbatim
    for fmt, ext in [("tikz", ".tex"), ("xypic", ".xy"), ("ir", ".ir")]:
        assert main([str(src), "-f", fmt, "-o", str(out) + os.sep]) == 0
        assert "A\x0cB" in (out / f"ff-2{ext}").read_text(encoding="utf-8")


def test_multiple_figures_get_suffixes(tmp_path):
    src = _write(tmp_path, "multi.dg", GOOD + GOOD)
    out = tmp_path / "out"
    assert main([str(src), "--format", "xypic", "-o", str(out) + os.sep]) == 0
    assert (out / "multi-1.xy").is_file()
    assert (out / "multi-2.xy").is_file()


def test_single_file_output_rejected_for_many(tmp_path, capsys):
    src = _write(tmp_path, "multi.dg", GOOD + GOOD)
    dest = tmp_path / "one.svg"
    assert main([str(src), "-o", str(dest)]) == 2
    assert "directory" in capsys.readouterr().err


def test_check_mode(tmp_path, capsys):
    src = _write(tmp_path, "ex.dg", GOOD)
    golden_dir = tmp_path / "golden"
    out = tmp_path / "out"
    assert main([str(src), "--format", "xypic", "-o", str(out) + os.sep]) == 0
    golden_dir.mkdir()
    (golden_dir / "ex.xy").write_text(
        (out / "ex.xy").read_text(encoding="utf-8"), encoding="utf-8"
    )
    assert main([str(src), "--format", "xypic", "--check", str(golden_dir)]) == 0
    (golden_dir / "ex.xy").write_text("nonsense\n", encoding="utf-8")
    assert main([str(src), "--format", "xypic", "--check", str(golden_dir)]) == 1
    assert "mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("golden", [
    pytest.param(lambda text: text.replace("\n", "\r\n").encode("utf-8"), id="crlf"),
    pytest.param(lambda text: text.encode("latin-1") + b"\xff", id="not-utf8"),
])
def test_check_mode_compares_bytes(tmp_path, capsys, golden):
    src = _write(tmp_path, "ex.dg", GOOD)
    out = tmp_path / "out"
    assert main([str(src), "--format", "xypic", "-o", str(out) + os.sep]) == 0
    golden_dir = tmp_path / "golden"
    golden_dir.mkdir()
    (golden_dir / "ex.xy").write_bytes(golden((out / "ex.xy").read_text(encoding="utf-8")))
    assert main([str(src), "--format", "xypic", "--check", str(golden_dir)]) == 1
    assert capsys.readouterr().err == "diagc: golden mismatch for ex.xy\n"


def test_check_mode_missing_golden(tmp_path, capsys):
    src = _write(tmp_path, "ex.dg", GOOD)
    golden_dir = tmp_path / "golden"
    golden_dir.mkdir()
    assert main([str(src), "--format", "xypic", "--check", str(golden_dir)]) == 1
    assert "missing golden" in capsys.readouterr().err


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_the_corpus_with_other_line_ends_passes_every_golden_check(tmp_path, monkeypatch,
                                                                   capsys, end):
    # CR LF and a lone CR each end a line as LF does: every corpus file
    # rewritten with them matches the goldens in every format, with the
    # stderr of the LF files, and parses to the same lines and columns
    golden = Path(__file__).with_name("golden")
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.dg"))}

    def check(line_end):
        folder = tmp_path / repr(line_end)
        folder.mkdir()
        for name, text in sources.items():
            (folder / name).write_bytes(text.replace("\n", line_end).encode("utf-8"))
        monkeypatch.chdir(folder)
        statuses = [main([*sources, "--format", fmt, "--check", str(golden / fmt)])
                    for fmt in FORMATS]
        return statuses, capsys.readouterr().err

    lf = check("\n")
    assert lf[0] == [0] * len(FORMATS)
    assert check(end) == lf

    def places(text):
        return [(f.line, f.col, list(f.positions)) for f in compile_source(text)]

    for text in sources.values():
        assert places(text.replace("\n", end)) == places(text)


@pytest.mark.parametrize("text", ["", "% only a comment\n", " \r\n\t"],
                         ids=["empty", "comment", "blank"])
def test_an_input_with_no_figure_is_an_error_and_the_others_are_written(tmp_path, capsys,
                                                                        text):
    empty = _write(tmp_path, "empty.dg", text)
    other = _write(tmp_path, "other.dg", GOOD)
    out = tmp_path / "out"
    assert main([str(empty), str(other), "-o", str(out) + os.sep]) == 2
    # the file as a whole has nothing to draw: no line to name
    assert capsys.readouterr().err == f"{empty}: error: no figure to draw\n"
    assert os.listdir(out) == ["other.svg"]
    assert compile_source(text) == []


def test_a_check_of_an_input_with_no_figure_fails(tmp_path, capsys):
    # a source truncated to nothing does not pass against its golden file
    src = _write(tmp_path, "ex.dg", GOOD)
    golden_dir = tmp_path / "golden"
    assert main([str(src), "--format", "xypic", "-o", str(golden_dir) + os.sep]) == 0
    src.write_text("", encoding="utf-8")
    assert main([str(src), "--format", "xypic", "--check", str(golden_dir)]) == 2
    assert capsys.readouterr().err == f"{src}: error: no figure to draw\n"


def test_missing_input_is_an_error(tmp_path, capsys):
    assert main([str(tmp_path / "absent.dg")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_an_input_that_is_not_utf8_is_an_error(tmp_path, capsys):
    first = _write(tmp_path, "first.dg", GOOD)
    bad = tmp_path / "bad.dg"
    bad.write_bytes(GOOD.encode("utf-8").replace(b"A", b"\xc0"))
    out = tmp_path / "out"
    assert main([str(first), str(bad), "-o", str(out) + os.sep]) == 2
    assert (out / "first.svg").is_file() and not (out / "bad.svg").exists()
    assert capsys.readouterr().err.startswith(f"{bad}: error: cannot read {bad}: ")


def test_an_unreadable_input_among_readable_ones_is_an_error(tmp_path, capsys):
    first = _write(tmp_path, "first.dg", GOOD)
    last = _write(tmp_path, "last.dg", GOOD)
    absent = tmp_path / "absent.dg"
    out = tmp_path / "out"
    assert main([str(first), str(absent), str(last), "-o", str(out) + os.sep]) == 2
    assert (out / "first.svg").is_file() and (out / "last.svg").is_file()
    assert not (out / "absent.svg").exists()
    # the file has no line to name: no fake 0:0
    assert capsys.readouterr().err.startswith(f"{absent}: error: cannot read {absent}: ")


def test_metrics_flag_and_env(tmp_path, monkeypatch):
    src = _write(tmp_path, "ex.dg", "\\Square[A`B`C`D;f`g`h`k]\n")
    wide = _write(tmp_path, "wide.tsv", "f\t2000\n")
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main([str(src), "--format", "ir", "-o", str(out1) + os.sep]) == 0
    assert main([
        str(src), "--format", "ir", "--metrics", str(wide), "-o", str(out2) + os.sep,
    ]) == 0
    narrow = (out1 / "ex.ir").read_text(encoding="utf-8")
    widened = (out2 / "ex.ir").read_text(encoding="utf-8")
    assert narrow != widened and "x=1800" in widened
    out3 = tmp_path / "o3"
    monkeypatch.setenv("DIAGC_METRICS", str(wide))
    assert main([str(src), "--format", "ir", "-o", str(out3) + os.sep]) == 0
    assert (out3 / "ex.ir").read_text(encoding="utf-8") == widened


def test_a_figure_is_laid_out_with_the_metrics_it_was_compiled_with(tmp_path):
    text = "\\Square[A`B`C`D;f`g`h`k]\n"
    src = _write(tmp_path, "ex.dg", text)
    wide = _write(tmp_path, "wide.tsv", "A\t900\nf\t2000\n")
    out = tmp_path / "out"
    assert main([str(src), "--metrics", str(wide), "--format", "svg",
                 "-o", str(out) + os.sep]) == 0
    figure, = compile_source(text, str(src), metrics=load_metrics(str(wide)))
    default, = compile_source(text, str(src))
    svg = render_figure(figure, "svg")
    assert svg == (out / "ex.svg").read_text(encoding="utf-8")
    assert svg != render_figure(default, "svg")


def test_bad_metrics_file(tmp_path, capsys):
    src = _write(tmp_path, "ex.dg", GOOD)
    bad = _write(tmp_path, "bad.tsv", "f\tx\n")
    assert main([str(src), "--metrics", str(bad)]) == 2
    assert "bad.tsv" in capsys.readouterr().err


def test_a_metrics_file_that_is_not_utf8_is_an_error(tmp_path, capsys):
    src = _write(tmp_path, "ex.dg", GOOD)
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"\xe9\t70\n")
    with pytest.raises(MetricsError, match="cannot read metrics file"):
        load_metrics(str(bad))
    assert main([str(src), "--metrics", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"diagc: cannot read metrics file {bad}: ")
    assert not (tmp_path / "ex.svg").exists()


def test_scale_flag_scales_svg(tmp_path):
    src = _write(tmp_path, "ex.dg", GOOD)
    out = tmp_path / "out"
    assert main([str(src), "--scale", "1", "-o", str(out) + os.sep]) == 0
    one = (out / "ex.svg").read_text(encoding="utf-8")
    assert main([str(src), "--scale", "2", "-o", str(out) + os.sep]) == 0
    two = (out / "ex.svg").read_text(encoding="utf-8")
    from test_render import geom_numbers

    sk1, n1 = geom_numbers(one)
    sk2, n2 = geom_numbers(two)
    assert sk1 == sk2
    assert all(b == 2 * a for a, b in zip(n1, n2))


def test_bad_scale_flag(tmp_path, capsys):
    src = _write(tmp_path, "ex.dg", GOOD)
    assert main([str(src), "--scale", "0"]) == 2
    assert "scale" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--scale", "1e3"), ("--scale", "\u0663"), ("--scale", "1_0"),
    ("--scale", "-1/2"), ("--em", "1/0"), ("--em", "0"), ("--em", "1e1"),
    ("--scale", "9" * 4301), ("--em", "1/0" + "9" * 4300),
])
def test_a_bad_scale_or_em_flag_exits_2_naming_the_flag(tmp_path, capsys, flag, value):
    src = _write(tmp_path, "ex.dg", GOOD)
    assert main([str(src), f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("diagc: ") and flag in err and err.count("\n") == 1
    assert not (tmp_path / "ex.svg").exists()


@pytest.mark.parametrize("flag, too_long_in", [("--scale", ["svg", "tikz"]), ("--em", ["svg"])],
                         ids=["--scale", "--em"])
def test_a_scale_or_em_flag_of_4300_digits_is_read(tmp_path, capsys, flag, too_long_in):
    # a format whose numbers it multiplies finds them too long to write,
    # at the figure; the Xy-pic token stream and the IR multiply none, and
    # TikZ writes in em, so the em size multiplies none of its numbers
    src = _write(tmp_path, "ex.dg", GOOD)
    out = tmp_path / "out"
    for fmt in FORMATS:
        status = main([str(src), f"{flag}={'9' * 4300}", "-f", fmt, "-o", str(out) + os.sep])
        err = capsys.readouterr().err
        if fmt in too_long_in:
            assert (status, err) == (
                2, f"{src}:1:1: error: number too long to write: more than 4300 digits\n")
            assert not out.exists()
        else:
            assert (status, err) == (0, "")
            shutil.rmtree(out)


@pytest.mark.parametrize("value", ["1/3", "0.5", "2", " 3/2 ", "1e3", "\u0663", "1_0", "0", "2/0"])
def test_the_scale_flag_reads_numbers_as_scalefactor_does(tmp_path, capsys, value):
    src = _write(tmp_path, "ex.dg", GOOD)
    status = main([str(src), "--scale", value, "-o", str(tmp_path / "out") + os.sep])
    try:
        compile_source(GOOD.replace("\\bfig\n", f"\\bfig\\scalefactor{{{value}}}\n"))
    except ParseError:
        assert status == 2
    else:
        assert status == 0


def test_error_in_one_input_does_not_block_others(tmp_path, capsys):
    first = _write(tmp_path, "first.dg", WARNING_SOURCE)
    bad = _write(tmp_path, "bad.dg", ARITY_BAD)
    last = _write(tmp_path, "last.dg", WARNING_SOURCE)
    out = tmp_path / "out"
    assert main([str(first), str(bad), str(last), "-o", str(out) + os.sep]) == 2
    assert (out / "first.svg").is_file() and (out / "last.svg").is_file()
    assert not (out / "bad.svg").exists()
    err = capsys.readouterr().err.splitlines()
    assert [Path(line.split(":", 1)[0]).name for line in err] == [
        "first.dg", "bad.dg", "last.dg"
    ]


def test_no_partial_file_left_behind(tmp_path):
    src = _write(tmp_path, "ex.dg", GOOD)
    out = tmp_path / "out"
    assert main([str(src), "-o", str(out) + os.sep]) == 0
    leftovers = [p for p in out.iterdir() if p.suffix != ".svg"]
    assert leftovers == []


def test_a_failed_write_leaves_no_partial_file_and_the_others_are_written(tmp_path, capsys):
    # a.svg names a directory: its temp file is written, the rename over
    # fails, and the temp file is removed
    a, b = _write(tmp_path, "a.dg", GOOD), _write(tmp_path, "b.dg", GOOD)
    out = tmp_path / "out"
    (out / "a.svg").mkdir(parents=True)
    assert main([str(a), str(b), "-o", str(out) + os.sep]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"diagc: cannot write {out / 'a.svg'}: [Errno 21] Is a directory: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == ["a.svg", "b.svg"]
    assert (out / "a.svg").is_dir() and not any((out / "a.svg").iterdir())
    assert (out / "b.svg").read_text(encoding="utf-8").startswith("<?xml")


def test_a_taken_temp_name_is_passed_over_and_its_file_left_alone(tmp_path, monkeypatch):
    src = _write(tmp_path, "ex.dg", GOOD)
    out = tmp_path / "out"
    out.mkdir()
    taken = _write(out, "ex.svg.00000001", "kept\n")
    draws = iter([b"\0\0\0\1", b"\0\0\0\2"])
    monkeypatch.setattr(os, "urandom", lambda n: next(draws))
    renames = []
    replace = os.replace
    monkeypatch.setattr(os, "replace", lambda a, b: renames.append(a) or replace(a, b))
    assert main([str(src), "-o", str(out) + os.sep]) == 0
    assert renames == [str(out / "ex.svg.00000002")]
    assert taken.read_text(encoding="utf-8") == "kept\n"
    assert sorted(os.listdir(out)) == ["ex.svg", "ex.svg.00000001"]
    assert (out / "ex.svg").read_text(encoding="utf-8").startswith("<?xml")


def test_a_failed_rename_whose_cleanup_fails_too_exits_2_and_makes_no_file(tmp_path, monkeypatch,
                                                                           capsys):
    # the rename's error is the one reported; the unlink's is swallowed,
    # and the temp file it could not remove stays
    src = _write(tmp_path, "ex.dg", GOOD)
    out = tmp_path / "out"
    out.mkdir()

    def refuse(errno, message):
        def call(*args):
            raise OSError(errno, message)
        return call

    monkeypatch.setattr(os, "replace", refuse(13, "rename refused"))
    monkeypatch.setattr(os, "unlink", refuse(16, "unlink refused"))
    assert main([str(src), "-o", str(out) + os.sep]) == 2
    assert capsys.readouterr().err == (
        f"diagc: cannot write {out / 'ex.svg'}: [Errno 13] rename refused\n")
    (left,) = os.listdir(out)
    assert left.startswith("ex.svg.") and not (out / "ex.svg").exists()


@pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX")
@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_a_written_file_has_the_mode_a_plain_write_gives(tmp_path, umask):
    src = _write(tmp_path, "ex.dg", GOOD)
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert main([str(src), "-o", str(out) + os.sep]) == 0
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    mode = (out / "ex.svg").stat().st_mode & 0o777
    assert mode == (tmp_path / "plain").stat().st_mode & 0o777 == 0o666 & ~umask


def test_a_link_at_the_destination_is_replaced_and_its_target_left_alone(tmp_path):
    src = _write(tmp_path, "ex.dg", GOOD)
    target = _write(tmp_path, "target.txt", "kept\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "ex.svg").symlink_to(target)
    assert main([str(src), "-o", str(out) + os.sep]) == 0
    assert not (out / "ex.svg").is_symlink()
    assert (out / "ex.svg").read_text(encoding="utf-8").startswith("<?xml")
    assert target.read_text(encoding="utf-8") == "kept\n"
    assert os.listdir(out) == ["ex.svg"]


@pytest.mark.skipif(not hasattr(os, "pathconf"), reason="needs the longest name a directory takes")
def test_an_output_name_nine_short_of_the_longest_is_written(tmp_path, capsys):
    # its temp file adds a dot and 8 characters: a name of the longest length
    out = tmp_path / "out"
    out.mkdir()
    stem = "x" * (os.pathconf(out, "PC_NAME_MAX") - 9 - len(".svg"))
    src = _write(tmp_path, stem + ".dg", GOOD)
    assert main([str(src), "-o", str(out) + os.sep]) == 0
    assert capsys.readouterr().err == ""
    assert os.listdir(out) == [stem + ".svg"]


def test_cost_per_output_file_is_bounded(tmp_path):
    # main over k copies of one square: 8 copies less 4 is what 4 more
    # files cost to read, compile, plan and write, about 6860 instructions
    # a file on 3.11 (7620 with mkstemp's random names, a chmod and each
    # path split twice)
    square = (CORPUS / "05_square.dg").read_text(encoding="utf-8")
    srcs = [str(_write(tmp_path, f"in{i}.dg", square)) for i in range(8)]

    def count(k):
        argv = [*srcs[:k], "-o", str(tmp_path / f"out{k}") + os.sep]
        return opcodes(lambda: main(argv))

    main([srcs[0], "-o", str(tmp_path / "warm") + os.sep])  # patterns compile on first use
    assert (count(8) - count(4)) / 4 <= 7100


def test_cost_per_file_is_linear_in_files_per_run(tmp_path):
    # the command line's reader and the output plan look at each input
    # once: about 2700 instructions a file over 32 files and 2656 over 128
    # (0.98x), where a reader that copies its inputs for each one reads
    # 1.09x
    square = (CORPUS / "05_square.dg").read_text(encoding="utf-8")
    srcs = [str(_write(tmp_path, f"in{i}.dg", square)) for i in range(128)]

    def per_file(k):
        argv = [*srcs[:k], "--format", "xypic", "-o", str(tmp_path / f"out{k}") + os.sep]
        return opcodes(lambda: main(argv)) / k

    main([srcs[0], "-o", str(tmp_path / "warm") + os.sep])  # patterns compile on first use
    assert per_file(128) <= 1.05 * per_file(32)


def test_the_cli_start_is_bounded():
    # import diagc.cli and main on one small Xy-pic --check input, in a
    # fresh process that reads bytecode caches: 549343 instructions on
    # 3.11 with argparse imported, its parser built and the command line
    # read by it; 443459 with the command line read by read_args; 410522
    # with layout, styles, the SVG and TikZ printers and the IR reader
    # left unloaded (3.10: 487034, 3.12: 543811, 3.13: 569701).  An
    # argparse imported at the top of the module again adds about 60000,
    # and the stages an Xy-pic run does not use about 33000.
    bounds = {(3, 10): 502_000, (3, 11): 423_000, (3, 12): 560_000, (3, 13): 587_000}
    assert render_ratios.cli_start() <= bounds.get(sys.version_info[:2], max(bounds.values()))


def test_the_library_start_is_bounded():
    # a bare import diagc, in a fresh process that reads bytecode caches,
    # runs no stage module: 2890 instructions on 3.11 (3.10: 2769, 3.12:
    # 2632, 3.13: 2623), against 237726 when it imported every module
    bounds = {(3, 10): 2_850, (3, 11): 2_980, (3, 12): 2_720, (3, 13): 2_700}
    assert render_ratios.library_start() <= bounds.get(sys.version_info[:2], max(bounds.values()))


def _same_stem_pair(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    return (_write(tmp_path / "a", "x.dg", GOOD),
            _write(tmp_path / "b", "x.dg", "\\morphism[A`B;f]\n"))


def test_two_inputs_writing_one_file_write_nothing(tmp_path, capsys):
    a, b = _same_stem_pair(tmp_path)
    out = tmp_path / "out"
    assert main([str(a), str(b), "--format", "xypic", "-o", str(out) + os.sep]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert str(a) in err[0] and str(b) in err[0] and str(out / "x.xy") in err[0]
    assert not (out / "x.xy").exists()
    # beside their inputs the same stems do not collide
    assert main([str(a), str(b), "--format", "xypic"]) == 0
    assert (a.parent / "x.xy").is_file() and (b.parent / "x.xy").is_file()


def test_same_stem_inputs_check_against_one_golden_dir(tmp_path):
    a, _ = _same_stem_pair(tmp_path)
    copy = _write(tmp_path / "b", "x.dg", GOOD)
    golden_dir = tmp_path / "golden"
    assert main([str(a), "--format", "xypic", "-o", str(golden_dir) + os.sep]) == 0
    assert main([str(a), str(copy), "--format", "xypic", "--check", str(golden_dir)]) == 0


@pytest.mark.parametrize("fmt", ["svg", "tikz", "xypic", "ir"])
def test_empty_figure_is_an_error_in_every_format(tmp_path, capsys, fmt):
    src = _write(tmp_path, "e.dg", "\\bfig\\efig\n")
    out = tmp_path / "out"
    assert main([str(src), "--format", fmt, "-o", str(out) + os.sep]) == 2
    err = capsys.readouterr().err
    assert "e.dg:1:1: error: empty diagram: nothing to draw" in err
    assert not out.exists() or list(out.iterdir()) == []


def test_the_cli_imports_no_dataclasses_or_inspect():
    # every record is a named tuple: a fresh process pays for neither module
    code = ("import sys, diagc.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(diagc.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_the_patterns_only_the_section_reader_uses_compile_on_first_use(tmp_path):
    # the corpus takes the common spelling of every section; a comment in
    # a script section sends it to the section reader, a token at a time
    code = "\n".join([
        "import sys",
        "from diagc import compile_source, lexer",
        "from diagc.cli import main",
        "def compiled():",
        "    return lexer._tidy.cache_info().currsize, lexer._source.cache_info().currsize",
        "assert main(sys.argv[1:]) == 0, 'the corpus did not compile'",
        "print(compiled())",
        "compile_source('\\\\to^% note\\nf')",
        "print(compiled())",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(diagc.__file__).parents[1]))
    argv = [str(path) for path in sorted(CORPUS.glob("*.dg"))] + ["-o", str(tmp_path) + os.sep]
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "(0, 0)\n(1, 1)\n"
    assert len(os.listdir(tmp_path)) == 29


def test_an_output_directory_is_made_once_per_run(tmp_path, monkeypatch):
    srcs = [str(_write(tmp_path, f"{name}.dg", GOOD)) for name in "abc"]
    calls = []
    makedirs = os.makedirs
    monkeypatch.setattr(os, "makedirs", lambda *a, **k: calls.append(a) or makedirs(*a, **k))
    out = tmp_path / "out"
    assert main([*srcs, "-o", str(out) + os.sep]) == 0
    assert len(calls) == 1 and sorted(os.listdir(out)) == ["a.svg", "b.svg", "c.svg"]


def test_output_names_drop_the_last_suffix_as_pathlib_stem_does(tmp_path, capsys):
    names = {"a.b.dg": "a.b.svg", "x.": "x..svg", "..dg": "..svg", ".dg": ".dg.svg"}
    srcs = [str(_write(tmp_path, name, GOOD)) for name in names]
    out = tmp_path / "out"
    assert main([*srcs, "-o", str(out) + os.sep]) == 0
    assert sorted(os.listdir(out)) == sorted(names.values())
    assert [Path(name).stem + ".svg" for name in names] == list(names.values())
    assert capsys.readouterr().err == ""


def test_inputs_are_named_as_given(tmp_path, monkeypatch, capsys):
    _write(tmp_path, "x.dg", ARITY_BAD)
    monkeypatch.chdir(tmp_path)
    assert main(["./x.dg"]) == 2
    assert capsys.readouterr().err.startswith("./x.dg:1:")


def test_one_input_given_twice_writes_nothing(tmp_path, capsys):
    src = str(_write(tmp_path, "x.dg", GOOD))
    assert main([src, src]) == 2
    assert capsys.readouterr().err == (
        f"diagc: {src} and {src} both write {tmp_path / 'x.svg'}; nothing written\n")
    assert os.listdir(tmp_path) == ["x.dg"]


def _refused_over_an_input(capsys, argv, writer, dest, source):
    """Run the CLI on ``argv`` and check that it refuses to write ``dest``
    over the input ``source``, and that the input keeps its text."""
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"diagc: {writer} writes {dest} over the input {source}; nothing written\n")
    assert Path(source).read_text(encoding="utf-8") == GOOD


def test_the_one_output_file_may_not_be_the_input(tmp_path, capsys):
    src = str(_write(tmp_path, "a.dg", GOOD))
    _refused_over_an_input(capsys, [src, "-o", src, "--format", "svg"], src, src, src)
    assert os.listdir(tmp_path) == ["a.dg"]


def test_the_default_output_may_not_be_the_input(tmp_path, capsys):
    # the output of c.tex in TikZ is c.tex beside it
    src = str(_write(tmp_path, "c.tex", GOOD))
    _refused_over_an_input(capsys, [src, "--format", "tikz"], src, src, src)
    assert os.listdir(tmp_path) == ["c.tex"]


def test_an_output_in_the_directory_may_not_be_another_input(tmp_path, capsys):
    a = str(_write(tmp_path, "a.dg", GOOD))
    out = tmp_path / "out"
    out.mkdir()
    other = str(_write(out, "a.svg", GOOD))
    _refused_over_an_input(capsys, [a, other, "-o", str(out) + os.sep], a, str(out / "a.svg"),
                           other)
    assert os.listdir(out) == ["a.svg"]


def test_the_output_file_may_not_be_what_a_linked_input_names(tmp_path, capsys):
    real = str(_write(tmp_path, "real.svg", GOOD))
    link = tmp_path / "b.dg"
    link.symlink_to("real.svg")
    _refused_over_an_input(capsys, [str(link), "-o", real], str(link), real, str(link))
    assert sorted(os.listdir(tmp_path)) == ["b.dg", "real.svg"] and link.is_symlink()


def test_an_output_in_the_directory_may_not_be_what_a_linked_input_names(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    _write(out, "c.svg", GOOD)
    link = tmp_path / "c.dg"
    link.symlink_to(out / "c.svg")
    _refused_over_an_input(capsys, [str(link), "-o", str(out) + os.sep], str(link),
                           str(out / "c.svg"), str(link))
    assert os.listdir(out) == ["c.svg"] and link.is_symlink()


def test_the_default_output_may_not_be_a_linked_input_by_its_own_name(tmp_path, capsys):
    # c.tex links to real.dg; its output in TikZ is c.tex, the link itself
    _write(tmp_path, "real.dg", GOOD)
    link = tmp_path / "c.tex"
    link.symlink_to("real.dg")
    _refused_over_an_input(capsys, [str(link), "--format", "tikz"], str(link), str(link),
                           str(link))
    assert sorted(os.listdir(tmp_path)) == ["c.tex", "real.dg"] and link.is_symlink()


CORPUS_TEXTS = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.dg"))]
# what a mutation puts into a line of a corpus source: line ends, a
# comment, braces, separators, a lone backslash, figure bounds, a character
# SVG cannot carry, sections that lay out an arrow inside its nodes, and
# numbers at the digit bound and past it: a run of MAX_DIGITS nines and
# one more, a scale factor, and an extent that sums past 10^MAX_DIGITS
# after an origin
LONGEST = "9" * MAX_DIGITS
MUTATION_ATOMS = ["\r", "\n", "% note", "{", "}", "[", "]", "`", ";", "\\", " ",
                  "\\bfig", "\\efig", "\x0c", "<1,0>", "(0,0)", "\\morphism[A`B;f]",
                  LONGEST, LONGEST + "9", "\\scalefactor{" + LONGEST + "}", "<" + LONGEST + ",0>"]


@st.composite
def mutated_corpus_sources(draw):
    """A corpus source with LF, CR LF or CR line ends, and in up to two of
    its lines an atom put in or up to 4 characters cut out."""
    lines = draw(st.sampled_from(CORPUS_TEXTS)).split("\n")
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines) - 1))
        line = lines[k]
        pos = draw(st.integers(0, len(line)))
        if draw(st.booleans()):
            lines[k] = line[:pos] + draw(st.sampled_from(MUTATION_ATOMS)) + line[pos:]
        else:
            lines[k] = line[:pos] + line[pos + draw(st.integers(1, 4)):]
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


def _expected_outputs(text, filename, fmt):
    """The files a run would write for ``text`` and whether it warned, or
    None where it fails."""
    try:
        figures = compile_source(text, filename)
        if not figures:  # an input with no figure is an error
            return None, False
        notes = []
        rendered = [render_figure(figure, fmt, notes) for figure in figures]
    except DiagramError:
        return None, False
    names = ([f"in-{k}{FORMATS[fmt]}" for k in range(1, len(figures) + 1)]
             if len(figures) > 1 else [f"in{FORMATS[fmt]}"])
    return dict(zip(names, rendered)), bool(notes) or any(f.warnings for f in figures)


def _tree(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, files in os.walk(root) for f in files)


@BOUNDED
@given(text=mutated_corpus_sources(), fmt=st.sampled_from(sorted(FORMATS)),
       strict=st.booleans(), into_dir=st.booleans())
# each number atom where it reaches its bound: as an integer, a scale
# factor and an extent after an origin
@example(text=f"\\morphism({LONGEST}9,0)[A`B;f]", fmt="svg", strict=False, into_dir=False)
@example(text=f"\\morphism({LONGEST},0)[A`B;f]", fmt="xypic", strict=False, into_dir=False)
@example(text=f"\\scalefactor{{{LONGEST}}}\n\\morphism[A`B;f]", fmt="tikz", strict=False,
         into_dir=False)
@example(text=f"\\morphism(1,0)<{LONGEST},0>[A`B;f]", fmt="ir", strict=False, into_dir=True)
def test_the_cli_keeps_its_contract_on_mutated_sources(text, fmt, strict, into_dir):
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "in.dg")
        with open(src, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out") if into_dir else tmp
        before = _tree(tmp)
        argv = [src, "--format", fmt] + ["--strict"] * strict + ["-o", out + os.sep] * into_dir
        status = main(argv)
        expected, warned = _expected_outputs(text, src, fmt)
        assert status == (2 if expected is None else 1 if strict and warned else 0)
        written = sorted(set(_tree(tmp)) - set(before))
        if status == 2:
            assert written == [] and _tree(tmp) == before
            return
        assert written == sorted(os.path.relpath(os.path.join(out, name), tmp)
                                 for name in expected)
        for name, rendered in expected.items():
            with open(os.path.join(out, name), encoding="utf-8", newline="") as fh:
                assert fh.read() == rendered
            if fmt == "svg":
                ET.fromstring(rendered.encode("utf-8"))


# the command lines only argparse reads: every spelling abbreviated, with
# "=" and, for a short flag, with its value attached; "--", a lone "-"
# and help.  Half the flags drawn are spelled in full.  A drawn value or
# input may begin with "-", hold a space, be empty or name no format, and
# a drawn input may start a second run.
SPELLINGS = sorted(_SPELLINGS)
FLAG_ATOMS = sorted({*SPELLINGS, "--", "-", "-h", "--help",
                     *(flag[:k] for flag in SPELLINGS if flag[1] == "-"
                       for k in range(3, len(flag))),
                     *(flag + "=ir" for flag in SPELLINGS),
                     *(flag + "svg" for flag in SPELLINGS if flag[1] != "-")})
VALUE_ATOMS = ["a.dg", "b.dg", "svg", "xypic", "ir", "pdf", "SVG", "1/3", "-5", "-1.5", "-x y",
               "", "b c"]
_FLAG = st.sampled_from(SPELLINGS) | st.sampled_from(FLAG_ATOMS)
_VALUE = st.sampled_from(VALUE_ATOMS)
CLI_ARGVS = st.lists(st.tuples(_FLAG) | st.tuples(_FLAG, _VALUE) | st.tuples(_VALUE),
                     max_size=6).map(lambda pieces: [token for piece in pieces for token in piece])
# the command lines a batch run gives: read_args reads each of them
COMMON_ARGVS = [
    ["a.dg"],
    ["a.dg", "b.dg", "--format", "svg"],
    ["a.dg", "b.dg", "--format", "xypic", "--check", "golden/xypic"],
    ["--strict", "-f", "tikz", "a.dg", "-o", "out/", "--scale", "1/3", "--em", "12"],
    ["-o", "pic.svg", "a.dg", "--metrics", "widths.txt", "--strict", "--output", "b c"],
    ["", "--scale", ""],
]


def _argparse_reads(argv):
    """The namespace argparse makes of ``argv``, or None where it exits."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return build_arg_parser().parse_args(argv)
    except SystemExit:
        return None


@pytest.mark.parametrize("argv", COMMON_ARGVS)
def test_the_reader_reads_a_common_command_line_as_argparse_does(argv):
    read = read_args(argv)
    assert read is not None and vars(read) == vars(_argparse_reads(argv))


@BOUNDED
@given(argv=CLI_ARGVS)
@example(argv=["a.dg", "-f", "pdf", "-f", "svg"])  # argparse refuses the first format
def test_the_reader_agrees_with_argparse(argv):
    read, parsed = read_args(argv), _argparse_reads(argv)
    if parsed is None:  # argparse helps or refuses: the reader leaves it to argparse
        assert read is None
    elif read is not None:
        assert vars(read) == vars(parsed)


MAIN = "import sys; from diagc.cli import main; sys.exit(main(sys.argv[1:]))"


def _fresh(code, *argv):
    """``code`` run with ``argv`` in a new process, its help 80 columns wide."""
    env = dict(os.environ, PYTHONPATH=str(Path(diagc.__file__).parents[1]), COLUMNS="80")
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True)


def test_a_run_loads_neither_argparse_nor_gettext(tmp_path):
    code = ("import sys; from diagc.cli import main; status = main(sys.argv[1:]); "
            "print(status, sorted({'argparse', 'gettext'} & set(sys.modules)))")
    srcs = [str(_write(tmp_path, f"{name}.dg", GOOD)) for name in "ab"]
    run = _fresh(code, *srcs, "--format", "xypic", "-o", str(tmp_path / "out") + os.sep)
    assert (run.stdout, run.stderr) == ("0 []\n", "")
    assert sorted(os.listdir(tmp_path / "out")) == ["a.xy", "b.xy"]


# what every run of the CLI loads of diagc, whatever it prints
FRONT = ["cli", "compiler", "diagnostics", "expand", "geometry", "ir", "lexer", "metrics",
         "parser"]
LOADED = "sorted(m[6:] for m in sys.modules if m.startswith('diagc.'))"


def test_import_diagc_loads_no_submodule():
    run = _fresh(f"import sys, diagc; print({LOADED})")
    assert (run.stdout, run.stderr) == ("[]\n", "")


@pytest.mark.parametrize("fmt, stages", [
    ("xypic", ["xypic"]), ("ir", ["irtext"]),
    ("svg", ["layout", "styles", "svg"]), ("tikz", ["layout", "styles", "tikz"]),
])
def test_a_run_loads_only_the_stages_of_its_format(fmt, stages):
    code = ("import sys; from diagc.cli import main; status = main(sys.argv[1:]); "
            f"print(status, {LOADED})")
    golden = Path(__file__).parent / "golden" / fmt
    run = _fresh(code, str(CORPUS / "05_square.dg"), "--format", fmt, "--check", str(golden))
    assert (run.stdout, run.stderr) == (f"0 {sorted(FRONT + stages)}\n", "")


# the public names of diagc, in the order of its __all__
PUBLIC = (
    "Arrow Command CompiledFigure DEFAULT_METRICS DiagramError DiagramIR Diagnostic ExpandError "
    "Figure FontMetrics LabelSide LayoutError Node ParseError Point ScaleConfig compile_source "
    "emit_ir expand_figure format_command layout_diagram load_metrics measure_morphism_width "
    "merge_duplicate_nodes parse_command parse_ir parse_source ratchet render_figure render_svg "
    "render_tikz render_xypic resolve_label_side tex_div text_width two_cell_endpoint").split()


def test_all_keeps_its_names_and_their_order():
    assert diagc.__all__ == PUBLIC


def test_each_public_name_read_first_is_its_home_module_s():
    # each name is read first from a package imported afresh, then the
    # rest in a shuffled order; each is the object its home module holds
    code = ("import random, sys\n"
            f"names = {PUBLIC!r}\n"
            "wrong = []\n"
            "for first in names:\n"
            "    for m in [m for m in sys.modules if m.split('.')[0] == 'diagc']:\n"
            "        del sys.modules[m]\n"
            "    import diagc\n"
            "    for name in [first] + random.Random(first).sample(names, len(names)):\n"
            "        value = getattr(diagc, name)\n"
            "        if getattr(sys.modules[value.__module__], name) is not value:\n"
            "            wrong.append(name)\n"
            "print(wrong)\n")
    run = _fresh(code)
    assert (run.stdout, run.stderr) == ("[]\n", "")


def test_a_star_import_binds_the_public_names_and_dir_lists_them():
    code = ("import diagc; names = {}; exec('from diagc import *', names); "
            "print(sorted(set(names) - {'__builtins__'}) == sorted(diagc.__all__), "
            "set(diagc.__all__) <= set(dir(diagc)))")
    run = _fresh(code)
    assert (run.stdout, run.stderr) == ("True True\n", "")


def test_every_submodule_resolves_as_a_name_of_the_package():
    modules = sorted(path.stem for path in Path(diagc.__file__).parent.glob("*.py")
                     if path.stem != "__init__")
    code = (f"import sys, diagc; print([m for m in {modules!r} "
            "if getattr(diagc, m) is not sys.modules['diagc.' + m]])")
    run = _fresh(code)
    assert (run.stdout, run.stderr) == ("[]\n", "")
    assert set(modules) <= set(dir(diagc))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'diagc' has no attribute 'no_such_name'$"):
        diagc.no_such_name


def test_the_stage_loader_keeps_a_patch():
    # before a figure's first SVG render, a stage patched in the compiler
    # stays patched though the patch calls the loader, and one patched in
    # its home module is called but not kept; unpatched, the first render
    # puts the stage in its place
    code = ("import sys, diagc.compiler as c, diagc.layout as home\n"
            "loader, real, calls = c.layout_diagram, home.layout_diagram, []\n"
            "def wrap(*args, **kwargs):\n"
            "    calls.append(1)\n"
            "    return loader(*args, **kwargs)\n"
            "def spy(*args, **kwargs):\n"
            "    calls.append(1)\n"
            "    return real(*args, **kwargs)\n"
            "fig = c.compile_source(sys.argv[1])[0]\n"
            "c.layout_diagram = wrap\n"
            "c.render_figure(fig, 'svg'); c.render_figure(fig, 'svg')\n"
            "print(c.layout_diagram is wrap, len(calls))\n"
            "c.layout_diagram, home.layout_diagram = loader, spy\n"
            "c.render_figure(fig, 'svg')\n"
            "print(c.layout_diagram is loader, len(calls))\n"
            "home.layout_diagram = real\n"
            "c.render_figure(fig, 'svg')\n"
            "print(c.layout_diagram is real, len(calls))\n")
    run = _fresh(code, GOOD)
    assert (run.stdout, run.stderr) == ("True 2\nTrue 3\nTrue 3\n", "")


def test_help_is_argparse_s_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    run = _fresh(MAIN, "--help")
    assert (run.returncode, run.stdout, run.stderr) == (0, build_arg_parser().format_help(), "")


@pytest.mark.parametrize("argv, error", [
    (["--formt", "svg", "x.dg"], "unrecognized arguments: --formt"),
    (["a.dg", "--strict", "b.dg"], "unrecognized arguments: b.dg"),
])
def test_a_command_line_argparse_refuses_exits_2_with_its_usage(monkeypatch, argv, error):
    monkeypatch.setenv("COLUMNS", "80")
    run = _fresh(MAIN, *argv)
    usage = build_arg_parser().format_usage()
    assert (run.returncode, run.stdout, run.stderr) == (2, "", f"{usage}diagc: error: {error}\n")
