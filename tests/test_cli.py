"""Command-line behavior: outputs, exit codes, golden checks, and the CLI
contract on mutated corpus sources."""
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_properties import BOUNDED, CORPUS

import diagc
from diagc import DiagramError, ParseError, compile_source, load_metrics, render_figure
from diagc.cli import main
from diagc.compiler import FORMATS
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
    # a diagonal arrow whose label or double shaft needs a float unit vector
    (f"\\morphism(0,0)/>/<{NINES},1>[A`B;f]", ["svg", "tikz"], "2:3",
     "arrow too long: its direction overflows a float"),
    (f"\\morphism(0,0)/=>/<{NINES},1>[A`B;]", ["svg"], "2:3",
     "arrow too long: its direction overflows a float"),
    # an integer that int() does not read
    (f"\\morphism(0,0)<{'9' * 4301},0>[A`B;f]", ["svg", "tikz", "xypic", "ir"], "2:4322",
     "integer of more than 4300 digits"),
], ids=["label", "double", "digits"])
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
        else:   # Xy-pic and IR draw no unit vector
            assert status == 0 and err == ""
            for written in out.iterdir():
                written.unlink()


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
    assert capsys.readouterr().err.startswith(f"{bad}:0:0: error: cannot read {bad}: ")


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


@pytest.mark.parametrize("flag", ["--scale", "--em"])
def test_a_scale_or_em_flag_of_4300_digits_is_read(tmp_path, capsys, flag):
    # the Xy-pic token stream, which prints no number of the scale
    src = _write(tmp_path, "ex.dg", GOOD)
    out = str(tmp_path / "out") + os.sep
    assert main([str(src), f"{flag}={'9' * 4300}", "-f", "xypic", "-o", out]) == 0
    assert capsys.readouterr().err == ""


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


CORPUS_TEXTS = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.dg"))]
# what a mutation puts into a line of a corpus source: line ends, a
# comment, braces, separators, a lone backslash, figure bounds, a character
# SVG cannot carry, and sections that lay out an arrow inside its nodes
MUTATION_ATOMS = ["\r", "\n", "% note", "{", "}", "[", "]", "`", ";", "\\", " ",
                  "\\bfig", "\\efig", "\x0c", "<1,0>", "(0,0)", "\\morphism[A`B;f]"]


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
