"""Width model: defaults, overlays, and its determinism properties."""
import random
import string
from fractions import Fraction

import pytest

from diagc import text_width
from diagc.metrics import DEFAULT_METRICS, FontMetrics, MetricsError, load_metrics


def test_basic_widths():
    assert text_width("f", Fraction(7, 10)) == 35
    assert text_width("", 1) == 0
    assert text_width("fg", 1) == 100
    assert text_width("morphism", Fraction(7, 10)) == 280


def test_control_sequences_count_once():
    assert text_width("\\times", 1) == 50
    assert text_width("a\\times b", 1) == 150
    assert text_width("\\,", 1) == 50


def test_braces_are_free():
    assert text_width("{fg}", 1) == text_width("fg", 1)
    assert text_width("{}", 1) == 0


def test_load_metrics_overlay(tmp_path):
    path = tmp_path / "widths.tsv"
    path.write_text("f\t42\n", encoding="utf-8")
    m = load_metrics(str(path))
    assert text_width("f", 1, m) == 42
    assert text_width("g", 1, m) == 50


def test_load_metrics_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    m = load_metrics(str(path))
    assert m.widths == DEFAULT_METRICS.widths


def test_load_metrics_malformed_line_names_lineno(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("f\t42\nf\tx\n", encoding="utf-8")
    with pytest.raises(MetricsError, match=":2:"):
        load_metrics(str(path))


@pytest.mark.parametrize("text, message", [
    # a blank line is skipped, and counted
    ("f\t42\n \t\nbb\t3\n", ":3: expected one character, a tab, and a width"),
    ("a\t-1\n", ":1: width must be non-negative"),
])
def test_load_metrics_says_what_is_wrong_on_which_line(tmp_path, text, message):
    path = tmp_path / "bad.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MetricsError) as info:
        load_metrics(str(path))
    assert str(info.value) == str(path) + message


def test_load_metrics_missing_file():
    with pytest.raises(MetricsError):
        load_metrics("/nonexistent/widths.tsv")


def test_monotonicity_under_appends():
    rng = random.Random(7)
    alphabet = string.ascii_letters + "{}\\^_;`"
    for _ in range(300):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        c = rng.choice(alphabet)
        assert text_width(s + c, 1) >= text_width(s, 1), repr(s + c)


def test_scaling_linearity_within_rounding():
    rng = random.Random(8)
    for _ in range(200):
        s = "".join(rng.choice(string.ascii_letters) for _ in range(rng.randint(1, 10)))
        k = Fraction(rng.randint(1, 5))
        base = text_width(s, Fraction(7, 10))
        scaled = text_width(s, k * Fraction(7, 10))
        assert abs(scaled - k * base) <= k  # one rounding each

def test_determinism():
    m = FontMetrics()
    assert text_width("abc", Fraction(7, 10), m) == text_width("abc", Fraction(7, 10), m)
