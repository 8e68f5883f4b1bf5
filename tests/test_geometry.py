"""Counter arithmetic: ratchet, truncating division, unit conversion."""
import random
from fractions import Fraction

import pytest

from diagc import ScaleConfig, compile_source, ratchet, tex_div
from diagc.geometry import format_decimal, pt_to_centiem, read_positive, round_div


def test_ratchet_examples():
    assert ratchet(350, 500) == 500
    assert ratchet(500, 500) == 500
    assert ratchet(715, 500) == 715


def test_ratchet_is_max_brute():
    for a in range(-10, 11):
        for b in range(-10, 11):
            assert ratchet(a, b) == ratchet(b, a) == max(a, b)


def test_tex_div_examples():
    assert tex_div(500 * 4, 6) == 333
    assert tex_div(7, 2) == 3
    assert tex_div(-7, 2) == -3


def test_tex_div_matches_truncation_oracle():
    rng = random.Random(20240501)
    for _ in range(2000):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        if b == 0:
            continue
        exact = Fraction(a, b)
        truncated = exact.numerator // exact.denominator
        if exact < 0 and exact.denominator != 1:
            truncated += 1
        assert tex_div(a, b) == truncated, (a, b)


def test_tex_div_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        tex_div(1, 0)


def test_round_div():
    # to the nearest integer, ties away from zero
    assert round_div(1, 2) == 1
    assert round_div(-1, 2) == -1
    assert round_div(129, 4) == 32  # 32.25
    assert round_div(3, 1) == 3


def test_pt_to_centiem():
    ten = Fraction(10)
    assert pt_to_centiem(Fraction(5, 2), ten) == 25
    assert pt_to_centiem(Fraction(-9, 2), ten) == -45
    assert pt_to_centiem(1, Fraction(10)) == 10


@pytest.mark.parametrize("text, value", [
    ("2", 2), ("0.7", Fraction(7, 10)), ("1/3", Fraction(1, 3)), (" 4/2 ", 2), (".5", Fraction(1, 2)),
    ("+3", 3), ("5.", 5), ("07/014", Fraction(1, 2)), ("9" * 4300, int("9" * 4300)),
    ("1/" + "0" * 4299 + "2", Fraction(1, 2)), ("1." + "0" * 4300, 1),
])
def test_read_positive_takes_ascii_rationals(text, value):
    got = read_positive(text, "x")
    assert got == value and type(got) is type(value)  # an int when whole


@pytest.mark.parametrize("text, message", [
    ("1e3", "malformed x '1e3'"), ("\u0663", "malformed x '\u0663'"), ("1_0", "malformed x '1_0'"),
    ("1/0", "malformed x '1/0'"), ("", "malformed x ''"), ("inf", "malformed x 'inf'"),
    ("0", "x must be positive"), ("-1/2", "x must be positive"), ("0.0", "x must be positive"),
    ("9" * 4301, "x has more than 4300 digits in a row"),
    ("1/0" + "9" * 4300, "x has more than 4300 digits in a row"),
    ("1." + "0" * 4301, "x has more than 4300 digits in a row"),
])
def test_read_positive_rejects_other_text(text, message):
    with pytest.raises(ValueError) as info:
        read_positive(text, "x")
    assert str(info.value) == message


def test_format_decimal_exact():
    assert format_decimal(708, 10) == "70.8"
    assert format_decimal(5) == "5"
    assert format_decimal(-1, 8) == "-0.125"
    assert format_decimal(0) == "0"
    # reduced before the fallback test: 3/3 is exact, 1/3 is not
    assert format_decimal(7000, 3000) == "2.333333"
    assert format_decimal(6000, 3000) == "2"
    # six places rounded in integers: right past a float's 53 bits, and
    # past a float's range; a negative that rounds to zero keeps its sign
    assert format_decimal(10**15 + 1, 3) == "333333333333333.666667"
    assert format_decimal(-(10**15 + 1), 3) == "-333333333333333.666667"
    assert format_decimal(10**400 + 1, 3) == "3" * 400 + ".666667"
    assert format_decimal(-1, 3 * 10**7) == "-0"
    assert format_decimal(1, 3 * 10**7) == "0"


def test_scale_config_validation():
    # a ScaleConfig is a plain record, checked where it enters the compiler
    for cfg in (ScaleConfig(0), ScaleConfig(em_size=-1), ScaleConfig(0.5), ScaleConfig("2")):
        with pytest.raises(ValueError):
            compile_source("\\place(0,0)[A]", cfg=cfg)
    checked = ScaleConfig(Fraction(4, 2), Fraction(7, 2)).checked()
    assert checked == (2, Fraction(7, 2)) and type(checked.scale) is int
