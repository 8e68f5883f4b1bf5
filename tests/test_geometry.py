"""Counter arithmetic: ratchet, truncating division, unit conversion."""
import random
from fractions import Fraction

import pytest

from diagc import ScaleConfig, ratchet, tex_div
from diagc.geometry import as_fraction, format_decimal, pt_to_centiem, round_div


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


def test_as_fraction_decimal_float():
    assert as_fraction(0.7) == Fraction(7, 10)
    assert as_fraction("2") == 2
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)


def test_format_decimal_exact():
    assert format_decimal(708, 10) == "70.8"
    assert format_decimal(5) == "5"
    assert format_decimal(-1, 8) == "-0.125"
    assert format_decimal(0) == "0"
    # reduced before the fallback test: 3/3 is exact, 1/3 is not
    assert format_decimal(7000, 3000) == "2.333333"
    assert format_decimal(6000, 3000) == "2"


def test_scale_config_validation():
    with pytest.raises(ValueError):
        ScaleConfig(scale=0)
    with pytest.raises(ValueError):
        ScaleConfig(em_size=-1)
