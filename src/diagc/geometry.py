"""Integer geometry in centi-em units with TeX counter semantics.

All diagram coordinates are signed integers measured in centi-em
(0.01 em), the native unit of the command language.  Arithmetic here is
exact; conversion to physical lengths happens only at render time,
through ScaleConfig, so diagrams expand identically at every scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Tuple, Union

Numeric = Union[int, float, str, Fraction]

DEFAULT_MARGIN = 150   # margin added to measured inline-arrow labels
# constants of the language, which no source can set
EX_RATIO = Fraction(43, 100)   # ex height per em
LABEL_SCALE = Fraction(7, 10)  # label text size per node text size
OBJECT_MARGIN = 30             # centi-em padding node boxes before arrows are clipped


class Point(NamedTuple):
    """Integer position, y increasing upward."""

    x: int
    y: int


def ratchet(a: int, b: int) -> int:
    """Return max(a, b): raise a to b when it falls short."""
    return b if a < b else a


def tex_div(a: int, b: int) -> int:
    """Integer quotient truncated toward zero (TeX \\divide semantics).

    Python's // floors, which differs for negative operands.
    """
    if b == 0:
        raise ZeroDivisionError("division by zero in coordinate arithmetic")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def as_fraction(value: Numeric) -> Fraction:
    """Exact Fraction from common numeric spellings.

    Floats go through their decimal representation so 0.7 means 7/10,
    not the nearest binary double.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(str(value).strip())


def round_div(num: int, den: int) -> int:
    """num / den rounded to the nearest integer, ties away from zero (den > 0)."""
    n = (2 * abs(num) + den) // (2 * den)
    return -n if num < 0 else n


def pt_to_centiem(pt: Union[int, Fraction], em_size: Fraction) -> int:
    """Convert printer's points to centi-em (1 em = em_size pt), rounded
    once, ties away from zero."""
    pn, pd = pt.as_integer_ratio()
    en, ed = em_size.as_integer_ratio()
    return round_div(100 * pn * ed, pd * en)


@dataclass(frozen=True)
class ScaleConfig:
    """Render-time unit configuration: the two lengths a figure can set.

    scale multiplies every physical length; em_size is points per em.
    """

    scale: Fraction = Fraction(1)
    em_size: Fraction = Fraction(10)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", as_fraction(self.scale))
        object.__setattr__(self, "em_size", as_fraction(self.em_size))
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.em_size <= 0:
            raise ValueError("em size must be positive")


def decimal_formatter(den: int) -> Tuple[Callable[[int], str], bool]:
    """(num -> decimal of num / den, whether every such decimal is exact).

    den > 0 is factored once.  When den = 2^a * 5^b, max(a, b) places
    hold every num / den exactly, and each number costs one multiply and
    one divmod.  Any other den hands each number to format_decimal,
    which reduces it first and rounds to six places only what stays
    inexact.
    """
    twos = (den & -den).bit_length() - 1
    rest, fives = den >> twos, 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    places = max(twos, fives)
    if rest != 1:
        return partial(format_decimal, den=den), False
    if not places:
        return str, True
    scale = 10**places
    mul = scale // den
    pattern = f"%d.%0{places}d"

    def fixed(num: int) -> str:
        text = (pattern % divmod(abs(num) * mul, scale)).rstrip("0").rstrip(".")
        return "-" + text if num < 0 else text

    return fixed, True


def format_decimal(num: int, den: int = 1) -> str:
    """Exact, minimal decimal rendering of num / den (den > 0).

    A ratio whose lowest terms have a denominator outside 2^a * 5^b is
    rounded to six places.
    """
    g = math.gcd(num, den)
    num, den = num // g, den // g
    fmt, exact = decimal_formatter(den)
    if exact:
        return fmt(num)
    return f"{num / den:.6f}".rstrip("0").rstrip(".")
