"""Integer geometry in centi-em units with TeX counter semantics.

All diagram coordinates are signed integers measured in centi-em
(0.01 em), the native unit of the command language.  Arithmetic here is
exact; conversion to physical lengths happens only at render time,
through ScaleConfig, so diagrams expand identically at every scale.

Numbers are written by one exact-decimal rule: ``decimal_base`` factors
a denominator once, and ``format_decimal`` (one number) and the
``Decimals`` memo (every number of a render over one denominator) write
each quotient from it; one with no finite decimal is rounded to six
places in integers, so its digits are right at any magnitude.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, NamedTuple, Tuple, Union

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


def exact(value: Union[int, Fraction]) -> Union[int, Fraction]:
    """An exact rational as the records hold it: an int when whole."""
    return value.numerator if value.denominator == 1 else value


# p, p/q or a decimal, in ASCII: Fraction() alone would also read 1_0, a ٣ or 1e3
_RATIONAL = re.compile(r"[+-]?(?:[0-9]+(?:/0*[1-9][0-9]*|\.[0-9]*)?|\.[0-9]+)")
# A number in source text or a flag has runs of at most MAX_DIGITS digits,
# leading zeros included: the most that int() reads and str() writes
# (sys.int_info.default_max_str_digits, Python 3.11 on), held on every Python.
MAX_DIGITS = 4300


def read_positive(text: str, what: str) -> Union[int, Fraction]:
    """The value of ``text``, a positive rational spelled ``p``, ``p/q`` or
    as a decimal, between optional spaces; ValueError naming ``what``
    for any other text."""
    number = text.strip()
    if not _RATIONAL.fullmatch(number):
        raise ValueError(f"malformed {what} {text!r}")
    if max(map(len, number.lstrip("+-").replace("/", ".").split("."))) > MAX_DIGITS:
        raise ValueError(f"{what} has more than {MAX_DIGITS} digits in a row")
    value = Fraction(number)
    if value <= 0:
        raise ValueError(f"{what} must be positive")
    return exact(value)


def round_div(num: int, den: int) -> int:
    """num / den rounded to the nearest integer, ties away from zero (den > 0)."""
    n = (2 * abs(num) + den) // (2 * den)
    return -n if num < 0 else n


def pt_to_centiem(pt: Union[int, Fraction], em_size: Union[int, Fraction]) -> int:
    """Convert printer's points to centi-em (1 em = em_size pt), rounded
    once, ties away from zero."""
    pn, pd = pt.as_integer_ratio()
    en, ed = em_size.as_integer_ratio()
    return round_div(100 * pn * ed, pd * en)


class ScaleConfig(NamedTuple):
    """Render-time unit configuration: the two lengths a figure can set.

    scale multiplies every physical length; em_size is points per em.
    Both are exact rationals, an int when whole.  Nothing is checked on
    construction: ``checked`` is, where a scale comes in from outside.
    """

    scale: Union[int, Fraction] = 1
    em_size: Union[int, Fraction] = 10

    def checked(self) -> "ScaleConfig":
        """This configuration with each value as the record holds it;
        ValueError unless each is a positive int or Fraction."""
        for value, what in zip(self, ("scale", "em size")):
            if not isinstance(value, (int, Fraction)) or value <= 0:
                raise ValueError(f"{what} must be a positive int or Fraction, not {value!r}")
        return ScaleConfig(exact(self.scale), exact(self.em_size))


# how num / den is written, for one den > 0: (den, 10^p, 10^p / den, a
# %-pattern of p places) for the fewest places p >= 1 that hold every
# num / den exactly; (den, 0, 0, "") when den has a prime other than 2 and 5
DecimalBase = Tuple[int, int, int, str]


def decimal_base(den: int) -> DecimalBase:
    """Factor den > 0 once, for every number written over it.

    When den = 2^a * 5^b, max(a, b) places (at least one) hold every
    num / den exactly, and each number costs one multiply and one
    divmod.  Any other den leaves each number to format_decimal, which
    reduces it first and rounds to six places only what stays inexact.
    """
    twos = (den & -den).bit_length() - 1
    rest, fives = den >> twos, 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return den, 0, 0, ""
    places = max(twos, fives, 1)
    scale = 10**places
    return den, scale, scale // den, f"%d.%0{places}d"


class Memo(dict):
    """A dict that fills each missing key with ``fill(key)`` and keeps it:
    a hit is one C-level lookup, and only a miss calls Python code."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class Decimals(dict):
    """v -> the decimal of (v * mul + shift) / den, written on first use
    and kept: a hit is one C-level lookup, a miss one Python call.

    ``base`` is ``decimal_base(den)``, so memos over one den share its
    factoring.  The decimal is exact and minimal when den has only 2 and
    5 in it, and is format_decimal's otherwise.
    """

    __slots__ = ("mul", "shift", "scale", "pattern", "den")

    def __init__(self, base: DecimalBase, mul: int, shift: int = 0) -> None:
        self.den, self.scale, per, self.pattern = base
        if self.scale:   # count in units of the last place
            mul, shift = mul * per, shift * per
        self.mul, self.shift = mul, shift

    def __missing__(self, v: int) -> str:
        num = v * self.mul + self.shift
        if not self.scale:
            text = format_decimal(num, self.den)
        elif num < 0:
            text = "-" + (self.pattern % divmod(-num, self.scale)).rstrip("0").rstrip(".")
        else:
            text = (self.pattern % divmod(num, self.scale)).rstrip("0").rstrip(".")
        self[v] = text
        return text


def format_decimal(num: int, den: int = 1) -> str:
    """Exact, minimal decimal rendering of num / den (den > 0).

    A ratio whose lowest terms have a denominator outside 2^a * 5^b is
    rounded to six places in integers (a tie would need den to divide
    2 * 10^6); a negative value that rounds to zero is written "-0".
    """
    g = math.gcd(num, den)
    num, den = num // g, den // g
    _, scale, per, pattern = decimal_base(den)
    if scale:
        q = abs(num) * per   # in units of the last place
    else:   # in millionths, rounded
        scale, pattern, q = 10**6, "%d.%06d", round_div(abs(num) * 10**6, den)
    text = (pattern % divmod(q, scale)).rstrip("0").rstrip(".")
    return "-" + text if num < 0 else text
