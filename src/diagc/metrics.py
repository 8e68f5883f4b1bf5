"""Character advance-width model feeding the auto-width formulas.

Real font metrics are out of scope; what matters is determinism.  Every
printable ASCII character is half an em wide by default, a control word
counts as one character of default width, braces are free.  A metrics
file can overlay individual characters.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from typing import Dict, NamedTuple, Union

from .geometry import round_div
from .lexer import drop_controls

DEFAULT_CHAR_WIDTH = 50  # centi-em at scale 1.0
_NO_BRACES = str.maketrans("", "", "{}")


def _default_table() -> Dict[str, int]:
    # space measures zero: the box this stands in for is math mode
    table = {chr(c): DEFAULT_CHAR_WIDTH for c in range(32, 127)}
    table[" "] = 0
    return table


class MetricsError(ValueError):
    """Unreadable or malformed metrics file."""


class FontMetrics(NamedTuple):
    """Per-character advance widths in centi-em; immutable after load, so
    every default-built instance shares the one default table."""

    widths: Dict[str, int] = _default_table()


DEFAULT_METRICS = FontMetrics()


def text_width(text: str, scale: Union[int, Fraction],
               m: FontMetrics = DEFAULT_METRICS) -> int:
    """Width of math text in centi-em at the given scale.

    Sum of per-character widths, scaled once and rounded to the nearest
    integer (ties away from zero).  Braces contribute nothing; control
    sequences count as one default-width character.  They are counted
    and cut out first, so what is left is a plain table sum over the
    text with its braces deleted; a character outside the table is
    DEFAULT_CHAR_WIDTH wide.
    """
    controls = 0
    if "\\" in text:
        text, controls = drop_controls(text)
    total = sum(map(m.widths.get, text.translate(_NO_BRACES), repeat(DEFAULT_CHAR_WIDTH)),
                controls * DEFAULT_CHAR_WIDTH)
    if isinstance(scale, int):
        return total * scale
    num, den = scale.as_integer_ratio()
    return round_div(total * num, den)


def load_metrics(path: str) -> FontMetrics:
    """Read tab-separated ``char<TAB>centi-em`` lines over the defaults."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise MetricsError(f"cannot read metrics file {path}: {exc}") from exc
    table = _default_table()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or len(parts[0]) != 1:
            raise MetricsError(
                f"{path}:{lineno}: expected one character, a tab, and a width"
            )
        ch, raw = parts
        try:
            width = int(raw)
        except ValueError:
            raise MetricsError(f"{path}:{lineno}: width {raw!r} is not an integer")
        if width < 0:
            raise MetricsError(f"{path}:{lineno}: width must be non-negative")
        table[ch] = width
    return FontMetrics(widths=table)
