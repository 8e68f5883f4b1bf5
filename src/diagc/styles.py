"""Arrow style tokens and what SVG and TikZ draw for each.

A style token is carried verbatim through the IR (token-stream output
needs the raw spelling, alignment spaces included).  ``STYLES`` is the
one table of the tokens SVG and TikZ can draw, keyed by the token with
its alignment spaces stripped.  Any other token, such as the '@...'
pass-through material of the token-stream backend, is drawn as a solid
arrow with a warning.  A printer keeps what it draws for each raw
token in ``StyleRows``, one render long.
"""
from __future__ import annotations

from typing import List, NamedTuple, Optional

from .geometry import Memo


class Style(NamedTuple):
    body: str          # the shaft: solid, double, dashed or dotted
    marker_start: str  # SVG marker ids, "" for none
    marker_end: str
    tikz: str          # TikZ \draw options


STYLES = {
    ">": Style("solid", "", "dg-head", "->"),
    "->": Style("solid", "", "dg-head", "->"),
    ">->": Style("solid", "dg-mono", "dg-head", ">->"),
    "->>": Style("solid", "", "dg-head2", "->>"),
    "<-": Style("solid", "dg-rhead", "", "<-"),
    "<-<": Style("solid", "dg-rhead", "dg-rmono", "<-<"),
    "<<-": Style("solid", "dg-rhead2", "", "<<-"),
    "=": Style("double", "", "", "double"),
    "=>": Style("double", "", "dg-head", "double, ->"),
    "-->": Style("dashed", "", "dg-head", "->, dashed"),
    ".>": Style("dotted", "", "dg-head", "->, dotted"),
    "(->": Style("solid", "dg-hook", "dg-head", "right hook->"),
}
_SOLID = STYLES[">"]


def style_of(raw: str, backend: str, warnings: Optional[List[str]]) -> Style:
    """The row of ``raw`` once stripped; for a token not in the table,
    the solid '>' row, with a warning that ``backend`` cannot draw it."""
    style = STYLES.get(raw.strip())
    if style is not None:
        return style
    if warnings is not None:
        warnings.append(f"style {raw!r} not supported by the {backend} backend; "
                        "drawn as a solid arrow")
    return _SOLID


class StyleRows(Memo):
    """A printer's row for each raw token, made by ``fill`` from the
    token's ``style_of`` once per render; a token outside ``STYLES`` is
    never kept, so each arrow drawn in it calls ``fill`` and warns."""

    __slots__ = ()

    def __missing__(self, raw: str):
        if raw.strip() in STYLES:
            return super().__missing__(raw)
        return self.fill(raw)
