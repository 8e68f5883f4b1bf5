"""Flat node/arrow intermediate representation shared by all backends.

Records are named tuples: immutable, safe to share, built by position
and changed with ``._replace``.  Geometry is integer centi-em; render
scale lives in the attached ScaleConfig.  An arrow's parallel offset and
local scale are exact rationals, an int where the value is whole (the
defaults are 0 and 1).  Nodes and arrows carry a creation-order seq
that doubles as a stable id and keeps every backend's output
deterministic.

A compiled figure's IR holds each node once: expansion keeps the first node
drawn at each anchor and text, so a dump, a layout and every printer
but the token stream see each corner once.  The token stream prints
every placed node, and reads those from the compiled figure.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Tuple, Union

from .geometry import Point, ScaleConfig


class LabelSide(str, Enum):
    ABOVE = "above"      # left of the direction of travel
    BELOW = "below"      # right of the direction of travel
    ON_LINE = "online"   # knocked out of the arrow line
    NONE = "none"

    __str__ = str.__str__  # with the str base: hashes, compares and prints as its spelling


# Arrow emission kinds, used by the token-stream backend.
KIND_POS = "pos"         # positioned arrow between two drawn node texts
KIND_VECTOR = "vector"   # bare arrow, no node texts
KIND_TO = "to"           # single inline arrow with ^/_ label pair
KIND_TWO = "two"         # parallel inline pair
KIND_THREE = "three"     # parallel inline triple
KIND_TWOAR = "twoar"     # double-shafted 2-cell arrow


class Node(NamedTuple):
    anchor: Point
    text: str
    seq: int
    align: str = ""          # placement alignment: '', 'l', 'r', 'u', 'd'
    standalone: bool = False  # placed on its own, not via an arrow's ends


class Arrow(NamedTuple):
    start: Point
    end: Point
    style: str               # raw style token, verbatim
    label: str
    side: LabelSide
    seq: int
    kind: str = KIND_POS
    start_text: str = ""     # node text drawn at each end (pos arrows)
    end_text: str = ""
    label2: str = ""         # inline 'to': the '_' label (drawn below)
    offset_pt: Union[int, Fraction] = 0    # parallel offset, printer's points
    local_scale: Union[int, Fraction] = 1  # extra render scale (2-cell arrows)
    group: int = -1          # inline arrows sharing one emission group

    @property
    def displacement(self) -> Tuple[int, int]:
        return (self.end.x - self.start.x, self.end.y - self.start.y)


class DiagramIR(NamedTuple):
    nodes: Tuple[Node, ...]
    arrows: Tuple[Arrow, ...]
    scale: ScaleConfig = ScaleConfig()

