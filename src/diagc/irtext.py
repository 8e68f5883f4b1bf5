"""Canonical structured-text dump of a DiagramIR, and its strict reader.

A dump is the header line, the two scale lines of ``_RECORDS``, then a
``node`` line per node and an ``arrow`` line per arrow (each by seq),
then ``end``; every line ends in ``\\n``.  The ex ratio, label scale and
object margin are constants of the language, not lines of the dump; a
dump whose header names another version is refused at its first line.
``_RECORDS`` states the format once: each row is a record's keyword and
its fields, and each field gives its key, its kind and the attribute it
reads.  A kind gives the %-conversion that
writes a value, a pattern of the value's canonical spellings and the
function that reads such a spelling.

Both sides work a record kind at a time, all node lines and then all
arrow lines, in C-level passes with no Python code per line or field.
``emit_ir`` maps the %-template made from a row over the records'
attributes; the one word spelled apart from its value (a node's empty
``align`` as ``-``) is looked up over its column.  ``parse_ir`` matches
each line of a block against a whole-line pattern compiled from the
same row on its first call, transposes the matches' groups into
columns and maps each column through its kind's reader; a ratio read
twice in a block is one dict hit.  It accepts only what ``emit_ir``
writes: each block in seq order, every field once, in order, one space
apart, each the canonical spelling of a valid value.  In that pattern a
braced text field holds groups at most one level deep (``W_{0,0}``,
``@{>}``) and ends at the first ``}`` outside them that no backslash
escapes.  A line it refuses is split at the spaces outside braces
(``lexer.split_top``): each text field must be one group
(``lexer.group_end``), and the line with every text emptied to ``{}``
must pass the same pattern.  Either way the brace
of ``\\{`` or ``\\}`` never counts, and the accepted lines are the same.
A block with a line at fault is read again a line at a time, so the
IRSyntaxError names the first such line; a block whose seqs go down
names the first line below the one before it.  Nodes and arrows are
named tuples, built from the columns by position.  A ratio spelled
without ``/`` reads as an int, the type the compiler gives a whole
offset or local scale, so a record read back equals the one written,
field types included, and emit -> parse -> emit is a fixpoint.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from itertools import repeat, takewhile
from math import gcd
from operator import attrgetter, itemgetter, methodcaller
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

from .geometry import Memo, Point, ScaleConfig, _new
from .ir import (KIND_POS, KIND_THREE, KIND_TO, KIND_TWO, KIND_TWOAR, KIND_VECTOR,
                 Arrow, DiagramIR, LabelSide, Node)
from .lexer import GROUP_INSIDE, group_end, split_top

_HEADER, _END = "diagc-ir 2", "end"


class IRSyntaxError(ValueError):
    pass


class _Kind(NamedTuple):
    spec: str                               # the value's %-conversion in the template
    pattern: Optional[str]                  # its canonical spellings; None for braced text
    read: Callable[[str], Any] = str        # canonical spelling -> value
    spell: Optional[Dict[Any, str]] = None  # value -> spelling, where the two differ


def _ratio(spelling: str) -> Union[int, Fraction]:
    """The value of ``n`` or ``n/d``, which is canonical only in lowest
    terms with d > 1."""
    if "/" not in spelling:
        return int(spelling)
    num, den = map(int, spelling.split("/"))
    if den == 1 or gcd(num, den) != 1:
        raise ValueError(spelling)
    return Fraction(num, den)


def _word(spellings: Dict[str, Any]) -> _Kind:
    same = all(word == value for word, value in spellings.items())
    return _Kind("%s", "|".join(map(re.escape, spellings)), spellings.__getitem__,
                 None if same else {value: word for word, value in spellings.items()})


_DIGITS = "[1-9][0-9]*"  # a positive integer: ASCII, no sign, no leading 0, no _
_INT = _Kind("%s", f"0|-?{_DIGITS}", int)
_FRACTION = _Kind("%s", f"(?:0|-?{_DIGITS})(?:/{_DIGITS})?", _ratio)
_POSITIVE = _Kind("%s", f"{_DIGITS}(?:/{_DIGITS})?", _ratio)
_FLAG = _Kind("%d", "[01]", {"0": False, "1": True}.__getitem__)
_TEXT = _Kind("{%s}", None)
_FLAT = r"\{(" + GROUP_INSIDE + r")\}"  # a text field whose groups nest at most one level
_ALIGN = _word({"-": "", "l": "l", "r": "r", "u": "u", "d": "d"})
_ARROW_KIND = _word({k: k for k in (KIND_POS, KIND_VECTOR, KIND_TO, KIND_TWO, KIND_THREE,
                                    KIND_TWOAR)})
_SIDE = _word({side.value: side for side in LabelSide})


class _Record:
    """One row of the table: a record's keyword, the named tuple it reads
    into (None for a scale line, which reads to its one value) and its
    fields.  A field with no key is spelled right after the keyword; a
    dotted attribute is a coordinate of a Point."""

    def __init__(self, keyword: str, cls: Optional[type],
                 *fields: Tuple[str, _Kind, str]) -> None:
        self.keyword, self.cls = keyword, cls
        keys, self.kinds, self.attrs = zip(*fields)
        prefixes = [f" {key}=" if key else " " for key in keys]
        prefixes[0] = keyword + prefixes[0]
        self.prefixes = tuple(prefixes)
        self.template = "".join(p + kind.spec for p, kind in zip(prefixes, self.kinds)) + "\n"
        self.get = attrgetter(*self.attrs)
        self.spelled = tuple((i, kind.spell) for i, kind in enumerate(self.kinds) if kind.spell)
        self.reads = [kind.read for kind in self.kinds]
        self.ratios = tuple(i for i, read in enumerate(self.reads) if read is _ratio)
        self.texts = tuple(i for i, kind in enumerate(self.kinds) if kind.pattern is None)
        # each point's x, last first, so that merging its column with its
        # y's keeps the indices of the columns before it
        self.points = tuple(i for i, a in reversed(tuple(enumerate(self.attrs)))
                            if a.endswith(".x"))
        if cls is not None:
            names = list(dict.fromkeys(a.partition(".")[0] for a in self.attrs))
            self.order = itemgetter(*map(names.index, cls._fields))
            self.seq = self.attrs.index("seq")

    def lines(self, records: Sequence[Any]) -> Iterable[str]:
        """The lines of the records, in their order: the template over
        each record's attributes, a spelled word looked up per column."""
        rows = map(self.get, records)
        if self.spelled and records:
            columns = list(zip(*rows))
            for i, spell in self.spelled:
                columns[i] = map(spell.__getitem__, columns[i])
            rows = zip(*columns)
        return map(self.template.__mod__, rows)

    @cached_property
    def whole(self) -> re.Pattern:
        """The reader of a line whose text fields are all ``_FLAT``, at
        most one group deep: one pattern, compiled on first use."""
        return re.compile("".join(
            re.escape(prefix) + (_FLAT if kind.pattern is None else f"({kind.pattern})")
            for prefix, kind in zip(self.prefixes, self.kinds)) + r"\Z", re.DOTALL)

    def read(self, lines: List[str]) -> Tuple[Any, ...]:
        """The records of a block of lines that ``lines`` could have
        written, or a scale line's values; IRSyntaxError naming the first
        other line, or else the first record whose seq is below the one
        before it."""
        if not lines:
            return ()
        try:
            matches = list(map(self.whole.match, lines))
            if None in matches:
                rows = [match.groups() if match else self._fallback(line)
                        for match, line in zip(matches, lines)]
            else:
                rows = map(re.Match.groups, matches)
            reads = self.reads[:]
            if len(lines) > 1:  # a spelling read twice is one dict hit
                ratio = Memo(_ratio).__getitem__
                for i in self.ratios:
                    reads[i] = ratio
            columns = list(map(list, map(map, reads, zip(*rows))))
        except ValueError as error:  # IRSyntaxError, or a value such as 2/4
            if len(lines) > 1:
                for line in lines:
                    self.read([line])  # raises for the first line at fault
            if isinstance(error, IRSyntaxError):
                raise
            raise IRSyntaxError(f"bad value in {lines[0]!r}") from None
        if self.cls is None:
            return tuple(columns[0])
        seqs = columns[self.seq]
        if seqs != sorted(seqs):  # emit_ir writes each block by seq, ties in input order
            i = next(i for i in range(1, len(seqs)) if seqs[i] < seqs[i - 1])
            raise IRSyntaxError(f"{self.keyword!r} line out of seq order: {lines[i]!r}")
        for i in self.points:
            columns[i:i + 2] = [map(_new, repeat(Point), zip(*columns[i:i + 2]))]
        return tuple(map(_new, repeat(self.cls), zip(*self.order(columns))))

    def parse(self, line: str) -> Any:
        """The record of one line, or a scale line's value."""
        return self.read([line])[0]

    def _fallback(self, line: str) -> List[str]:
        """The spellings of a line that ``whole`` refuses: split at spaces
        outside braces, each text field one group (``group_end``), and the
        line with its texts emptied to ``{}`` read by ``whole``."""
        fields = split_top(line, " ")
        texts = {}
        if len(fields) == len(self.kinds) + 1:  # the keyword, then each field
            for i in self.texts:
                field, start = fields[i + 1], len(self.prefixes[i]) - 1
                if group_end(field, start) == len(field):
                    texts[i], fields[i + 1] = field[start + 1:-1], field[:start] + "{}"
        match = self.whole.match(" ".join(fields))
        if match is None or len(texts) < len(self.texts):
            raise IRSyntaxError(f"malformed {self.keyword!r} line {line!r}")
        return [texts.get(i, spelling) for i, spelling in enumerate(match.groups())]


_RECORDS = (
    _Record("scale", None, ("", _POSITIVE, "scale")),
    _Record("em", None, ("", _POSITIVE, "em_size")),
    _Record("node", Node, ("seq", _INT, "seq"), ("x", _INT, "anchor.x"),
            ("y", _INT, "anchor.y"), ("align", _ALIGN, "align"),
            ("standalone", _FLAG, "standalone"), ("text", _TEXT, "text")),
    _Record("arrow", Arrow, ("seq", _INT, "seq"), ("kind", _ARROW_KIND, "kind"),
            ("x1", _INT, "start.x"), ("y1", _INT, "start.y"),
            ("x2", _INT, "end.x"), ("y2", _INT, "end.y"),
            ("style", _TEXT, "style"), ("label", _TEXT, "label"), ("side", _SIDE, "side"),
            ("label2", _TEXT, "label2"), ("start", _TEXT, "start_text"),
            ("end", _TEXT, "end_text"), ("offset", _FRACTION, "offset_pt"),
            ("lscale", _POSITIVE, "local_scale"), ("group", _INT, "group")),
)
*_SCALES, _NODE, _ARROW = _RECORDS
# no scale line has a word to spell, so they are written as one, from
# the ScaleConfig, whose fields are the scale lines' values in order
_HEAD = "".join([_HEADER, "\n", *(row.template for row in _SCALES)])
_SEQ = attrgetter("seq")
_IS_NODE = methodcaller("startswith", _NODE.keyword + " ")


def emit_ir(d: DiagramIR) -> str:
    return "".join([
        _HEAD % d.scale,
        *_NODE.lines(sorted(d.nodes, key=_SEQ)),
        # an arrow spells each word as its value: its lines need no column pass
        *map(_ARROW.template.__mod__, map(_ARROW.get, sorted(d.arrows, key=_SEQ))),
        _END + "\n",
    ])


def parse_ir(text: str) -> DiagramIR:
    """Read a dump back; a line ``emit_ir`` would not write raises
    IRSyntaxError naming it."""
    # only "\n" ends a line: emit_ir writes text fields verbatim, and they
    # may hold other line separators ("\x0c", "\x85", "\u2028")
    lines = text.split("\n")
    if lines[0] != _HEADER:
        raise IRSyntaxError(f"missing IR header: the first line must be {_HEADER!r}")
    if lines[-2:] != [_END, ""]:
        raise IRSyntaxError(f"missing end marker: the last line must be {_END!r}")
    head, body = len(_SCALES), lines[1:-2]
    if len(body) < head:
        raise IRSyntaxError(f"missing {_SCALES[len(body)].keyword!r} line")
    # the scale lines are in ScaleConfig's field order
    cfg = _new(ScaleConfig, map(_Record.parse, _SCALES, body))
    records = body[head:]
    nodes = list(takewhile(_IS_NODE, records))
    return _new(DiagramIR, (_NODE.read(nodes), _ARROW.read(records[len(nodes):]), cfg))
