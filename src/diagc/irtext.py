"""Canonical structured-text dump of a DiagramIR, and its strict reader.

A dump is the header line, then one line per record in the order of
``_RECORDS``: the five scale lines, a ``node`` line per node and an
``arrow`` line per arrow (each by seq), then ``end``; every line ends in
``\\n``.  ``_RECORDS`` states the format once: each row is a record's
keyword and its fields, and each field gives its key, its kind and the
attribute it reads.  ``emit_ir`` writes a record through one %-template
made from its row; ``parse_ir`` reads a line field by field against the
same row and accepts only what ``emit_ir`` writes: every field once, in
order, one space apart, each the canonical spelling of a valid value.
A braced text field (balanced by construction) ends where
``lexer.group_end`` says, so the brace of ``\\{`` or ``\\}`` never
counts.  emit -> parse -> emit is a fixpoint.
"""
from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from .geometry import Point, ScaleConfig
from .ir import (KIND_POS, KIND_THREE, KIND_TO, KIND_TWO, KIND_TWOAR, KIND_VECTOR,
                 Arrow, DiagramIR, LabelSide, Node)
from .lexer import group_end

_HEADER, _END = "diagc-ir 1", "end"


class IRSyntaxError(ValueError):
    pass


class _Kind(NamedTuple):
    spec: str                               # the value's %-conversion in the template
    read: Optional[Callable[[str], Any]]    # spelling -> value; None for braced text
    spell: Optional[Dict[Any, str]] = None  # value -> spelling, where the two differ


def _canonical(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    """A reader that takes only the spelling ``str`` gives the value."""
    def read(token: str) -> Any:
        value = parse(token)
        if str(value) != token:  # int() also takes "+1", " 1", "0_1", other digits
            raise ValueError
        return value
    return read


def _unsigned(read: Callable[[str], Any], zero: bool) -> _Kind:
    """A number kind that takes no negative value, and zero only if
    ``zero``: in a canonical spelling, which ``read`` demands, a negative
    value starts with '-' and zero is '0'."""
    def checked(token: str) -> Any:
        if token[:1] == "-" or token == "0" and not zero:
            raise ValueError
        return read(token)
    return _Kind("%s", checked)


def _word(spellings: Dict[str, Any]) -> _Kind:
    same = all(word == value for word, value in spellings.items())
    return _Kind("%s", spellings.__getitem__, None if same else
                 {value: word for word, value in spellings.items()})


_INT = _Kind("%s", _canonical(int))
_FLAG = _Kind("%d", {"0": False, "1": True}.__getitem__)
_FRACTION = _Kind("%s", _canonical(lambda t: Fraction(*map(int, t.split("/", 1)))))
_NATURAL = _unsigned(_INT.read, zero=True)
_NONNEGATIVE = _unsigned(_FRACTION.read, zero=True)
_POSITIVE = _unsigned(_FRACTION.read, zero=False)
_TEXT = _Kind("{%s}", None)
_ALIGN = _word({"-": "", "l": "l", "r": "r", "u": "u", "d": "d"})
_ARROW_KIND = _word({k: k for k in (KIND_POS, KIND_VECTOR, KIND_TO, KIND_TWO, KIND_THREE,
                                    KIND_TWOAR)})
_SIDE = _word({side.value: side for side in LabelSide})


class _Record:
    """One row of the table.  A field with no key is spelled right after
    the keyword; a dotted attribute is a coordinate of a Point."""

    def __init__(self, keyword: str, *fields: Tuple[str, _Kind, str]) -> None:
        self.keyword = keyword
        keys, kinds, self.attrs = zip(*fields)
        prefixes = [f" {key}=" if key else " " for key in keys]
        prefixes[0] = keyword + prefixes[0]
        self.template = "".join(p + kind.spec for p, kind in zip(prefixes, kinds)) + "\n"
        self.get = attrgetter(*self.attrs)
        self.spelled = tuple((i, kind.spell) for i, kind in enumerate(kinds) if kind.spell)
        self.steps = tuple(zip(prefixes, (kind.read for kind in kinds)))
        points = dict.fromkeys(a.partition(".")[0] for a in self.attrs if "." in a)
        self.points = tuple((p, p + ".x", p + ".y") for p in points)

    def write(self, obj: Any) -> str:
        values = self.get(obj)
        for i, spell in self.spelled:
            values = values[:i] + (spell[values[i]],) + values[i + 1:]
        return self.template % values

    def read(self, line: str) -> Dict[str, Any]:
        """attribute -> value of a line ``write`` could have written;
        IRSyntaxError naming the line for any other."""
        values = []
        pos = 0
        for prefix, read in self.steps:
            if not line.startswith(prefix, pos):
                raise IRSyntaxError(f"expected {prefix.strip()!r} in {line!r}")
            pos += len(prefix)
            if read is None:
                end = group_end(line, pos)
                if end < 0:
                    raise IRSyntaxError(f"unbalanced braces in {line!r}")
                values.append(line[pos + 1:end - 1])
            else:
                end = line.find(" ", pos)
                if end < 0:
                    end = len(line)
                try:
                    values.append(read(line[pos:end]))
                except (ValueError, KeyError, ZeroDivisionError):
                    raise IRSyntaxError(f"bad value {line[pos:end]!r} in {line!r}") from None
            pos = end
        if pos != len(line):
            raise IRSyntaxError(f"trailing text in {line!r}")
        fields = dict(zip(self.attrs, values))
        for name, x, y in self.points:
            fields[name] = Point(fields.pop(x), fields.pop(y))
        return fields


_RECORDS = (
    _Record("scale", ("", _FRACTION, "scale")),
    _Record("em", ("", _FRACTION, "em_size")),
    _Record("ex-ratio", ("", _NONNEGATIVE, "ex_ratio")),
    _Record("label-scale", ("", _FRACTION, "label_scale")),
    _Record("object-margin", ("", _NATURAL, "object_margin")),
    _Record("node", ("seq", _INT, "seq"), ("x", _INT, "anchor.x"), ("y", _INT, "anchor.y"),
            ("align", _ALIGN, "align"), ("standalone", _FLAG, "standalone"),
            ("text", _TEXT, "text")),
    _Record("arrow", ("seq", _INT, "seq"), ("kind", _ARROW_KIND, "kind"),
            ("x1", _INT, "start.x"), ("y1", _INT, "start.y"),
            ("x2", _INT, "end.x"), ("y2", _INT, "end.y"),
            ("style", _TEXT, "style"), ("label", _TEXT, "label"), ("side", _SIDE, "side"),
            ("label2", _TEXT, "label2"), ("start", _TEXT, "start_text"),
            ("end", _TEXT, "end_text"), ("offset", _FRACTION, "offset_pt"),
            ("lscale", _POSITIVE, "local_scale"), ("group", _INT, "group")),
)
*_SCALES, _NODE, _ARROW = _RECORDS
# no scale line has a word to spell, so the five are written as one
_HEAD = "".join([_HEADER, "\n", *(row.template for row in _SCALES)])
_SCALE_VALUES = attrgetter(*(a for row in _SCALES for a in row.attrs))
_SEQ = attrgetter("seq")


def emit_ir(d: DiagramIR) -> str:
    return "".join([
        _HEAD % _SCALE_VALUES(d.scale),
        *map(_NODE.write, sorted(d.nodes, key=_SEQ)),
        *map(_ARROW.write, sorted(d.arrows, key=_SEQ)),
        _END + "\n",
    ])


def parse_ir(text: str) -> DiagramIR:
    """Read a dump back; a line ``emit_ir`` would not write raises
    IRSyntaxError naming it."""
    # only "\n" ends a line: emit_ir writes text fields verbatim, and they
    # may hold other line separators ("\x0c", "\x85", "\u2028")
    lines = text.split("\n")
    if lines[0] != _HEADER:
        raise IRSyntaxError("missing IR header")
    if lines[-2:] != [_END, ""]:
        raise IRSyntaxError(f"missing end marker: the last line must be {_END!r}")
    head, body = len(_SCALES), lines[1:-2]
    if len(body) < head:
        raise IRSyntaxError(f"missing {_SCALES[len(body)].keyword!r} line")
    scale: Dict[str, Any] = {}
    for row, line in zip(_SCALES, body):
        scale.update(row.read(line))
    try:
        cfg = ScaleConfig(**scale)
    except ValueError as exc:
        raise IRSyntaxError(f"{exc} in the scale lines") from None
    split = head
    while split < len(body) and body[split].startswith(_NODE.keyword + " "):
        split += 1
    return DiagramIR(tuple(Node(**_NODE.read(line)) for line in body[head:split]),
                     tuple(Arrow(**_ARROW.read(line)) for line in body[split:]), cfg)
