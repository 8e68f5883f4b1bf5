"""Recursive-descent parser for the diagram command language.

Commands are a fixed grammar, not programmable TeX: each command takes a
chain of optional sections, detected by their opening character after
whitespace, with per-command defaults.  ``COMMANDS``, the table at the
end of this module, gives each command's chain as one row: its sections
in order, each with its opener, the field it fills, its arity and its
default.  One loop reads every command from its row, and
``format_command`` writes every section back from the same row.  The
section groups that follow the payload of ``\\cube`` (its inner square
and its connectors) and of ``\\pullback`` (its trident) are chains of
their own, each read into a ``Command`` of the group's kind in ``parts``.

A command is read in one match where it can be.  One shared pattern
takes the common spelling of every section in table order: no whitespace
between sections, and fields that ``tidy`` leaves as they are, with
braces at most two deep.  Each section's rules live in one ``fill``,
which both readers call: the match hands it the section's groups and
``cut``, which splits and strips fields in C, and the section reader
hands it the section's text and the token scan.  Where the pattern does
not take a section's spelling, takes a section the command lacks, or
stops where the section reader would read on, or where a ``fill``
refuses, the section reader reads the command again from its start, so
every diagnostic comes from the section reader.  A chain's parts are
read after the match by their own chains, each again by a match first.
A command ends after its last section, by either path.

A command's name is one match too, of whitespace, comments and a word of
ASCII letters; the reader reads any other name, or makes the error.  A
figure keeps each command's offset, and its ``positions`` make a line
and column only when a diagnostic reads one.  One rule, ``_where``,
turns an offset into a line and column, from a table of the source's
line breaks: for those positions, for a figure's own line and column,
and for every parse error.

``%`` comments to end of line (and suppresses the newline, TeX-style);
other whitespace runs collapse to a single space inside sections.  One
outer brace level protects and is stripped from every field.  Figures
are wrapped in ``\\bfig``/``\\efig``; commands outside any figure form
one implicit figure.

The two-height section of ``\\vSquares`` is ``<bottom,top>``, in that
order, as the arithmetic dictates.

Every parse uses the section pattern, the command head, ``cut``'s
pattern and the line breaks' pattern, so they are compiled as the
module loads.  Only the pattern of ``arity`` integers, ``_integers``,
is compiled on first use, as a figure may have no coordinates.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache, partial
from operator import itemgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Pattern, Tuple, Union

from .diagnostics import Diagnostic, ParseError
from .geometry import INTEGER, MAX_DIGITS, Point, _new, read_positive
from .lexer import (BLANK, GROUP_INSIDE, LINE_END, kept_field, lone_backslash, section_end,
                    split_top, strip_group, tidy, token_at)


class Command(NamedTuple):
    """One parsed command, all absent sections filled with defaults.  Its
    line and column are in its Figure's ``positions``, not in its value."""

    kind: str
    origin: Point = Point(0, 0)
    placements: str = ""
    styles: Tuple[str, ...] = ()
    extent: Tuple[int, ...] = ()
    nodes: Tuple[str, ...] = ()
    labels: Tuple[str, ...] = ()
    align: str = ""                      # place alignment code
    mask: int = 0                        # grid boundary-stub bitmask
    stub: Tuple[int, ...] = ()           # grid stub extent
    length: int = 0                      # inline arrows; 0 means auto
    direction: Tuple[int, int] = (0, 0)  # 2-cell arrow direction
    factor: Union[int, Fraction] = 1     # scalefactor multiplier, an int when whole
    parts: Tuple[Command, ...] = ()      # section groups after the payload, in order


class Figure(NamedTuple):
    """One diagram's worth of commands, and the line and column of each."""

    commands: List[Command]
    positions: Sequence[Tuple[int, int]]  # a Positions, or any list of pairs
    line: int = 0  # of the figure's \bfig, or of its first command
    col: int = 0


class Positions(Sequence):
    """The line and column of each of a figure's command offsets, made when
    an item is read: a read-only sequence, equal to the list of its pairs."""

    __slots__ = ("_text", "_offsets")

    def __init__(self, text: str, offsets: List[int]) -> None:
        self._text, self._offsets = text, offsets

    def __getitem__(self, k: int) -> Tuple[int, int]:  # type: ignore[override]
        return _where(self._text, self._offsets[k])

    def __len__(self) -> int:
        return len(self._offsets)

    def __eq__(self, other: object) -> bool:
        return list(self) == (list(other) if isinstance(other, Positions) else other)

    def __repr__(self) -> str:
        return repr(list(self))


@lru_cache(maxsize=1)
def _line_breaks(text: str) -> Tuple[List[int], bool]:
    """Where each line break of ``text`` ends, and whether it has a CR LF;
    made once per source, at the first line and column asked of it."""
    return list(map(re.Match.end, _LINE_BREAK.finditer(text))), "\r\n" in text


def _where(text: str, pos: int) -> Tuple[int, int]:
    """Line and column of offset ``pos`` in ``text``, both from 1.

    CR LF, a lone CR and LF each end a line.  A CR LF ends it at the CR,
    and its LF takes no column, so a token that begins at the LF (after a
    ``\\<CR>``) is at the start of the next line.
    """
    breaks, crlf = _line_breaks(text)
    k = bisect_right(breaks, pos)  # the line breaks that end at or before pos
    if crlf and pos and text[pos - 1:pos + 1] == "\r\n":
        return k + 2, 1
    return (k + 1, pos - breaks[k - 1] + 1) if k else (1, pos + 1)


class _Reader:
    """Reader over source text at a position, ``pos``, where a token
    begins.

    It holds the text and its position, never a token: a section opens on
    ``char()``, the one character at ``pos`` (every opener is a token of
    one character), a section is one scan to its stop, and ``token()``
    reads the one token of a command name or a one-token argument.
    ``error`` places its diagnostic by ``_where``.
    """

    def __init__(self, text: str, filename: str = "<input>") -> None:
        self.text = text
        self.filename = filename
        self.pos = 0

    def char(self) -> str:
        """The character at ``pos``, ``""`` at the end."""
        return self.text[self.pos:self.pos + 1]

    def name(self) -> str:
        """Skip whitespace and comments, then read and step past the
        control sequence there, the name of a command; ``""`` at the
        end."""
        self.skip_ws()
        c = self.char()
        if c and c != "\\":
            raise self.error(f"unexpected character {c!r}")
        return c and self.token()

    def token(self) -> str:
        """Read and step past the token at ``pos``."""
        tok = token_at(self.text, self.pos)
        self.pos += len(tok)
        if tok == "\\":  # a backslash alone is the last token
            raise self.error("lone backslash at end of input")
        return tok

    def error(self, message: str, at: Optional[int] = None) -> ParseError:
        """A ParseError at offset ``at``, by default at the current token."""
        where = _where(self.text, self.pos if at is None else at)
        return ParseError(Diagnostic("error", message, self.filename, *where))

    def skip_ws(self) -> None:
        """Skip whitespace and comments; a comment takes its newline along."""
        self.pos = BLANK.match(self.text, self.pos).end()

    def at(self, opener: Union[str, Tuple[str, ...]]) -> bool:
        """Whether ``opener``, or one of several, comes next after
        whitespace and comments; if so, ``pos`` moves to it, else it
        stays."""
        pos = BLANK.match(self.text, self.pos).end()
        if self.text.startswith(opener, pos):
            self.pos = pos
            return True
        return False

    def delimited(self, opener: str, closer: str, what: str,
                  eof: str = "unexpected end of input inside section") -> str:
        """Content of a section from ``opener``, the current character, to
        ``closer``, which it consumes; the caller skips whitespace first.

        Comments vanish (with their newline); other whitespace runs
        become one space; braces nest; control sequences stay whole, so
        an escaped delimiter never closes the section.  An input that
        ends inside it is an error at its end that names the opener.
        """
        if self.char() != opener:
            raise self.error(f"expected {opener!r} to open {what}")
        text, start = self.text, self.pos + 1
        end = section_end(text, start, closer)
        self.pos = end
        if end == len(text):
            if lone_backslash(text, start):
                raise self.error("lone backslash at end of input")
            raise self.error("%s (opened at %d:%d)" % (eof, *_where(text, start - 1)))
        if text[end] != closer:
            raise self.error("unbalanced '}'")
        self.pos = end + 1
        return tidy(text[start:end])

    def single_token(self) -> str:
        """One token or brace group (a mask, a scale factor, a script)."""
        self.skip_ws()
        c = self.char()
        if not c:
            raise self.error("unexpected end of input")
        if c == "{":
            return self.delimited("{", "}", "a group", "unbalanced '{'")
        if c == "}":
            raise self.error("unbalanced '}'")
        return tidy(self.token())  # a backslash and a line break is a control space


def _fields(raw: str) -> Tuple[str, ...]:
    return tuple([strip_group(p) for p in split_top(raw, "`")])


def _command(r: _Reader, name: str, at: int) -> Command:
    """The command ``name``, a control sequence already read, at offset
    ``at``: its sections read by its row of ``COMMANDS``."""
    kind = name[1:]
    chain = COMMANDS.get(kind)
    if chain is None:
        raise r.error(f"unknown command {name}", at)
    return chain.read(r, kind)


def parse_source(text: str, filename: str = "<input>") -> List[Figure]:
    """Parse a whole source file into figures."""
    r = _Reader(text, filename)
    head = _COMMAND_HEAD.match
    figures: List[Figure] = []
    # a figure's commands, their offsets and its own offset: those outside
    # any figure, from the first of them, and those of the open one
    top: Optional[Tuple[List[Command], List[int], int]] = None
    current: Optional[Tuple[List[Command], List[int], int]] = None
    while True:
        m = head(text, r.pos)
        if m is not None:
            name = m[2]
            at, r.pos = m.span(2)  # the name ends the match
        elif BLANK.match(text, r.pos).end() == len(text):
            break
        else:  # a name or an error that the reader makes
            name = r.name()
            at = r.pos - len(name)
        if name == "\\bfig":
            if current is not None:
                raise r.error("nested \\bfig", at)
            current = [], [], at
        elif name == "\\efig":
            if current is None:
                raise r.error("\\efig without \\bfig", at)
            commands, offsets, start = current
            figures.append(_new(Figure, (commands, Positions(text, offsets),
                                        *_where(text, start))))
            current = None
        else:
            group = current or top
            if group is None:
                group = top = [], [], at
            group[0].append(_command(r, name, at))
            group[1].append(at)
    if current is not None:
        raise r.error("\\bfig without matching \\efig", current[2])
    if top is not None:
        commands, offsets, start = top
        figures.append(_new(Figure, (commands, Positions(text, offsets), *_where(text, start))))
    return figures


def parse_command(text: str, filename: str = "<input>") -> Command:
    """Parse exactly one command (convenience for tests and tools)."""
    r = _Reader(text, filename)
    r.skip_ws()
    at = r.pos
    if r.char() != "\\":
        raise r.error("expected '\\' to start a command")
    cmd = _command(r, r.token(), at)
    r.skip_ws()
    if r.char():
        raise r.error("trailing text after command")
    return cmd


# -- the command table ----------------------------------------------------

REQUIRED = object()  # the default of a section that must be present

# An integer in source text is spelled as INTEGER reads it, with at most
# MAX_DIGITS digits; a scale factor is read by geometry.read_positive.

_SLOTS = {field: k for k, field in enumerate(Command._fields)}  # a field's index
_NODES, _LABELS, _STUB = _SLOTS["nodes"], _SLOTS["labels"], _SLOTS["stub"]
_GROUPS = 15  # in the shared section pattern
_SCRIPT_GROUPS = {"^": 10, "|": 12, "_": 14}
# what a section opens with; a command whose last section may be absent
# is read by the match only where none of these comes after it
_OPENERS = ("[", "(", "|", "/", "<", "{", "^", "_")


# The common spelling of the sections of every chain before its parts, in
# table order, each optional.  Its groups: 1 an alignment, 2 coordinates,
# 3 placements, 4 styles, 5 an extent or a length, 6 a mask or scale factor
# in braces, 7 a stub, 8-9 the halves of a payload and, where no payload
# is, 10-15 the ``^``, ``|`` and ``_`` scripts, each the inside of a group
# or one character.  Sections follow each other with nothing between
# them, and each field is text that ``tidy`` leaves as it is.
_NUMBERS = "([0-9+,-]*)"
_TOKEN = r"[^{}\\% \t\r\n]"
_HALF = "(" + kept_field(";]") + ")"
_SCRIPT = r"(?:\{(" + kept_field("", 1) + r")\}|(" + _TOKEN + "))"
_SECTIONS = re.compile(
    r"(?:\[([lrud])\])?(?:\(" + _NUMBERS + r"\))?"
    r"(?:\|([^|{}\\% \t\r\n]*)\|)?(?:/(" + kept_field("/") + ")/)?"
    "(?:<" + _NUMBERS + r">)?(?:\{(" + _TOKEN + r"*)\}(?:<" + _NUMBERS + ">)?)?"
    r"(?:\[" + _HALF + "(?:;" + _HALF + r")?\]"
    r"|(?:\^" + _SCRIPT + r")?(?:\|" + _SCRIPT + ")?(?:_" + _SCRIPT + ")?)")

# A backtick and the field after it: the inside of a field that is one
# group, else the whole field.
_CUTTER = re.compile(r"`(?:\{(" + GROUP_INSIDE + r")\}(?=`|\Z)|((?:[^`{}\\]|\\.|\{"
                     + GROUP_INSIDE + r"\})*))", re.DOTALL)

# Whitespace and comments, then, as group 2, a control word of ASCII
# letters that no other letter follows: the common command name.  The
# lookahead and group 1 make ``BLANK`` atomic, so that the name is never
# found inside a comment.
_COMMAND_HEAD = re.compile("(?=(" + BLANK.pattern + r"))\1(\\[A-Za-z]+(?![^\W\d_]))")
_LINE_BREAK = re.compile(LINE_END)


def cut(text: str) -> Tuple[str, ...]:
    """``text`` split at top-level backticks, each field stripped of one
    outer group: ``strip_group`` over ``split_top(text, "`")`` in one
    ``re`` call, for text that ``kept_field("")`` matches whole, which
    is comment-free and nests braces at most two deep."""
    return tuple(map("".join, _CUTTER.findall("`" + text)))


@lru_cache(maxsize=None)
def _integers(arity: int) -> Pattern[str]:
    """``arity`` integers of at most MAX_DIGITS digits, between commas,
    compiled on first use: a figure may have no coordinates."""
    return re.compile(",".join([r"\s*[+-]?[0-9]{1,%d}\s*" % MAX_DIGITS] * arity))


class _Section:
    """One link of a command's section chain.

    ``fill(raw, split, into)`` holds every rule of the section, written
    once: it checks ``raw``, the section's text, and puts its values into
    ``into``, a list of field values in Command order, splitting fields
    with ``split``; a ValueError says what is wrong.  Both readers call
    it.  ``read(r, into)``, the section reader, cuts the text from
    ``opener`` to ``closer``, or one token or group where there is no
    closer, and fills with ``_fields``.  ``_Chain.take`` cuts the text
    from ``groups`` of a match of ``_SECTIONS``, a tuple of them for
    the payload and the scripts, and fills with ``cut``.
    ``write(obj)`` writes the section back from a Command.

    A section fills the attribute ``field``, at index ``slot``, with
    ``arity`` values, and ``default`` is what it leaves there when
    absent; ``fields`` names every attribute it fills.  A section with a
    default is read only when its opener comes next, or always where the
    opener is ``""``, as for the mask, which decides itself whether it
    is there.  A ``REQUIRED`` one is always read and must be present.
    """

    opener = closer = what = ""
    groups: Tuple[int, ...] = ()

    def __init__(self, field: str, arity: int = 1, default: Any = REQUIRED) -> None:
        self.field, self.arity, self.default = field, arity, default
        self.fields = (field,)
        self.slot = _SLOTS[field]
        self.optional = default is not REQUIRED

    def read(self, r: _Reader, into: List[Any]) -> None:
        raw = r.delimited(self.opener, self.closer, self.what) if self.closer else r.single_token()
        try:
            self.fill(raw, _fields, into)
        except ValueError as exc:
            raise r.error(str(exc)) from None


class _Ints(_Section):
    """``(x,y)`` coordinates or a ``<dx,dy>`` extent, made a value by
    ``make``; ``group`` is its group, by default that of its opener."""

    def __init__(self, field: str, opener: str, arity: int, default: Any = REQUIRED,
                 make: Callable = tuple, group: int = 0) -> None:
        super().__init__(field, arity, default)
        self.opener, self.make = opener, make
        self.closer, self.what = {"(": (")", "coordinates"), "<": (">", "an extent")}[opener]
        self.groups = (group or {"(": 2, "<": 5}[opener],)

    def fill(self, raw: str, split: Callable, into: List[Any]) -> None:
        numbers = raw.split(",")
        if not _integers(self.arity).fullmatch(raw):
            if len(numbers) != self.arity:
                raise ValueError(f"expected {self.arity} integer(s), got {len(numbers)}")
            if not all(map(INTEGER.fullmatch, numbers)):
                raise ValueError(f"malformed integer in {raw.strip()!r}")
            raise ValueError(f"integer of more than {MAX_DIGITS} digits")
        into[self.slot] = self.make(tuple(map(int, numbers)))

    def write(self, obj: Any) -> str:
        value = getattr(obj, self.field)
        values = (value,) if isinstance(value, int) else value
        return self.opener + ",".join(str(v) for v in values) + self.closer


class _Bar(_Section):
    """``|placements|``, one character per arrow, spaces dropped; ``exact=False``
    allows fewer."""

    opener = closer = "|"
    what = "placements"
    groups = (3,)

    def __init__(self, default: str, exact: bool = True) -> None:
        super().__init__("placements", len(default), default)
        self.exact = exact

    def fill(self, raw: str, split: Callable, into: List[Any]) -> None:
        raw = raw.replace(" ", "")
        if self.exact and len(raw) != self.arity:
            raise ValueError(f"expected {self.arity} placement character(s), got {len(raw)}")
        if len(raw) > self.arity:
            raise ValueError(f"expected at most {self.arity} placement character(s)")
        into[self.slot] = raw

    def write(self, obj: Any) -> str:
        return f"|{obj.placements}|"


class _Styles(_Section):
    """``/s1`s2/``, one style token per arrow, each ``>`` when absent."""

    opener = closer = "/"
    what = "styles"
    groups = (4,)

    def __init__(self, arity: int, required: bool = False) -> None:
        super().__init__("styles", arity, REQUIRED if required else (">",) * arity)

    def fill(self, raw: str, split: Callable, into: List[Any]) -> None:
        styles = split(raw)
        if len(styles) != self.arity:
            raise ValueError(f"expected {self.arity} style token(s), got {len(styles)}")
        into[self.slot] = styles

    def write(self, obj: Any) -> str:
        return "/" + "`".join(_wrap(s, "`/") for s in obj.styles) + "/"


class _Payload(_Section):
    """``[nodes;labels]``, always present; a half with count zero is absent
    along with the ``;``."""

    opener, closer, what = "[", "]", "a payload"
    groups = (8, 9)

    def __init__(self, n_nodes: int, n_labels: int) -> None:
        super().__init__("nodes", n_nodes)
        self.n_labels, self.counts = n_labels, (n_nodes, n_labels)
        self.halves = 2 if n_nodes and n_labels else 1
        self.fields = tuple(f for f, n in (("nodes", n_nodes), ("labels", n_labels)) if n)

    def fill(self, raw: Any, split: Callable, into: List[Any]) -> None:
        # the section's text, or the match's two halves, the second None without a ';'
        halves = (split_top(raw, ";") if isinstance(raw, str)
                  else raw[:1] if raw[1] is None else raw)
        if len(halves) != self.halves:
            raise ValueError("unexpected ';' in payload" if self.halves == 1 else
                             "payload needs exactly one top-level ';' between nodes and labels")
        nodes = split(halves[0]) if self.arity else ()
        labels = split(halves[-1]) if self.n_labels else ()
        if (len(nodes), len(labels)) != self.counts:
            if len(nodes) != self.arity:
                raise ValueError(f"expected {self.arity} node field(s), got {len(nodes)}")
            raise ValueError(f"expected {self.n_labels} label field(s), got {len(labels)}")
        into[_NODES], into[_LABELS] = nodes, labels

    def write(self, obj: Any) -> str:
        nodes = obj.nodes if self.arity else ()
        labels = obj.labels if self.n_labels else ()
        ns, ls = ("`".join(_wrap(v, "`;]") for v in half) for half in (nodes, labels))
        if nodes and labels:
            return f"[{ns};{ls}]"
        return f"[{ns}]" if nodes else f"[{ls}]"


class _Align(_Section):
    """``[l|r|u|d]``, the alignment of ``\\place``, before its origin."""

    opener, closer, what = "[", "]", "a payload"
    groups = (1,)

    def fill(self, raw: str, split: Callable, into: List[Any]) -> None:
        raw = raw.replace(" ", "")
        if len(raw) != 1 or raw not in "lrud":
            raise ValueError(f"unsupported alignment {raw!r}; one of l, r, u, d")
        into[self.slot] = raw

    def write(self, obj: Any) -> str:
        value = getattr(obj, self.field)
        return f"[{value}]" if value else ""


class _Mask(_Section):
    """``{mask}`` of a grid: a boundary-stub bitmask below ``limit``, one
    token or group.  Absent exactly when the payload's ``[`` follows; a
    mask sets the stub, the section after it, to ``stub`` until it is
    read."""

    groups = (6,)

    def __init__(self, limit: int, stub: Tuple[int, ...]) -> None:
        super().__init__("mask", 1, 0)
        self.limit, self.stub = limit, stub

    def read(self, r: _Reader, into: List[Any]) -> None:
        if r.char() != "[":
            super().read(r, into)

    def fill(self, raw: str, split: Callable, into: List[Any]) -> None:
        if not INTEGER.fullmatch(raw):
            raise ValueError(f"malformed mask {raw!r}")
        if len(raw.strip().lstrip("+-")) > MAX_DIGITS or not 0 <= int(raw) < self.limit:
            raise ValueError(f"mask must be in 0..{self.limit - 1}")
        into[self.slot], into[_STUB] = int(raw), self.stub

    def write(self, obj: Any) -> str:
        return f"{{{obj.mask}}}"


class _Scripts(_Section):
    """The ``^sup``, ``|mid`` and ``_sub`` labels of an inline arrow, one
    per marker, in that order: each optional, one token or group.  Any
    marker opens the section."""

    def __init__(self, markers: str) -> None:
        super().__init__("labels", len(markers), ("",) * len(markers))
        self.markers, self.opener = markers, tuple(markers)
        self.groups = tuple(g for m in markers for g in (_SCRIPT_GROUPS[m], _SCRIPT_GROUPS[m] + 1))

    def read(self, r: _Reader, into: List[Any]) -> None:
        labels = []
        for marker in self.markers:
            if r.at(marker):
                r.pos += 1
                labels.append(r.single_token())
            else:
                labels.append("")
        into[self.slot] = tuple(labels)

    def fill(self, raw: Tuple[Optional[str], ...], split: Callable, into: List[Any]) -> None:
        # each script a group's inside, "" for {}, or else one character, or else absent
        into[self.slot] = tuple([g or c or "" for g, c in zip(raw[::2], raw[1::2])])

    def write(self, obj: Any) -> str:
        return "".join(f"{m}{{{v}}}" for m, v in zip(self.markers, obj.labels))


class _Factor(_Section):
    """``{factor}`` of ``\\scalefactor``: a positive rational, one token or group."""

    groups = (6,)

    def fill(self, raw: str, split: Callable, into: List[Any]) -> None:
        into[self.slot] = read_positive(raw, "scale factor")

    def write(self, obj: Any) -> str:
        return f"{{{getattr(obj, self.field)}}}"


class _Part(_Section):
    """A group of sections after the payload, read by its own chain into a
    Command of its own ``kind`` and appended to ``parts``: the inner square
    and the connectors of ``\\cube``, the trident of ``\\pullback``.  A
    command that lacks the part writes the part's defaults."""

    def __init__(self, kind: str, *sections: _Section) -> None:
        super().__init__("parts")
        self.kind, self.chain = kind, _Chain(*sections)

    def read(self, r: _Reader, into: List[Any]) -> None:
        into[self.slot] += (self.chain.read(r, self.kind),)

    def write(self, obj: Any) -> str:
        part = next((p for p in obj.parts if p.kind == self.kind), None)
        return self.chain.write(part or Command(self.kind, **self.chain.defaults))


class _Chain:
    """A command's ordered sections.  The one match reads ``head``, the
    sections before the parts, and the section reader the parts in
    ``tail``."""

    def __init__(self, *sections: _Section) -> None:
        self.sections = sections
        self.defaults = {s.field: s.default for s in sections if s.optional}
        self.template = list(Command(None, **self.defaults))  # before any section is read
        k = next((k for k, s in enumerate(sections) if isinstance(s, _Part)), len(sections))
        self.head, self.tail = sections[:k], sections[k:]
        self.cuts = [(s, itemgetter(*s.groups)) for s in self.head]  # its text in a match
        unread = sorted(set(range(1, _GROUPS + 1)).difference(*[s.groups for s in self.head]))
        self.unread, self.nones = itemgetter(*unread), (None,) * len(unread)
        # the first group of each required section, after group 0 twice, which
        # is never None and keeps the result a tuple
        self.needed = itemgetter(0, 0, *[s.groups[0] for s in self.head if not s.optional])
        # a section that may be absent at the end: the reader looks past it
        self.open_end = self.head[-1].optional

    def take(self, m: re.Match, kind: str) -> Optional[List[Any]]:
        """The field values of the command ``kind`` with those of its head
        filled from ``m``, a match of ``_SECTIONS`` where its sections
        begin; None where the section reader must read the command."""
        if self.unread(m) != self.nones or None in self.needed(m):
            return None  # a section the command lacks, or a required one not taken
        values = self.template.copy()
        values[0] = kind
        try:
            for sec, groups in self.cuts:
                raw = groups(m)
                if raw is not None:
                    sec.fill(raw, cut, values)
        except ValueError:
            return None
        if self.open_end and m.string.startswith(_OPENERS, BLANK.match(m.string, m.end()).end()):
            return None  # the reader would read on, past a spelling the pattern refused
        return values

    def read(self, r: _Reader, kind: str) -> Command:
        """The command ``kind`` from its sections at ``r.pos``: the head by
        one match where ``take`` accepts it, and every other section by
        the section reader; ``r.pos`` ends after the last section."""
        m = _SECTIONS.match(r.text, r.pos)
        values = self.take(m, kind)
        if values is None:
            values = self.template.copy()
            values[0] = kind
            sections = self.sections
        else:
            r.pos = m.end()
            sections = self.tail
        for sec in sections:
            if not sec.optional:
                r.skip_ws()
            elif not r.at(sec.opener):
                continue
            sec.read(r, values)
        return _new(Command, values)  # in field order

    def write(self, obj: Any) -> str:
        return "".join([sec.write(obj) for sec in self.sections])


def _wrap(value: str, specials: str) -> str:
    if strip_group(value) != value or len(split_top(value, specials)) > 1:
        return "{" + value + "}"
    return value


_POINT = partial(_new, Point)  # Point._make in C; fill has counted the values
_ORIGIN = _Ints("origin", "(", 2, Point(0, 0), _POINT)
_LENGTH = _Ints("length", "<", 1, 0, itemgetter(0))  # 0: measured from the labels


def _head(placements: str, extent: Tuple[int, ...], origin: _Section = _ORIGIN) -> tuple:
    """Origin, placements, styles and extent of a square-like shape."""
    return (origin, _Bar(placements), _Styles(len(placements)),
            _Ints("extent", "<", len(extent), extent))


def _shape(placements: str, extent: Tuple[int, ...], n: int) -> _Chain:
    """A shape of ``n`` nodes and one label per placement."""
    return _Chain(*_head(placements, extent), _Payload(n, len(placements)))


def _grid(placements: str, limit: int, stub: Tuple[int, ...], n: int) -> _Chain:
    """A grid: a mask below ``limit`` and a stub, ``stub`` after a mask and
    zero without one, between the head and the payload."""
    return _Chain(*_head(placements, (500, 500)), _Mask(limit, stub),
                  _Ints("stub", "<", len(stub), (0,) * len(stub), group=7),
                  _Payload(n, len(placements)))


COMMANDS: Dict[str, _Chain] = {
    "morphism": _Chain(_ORIGIN, _Bar("a", exact=False), _Styles(1),
                       _Ints("extent", "<", 2, (500, 0)), _Payload(2, 1)),
    "vector": _Chain(_Ints("origin", "(", 2, make=_POINT), _Styles(1, required=True),
                     _Ints("extent", "<", 2)),
    "place": _Chain(_Align("align", 1, ""), _Ints("origin", "(", 2, make=_POINT), _Payload(1, 0)),
    "square": _shape("alrb", (500, 500), 4),
    "Square": _shape("alrb", (500,), 4),
    "ptriangle": _shape("alr", (500, 500), 3),
    "qtriangle": _shape("alr", (500, 500), 3),
    "dtriangle": _shape("lrb", (500, 500), 3),
    "btriangle": _shape("lrb", (500, 500), 3),
    "Atriangle": _shape("lrb", (500, 500), 3),
    "Vtriangle": _shape("alb", (500, 500), 3),
    "Ctriangle": _shape("arb", (500, 500), 3),
    "Dtriangle": _shape("alb", (500, 500), 3),
    "Atrianglepair": _shape("lmrbb", (500, 500), 4),
    "Vtrianglepair": _shape("aalmr", (500, 500), 4),
    "Ctrianglepair": _shape("lrmlr", (500, 500), 4),
    "Dtrianglepair": _shape("lrmlr", (500, 500), 4),
    "hSquares": _shape("aalmrbb", (500,), 6),
    "vSquares": _shape("alrmlrb", (500, 500), 6),  # <bottom,top>
    "iiixiii": _grid("aammbblmrlmr", 4096, (400, 400), 9),
    "iiixii": _grid("aabblmr", 16, (400,), 6),
    "pullback": _Chain(*_head("alrb", (500, 500)), _Payload(4, 4),
                       _Part("trident", _Bar("amb"), _Styles(3),
                             _Ints("extent", "<", 2, (500, 500)), _Payload(1, 3))),
    "cube": _Chain(*_head("alrb", (1500, 1500)), _Payload(4, 4),
                   _Part("inner", *_head("alrb", (500, 500), _Ints(
                       "origin", "(", 2, Point(500, 500), _POINT)), _Payload(4, 4)),
                   _Part("connectors", _Bar("mmmm"), _Styles(4), _Payload(0, 4))),
    "to": _Chain(_Styles(1), _LENGTH, _Scripts("^_")),
    "two": _Chain(_Styles(2), _LENGTH, _Scripts("^_")),
    "three": _Chain(_Styles(3), _LENGTH, _Scripts("^|_")),
    "twoar": _Chain(_Ints("direction", "(", 2)),
    "scalefactor": _Chain(_Factor("factor")),  # multiplies the figure's scale
}


def format_command(cmd: Command) -> str:
    """Canonical source text: every section written out explicitly.

    Reparsing the result yields a structurally identical command.
    """
    chain = COMMANDS.get(cmd.kind)
    if chain is None:
        raise ValueError(f"cannot format command kind {cmd.kind!r}")
    return "\\" + cmd.kind + chain.write(cmd)
