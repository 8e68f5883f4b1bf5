"""Recursive-descent parser for the diagram command language.

Commands are a fixed grammar, not programmable TeX: each command takes a
chain of optional sections, detected by their opening character after
whitespace, with per-command defaults.  ``COMMANDS``, the table at the
end of this module, gives each command's chain as one row: its sections
in order, each with its opener, the field it fills, its arity and its
default, plus the expand.py shape program that draws the command.  One
loop reads every command from its row, ``format_command`` writes every
section back from the same row, and expansion dispatches on it.  The
section groups that follow the payload of ``\\cube`` (its inner square
and its connectors) and of ``\\pullback`` (its trident) are chains of
their own, each read into a ``Command`` of the group's kind in ``parts``.

A command is read in one match where it can be.  One shared pattern,
compiled on first use, takes the common spelling of every section in
table order: no whitespace between sections, and fields that ``tidy``
leaves as they are, with braces at most two deep.  Each section then
takes its fields from the match, counts them and checks their values,
and ``lexer.cut`` splits and strips them in C.  Where the pattern does
not take a section's spelling, takes a section the command lacks, or
stops where the section reader would read on, or where a check fails,
the section reader reads the command again from its start, so every
diagnostic comes from the section reader.  A chain's parts are read
after the match by their own chains, each again by a match first.  A
command ends after its last section, by either path.  The reader
records the offset of each command, and a figure turns them into its
``positions`` once, from a table of the source's line breaks.

``%`` comments to end of line (and suppresses the newline, TeX-style);
other whitespace runs collapse to a single space inside sections.  One
outer brace level protects and is stripped from every field.  Figures
are wrapped in ``\\bfig``/``\\efig``; commands outside any figure form
one implicit figure.

The two-height section of ``\\vSquares`` is ``<bottom,top>``, in that
order, as the arithmetic dictates.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Pattern, Sequence, Tuple,
                    Union)

from .diagnostics import Diagnostic, ParseError
from .geometry import Point, read_positive
from .lexer import (BLANK, LINE_END, cut, kept_field, lone_backslash, section_end,
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
    positions: List[Tuple[int, int]]
    line: int = 0  # of the figure's \bfig, or of its first command
    col: int = 0


class _Reader:
    """Reader over source text at a position, ``pos``, where a token
    begins.

    It holds the text and its position, never a token: a section opens on
    ``char()``, the one character at ``pos`` (every opener is a token of
    one character), a section is one scan to its stop, ``token()`` reads
    the one token of a command name or a one-token argument, and
    ``positions`` turns offsets into lines and columns from a table of
    line breaks, made on first use.
    """

    def __init__(self, text: str, filename: str = "<input>") -> None:
        self.text = text
        self.filename = filename
        self.pos = 0
        self._breaks: Optional[List[int]] = None  # where each line break ends

    def positions(self, offsets: Sequence[int]) -> List[Tuple[int, int]]:
        """Line and column of each offset, both from 1.

        CR LF, a lone CR and LF each end a line.  A CR LF ends it at the
        CR, and its LF takes no column, so a token that begins at the LF
        (after a ``\\<CR>``) is at the start of the next line.
        """
        text = self.text
        if self._breaks is None:
            self._breaks = [m.end() for m in _line_break().finditer(text)]
        breaks, crlf = self._breaks, "\r\n" in text
        out = []
        for pos in offsets:
            k = bisect_right(breaks, pos)  # the line breaks that end at or before pos
            if crlf and pos and text[pos - 1:pos + 1] == "\r\n":
                out.append((k + 2, 1))
            else:
                out.append((k + 1, pos - breaks[k - 1] + 1) if k else (1, pos + 1))
        return out

    def where(self, pos: Optional[int] = None) -> Tuple[int, int]:
        """Line and column of ``pos``, by default the current token's."""
        return self.positions([self.pos if pos is None else pos])[0]

    def char(self) -> str:
        """The character at ``pos``, ``""`` at the end."""
        return self.text[self.pos:self.pos + 1]

    def name(self) -> str:
        """Skip whitespace and comments, then read and step past the
        control sequence there, the name of a command; ``""`` at the
        end."""
        self.skip_ws()
        name = _command_name().match(self.text, self.pos)
        if name is not None:  # a word of ASCII letters, the common name
            self.pos = name.end()
            return name[0]
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
        return ParseError(Diagnostic("error", message, self.filename, *self.where(at)))

    def skip_ws(self) -> None:
        """Skip whitespace and comments; a comment takes its newline along."""
        self.pos = BLANK.match(self.text, self.pos).end()

    def at(self, opener: str) -> bool:
        """Whether ``opener`` comes next after whitespace and comments; if
        so, ``pos`` moves to it, else it stays."""
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
        an escaped delimiter never closes the section.
        """
        if self.char() != opener:
            raise self.error(f"expected {opener!r} to open {what}")
        text, start = self.text, self.pos + 1
        end = section_end(text, start, closer)
        self.pos = end
        if end == len(text):
            raise self.error(
                "lone backslash at end of input" if lone_backslash(text, start) else eof
            )
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


def _fields(raw: str) -> List[str]:
    return [strip_group(p) for p in split_top(raw, "`")]


def _command(r: _Reader, name: str, at: int) -> Command:
    """The command ``name``, a control sequence already read, at offset
    ``at``: its sections read by its row of ``COMMANDS``."""
    kind = name[1:]
    chain = COMMANDS.get(kind)
    if chain is None:
        raise r.error(f"unknown command {name}", at)
    return chain.read(r, kind)


def _figure(r: _Reader, commands: List[Command], offsets: List[int], at: int) -> Figure:
    """A figure at offset ``at`` of the commands at ``offsets``."""
    (line, col), *positions = r.positions([at, *offsets])
    return Figure(commands, positions, line, col)


def parse_source(text: str, filename: str = "<input>") -> List[Figure]:
    """Parse a whole source file into figures."""
    r = _Reader(text, filename)
    figures: List[Figure] = []
    # a figure's commands and their offsets: outside any figure, in the open one
    top: Tuple[List[Command], List[int]] = ([], [])
    current: Optional[Tuple[List[Command], List[int]]] = None
    open_at = 0
    while True:
        name = r.name()
        if not name:
            break
        at = r.pos - len(name)
        if name == "\\bfig":
            if current is not None:
                raise r.error("nested \\bfig", at)
            open_at, current = at, ([], [])
        elif name == "\\efig":
            if current is None:
                raise r.error("\\efig without \\bfig", at)
            figures.append(_figure(r, *current, open_at))
            current = None
        else:
            commands, offsets = top if current is None else current
            commands.append(_command(r, name, at))
            offsets.append(at)
    if current is not None:
        raise r.error("\\bfig without matching \\efig", open_at)
    if top[0]:
        figures.append(_figure(r, *top, top[1][0]))
    return figures


def parse_command(text: str, filename: str = "<input>") -> Command:
    """Parse exactly one command (convenience for tests and tools)."""
    r = _Reader(text, filename)
    r.skip_ws()
    at = r.pos
    if r.char() != "\\":
        raise r.error("expected '\\\\' to start a command")
    cmd = _command(r, r.token(), at)
    r.skip_ws()
    if r.char():
        raise r.error("trailing text after command")
    return cmd


# -- the command table ----------------------------------------------------

REQUIRED = object()  # the default of a section that is always read

# Numbers in source text are ASCII: int() alone would also read 1_0, a ٣
# or 1e3.  A scale factor is read by geometry.read_positive.  An integer
# has at most MAX_DIGITS digits, the most that int() reads and str()
# writes (sys.int_info.default_max_str_digits, Python 3.11 on).
MAX_DIGITS = 4300
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _too_long(number: str) -> bool:
    """Whether the integer ``number`` has more than MAX_DIGITS digits."""
    return len(number) - (number[0] in "+-") > MAX_DIGITS


_SLOTS = {field: k for k, field in enumerate(Command._fields)}  # a field's index
_NODES, _LABELS = _SLOTS["nodes"], _SLOTS["labels"]
_GROUPS = 18  # in the shared section pattern
_SCRIPT_GROUPS = {"^": 13, "|": 15, "_": 17}
# what a section opens with; a command whose last section may be absent
# is read by the match only where none of these comes after it
_OPENERS = ("[", "(", "|", "/", "<", "{", "^", "_")


@lru_cache(maxsize=None)
def _sections() -> Pattern[str]:
    """The common spelling of the sections of every chain before its parts,
    in table order, each optional, compiled on first use.

    Its groups: 1 an alignment, 2-3 coordinates, 4 placements, 5 styles,
    6-7 an extent or a length, 8 a mask or scale factor in braces, 9-10
    a stub, 11-12 the halves of a payload and, where no payload is, 13-18
    the ``^``, ``|`` and ``_`` scripts, each the inside of a group or one
    character.  Sections follow each other with nothing between them, and
    each field is text that ``tidy`` leaves as it is.
    """
    number = "([+-]?[0-9]{1,%d})" % MAX_DIGITS
    pair = "<" + number + "(?:," + number + ")?>"
    token = r"[^{}\\% \t\r\n]"
    half = "(" + kept_field(";]") + ")"
    script = r"(?:\{(" + kept_field("", 1) + r")\}|(" + token + "))"
    return re.compile(
        r"(?:\[([lrud])\])?(?:\(" + number + "," + number + r"\))?"
        r"(?:\|([^|{}\\% \t\r\n]*)\|)?(?:/(" + kept_field("/") + ")/)?"
        "(?:" + pair + r")?(?:\{(" + token + r"*)\}(?:" + pair + ")?)?"
        r"(?:\[" + half + "(?:;" + half + r")?\]"
        r"|(?:\^" + script + r")?(?:\|" + script + ")?(?:_" + script + ")?)")


@lru_cache(maxsize=None)
def _line_break() -> Pattern[str]:
    return re.compile(LINE_END)


@lru_cache(maxsize=None)
def _command_name() -> Pattern[str]:
    """A control word of ASCII letters that no other letter follows."""
    return re.compile(r"\\[A-Za-z]+(?![^\W\d_])")


class _Section:
    """One link of a command's section chain.

    ``read(r, into)`` reads it into ``into``, a list of field values in
    Command order, and ``write(obj)`` writes it back from a Command.
    ``take(m, into)`` takes it from its ``groups`` of ``m``, a match of
    ``_sections()``, and is False where the section reader must read
    the command instead.  ``opener`` is the one character that starts
    it.  It fills the attribute ``field``, at index ``slot``, with
    ``arity`` values, and ``default`` is what it leaves there when
    absent; ``fields`` names every attribute it fills.  A section with
    a default is read only when the next character is its opener.  A
    ``REQUIRED`` one is always read: it must be present, or, like the
    mask and the scripts, it decides itself what is absent.
    """

    opener = ""
    groups: Tuple[int, ...] = ()

    def __init__(self, field: str, arity: int = 1, default: Any = REQUIRED) -> None:
        self.field, self.arity, self.default = field, arity, default
        self.fields = (field,)
        self.slot = _SLOTS[field]
        self.optional = default is not REQUIRED


class _Ints(_Section):
    """``(x,y)`` coordinates or a ``<dx,dy>`` extent, made a value by
    ``make``; ``group`` is the first of its two groups, by default that
    of its opener."""

    def __init__(self, field: str, opener: str, arity: int, default: Any = REQUIRED,
                 make: Callable = tuple, group: int = 0) -> None:
        super().__init__(field, arity, default)
        self.opener, self.make = opener, make
        self.closer, self.what = {"(": (")", "coordinates"), "<": (">", "an extent")}[opener]
        first = group or {"(": 2, "<": 6}[opener]
        self.groups = (first, first + 1)

    def read(self, r: _Reader, into: List[Any]) -> None:
        raw = r.delimited(self.opener, self.closer, self.what)
        numbers = [p.strip() for p in raw.split(",")]
        if len(numbers) != self.arity:
            raise r.error(f"expected {self.arity} integer(s), got {len(numbers)}")
        if not all(map(_INTEGER.fullmatch, numbers)):
            raise r.error(f"malformed integer in {raw.strip()!r}")
        if any(map(_too_long, numbers)):
            raise r.error(f"integer of more than {MAX_DIGITS} digits")
        into[self.slot] = self.make(tuple(map(int, numbers)))

    def take(self, m: re.Match, into: List[Any]) -> bool:
        first, second = m.group(*self.groups)
        if first is None:
            return self.optional
        if (second is None) != (self.arity == 1):
            return False
        into[self.slot] = self.make((int(first),) if second is None
                                    else (int(first), int(second)))
        return True

    def write(self, obj: Any) -> str:
        value = getattr(obj, self.field)
        values = (value,) if isinstance(value, int) else value
        return self.opener + ",".join(str(v) for v in values) + self.closer


class _Bar(_Section):
    """``|placements|``, one character per arrow, spaces dropped; ``exact=False``
    allows fewer."""

    opener = "|"
    groups = (4,)

    def __init__(self, default: str, exact: bool = True) -> None:
        super().__init__("placements", len(default), default)
        self.exact = exact

    def read(self, r: _Reader, into: List[Any]) -> None:
        raw = r.delimited("|", "|", "placements").replace(" ", "")
        if self.exact and len(raw) != self.arity:
            raise r.error(f"expected {self.arity} placement character(s), got {len(raw)}")
        if len(raw) > self.arity:
            raise r.error(f"expected at most {self.arity} placement character(s)")
        into[self.slot] = raw

    def take(self, m: re.Match, into: List[Any]) -> bool:
        raw = m[4]
        if raw is None:
            return self.optional
        if len(raw) > self.arity or self.exact and len(raw) != self.arity:
            return False
        into[self.slot] = raw
        return True

    def write(self, obj: Any) -> str:
        return f"|{obj.placements}|"


class _Styles(_Section):
    """``/s1`s2/``, one style token per arrow, each ``>`` when absent."""

    opener = "/"
    groups = (5,)

    def __init__(self, arity: int, required: bool = False) -> None:
        super().__init__("styles", arity, REQUIRED if required else (">",) * arity)

    def read(self, r: _Reader, into: List[Any]) -> None:
        parts = _fields(r.delimited("/", "/", "styles"))
        if len(parts) != self.arity:
            raise r.error(f"expected {self.arity} style token(s), got {len(parts)}")
        into[self.slot] = tuple(parts)

    def take(self, m: re.Match, into: List[Any]) -> bool:
        raw = m[5]
        if raw is None:
            return self.optional
        styles = cut(raw)
        if len(styles) != self.arity:
            return False
        into[self.slot] = styles
        return True

    def write(self, obj: Any) -> str:
        return "/" + "`".join(_wrap(s, "`/") for s in obj.styles) + "/"


class _Payload(_Section):
    """``[nodes;labels]``, always present; a half with count zero is absent
    along with the ``;``."""

    opener = "["
    groups = (11, 12)

    def __init__(self, n_nodes: int, n_labels: int) -> None:
        super().__init__("nodes", n_nodes)
        self.n_labels = n_labels
        self.fields = tuple(f for f, n in (("nodes", n_nodes), ("labels", n_labels)) if n)

    def read(self, r: _Reader, into: List[Any]) -> None:
        raw = r.delimited("[", "]", "a payload")
        halves = split_top(raw, ";")
        n_nodes, n_labels = self.arity, self.n_labels
        if n_nodes and n_labels:
            if len(halves) != 2:
                raise r.error(
                    "payload needs exactly one top-level ';' between nodes and labels"
                )
            nodes, labels = _fields(halves[0]), _fields(halves[1])
        elif len(halves) != 1:
            raise r.error("unexpected ';' in payload")
        else:
            nodes, labels = (_fields(raw), []) if n_nodes else ([], _fields(raw))
        if len(nodes) != n_nodes:
            raise r.error(f"expected {n_nodes} node field(s), got {len(nodes)}")
        if len(labels) != n_labels:
            raise r.error(f"expected {n_labels} label field(s), got {len(labels)}")
        into[_NODES], into[_LABELS] = tuple(nodes), tuple(labels)

    def take(self, m: re.Match, into: List[Any]) -> bool:
        first, second = m.group(11, 12)
        if first is None:
            return False
        if self.arity and self.n_labels:
            if second is None:
                return False
            nodes, labels = cut(first), cut(second)
        elif second is not None:
            return False
        else:
            nodes, labels = (cut(first), ()) if self.arity else ((), cut(first))
        if len(nodes) != self.arity or len(labels) != self.n_labels:
            return False
        into[_NODES], into[_LABELS] = nodes, labels
        return True

    def write(self, obj: Any) -> str:
        nodes = obj.nodes if self.arity else ()
        labels = obj.labels if self.n_labels else ()
        ns, ls = ("`".join(_wrap(v, "`;]") for v in half) for half in (nodes, labels))
        if nodes and labels:
            return f"[{ns};{ls}]"
        return f"[{ns}]" if nodes else f"[{ls}]"


class _Align(_Section):
    """``[l|r|u|d]``, the alignment of ``\\place``, before its origin."""

    opener = "["
    groups = (1,)

    def read(self, r: _Reader, into: List[Any]) -> None:
        raw = r.delimited("[", "]", "a payload").replace(" ", "")
        if len(raw) != 1 or raw not in "lrud":
            raise r.error(f"unsupported alignment {raw!r}; one of l, r, u, d")
        into[self.slot] = raw

    def take(self, m: re.Match, into: List[Any]) -> bool:
        if m[1] is not None:
            into[self.slot] = m[1]
        return True

    def write(self, obj: Any) -> str:
        value = getattr(obj, self.field)
        return f"[{value}]" if value else ""


class _Mask(_Section):
    """``{mask}<stub>`` of a grid: a boundary-stub bitmask below ``limit``,
    one token or group, then the stub extent.  Absent exactly when the
    payload's ``[`` follows; the stub defaults to ``stub`` after a mask
    and to ``no_stub`` without one."""

    opener = "{"
    groups = (8, 9, 10)

    def __init__(self, limit: int, stub: Tuple[int, ...], no_stub: Tuple[int, ...]) -> None:
        super().__init__("mask")
        self.fields = ("mask", "stub")
        self.limit, self.no_stub = limit, no_stub
        self.stub = _Ints("stub", "<", len(stub), stub, group=9)

    def read(self, r: _Reader, into: List[Any]) -> None:
        if r.char() == "[":
            into[self.slot], into[self.stub.slot] = 0, self.no_stub
            return
        token = r.single_token()
        number = token.strip()
        if not _INTEGER.fullmatch(number):
            raise r.error(f"malformed mask {token!r}")
        if _too_long(number) or not 0 <= int(number) < self.limit:
            raise r.error(f"mask must be in 0..{self.limit - 1}")
        into[self.slot], into[self.stub.slot] = int(number), self.stub.default
        if r.at("<"):
            self.stub.read(r, into)

    def take(self, m: re.Match, into: List[Any]) -> bool:
        token = m[8]
        if token is None:  # the payload, which every grid has, comes next
            into[self.slot], into[self.stub.slot] = 0, self.no_stub
            return True
        if (not _INTEGER.fullmatch(token) or _too_long(token)
                or not 0 <= int(token) < self.limit):
            return False
        into[self.slot], into[self.stub.slot] = int(token), self.stub.default
        return self.stub.take(m, into)

    def write(self, obj: Any) -> str:
        return f"{{{obj.mask}}}" + self.stub.write(obj)


class _Scripts(_Section):
    """The ``^sup``, ``|mid`` and ``_sub`` labels of an inline arrow, one
    per marker, in that order: each optional, one token or group."""

    opener = "^"

    def __init__(self, markers: str) -> None:
        super().__init__("labels", len(markers))
        self.markers = markers
        self.firsts = [_SCRIPT_GROUPS[marker] for marker in markers]
        self.groups = tuple(g for first in self.firsts for g in (first, first + 1))

    def read(self, r: _Reader, into: List[Any]) -> None:
        labels = []
        for marker in self.markers:
            if r.at(marker):
                r.pos += 1
                labels.append(r.single_token())
            else:
                labels.append("")
        into[self.slot] = tuple(labels)

    def take(self, m: re.Match, into: List[Any]) -> bool:
        # a group's inside, "" for {}, or else one character, or else absent
        into[self.slot] = tuple([m[k] or m[k + 1] or "" for k in self.firsts])
        return True

    def write(self, obj: Any) -> str:
        return "".join(f"{m}{{{v}}}" for m, v in zip(self.markers, obj.labels))


class _Factor(_Section):
    """``{factor}`` of ``\\scalefactor``: a positive rational, one token or group."""

    opener = "{"
    groups = (8,)

    def read(self, r: _Reader, into: List[Any]) -> None:
        token = r.single_token()
        try:
            into[self.slot] = read_positive(token, "scale factor")
        except ValueError as exc:
            raise r.error(str(exc)) from None

    def take(self, m: re.Match, into: List[Any]) -> bool:
        if m[8] is None:
            return False
        try:
            into[self.slot] = read_positive(m[8], "scale factor")
        except ValueError:
            return False
        return True

    def write(self, obj: Any) -> str:
        return f"{{{getattr(obj, self.field)}}}"


class _Part(_Section):
    """A group of sections after the payload, read by its own chain into a
    Command of its own ``kind`` and appended to ``parts``: the inner square
    and the connectors of ``\\cube``, the trident of ``\\pullback``.  A
    command that lacks the part writes the part's defaults."""

    def __init__(self, kind: str, *sections: _Section) -> None:
        super().__init__("parts")
        self.kind, self.chain = kind, _Chain(None, *sections)

    def read(self, r: _Reader, into: List[Any]) -> None:
        into[self.slot] += (self.chain.read(r, self.kind),)

    def write(self, obj: Any) -> str:
        part = next((p for p in obj.parts if p.kind == self.kind), None)
        return self.chain.write(part or Command(self.kind, **self.chain.defaults))


class _Chain:
    """A command's ordered sections, and ``program``, the name of the
    expand.py shape program that draws it (None: it draws nothing).

    The one match reads ``head``, the sections before the parts, and the
    section reader the parts in ``tail``.
    """

    def __init__(self, program: Optional[str], *sections: _Section) -> None:
        self.program, self.sections = program, sections
        self.defaults = {s.field: s.default for s in sections if s.optional}
        self.template = list(Command(None, **self.defaults))  # before any section is read
        k = next((k for k, s in enumerate(sections) if isinstance(s, _Part)), len(sections))
        self.head, self.tail = sections[:k], sections[k:]
        unread = sorted(set(range(1, _GROUPS + 1)).difference(*[s.groups for s in self.head]))
        self.unread, self.nones = itemgetter(*unread), (None,) * len(unread)
        # a section that may be absent at the end: the reader looks past it
        self.open_end = self.head[-1].optional or isinstance(self.head[-1], _Scripts)

    def take(self, m: re.Match, kind: str) -> Optional[List[Any]]:
        """The field values of the command ``kind`` with those of its head
        taken from ``m``, a match of ``_sections()`` where its sections
        begin; None where the section reader must read the command."""
        if self.unread(m) != self.nones:
            return None  # a section the command lacks
        values = self.template.copy()
        values[0] = kind
        for sec in self.head:
            if not sec.take(m, values):
                return None
        if self.open_end and m.string.startswith(_OPENERS, BLANK.match(m.string, m.end()).end()):
            return None  # the reader would read on, past a spelling the pattern refused
        return values

    def read(self, r: _Reader, kind: str) -> Command:
        """The command ``kind`` from its sections at ``r.pos``: the head by
        one match where ``take`` accepts it, and every other section by
        the section reader; ``r.pos`` ends after the last section."""
        m = _sections().match(r.text, r.pos)
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
        return tuple.__new__(Command, values)  # in field order, past the Python-level __new__

    def write(self, obj: Any) -> str:
        return "".join([sec.write(obj) for sec in self.sections])


def _wrap(value: str, specials: str) -> str:
    if strip_group(value) != value or len(split_top(value, specials)) > 1:
        return "{" + value + "}"
    return value


_ORIGIN = _Ints("origin", "(", 2, Point(0, 0), Point._make)
_LENGTH = _Ints("length", "<", 1, 0, itemgetter(0))  # 0: measured from the labels


def _head(placements: str, extent: Tuple[int, ...], origin: _Section = _ORIGIN) -> tuple:
    """Origin, placements, styles and extent of a square-like shape."""
    return (origin, _Bar(placements), _Styles(len(placements)),
            _Ints("extent", "<", len(extent), extent))


def _shape(program: str, placements: str, extent: Tuple[int, ...], n: int, m: int) -> _Chain:
    return _Chain(program, *_head(placements, extent), _Payload(n, m))


COMMANDS: Dict[str, _Chain] = {
    "morphism": _Chain("morphism", _ORIGIN, _Bar("a", exact=False),
                       _Styles(1), _Ints("extent", "<", 2, (500, 0)), _Payload(2, 1)),
    "vector": _Chain("vector", _Ints("origin", "(", 2, make=Point._make),
                     _Styles(1, required=True), _Ints("extent", "<", 2)),
    "place": _Chain("place", _Align("align", 1, ""),
                    _Ints("origin", "(", 2, make=Point._make), _Payload(1, 0)),
    "square": _shape("shape", "alrb", (500, 500), 4, 4),
    "Square": _shape("auto_square", "alrb", (500,), 4, 4),
    "ptriangle": _shape("shape", "alr", (500, 500), 3, 3),
    "qtriangle": _shape("shape", "alr", (500, 500), 3, 3),
    "dtriangle": _shape("shape", "lrb", (500, 500), 3, 3),
    "btriangle": _shape("shape", "lrb", (500, 500), 3, 3),
    "Atriangle": _shape("shape", "lrb", (500, 500), 3, 3),
    "Vtriangle": _shape("shape", "alb", (500, 500), 3, 3),
    "Ctriangle": _shape("shape", "arb", (500, 500), 3, 3),
    "Dtriangle": _shape("shape", "alb", (500, 500), 3, 3),
    "Atrianglepair": _shape("shape", "lmrbb", (500, 500), 4, 5),
    "Vtrianglepair": _shape("shape", "aalmr", (500, 500), 4, 5),
    "Ctrianglepair": _shape("shape", "lrmlr", (500, 500), 4, 5),
    "Dtrianglepair": _shape("shape", "lrmlr", (500, 500), 4, 5),
    "hSquares": _shape("hsquares", "aalmrbb", (500,), 6, 7),
    "vSquares": _shape("vsquares", "alrmlrb", (500, 500), 6, 7),  # <bottom,top>
    "iiixiii": _Chain("shape", *_head("aammbblmrlmr", (500, 500)),
                      _Mask(4096, (400, 400), (0, 0)), _Payload(9, 12)),
    "iiixii": _Chain("grid3x2", *_head("aabblmr", (500, 500)),
                     _Mask(16, (400,), (0,)), _Payload(6, 7)),
    "pullback": _Chain("pullback", *_head("alrb", (500, 500)), _Payload(4, 4),
                       _Part("trident", _Bar("amb"), _Styles(3),
                             _Ints("extent", "<", 2, (500, 500)), _Payload(1, 3))),
    "cube": _Chain("cube", *_head("alrb", (1500, 1500)), _Payload(4, 4),
                   _Part("inner", *_head("alrb", (500, 500), _Ints(
                       "origin", "(", 2, Point(500, 500), Point._make)), _Payload(4, 4)),
                   _Part("connectors", _Bar("mmmm"), _Styles(4), _Payload(0, 4))),
    "to": _Chain("inline", _Styles(1), _LENGTH, _Scripts("^_")),
    "two": _Chain("inline", _Styles(2), _LENGTH, _Scripts("^_")),
    "three": _Chain("inline", _Styles(3), _LENGTH, _Scripts("^|_")),
    "twoar": _Chain("twoar", _Ints("direction", "(", 2)),
    "scalefactor": _Chain(None, _Factor("factor")),  # multiplies the figure's scale
}


def format_command(cmd: Command) -> str:
    """Canonical source text: every section written out explicitly.

    Reparsing the result yields a structurally identical command.
    """
    chain = COMMANDS.get(cmd.kind)
    if chain is None:
        raise ValueError(f"cannot format command kind {cmd.kind!r}")
    return "\\" + cmd.kind + chain.write(cmd)
