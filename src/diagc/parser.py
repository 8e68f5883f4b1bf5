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
from fractions import Fraction
from operator import itemgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from .diagnostics import Diagnostic, ParseError
from .geometry import Point, read_positive
from .lexer import (BLANK, lone_backslash, section_end, split_top, strip_group, tidy,
                    token_at)


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
    ``where`` counts lines only over the text passed since it last
    counted.
    """

    def __init__(self, text: str, filename: str = "<input>") -> None:
        self.text = text
        self.filename = filename
        self.pos = 0
        self._counted = 0  # where() has counted lines up to here
        self._line = 1
        self._line_start = 0

    def where(self) -> Tuple[int, int]:
        """Line and column of the current token, both from 1.

        CR LF, a lone CR and LF each end a line.  A CR LF ends it at the
        CR, and its LF takes no column, so a token that begins at the LF
        (after a ``\\<CR>``) is at the start of the next line.
        """
        text, pos, counted = self.text, self.pos, self._counted
        # a CR LF whose CR was counted in the last call is not counted again
        self._line += (text.count("\n", counted, pos) + text.count("\r", counted, pos)
                       - text.count("\r\n", max(counted - 1, 0), pos))
        last = max(text.rfind("\n", counted, pos), text.rfind("\r", counted, pos))
        if last >= 0:
            self._line_start = last + 1
        self._counted = pos
        return self._line, pos - self._line_start + 1

    def char(self) -> str:
        """The character at ``pos``, ``""`` at the end."""
        return self.text[self.pos:self.pos + 1]

    def token(self) -> str:
        """Read and step past the token at ``pos``."""
        tok = token_at(self.text, self.pos)
        self.pos += len(tok)
        if tok == "\\":  # a backslash alone is the last token
            raise self.error("lone backslash at end of input")
        return tok

    def error(self, message: str, line: int = 0, col: int = 0) -> ParseError:
        if not line:
            line, col = self.where()
        return ParseError(Diagnostic("error", message, self.filename, line, col))

    def skip_ws(self) -> None:
        """Skip whitespace and comments; a comment takes its newline along."""
        self.pos = BLANK.match(self.text, self.pos).end()

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


def _command(r: _Reader, name: str, where: Tuple[int, int]) -> Command:
    """The command ``name``, a control sequence already read, at ``where``:
    its sections read by its row of ``COMMANDS``."""
    kind = name[1:]
    chain = COMMANDS.get(kind)
    if chain is None:
        raise r.error(f"unknown command {name}", *where)
    return Command(kind, **chain.read(r))


def parse_source(text: str, filename: str = "<input>") -> List[Figure]:
    """Parse a whole source file into figures."""
    r = _Reader(text, filename)
    figures: List[Figure] = []
    # a figure's commands and their positions: outside any figure, in the open one
    top: Tuple[List[Command], List[Tuple[int, int]]] = ([], [])
    current: Optional[Tuple[List[Command], List[Tuple[int, int]]]] = None
    open_pos = (0, 0)
    while True:
        r.skip_ws()
        c = r.char()
        if not c:
            break
        if c != "\\":
            raise r.error(f"unexpected character {c!r}")
        where = r.where()
        name = r.token()
        if name == "\\bfig":
            if current is not None:
                raise r.error("nested \\bfig", *where)
            open_pos, current = where, ([], [])
        elif name == "\\efig":
            if current is None:
                raise r.error("\\efig without \\bfig", *where)
            figures.append(Figure(*current, *open_pos))
            current = None
        else:
            commands, positions = top if current is None else current
            commands.append(_command(r, name, where))
            positions.append(where)
    if current is not None:
        raise r.error("\\bfig without matching \\efig", *open_pos)
    if top[0]:
        figures.append(Figure(*top, *top[1][0]))
    return figures


def parse_command(text: str, filename: str = "<input>") -> Command:
    """Parse exactly one command (convenience for tests and tools)."""
    r = _Reader(text, filename)
    r.skip_ws()
    where = r.where()
    if r.char() != "\\":
        raise r.error("expected '\\\\' to start a command")
    cmd = _command(r, r.token(), where)
    r.skip_ws()
    if r.char():
        raise r.error("trailing text after command")
    return cmd


# -- the command table ----------------------------------------------------

REQUIRED = object()  # the default of a section that is always read

# Numbers in source text are ASCII: int() alone would also read 1_0, a ٣
# or 1e3.  A scale factor is read by geometry.read_positive.
_INTEGER = re.compile(r"[+-]?[0-9]+")


class _Section:
    """One link of a command's section chain.

    ``read(r, into)`` reads it into a dict of fields and ``write(obj)``
    writes it back from a Command.  ``opener`` is the one character
    that starts it.  It fills the attribute ``field`` with ``arity``
    values, and ``default`` is
    what it leaves there when absent; ``fields`` names every attribute it
    fills.  A section with a default is read only when the next character
    is its opener.  A ``REQUIRED`` one is always read: it must be present,
    or, like the mask and the scripts, it decides itself what is absent.
    """

    opener = ""

    def __init__(self, field: str, arity: int = 1, default: Any = REQUIRED) -> None:
        self.field, self.arity, self.default = field, arity, default
        self.fields = (field,)
        self.optional = default is not REQUIRED


class _Ints(_Section):
    """``(x,y)`` coordinates or a ``<dx,dy>`` extent, made a value by ``make``."""

    def __init__(self, field: str, opener: str, arity: int, default: Any = REQUIRED,
                 make: Callable = tuple) -> None:
        super().__init__(field, arity, default)
        self.opener, self.make = opener, make
        self.closer, self.what = {"(": (")", "coordinates"), "<": (">", "an extent")}[opener]

    def read(self, r: _Reader, into: Dict[str, Any]) -> None:
        raw = r.delimited(self.opener, self.closer, self.what)
        numbers = [p.strip() for p in raw.split(",")]
        if len(numbers) != self.arity:
            raise r.error(f"expected {self.arity} integer(s), got {len(numbers)}")
        if not all(map(_INTEGER.fullmatch, numbers)):
            raise r.error(f"malformed integer in {raw.strip()!r}")
        into[self.field] = self.make(tuple(map(int, numbers)))

    def write(self, obj: Any) -> str:
        value = getattr(obj, self.field)
        values = (value,) if isinstance(value, int) else value
        return self.opener + ",".join(str(v) for v in values) + self.closer


class _Bar(_Section):
    """``|placements|``, one character per arrow, spaces dropped; ``exact=False``
    allows fewer."""

    opener = "|"

    def __init__(self, default: str, exact: bool = True) -> None:
        super().__init__("placements", len(default), default)
        self.exact = exact

    def read(self, r: _Reader, into: Dict[str, Any]) -> None:
        raw = r.delimited("|", "|", "placements").replace(" ", "")
        if self.exact and len(raw) != self.arity:
            raise r.error(f"expected {self.arity} placement character(s), got {len(raw)}")
        if len(raw) > self.arity:
            raise r.error(f"expected at most {self.arity} placement character(s)")
        into["placements"] = raw

    def write(self, obj: Any) -> str:
        return f"|{obj.placements}|"


class _Styles(_Section):
    """``/s1`s2/``, one style token per arrow, each ``>`` when absent."""

    opener = "/"

    def __init__(self, arity: int, required: bool = False) -> None:
        super().__init__("styles", arity, REQUIRED if required else (">",) * arity)

    def read(self, r: _Reader, into: Dict[str, Any]) -> None:
        parts = _fields(r.delimited("/", "/", "styles"))
        if len(parts) != self.arity:
            raise r.error(f"expected {self.arity} style token(s), got {len(parts)}")
        into["styles"] = tuple(parts)

    def write(self, obj: Any) -> str:
        return "/" + "`".join(_wrap(s, "`/") for s in obj.styles) + "/"


class _Payload(_Section):
    """``[nodes;labels]``, always present; a half with count zero is absent
    along with the ``;``."""

    opener = "["

    def __init__(self, n_nodes: int, n_labels: int) -> None:
        super().__init__("nodes", n_nodes)
        self.n_labels = n_labels
        self.fields = tuple(f for f, n in (("nodes", n_nodes), ("labels", n_labels)) if n)

    def read(self, r: _Reader, into: Dict[str, Any]) -> None:
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
        if n_nodes:
            into["nodes"] = tuple(nodes)
        if n_labels:
            into["labels"] = tuple(labels)

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

    def read(self, r: _Reader, into: Dict[str, Any]) -> None:
        raw = r.delimited("[", "]", "a payload").replace(" ", "")
        if len(raw) != 1 or raw not in "lrud":
            raise r.error(f"unsupported alignment {raw!r}; one of l, r, u, d")
        into[self.field] = raw

    def write(self, obj: Any) -> str:
        value = getattr(obj, self.field)
        return f"[{value}]" if value else ""


class _Mask(_Section):
    """``{mask}<stub>`` of a grid: a boundary-stub bitmask below ``limit``,
    one token or group, then the stub extent.  Absent exactly when the
    payload's ``[`` follows; the stub defaults to ``stub`` after a mask
    and to ``no_stub`` without one."""

    opener = "{"

    def __init__(self, limit: int, stub: Tuple[int, ...], no_stub: Tuple[int, ...]) -> None:
        super().__init__("mask")
        self.fields = ("mask", "stub")
        self.limit, self.no_stub = limit, no_stub
        self.stub = _Ints("stub", "<", len(stub), stub)

    def read(self, r: _Reader, into: Dict[str, Any]) -> None:
        if r.char() == "[":
            into["mask"], into["stub"] = 0, self.no_stub
            return
        token = r.single_token()
        number = token.strip()
        if not _INTEGER.fullmatch(number):
            raise r.error(f"malformed mask {token!r}")
        mask = int(number)
        if not 0 <= mask < self.limit:
            raise r.error(f"mask must be in 0..{self.limit - 1}")
        into["mask"], into["stub"] = mask, self.stub.default
        r.skip_ws()
        if r.char() == "<":
            self.stub.read(r, into)

    def write(self, obj: Any) -> str:
        return f"{{{obj.mask}}}" + self.stub.write(obj)


class _Scripts(_Section):
    """The ``^sup``, ``|mid`` and ``_sub`` labels of an inline arrow, one
    per marker, in that order: each optional, one token or group."""

    opener = "^"

    def __init__(self, markers: str) -> None:
        super().__init__("labels", len(markers))
        self.markers = markers

    def read(self, r: _Reader, into: Dict[str, Any]) -> None:
        labels = []
        for marker in self.markers:
            r.skip_ws()
            if r.char() == marker:
                r.pos += 1
                labels.append(r.single_token())
            else:
                labels.append("")
        into["labels"] = tuple(labels)

    def write(self, obj: Any) -> str:
        return "".join(f"{m}{{{v}}}" for m, v in zip(self.markers, obj.labels))


class _Factor(_Section):
    """``{factor}`` of ``\\scalefactor``: a positive rational, one token or group."""

    opener = "{"

    def read(self, r: _Reader, into: Dict[str, Any]) -> None:
        token = r.single_token()
        try:
            into[self.field] = read_positive(token, "scale factor")
        except ValueError as exc:
            raise r.error(str(exc)) from None

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

    def read(self, r: _Reader, into: Dict[str, Any]) -> None:
        into["parts"] = into.get("parts", ()) + (Command(self.kind, **self.chain.read(r)),)

    def write(self, obj: Any) -> str:
        part = next((p for p in obj.parts if p.kind == self.kind), None)
        return self.chain.write(part or Command(self.kind, **self.chain.defaults))


class _Chain:
    """A command's ordered sections, and ``program``, the name of the
    expand.py shape program that draws it (None: it draws nothing)."""

    def __init__(self, program: Optional[str], *sections: _Section) -> None:
        self.program, self.sections = program, sections
        self.defaults = {s.field: s.default for s in sections if s.optional}

    def read(self, r: _Reader) -> Dict[str, Any]:
        values = dict(self.defaults)
        for sec in self.sections:
            r.skip_ws()
            if r.char() == sec.opener or not sec.optional:
                sec.read(r, values)
        return values

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
