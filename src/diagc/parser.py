"""Recursive-descent parser for the diagram command language.

Commands are a fixed grammar, not programmable TeX: each command takes a
chain of optional sections, detected by their opening character after
whitespace, with per-command defaults.  ``%`` comments to end of line
(and suppresses the newline, TeX-style); other whitespace runs collapse
to a single space inside sections.  One outer brace level protects and
is stripped from every field.  Figures are wrapped in ``\\bfig``/``\\efig``;
commands outside any figure form one implicit figure.

The two-height section of ``\\vSquares`` is ``<bottom,top>``, in that
order, as the arithmetic dictates.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from .diagnostics import Diagnostic, ParseError
from .geometry import Point
from .lexer import WHITESPACE, split_top, strip_group, tokens, top_level_end

_SKIPPED = WHITESPACE + "%"

# placements default, style count, extent arity, extent default, payload arity
_SHAPES = {
    "square": ("alrb", 4, 2, (500, 500), (4, 4)),
    "Square": ("alrb", 4, 1, (500,), (4, 4)),
    "ptriangle": ("alr", 3, 2, (500, 500), (3, 3)),
    "qtriangle": ("alr", 3, 2, (500, 500), (3, 3)),
    "dtriangle": ("lrb", 3, 2, (500, 500), (3, 3)),
    "btriangle": ("lrb", 3, 2, (500, 500), (3, 3)),
    "Atriangle": ("lrb", 3, 2, (500, 500), (3, 3)),
    "Vtriangle": ("alb", 3, 2, (500, 500), (3, 3)),
    "Ctriangle": ("arb", 3, 2, (500, 500), (3, 3)),
    "Dtriangle": ("alb", 3, 2, (500, 500), (3, 3)),
    "Atrianglepair": ("lmrbb", 5, 2, (500, 500), (4, 5)),
    "Vtrianglepair": ("aalmr", 5, 2, (500, 500), (4, 5)),
    "Ctrianglepair": ("lrmlr", 5, 2, (500, 500), (4, 5)),
    "Dtrianglepair": ("lrmlr", 5, 2, (500, 500), (4, 5)),
    "hSquares": ("aalmrbb", 7, 1, (500,), (6, 7)),
    "vSquares": ("alrmlrb", 7, 2, (500, 500), (6, 7)),
}

_GRIDS = {
    # placements default, style count, mask limit, stub arity,
    # stub default with mask, stub default without mask, payload arity
    "iiixiii": ("aammbblmrlmr", 12, 4096, 2, (400, 400), (0, 0), (9, 12)),
    "iiixii": ("aabblmr", 7, 16, 1, (0,), (0,), (6, 7)),
}

_INLINE = {"to": 1, "two": 2, "three": 3}

COMMAND_KINDS = (
    ("morphism", "vector", "place", "cube", "pullback", "twoar", "scalefactor")
    + tuple(_SHAPES)
    + tuple(_GRIDS)
    + tuple(_INLINE)
)

_ALIGN_CODES = "lrud"


@dataclass
class SquarePart:
    """Second square of a cube: sections plus payload."""

    origin: Point = Point(500, 500)
    placements: str = "alrb"
    styles: Tuple[str, ...] = (">",) * 4
    extent: Tuple[int, ...] = (500, 500)
    nodes: Tuple[str, ...] = ()
    labels: Tuple[str, ...] = ()


@dataclass
class TridentPart:
    """Three-arrow cluster appended to a square by pullback."""

    placements: str = "amb"
    styles: Tuple[str, ...] = (">",) * 3
    offset: Tuple[int, int] = (500, 500)
    node: str = ""
    labels: Tuple[str, ...] = ()


@dataclass
class Command:
    """One parsed command, all absent sections filled with defaults."""

    kind: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)
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
    factor: Fraction = Fraction(1)       # scalefactor multiplier
    inner: Optional[SquarePart] = None   # cube inner square
    conn_placements: str = ""            # cube connector sections
    conn_styles: Tuple[str, ...] = ()
    conn_labels: Tuple[str, ...] = ()
    trident: Optional[TridentPart] = None


@dataclass
class Figure:
    """One diagram's worth of commands."""

    commands: List[Command]
    explicit: bool = True  # False for the implicit top-level figure
    line: int = 0
    col: int = 0


class _Reader:
    """Token reader over source text; tracks the current token's position."""

    def __init__(self, text: str, filename: str = "<input>") -> None:
        self.toks = tokens(text)
        self.k = 0  # index of the current token
        self.tok = self.toks[0] if self.toks else ""  # "" at the end
        self.line = 1
        self.col = 1
        self.filename = filename

    def _move(self, end: int) -> None:
        """Make token ``end`` current, carrying line and column past the rest."""
        passed = "".join(self.toks[self.k:end])
        if "\n" in passed:
            self.line += passed.count("\n")
            self.col = len(passed) - passed.rfind("\n")
        else:
            self.col += len(passed)
        if end == len(self.toks) and self.toks[-1:] == ["\\"]:
            raise self.error("lone backslash at end of input")
        self.k = end
        self.tok = self.toks[end] if end < len(self.toks) else ""

    def advance(self) -> str:
        tok = self.tok
        self._move(self.k + 1)
        return tok

    def error(self, message: str, line: int = 0, col: int = 0) -> ParseError:
        return ParseError(
            Diagnostic(
                "error", message, self.filename, line or self.line, col or self.col
            )
        )

    def skip_ws(self) -> None:
        """Skip whitespace and comments; a comment takes its newline along."""
        while self.tok and self.tok[0] in _SKIPPED:
            self.advance()

    def expect(self, c: str, what: str) -> str:
        """Consume the token starting with ``c``: a delimiter or a control sequence."""
        if self.tok[:1] != c:
            raise self.error(f"expected {c!r} {what}")
        return self.advance()

    def read_raw(
        self, terminators: str, eof: str = "unexpected end of input inside section"
    ) -> str:
        """Raw section content up to an unconsumed top-level terminator.

        Comments vanish (with their newline); other whitespace runs
        become one space; braces nest; control sequences stay whole, so
        an escaped delimiter never terminates.
        """
        start = self.k
        self._move(top_level_end(self.toks, start, terminators))
        if not self.tok:
            raise self.error(eof)
        if self.tok == "}" and "}" not in terminators:
            raise self.error("unbalanced '}'")
        return "".join([
            " " if t[0] in WHITESPACE else "" if t[0] == "%" else t
            for t in self.toks[start:self.k]
        ])

    def read_group(self) -> str:
        """A brace group; returns the content, outer braces stripped."""
        self.expect("{", "to open a group")
        out = self.read_raw("}", "unbalanced '{'")
        self.advance()
        return out


def _fields(raw: str) -> List[str]:
    return [strip_group(p) for p in split_top(raw, "`")]


class Parser:
    def __init__(self, text: str, filename: str = "<input>") -> None:
        self.r = _Reader(text, filename)

    # -- section helpers ------------------------------------------------

    def _probe(self, opener: str) -> bool:
        self.r.skip_ws()
        return self.r.tok == opener

    def _paren_ints(self) -> Tuple[int, int]:
        self.r.skip_ws()
        self.r.expect("(", "to open coordinates")
        raw = self.r.read_raw(")")
        self.r.expect(")", "to close coordinates")
        return self._int_pair(raw, 2)  # type: ignore[return-value]

    def _int_pair(self, raw: str, count: int) -> Tuple[int, ...]:
        parts = raw.split(",")
        if len(parts) != count:
            raise self.r.error(f"expected {count} integer(s), got {len(parts)}")
        try:
            return tuple(int(p.strip()) for p in parts)
        except ValueError:
            raise self.r.error(f"malformed integer in {raw.strip()!r}")

    def _angle(self, count: int) -> Tuple[int, ...]:
        self.r.skip_ws()
        self.r.expect("<", "to open an extent")
        raw = self.r.read_raw(">")
        self.r.expect(">", "to close an extent")
        return self._int_pair(raw, count)

    def _bar(self, count: int, exact: bool = True) -> str:
        self.r.skip_ws()
        self.r.expect("|", "to open placements")
        raw = self.r.read_raw("|").replace(" ", "")
        self.r.expect("|", "to close placements")
        if exact and len(raw) != count:
            raise self.r.error(
                f"expected {count} placement character(s), got {len(raw)}"
            )
        if not exact and len(raw) > count:
            raise self.r.error(f"expected at most {count} placement character(s)")
        return raw

    def _styles(self, count: int) -> Tuple[str, ...]:
        self.r.skip_ws()
        self.r.expect("/", "to open styles")
        raw = self.r.read_raw("/")
        self.r.expect("/", "to close styles")
        parts = _fields(raw)
        if len(parts) != count:
            raise self.r.error(f"expected {count} style token(s), got {len(parts)}")
        return tuple(parts)

    def _bracket_raw(self) -> str:
        self.r.skip_ws()
        self.r.expect("[", "to open a payload")
        raw = self.r.read_raw("]")
        self.r.expect("]", "to close a payload")
        return raw

    def _payload(self, n_nodes: int, n_labels: int) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        raw = self._bracket_raw()
        halves = split_top(raw, ";")
        if n_nodes and n_labels:
            if len(halves) != 2:
                raise self.r.error(
                    "payload needs exactly one top-level ';' between nodes and labels"
                )
            nodes = _fields(halves[0])
            labels = _fields(halves[1])
        elif len(halves) != 1:
            raise self.r.error("unexpected ';' in payload")
        elif n_nodes:
            nodes, labels = _fields(raw), []
        else:
            nodes, labels = [], _fields(raw)
        if len(nodes) != n_nodes:
            raise self.r.error(f"expected {n_nodes} node field(s), got {len(nodes)}")
        if len(labels) != n_labels:
            raise self.r.error(
                f"expected {n_labels} label field(s), got {len(labels)}"
            )
        return tuple(nodes), tuple(labels)

    def _maybe_origin(self, default: Point) -> Point:
        if self._probe("("):
            x, y = self._paren_ints()
            return Point(x, y)
        return default

    def _maybe_bar(self, default: str, count: int, exact: bool = True) -> str:
        if self._probe("|"):
            return self._bar(count, exact)
        return default

    def _maybe_styles(self, count: int) -> Tuple[str, ...]:
        if self._probe("/"):
            return self._styles(count)
        return (">",) * count

    def _maybe_angle(self, count: int, default: Tuple[int, ...]) -> Tuple[int, ...]:
        if self._probe("<"):
            return self._angle(count)
        return default

    def _single_token(self) -> str:
        self.r.skip_ws()
        if not self.r.tok:
            raise self.r.error("unexpected end of input")
        if self.r.tok == "{":
            return self.r.read_group()
        if self.r.tok == "}":
            raise self.r.error("unbalanced '}'")
        return self.r.advance()

    def _maybe_script(self, marker: str) -> str:
        if self._probe(marker):
            self.r.advance()
            return self._single_token()
        return ""

    # -- commands -------------------------------------------------------

    def parse_command(self) -> Command:
        self.r.skip_ws()
        line, col = self.r.line, self.r.col
        name = self.r.expect("\\", "to start a command")[1:]
        cmd = self._parse_named(name, line, col)
        cmd.line, cmd.col = line, col
        return cmd

    def _parse_named(self, name: str, line: int, col: int) -> Command:
        if name == "morphism":
            origin = self._maybe_origin(Point(0, 0))
            placements = self._maybe_bar("a", 1, exact=False)
            styles = self._maybe_styles(1)
            extent = self._maybe_angle(2, (500, 0))
            nodes, labels = self._payload(2, 1)
            return Command(
                "morphism", origin=origin, placements=placements, styles=styles,
                extent=extent, nodes=nodes, labels=labels,
            )
        if name == "vector":
            self.r.skip_ws()
            x, y = self._paren_ints()
            self.r.skip_ws()
            styles = self._styles(1)
            self.r.skip_ws()
            extent = self._angle(2)
            return Command(
                "vector", origin=Point(x, y), styles=styles, extent=extent
            )
        if name == "place":
            align = ""
            if self._probe("["):
                raw = self._bracket_raw().replace(" ", "")
                if len(raw) != 1 or raw not in _ALIGN_CODES:
                    raise self.r.error(
                        f"unsupported alignment {raw!r}; one of l, r, u, d"
                    )
                align = raw
            self.r.skip_ws()
            x, y = self._paren_ints()
            nodes, _ = self._payload(1, 0)
            return Command("place", origin=Point(x, y), align=align, nodes=nodes)
        if name in _SHAPES:
            places, n_styles, ext_arity, ext_default, payload = _SHAPES[name]
            origin = self._maybe_origin(Point(0, 0))
            placements = self._maybe_bar(places, len(places))
            styles = self._maybe_styles(n_styles)
            extent = self._maybe_angle(ext_arity, ext_default)
            nodes, labels = self._payload(*payload)
            return Command(
                name, origin=origin, placements=placements, styles=styles,
                extent=extent, nodes=nodes, labels=labels,
            )
        if name in _GRIDS:
            places, n_styles, limit, stub_arity, stub_dflt, stub_none, payload = (
                _GRIDS[name]
            )
            origin = self._maybe_origin(Point(0, 0))
            placements = self._maybe_bar(places, len(places))
            styles = self._maybe_styles(n_styles)
            extent = self._maybe_angle(2, (500, 500))
            self.r.skip_ws()
            if self.r.tok == "[":
                mask, stub = 0, stub_none
            else:
                token = self._single_token()
                try:
                    mask = int(token.strip())
                except ValueError:
                    raise self.r.error(f"malformed mask {token!r}")
                if not 0 <= mask < limit:
                    raise self.r.error(f"mask must be in 0..{limit - 1}")
                stub = self._maybe_angle(stub_arity, stub_dflt)
            nodes, labels = self._payload(*payload)
            return Command(
                name, origin=origin, placements=placements, styles=styles,
                extent=extent, mask=mask, stub=stub, nodes=nodes, labels=labels,
            )
        if name == "pullback":
            origin = self._maybe_origin(Point(0, 0))
            placements = self._maybe_bar("alrb", 4)
            styles = self._maybe_styles(4)
            extent = self._maybe_angle(2, (500, 500))
            nodes, labels = self._payload(4, 4)
            tri = TridentPart()
            tri.placements = self._maybe_bar("amb", 3)
            tri.styles = self._maybe_styles(3)
            offset = self._maybe_angle(2, (500, 500))
            tri.offset = (offset[0], offset[1])
            tri_nodes, tri_labels = self._payload(1, 3)
            tri.node, tri.labels = tri_nodes[0], tri_labels
            return Command(
                "pullback", origin=origin, placements=placements, styles=styles,
                extent=extent, nodes=nodes, labels=labels, trident=tri,
            )
        if name == "cube":
            origin = self._maybe_origin(Point(0, 0))
            placements = self._maybe_bar("alrb", 4)
            styles = self._maybe_styles(4)
            extent = self._maybe_angle(2, (1500, 1500))
            nodes, labels = self._payload(4, 4)
            inner = SquarePart()
            inner.origin = self._maybe_origin(Point(500, 500))
            inner.placements = self._maybe_bar("alrb", 4)
            inner.styles = self._maybe_styles(4)
            ext = self._maybe_angle(2, (500, 500))
            inner.extent = (ext[0], ext[1])
            inner.nodes, inner.labels = self._payload(4, 4)
            conn_placements = self._maybe_bar("mmmm", 4)
            conn_styles = self._maybe_styles(4)
            _, conn_labels = self._payload(0, 4)
            return Command(
                "cube", origin=origin, placements=placements, styles=styles,
                extent=extent, nodes=nodes, labels=labels, inner=inner,
                conn_placements=conn_placements, conn_styles=conn_styles,
                conn_labels=conn_labels,
            )
        if name in _INLINE:
            n = _INLINE[name]
            styles = self._maybe_styles(n)
            length = self._maybe_angle(1, (0,))[0]
            sup = self._maybe_script("^")
            mid = self._maybe_script("|") if name == "three" else ""
            sub = self._maybe_script("_")
            labels = (sup, mid, sub) if name == "three" else (sup, sub)
            return Command(name, styles=styles, length=length, labels=labels)
        if name == "twoar":
            self.r.skip_ws()
            i, j = self._paren_ints()
            return Command("twoar", direction=(i, j))
        if name == "scalefactor":
            token = self._single_token()
            try:
                factor = Fraction(token.strip())
            except (ValueError, ZeroDivisionError):
                raise self.r.error(f"malformed scale factor {token!r}")
            if factor <= 0:
                raise self.r.error("scale factor must be positive")
            return Command("scalefactor", factor=factor)
        raise self.r.error(f"unknown command \\{name}", line, col)

    # -- figures ----------------------------------------------------------

    def parse_figures(self) -> List[Figure]:
        figures: List[Figure] = []
        top: List[Command] = []
        current: Optional[List[Command]] = None
        open_pos = (0, 0)
        while True:
            self.r.skip_ws()
            tok = self.r.tok
            if not tok:
                break
            if tok[0] != "\\":
                raise self.r.error(f"unexpected character {tok!r}")
            line, col = self.r.line, self.r.col
            if tok == "\\bfig":
                if current is not None:
                    raise self.r.error("nested \\bfig", line, col)
                self.r.advance()
                current = []
                open_pos = (line, col)
                continue
            if tok == "\\efig":
                if current is None:
                    raise self.r.error("\\efig without \\bfig", line, col)
                self.r.advance()
                figures.append(Figure(current, True, open_pos[0], open_pos[1]))
                current = None
                continue
            cmd = self.parse_command()
            (top if current is None else current).append(cmd)
        if current is not None:
            raise self.r.error("\\bfig without matching \\efig", *open_pos)
        if top:
            figures.append(Figure(top, explicit=False, line=top[0].line, col=top[0].col))
        return figures


def parse_source(text: str, filename: str = "<input>") -> List[Figure]:
    """Parse a whole source file into figures."""
    return Parser(text, filename).parse_figures()


def parse_command(text: str, filename: str = "<input>") -> Command:
    """Parse exactly one command (convenience for tests and tools)."""
    p = Parser(text, filename)
    cmd = p.parse_command()
    p.r.skip_ws()
    if p.r.tok:
        raise p.r.error("trailing text after command")
    return cmd


def parse_payload(text: str) -> Tuple[List[str], List[str]]:
    """Split a bracketed payload into node and label fields.

    Top-level backticks separate fields, the single top-level ';'
    separates nodes from labels, and one brace level protects and is
    stripped from each field.
    """
    p = Parser(text)
    raw = p._bracket_raw()
    p.r.skip_ws()
    if p.r.tok:
        raise p.r.error("trailing text after payload")
    halves = split_top(raw, ";")
    if len(halves) != 2:
        raise p.r.error("payload needs exactly one top-level ';'")
    return _fields(halves[0]), _fields(halves[1])


# -- canonical pretty-printer -------------------------------------------


def _wrap(value: str, specials: str) -> str:
    if strip_group(value) != value or len(split_top(value, specials)) > 1:
        return "{" + value + "}"
    return value


def _fmt_styles(styles: Tuple[str, ...]) -> str:
    return "/" + "`".join(_wrap(s, "`/") for s in styles) + "/"


def _fmt_payload(nodes: Tuple[str, ...], labels: Tuple[str, ...]) -> str:
    ns = "`".join(_wrap(v, "`;]") for v in nodes)
    ls = "`".join(_wrap(v, "`;]") for v in labels)
    if nodes and labels:
        return f"[{ns};{ls}]"
    if nodes:
        return f"[{ns}]"
    return f"[{ls}]"


def _fmt_extent(extent: Tuple[int, ...]) -> str:
    return "<" + ",".join(str(v) for v in extent) + ">"


def format_command(cmd: Command) -> str:
    """Canonical source text: every section written out explicitly.

    Reparsing the result yields a structurally identical command.
    """
    k = cmd.kind
    org = f"({cmd.origin.x},{cmd.origin.y})"
    if k == "morphism" or k in _SHAPES:
        return (
            f"\\{k}{org}|{cmd.placements}|{_fmt_styles(cmd.styles)}"
            f"{_fmt_extent(cmd.extent)}{_fmt_payload(cmd.nodes, cmd.labels)}"
        )
    if k == "vector":
        return f"\\vector{org}{_fmt_styles(cmd.styles)}{_fmt_extent(cmd.extent)}"
    if k == "place":
        align = f"[{cmd.align}]" if cmd.align else ""
        return f"\\place{align}{org}{_fmt_payload(cmd.nodes, ())}"
    if k in _GRIDS:
        return (
            f"\\{k}{org}|{cmd.placements}|{_fmt_styles(cmd.styles)}"
            f"{_fmt_extent(cmd.extent)}{{{cmd.mask}}}{_fmt_extent(cmd.stub)}"
            f"{_fmt_payload(cmd.nodes, cmd.labels)}"
        )
    if k == "pullback":
        tri = cmd.trident or TridentPart()
        return (
            f"\\pullback{org}|{cmd.placements}|{_fmt_styles(cmd.styles)}"
            f"{_fmt_extent(cmd.extent)}{_fmt_payload(cmd.nodes, cmd.labels)}"
            f"|{tri.placements}|{_fmt_styles(tri.styles)}{_fmt_extent(tri.offset)}"
            f"{_fmt_payload((tri.node,), tri.labels)}"
        )
    if k == "cube":
        inner = cmd.inner or SquarePart()
        return (
            f"\\cube{org}|{cmd.placements}|{_fmt_styles(cmd.styles)}"
            f"{_fmt_extent(cmd.extent)}{_fmt_payload(cmd.nodes, cmd.labels)}"
            f"({inner.origin.x},{inner.origin.y})|{inner.placements}|"
            f"{_fmt_styles(inner.styles)}{_fmt_extent(inner.extent)}"
            f"{_fmt_payload(inner.nodes, inner.labels)}"
            f"|{cmd.conn_placements}|{_fmt_styles(cmd.conn_styles)}"
            f"{_fmt_payload((), cmd.conn_labels)}"
        )
    if k in _INLINE:
        out = f"\\{k}{_fmt_styles(cmd.styles)}<{cmd.length}>"
        if k == "three":
            sup, mid, sub = cmd.labels
            return out + f"^{{{sup}}}|{{{mid}}}_{{{sub}}}"
        sup, sub = cmd.labels
        return out + f"^{{{sup}}}_{{{sub}}}"
    if k == "twoar":
        return f"\\twoar({cmd.direction[0]},{cmd.direction[1]})"
    if k == "scalefactor":
        return f"\\scalefactor{{{cmd.factor}}}"
    raise ValueError(f"cannot format command kind {k!r}")
