"""The one lexical rule of the command language, shared by every reader.

A backslash and a run of letters (``str.isalpha``) is a control word, a
backslash and any other character is a control symbol, and a backslash
at the very end stands alone.  ``%`` starts a comment that runs through
its line end: LF, CR LF or CR.  A run of spaces, tabs and line breaks is
one token; any other character is a token of its own.  Braces nest;
control sequences are atomic, so the brace of ``\\{`` or ``\\}`` never
counts.

Source text has comments.  Payload fields, IR text fields and measured
text are already past the reader, so there ``%`` is an ordinary
character.

Readers do not walk token lists.  ``token_at`` reads the one token at a
position, and ``BLANK`` skips whitespace and comments in one match.
``section_end`` is the one scan for braces and stop characters, which
``split_top`` and ``group_end`` call.  It runs a pattern, compiled once
per stop set, that matches only ``{``, ``}``, the stops, control symbols
and, in source text, comments.  A control symbol is the only token that
can hide a brace, a stop or a ``%``; the letters of a control word and
every other character never count, so ``re`` skips them.
``drop_controls`` cuts every control sequence out of measured text in
one substitution.

A backslash before a line break (LF, CR LF or CR) is a control space,
as plain TeX defines ``\\^^M``: ``tidy`` spells it ``\\ ``, so no field
holds a line break.

The common spelling of a field is text that ``tidy`` leaves as it is,
with braces at most two deep: ``kept_field`` is its pattern, for a
reader that takes a whole command in one match.  ``GROUP_INSIDE`` is
the pattern of a group's inside, which the parser's ``cut`` and the IR
reader share.

Only the parser's section reader and name fallback, ``format_command``
and the IR reader's fallback read a token at a time, tidy a section or
scan to a stop, so the patterns of ``token_at``, ``tidy`` and
``section_end`` are compiled on first use: a run over the committed
corpus compiles none of them.
"""
from __future__ import annotations

import re
from functools import lru_cache
from typing import List, Pattern, Tuple

_CONTROL = r"\\[^\W\d_]+|\\.|\\"
LINE_END = r"\r\n?|\n"  # CR LF, a lone CR or LF each end one line
_COMMENT = r"%[^\r\n]*(?:" + LINE_END + ")?"
_CONTROLS = re.compile(_CONTROL, re.DOTALL)
_SYMBOL = r"\\[\W\d_]"  # a control symbol; \ and a letter starts a control word

BLANK = re.compile(r"(?:[ \t\r\n]+|" + _COMMENT + ")*")  # whitespace and comments


@lru_cache(maxsize=None)
def _source() -> Pattern[str]:
    """One source token, compiled on first use: only the section reader
    and the name fallback read a token at a time."""
    return re.compile(_CONTROL + "|" + _COMMENT + r"|[ \t\r\n]+|.", re.DOTALL)


@lru_cache(maxsize=None)
def _tidy() -> Pattern[str]:
    """What ``tidy`` rewrites, compiled on first use: only the section
    reader tidies.  In a section a control sequence stays, a comment goes,
    a backslash and a line break is a control space and a whitespace run
    becomes one space."""
    return re.compile(r"(\\(?:" + LINE_END + r"))|(\\.)|(" + _COMMENT + r")|[ \t\r\n]+")


def _word_end(tok: str) -> int:
    """Length of the control sequence that begins ``tok``, a backslash and
    a run of ``[^\\W\\d_]``.  That class also takes numerals that are not
    letters (², ½, Ⅻ); the word ends before the first of them, and a
    backslash and such a numeral is a control symbol."""
    return 1 + max(1, next(i for i, c in enumerate(tok[1:]) if not c.isalpha()))


def drop_controls(text: str) -> Tuple[str, int]:
    """``text`` with its control sequences cut out, and how many there were."""
    if text.isascii():  # where [^\W\d_] is exactly str.isalpha
        return _CONTROLS.subn("", text)
    return _CONTROLS.subn(_past_word, text)


def _past_word(tok: re.Match) -> str:
    """What a control sequence leaves: the characters that end an odd
    control word."""
    tok = tok[0]
    if len(tok) > 2 and not tok[1:].isalpha():
        return tok[_word_end(tok):]
    return ""


def token_at(text: str, pos: int) -> str:
    """The source token that starts at ``pos``, where a source token
    begins; ``""`` at the end."""
    tok = _source().match(text, pos)
    if tok is None:
        return ""
    tok = tok[0]
    if len(tok) > 2 and tok[0] == "\\" and not tok.isascii() and not tok[1:].isalpha():
        return tok[:_word_end(tok)]
    return tok


def lone_backslash(text: str, pos: int) -> bool:
    """Whether ``text`` ends in a lone backslash, read from ``pos``, where
    a source token begins."""
    return text[-1:] == "\\" and _source().findall(text, pos)[-1:] == ["\\"]


@lru_cache(maxsize=None)
def _scanner(stops: str, comments: bool) -> Pattern[str]:
    """The tokens a scan to ``stops`` must see: the braces and stops, and
    the control symbols and comments that can hide one; compiled on first
    use, as only the readers' fallbacks scan."""
    hiding = _SYMBOL + "|" + _COMMENT if comments else _SYMBOL
    return re.compile(hiding + "|[{}" + re.escape(stops) + "]")


def section_end(text: str, pos: int, stops: str, comments: bool = True) -> int:
    """Index of the first token from ``pos`` at brace depth 0 that begins
    with a character of ``stops`` or is a ``}`` with nothing to close;
    ``len(text)`` when there is none.  ``comments`` says whether ``%``
    starts a comment, as in source text."""
    depth = 0
    for tok in _scanner(stops, comments).finditer(text, pos):
        c = tok[0]  # no stop is \ or %, so a symbol or comment is never in stops
        if c == "{":
            depth += 1
        elif c == "}":
            if not depth:
                return tok.start()
            depth -= 1
        elif not depth and c in stops:
            return tok.start()
    return len(text)


def tidy(section: str) -> str:
    """Source text of a section as its fields read it: comments dropped,
    each whitespace run one space, a backslash and a line break ``\\ ``,
    other control sequences as they are."""
    return _tidy().sub(_tidied, section)


def _tidied(tok: re.Match) -> str:
    return "\\ " if tok[1] else tok[2] or ("" if tok[3] else " ")


def split_top(text: str, seps: str) -> List[str]:
    """Split comment-free text at depth-0 tokens that begin with a char of
    ``seps``; a ``}`` with nothing to close is an ordinary character."""
    parts: List[str] = []
    start, end = 0, -1
    while True:
        end = section_end(text, end + 1, seps, False)
        if end == len(text):
            return parts + [text[start:]]
        if text[end] != "}":
            parts.append(text[start:end])
            start = end + 1


def group_end(text: str, start: int) -> int:
    """Index just past the ``}`` that closes the ``{`` at ``start``, where a
    token of comment-free text begins; -1 when either is missing."""
    if not text.startswith("{", start):
        return -1
    end = section_end(text, start + 1, "", False)
    return end + 1 if end < len(text) else -1


# in a kept field: a backslash and the character after it (a control symbol,
# or the start of a control word), or a single space
_KEPT = r"\\[^\r\n]| (?![ \t\r\n])"
_ORDINARY = r"[^{}\\% \t\r\n"  # a class, closed by the caller


def kept_field(stops: str, depth: int = 2) -> str:
    """Pattern text of a field that ``tidy`` leaves as it is, with no
    character of ``stops`` outside braces: ordinary characters, a
    backslash and any character but a line break, single spaces, and
    brace groups nested at most ``depth`` deep.  Anything else (a
    comment, a line break, a whitespace run, deeper braces) does not
    match."""
    inner = _ORDINARY + "]|" + _KEPT  # in the deepest group
    for _ in range(depth - 1):
        inner = _ORDINARY + "]|" + _KEPT + r"|\{(?:" + inner + r")*\}"
    return ("(?:" + _ORDINARY + re.escape(stops) + "]|" + _KEPT + r"|\{(?:" + inner
            + r")*\})*")


# the inside of a group whose own groups nest at most one level: a character
# but a brace or a backslash, a backslash and the next character, or a group of those
GROUP_INSIDE = r"(?:[^{}\\]|\\.|\{(?:[^{}\\]|\\.)*\})*"


def strip_group(text: str) -> str:
    """Remove one outer brace level when the text is a single group."""
    if text[:1] == "{" and group_end(text, 0) == len(text):
        return text[1:-1]
    return text
