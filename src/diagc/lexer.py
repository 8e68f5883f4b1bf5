"""The one lexical rule of the command language, shared by every reader.

A backslash and a run of letters (``str.isalpha``) is a control word, a
backslash and any other character is a control symbol, and a backslash
at the very end stands alone.  ``%`` starts a comment that runs through
its newline.  A run of spaces, tabs and line breaks is one token; any
other character is a token of its own.  Braces nest; control sequences
are atomic, so the brace of ``\\{`` or ``\\}`` never counts.

Source text has comments.  Payload fields, IR text fields and measured
text are already past the reader, so there ``%`` is an ordinary
character.  ``group_end`` sees only braces and control sequences, which
the letter cut of ``tokens`` never changes, so it needs no tokens.
"""
from __future__ import annotations

import re
from typing import List, Sequence

_CONTROL = r"\\[^\W\d_]+|\\.|\\|"
_SOURCE = re.compile(_CONTROL + r"%[^\n]*\n?|[ \t\r\n]+|.", re.DOTALL)
_TEXT = re.compile(_CONTROL + r"[ \t\r\n]+|.", re.DOTALL)
_BRACES = re.compile(_CONTROL + r"[{}]", re.DOTALL)
_DEPTH = {"{": 1, "}": -1}  # a control sequence leaves the depth as it is

WHITESPACE = " \t\r\n"


def tokens(text: str, comments: bool = True) -> List[str]:
    """The tokens of ``text`` in order; joined, they give ``text`` back.

    A token's first character tells its kind: ``\\`` a control
    sequence (a lone ``\\`` only at the very end), ``%`` a comment (only
    when ``comments`` is true), whitespace a run of it.
    """
    toks = (_SOURCE if comments else _TEXT).findall(text)
    if text.isascii():  # where [^\W\d_] is exactly str.isalpha
        return toks
    # [^\W\d_] also takes numerals that are not letters (², ½, Ⅻ): cut such
    # a control word back to its letters; each character cut off is a token
    odd = [k for k, tok in enumerate(toks)
           if tok[0] == "\\" and not tok[1:].isalpha() and len(tok) > 2]
    for k in reversed(odd):
        tok = toks[k]
        n = 1 + max(1, next(i for i, c in enumerate(tok[1:]) if not c.isalpha()))
        toks[k:k + 1] = [tok[:n], *tok[n:]]
    return toks


def top_level_end(toks: Sequence[str], start: int, stops: str) -> int:
    """Index of the first token from ``start`` at brace depth 0 that begins
    with a character of ``stops`` or is a ``}`` with nothing to close;
    ``len(toks)`` when there is none."""
    depth = 0
    for k in range(start, len(toks)):
        tok = toks[k]
        if tok == "{":
            depth += 1
        elif tok == "}":
            if not depth:
                return k
            depth -= 1
        elif not depth and tok[0] in stops:
            return k
    return len(toks)


def split_top(text: str, seps: str) -> List[str]:
    """Split comment-free text at depth-0 tokens that begin with a char of ``seps``."""
    toks = tokens(text, comments=False)
    parts: List[str] = []
    start = scan = 0
    while True:
        end = top_level_end(toks, scan, seps)
        if end == len(toks):
            parts.append("".join(toks[start:]))
            return parts
        if toks[end] == "}":  # nothing to close: an ordinary character here
            scan = end + 1
            continue
        parts.append("".join(toks[start:end]))
        start = scan = end + 1


def group_end(text: str, start: int) -> int:
    """Index just past the ``}`` that closes the ``{`` at ``start``, where a
    token of comment-free text begins; -1 when either is missing."""
    if not text.startswith("{", start):
        return -1
    depth = 0
    for brace in _BRACES.finditer(text, start):
        depth += _DEPTH.get(brace[0], 0)
        if not depth:
            return brace.end()
    return -1


def strip_group(text: str) -> str:
    """Remove one outer brace level when the text is a single group."""
    if text[:1] == "{" and group_end(text, 0) == len(text):
        return text[1:-1]
    return text
