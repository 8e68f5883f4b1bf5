"""The token walk: the reference model of every scan in ``diagc.lexer``.

It reads the token list of ``lexer.tokens`` one token at a time.  The
scans that jump through the text by pattern must agree with it on every
input.
"""
from typing import Sequence

from diagc.lexer import tokens


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


def split_top_by_tokens(text: str, seps: str) -> list:
    """``split_top`` by the token walk."""
    toks = tokens(text, comments=False)
    parts = []
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


def tidy_by_tokens(toks: Sequence[str]) -> str:
    """Source tokens as a section reads them: comments dropped, each
    whitespace run one space."""
    return "".join(" " if t[0] in " \t\r\n" else "" if t[0] == "%" else t for t in toks)
