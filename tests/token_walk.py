"""The token walk: the reference model of every scan in ``diagc.lexer``.

It reads the token list of ``tokens`` one token at a time.  The scans
that jump through the text by pattern, and ``text_width``, which cuts
the control sequences out in one substitution, must agree with it on
every input.
"""
import re
from typing import List, Sequence

from diagc.lexer import _word_end

# the token rule, spelled here so that a change to the lexer's patterns
# shows as a difference: a backslash and a run of letters, a backslash and
# one other character, or a backslash alone at the end; a comment through
# its line end (CR LF, CR or LF); a whitespace run; any other character
_CONTROL = r"\\(?:[^\W\d_]+|.)?"
_TEXT = re.compile(_CONTROL + r"|[ \t\r\n]+|.", re.DOTALL)
_SOURCE = re.compile(_CONTROL + r"|%[^\r\n]*(?:\r\n|\r|\n)?|[ \t\r\n]+|.", re.DOTALL)


def tokens(text: str, comments: bool = True) -> List[str]:
    """The tokens of ``text`` in order; joined, they give ``text`` back.

    A token's first character tells its kind: ``\\`` a control
    sequence (a lone ``\\`` only at the very end), ``%`` a comment (only
    when ``comments`` is true), whitespace a run of it.
    """
    toks = (_SOURCE if comments else _TEXT).findall(text)
    if text.isascii():  # where [^\W\d_] is exactly str.isalpha
        return toks
    # cut an odd control word back to its letters; each character cut off
    # is a token
    odd = [k for k, tok in enumerate(toks)
           if tok[0] == "\\" and not tok[1:].isalpha() and len(tok) > 2]
    for k in reversed(odd):
        tok = toks[k]
        n = _word_end(tok)
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
    whitespace run one space, a backslash and a line break (LF, CR LF or
    CR) a control space."""
    out = []
    for k, t in enumerate(toks):
        if t[0] in " \t\r\n":
            if k and toks[k - 1] == "\\\r" and t[0] == "\n":
                t = t[1:]  # the LF of a CR LF after a backslash
            out.append(" " if t else "")
        elif t[0] != "%":
            out.append("\\ " if t in ("\\\n", "\\\r") else t)
    return "".join(out)
