"""Count the lines of ``src/diagc/*.py`` that hold code.

A line holds code when a token other than a comment, a line break or
indentation sits on it, or a string token spans it, unless that string
is a docstring: the first statement of a module, class or function.
Blank lines, comment lines and docstrings are not counted.

Run it from the repository root:

    python tests/code_lines.py

It prints the total.  Its name keeps it out of pytest's collection.
"""
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "diagc"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The lines of the file at ``path`` that hold code."""
    source = path.read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> None:
    print(sum(code_lines(path) for path in sorted(SRC.glob("*.py"))))


if __name__ == "__main__":
    main()
