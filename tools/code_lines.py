"""Count the code lines of Python modules.

    python3 tools/code_lines.py [path ...]

A code line is a non-blank line that holds a token other than a comment,
outside docstrings.  Tokens come from `tokenize`, and a token that spans
lines, such as a triple-quoted string, counts on every line it spans.
Docstrings come from `ast`: the string that opens a module, class or
function body.  Each path is a file or a directory searched for `*.py`;
the default is the repository's `src/multlab`.  The script prints the
count per module, its path relative to the working directory, and the
total, and checks nothing.
"""

from __future__ import annotations

import ast
import os
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The code lines of the Python file at `path`."""
    source = path.read_bytes()
    docs = docstring_lines(ast.parse(source))
    with path.open("rb") as f:
        tokens = tokenize.tokenize(f.readline)
        lines = {row for tok in tokens if tok.type not in SKIPPED
                 for row in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docs)


def main(argv: list[str]) -> None:
    paths = [Path(a) for a in argv] or [ROOT / "src" / "multlab"]
    files = sorted(f for p in paths for f in (p.rglob("*.py") if p.is_dir() else [p]))
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d}  {os.path.relpath(f)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
