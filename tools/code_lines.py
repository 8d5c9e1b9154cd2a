"""Count the code lines of Python files: lines that are neither blank,
comments nor docstrings.

    python3 tools/code_lines.py [PATH ...]

Each PATH is a file or a directory searched for ``*.py`` files; the
default is ``src/graphcode_lt perfbench tests``.  Prints one line per file
and a total per PATH.  A docstring is the string that opens a module,
class or function body; every line it spans is left out, and so is a
line that holds only comments.  Uses the standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_PATHS = ("src/graphcode_lt", "perfbench", "tests")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that carry code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    for root in argv or DEFAULT_PATHS:
        path = Path(root)
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        total = 0
        for file in files:
            count = code_lines(file.read_text(encoding="utf-8"))
            total += count
            print(f"{count:7d}  {file}")
        print(f"{total:7d}  {root} (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
