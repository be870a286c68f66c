"""Count the code lines of Python sources.

A code line is a line on which a token starts, leaving out comments,
docstrings and other bare-string statements, and blank lines.  A statement
split over several lines counts each line a token starts on; a string that
spans lines counts only the line it opens on.

Usage:

    python tools/code_lines.py PATH [PATH ...]

Each PATH is a ``.py`` file or a directory searched for ``*.py`` files.
Prints the count of each file, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that mark layout or comments, not code
SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _bare_strings(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every statement that is only a string:
    docstrings and any other bare string."""
    return [
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    ]


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    bare = _bare_strings(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in SKIPPED or any(start <= token.start < end for start, end in bare):
            continue
        lines.add(token.start[0])
    return len(lines)


def python_files(paths) -> list[Path]:
    """The ``.py`` files among ``paths`` and under its directories, sorted
    within each directory."""
    files = []
    for path in map(Path, paths):
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return files


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    total = 0
    for path in python_files(paths):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
