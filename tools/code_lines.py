"""Count the code lines of Python sources.

A code line is a line on which a token starts, leaving out comments,
docstrings and other bare-string statements, and blank lines.  A statement
split over several lines counts each line a token starts on; a string that
spans lines counts only the line it opens on.

Usage:

    python tools/code_lines.py PATH [PATH ...]
    python tools/code_lines.py --against REV PATH [PATH ...]

Each PATH is a ``.py`` file or a directory searched for ``*.py`` files.
Prints the count of each file, then the total.  With ``--against REV``
(any git revision) it prints, for each file under the PATHs in REV or in
the working tree, REV's count, the working tree's count and the change,
then the totals; a file missing on one side counts 0.  Run it from inside
the git repository.
"""

from __future__ import annotations

import ast
import io
import os
import subprocess
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


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def counts_at(rev: str, paths) -> dict[str, int]:
    """The code lines of each ``.py`` file under ``paths`` in git revision
    ``rev``, keyed by its path relative to the current directory."""
    names = git("ls-tree", "-r", "--name-only", rev, "--", *paths).splitlines()
    return {
        os.path.normpath(name): code_lines(git("show", f"{rev}:./{name}")) for name in names if name.endswith(".py")
    }


def counts_now(paths) -> dict[str, int]:
    """The code lines of each ``.py`` file under ``paths`` in the working
    tree, keyed as :func:`counts_at` keys them."""
    files = [path for path in python_files(paths) if path.is_file()]
    return {os.path.normpath(os.path.relpath(path)): code_lines(path.read_text()) for path in files}


def compare(rev: str, paths) -> None:
    before, after = counts_at(rev, paths), counts_now(paths)
    for name in sorted(before.keys() | after.keys()):
        old, new = before.get(name, 0), after.get(name, 0)
        print(f"{old:6d} {new:6d} {new - old:+6d}  {name}")
    old, new = sum(before.values()), sum(after.values())
    print(f"{old:6d} {new:6d} {new - old:+6d}  total")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    against = args[:1] == ["--against"]
    paths = args[2:] if against else args
    if not paths:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/code_lines.py [--against REV] PATH [PATH ...]", file=sys.stderr)
        return 2
    if against:
        compare(args[1], paths)
        return 0
    total = 0
    for path in python_files(paths):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
