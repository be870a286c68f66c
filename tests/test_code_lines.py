"""The code-line count of ``tools/code_lines.py``, which each change log
entry quotes for ``src/``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# each line's comment says whether it counts
SAMPLE = '''"""A module docstring: not code.

Still the docstring.
"""

import math  # counts

# a comment line: not code


def area(r):  # counts
    """A function docstring: not code."""
    "a bare string statement: not code"
    note = """this line counts, as the assignment starts on it;
    the lines the string spans
    """  # and the line it closes on do not
    return (  # counts
        math.pi  # counts
        * r ** 2  # counts
    )  # counts


class Shape:  # counts
    """A class docstring."""

    sides = 0  # counts
'''


def test_counts_the_lines_a_token_starts_on(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert code_lines.code_lines(path.read_text()) == 9


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SAMPLE)
    (tmp_path / "a.py").write_text("x = 1\n\n'''bare'''\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["1", str(tmp_path / "a.py")],
        ["9", str(tmp_path / "b.py")],
        ["10", "total"],
    ]
