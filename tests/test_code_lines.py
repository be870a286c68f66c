"""The code-line count of ``tools/code_lines.py``, which each change log
entry quotes for ``src/``."""

import importlib.util
import os
import subprocess
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


def commit(repo, message):
    for args in (["add", "-A"], ["commit", "-q", "-m", message]):
        subprocess.run(["git", "-c", "user.name=test", "-c", "user.email=test@example.com", *args], cwd=repo, check=True)


def test_against_compares_a_revision_with_the_working_tree(tmp_path, monkeypatch, capsys):
    # two commits: the second edits one file, removes one and adds one; the
    # working tree edits the first again, and a file outside .py is not
    # counted
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", os.devnull)
    monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")
    monkeypatch.chdir(tmp_path)
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    subprocess.run(["git", "init", "-q"], check=True)
    (pkg / "kept.py").write_text("x = 1\ny = 2\n")
    (pkg / "gone.py").write_text("z = 3\n")
    (pkg / "notes.txt").write_text("not python\n")
    commit(tmp_path, "first")
    (pkg / "kept.py").write_text("x = 1\ny = 2\nz = 3\n")
    (pkg / "gone.py").unlink()
    (pkg / "new.py").write_text(SAMPLE)
    commit(tmp_path, "second")
    (pkg / "kept.py").write_text("x = 1\n")

    def rows(rev):
        assert code_lines.main(["--against", rev, "pkg"]) == 0
        return [line.split() for line in capsys.readouterr().out.splitlines()]

    assert rows("HEAD~1") == [
        ["1", "0", "-1", os.path.join("pkg", "gone.py")],
        ["2", "1", "-1", os.path.join("pkg", "kept.py")],
        ["0", "9", "+9", os.path.join("pkg", "new.py")],
        ["3", "10", "+7", "total"],
    ]
    assert rows("HEAD") == [
        ["3", "1", "-2", os.path.join("pkg", "kept.py")],
        ["9", "9", "+0", os.path.join("pkg", "new.py")],
        ["12", "10", "-2", "total"],
    ]
