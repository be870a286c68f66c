"""Each demo script, and each Python block of the README, runs to completion
against the library in ``src``; each CLI line of the README parses."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from congames.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
README_CLI_LINES = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
    for line in block.splitlines()
    if line.startswith("congames ")
]


def run_python(*args):
    """Run a fresh interpreter from the repository root with ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_demos_are_found():
    assert DEMOS
    assert README_BLOCKS
    assert len(README_CLI_LINES) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{i}" for i in range(1, len(README_BLOCKS) + 1)])
def test_readme_block_runs(block):
    proc = run_python("-c", block)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("line", README_CLI_LINES)
def test_readme_cli_line_parses(line):
    # parsed only: a flag the command does not take exits 2 here
    args = build_parser().parse_args(shlex.split(line, comments=True)[1:])
    assert args.command in ("nash", "worst", "evaluate")
