"""``tools/kernel_source.py``, which prints a generated round kernel's
source as :mod:`linecache` holds it."""

import linecache
import subprocess
import sys
from pathlib import Path

import pytest

import congames.dpp
import congames.md
import congames.quantile

ROOT = Path(__file__).resolve().parent.parent


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "kernel_source.py"), *args], capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize(
    "args, round_kernel, name",
    [
        (("dpp", "3", "1", "1"), lambda: congames.dpp._round_kernel(3, 1, 1), "<dpp round kernel n=3 a=1 b=1>"),
        (("dpp", "2", "0", "2"), lambda: congames.dpp._round_kernel(2, 0, 2), "<dpp round kernel n=2 a=0 b=2>"),
        (("md", "3", "1"), lambda: congames.md._round_kernel(3, 1), "<md round kernel n=3 b=1>"),
        (("a1", "3", "1"), lambda: congames.quantile._round_kernel(3, 1), "<a1 round kernel n=3 b=1>"),
    ],
)
def test_prints_the_source_linecache_holds(args, round_kernel, name):
    # the tool's process compiles its own kernel; it prints the lines this
    # process's linecache holds for the same shape
    assert round_kernel().__code__.co_filename == name
    done = run_tool(*args)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "".join(linecache.getlines(name))
    assert done.stdout.startswith(f"def {args[0]}_rounds(")


@pytest.mark.parametrize(
    "args, message",
    [
        (("dpp", "3", "1"), "dpp takes N A B"),
        (("md", "3", "1", "1"), "md takes N B"),
        (("dpp", "3", "2", "2"), "0 <= A + B <= N"),
        (("md", "0", "0"), "need N >= 1"),
        (("a1", "3", "3"), "0 <= B <= N - 1"),
        (("md", "3", "-1"), "0 <= B <= N"),
    ],
)
def test_refuses_a_shape_its_solver_cannot_take(args, message):
    done = run_tool(*args)
    assert done.returncode == 2
    assert done.stdout == ""
    assert message in done.stderr
