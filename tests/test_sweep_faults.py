"""The output of ``tools/sweep_faults.py``, which times one CLI sweep
several times in one process beside its minor faults."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sweep_faults.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_prints_one_line_of_time_and_faults_per_sweep():
    # the format only: the counts depend on the host and the process
    done = run_tool("--repeat", "2", "--", "worst", "md", "--scenario", "2", "--T", "200", "--samples", "2000")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "sweep wall_s minor_faults"
    assert [line.split()[0] for line in lines[1:]] == ["1", "2"]
    assert all(re.fullmatch(r"\d+ \d+\.\d{4} \d+", line) for line in lines[1:])


def test_a_failing_sweep_ends_with_the_cli_status():
    done = run_tool("--repeat", "2", "--", "worst", "md", "--scenario", "2", "--samples", "1")
    assert done.returncode == 2
    assert done.stdout == "sweep wall_s minor_faults\n"
    assert "n_samples must be >= 2" in done.stderr
