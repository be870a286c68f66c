"""The output of ``tools/sweep_faults.py``, which times one CLI sweep
several times in one process beside its minor faults and the growth of its
peak RSS."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# Linux starts a process's ru_maxrss at the peak of the process it was
# started from, so the tool is started from a small Python process, not
# from this larger one, whose peak would hide the sweeps' growth
SMALL_PARENT = [sys.executable, "-c", "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"]


def run_tool(*args):
    return subprocess.run(
        [*SMALL_PARENT, sys.executable, str(ROOT / "tools" / "sweep_faults.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


HEADER = "sweep wall_s minor_faults maxrss_grew_mib"


def test_prints_one_line_of_time_and_faults_per_sweep():
    # the format only: the counts depend on the host and the process
    done = run_tool("--repeat", "2", "--", "worst", "md", "--scenario", "2", "--T", "200", "--samples", "2000")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == HEADER
    assert [line.split()[0] for line in lines[1:]] == ["1", "2"]
    assert all(re.fullmatch(r"\d+ \d+\.\d{4} \d+ \d+\.\d{2}", line) for line in lines[1:])


def test_the_peak_growth_counts_what_a_sweep_holds():
    # one best-response point at 2 million samples holds its 2 world
    # columns, 30.5 MiB, so the first sweep raises the peak at least that
    # far; the second holds no more, and raises it less
    done = run_tool("--repeat", "2", "--", "nash", "--scenario", "3", "--e1-min", "1", "--e1-max", "1", "--samples", "2000000")
    assert done.returncode == 0, done.stderr
    first, second = (float(line.split()[3]) for line in done.stdout.splitlines()[1:])
    assert first >= 2 * 2_000_000 * 8 / 2**20
    assert second < first


def test_a_failing_sweep_ends_with_the_cli_status():
    done = run_tool("--repeat", "2", "--", "worst", "md", "--scenario", "2", "--samples", "1")
    assert done.returncode == 2
    assert done.stdout == HEADER + "\n"
    assert "n_samples must be >= 2" in done.stderr


def test_profile_prints_the_last_sweeps_top_own_time_functions():
    done = run_tool("--repeat", "2", "--profile", "5", "--", "nash", "--scenario", "3", "--samples", "2000")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:1] == [HEADER] and len(lines) == 1 + 2 + 1 + 5
    assert lines[3] == "own_s calls cum_s function"
    rows = [line.split(" ", 3) for line in lines[4:]]
    assert all(re.fullmatch(r"\d+\.\d{4}", own) and calls.isdigit() for own, calls, _, _ in rows)
    own = [float(row[0]) for row in rows]
    assert own == sorted(own, reverse=True)  # most own time first
    # one best-response sweep: the turns' estimates are among the functions
    profiled = run_tool("--repeat", "1", "--profile", "1000", "--", "nash", "--scenario", "3", "--samples", "2000").stdout
    assert "congames/montecarlo.py:" in profiled and "(estimate_stats)" in profiled


def test_a_negative_profile_is_refused():
    done = run_tool("--profile", "-1", "--", "nash", "--scenario", "3")
    assert done.returncode == 2
    assert "--profile >= 0" in done.stderr
