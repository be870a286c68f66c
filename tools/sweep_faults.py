"""Time one CLI sweep several times in one process, with its minor faults
and the growth of its peak RSS.

Usage:

    python tools/sweep_faults.py [--repeat K] [--profile R] -- CLI_ARGS...

Runs ``congames.cli.main(CLI_ARGS)`` K times (default 5) in this one
process, its printed table discarded, and prints one line per sweep: its
number, its wall time in seconds, the minor page faults it took and how
many MiB the process's peak resident set grew during it, both read from
``getrusage`` of this process alone (``ru_minflt`` and ``ru_maxrss``).
The first sweep also pays for imports, kernel compiles and the heap's
first growth; the later ones show what a sweep costs once the process is
warm, so a sweep that frees and re-faults its draw-sized arrays shows up
as faults that do not fall after the first.  The peak only grows, so a
sweep reads 0.00 MiB unless it held more at once than every sweep before
it: the first sweep's growth, read in two trees, shows what a memory
change saves without the benchmark.  Linux starts a process's
``ru_maxrss`` at the peak of the process that started it, so start the
tool from a shell or another small process: under a larger one, growth
below that process's peak reads 0.  With ``--profile R`` the last sweep
runs under :mod:`cProfile` (its wall time then includes the profiler's),
and the R functions with the most own time follow the sweep lines, one a
line: own seconds, calls, cumulative seconds and the function.  Run it
from the repository root or anywhere else: it reads the sources under
``src/`` beside this file.  Exits with the CLI's status when a sweep
fails.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import pstats
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from congames.cli import main as cli_main  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="sweeps to run (default 5)")
    parser.add_argument(
        "--profile", type=int, default=0, metavar="R", help="print the last sweep's R top own-time functions"
    )
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="the CLI's arguments, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    if args.repeat < 1 or args.profile < 0 or not cli_args:
        parser.error("need --repeat >= 1, --profile >= 0 and the CLI's arguments after --")
    print("sweep wall_s minor_faults maxrss_grew_mib")
    profile = cProfile.Profile()
    for i in range(1, args.repeat + 1):
        profiled = args.profile and i == args.repeat
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = profile.runcall(cli_main, cli_args) if profiled else cli_main(cli_args)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        if code:
            return code
        grew = (after.ru_maxrss - before.ru_maxrss) / 1024  # Linux: KiB
        print(f"{i} {wall:.4f} {after.ru_minflt - before.ru_minflt} {grew:.2f}")
    if args.profile:
        print_profile(profile, args.profile)
    return 0


def print_profile(profile: cProfile.Profile, rows: int):
    """The ``rows`` functions with the most own time in ``profile``."""
    stats = pstats.Stats(profile).stats  # (file, line, name) -> (_, calls, own, cumulative, _)
    top = sorted(stats.items(), key=lambda item: item[1][2], reverse=True)[:rows]
    print("own_s calls cum_s function")
    for (path, line, name), (_, calls, own, cumulative, _) in top:
        where = name if path == "~" else f"{Path(*Path(path).parts[-2:])}:{line}({name})"
        print(f"{own:.4f} {calls} {cumulative:.4f} {where}")


if __name__ == "__main__":
    sys.exit(main())
