"""Time one CLI sweep several times in one process, with its minor faults.

Usage:

    python tools/sweep_faults.py [--repeat K] -- CLI_ARGS...

Runs ``congames.cli.main(CLI_ARGS)`` K times (default 5) in this one
process, its printed table discarded, and prints one line per sweep: its
number, its wall time in seconds and the minor page faults it took, read
from ``getrusage`` of this process alone.  The first sweep also pays for
imports, kernel compiles and the heap's first growth; the later ones show
what a sweep costs once the process is warm, so a sweep that frees and
re-faults its draw-sized arrays shows up as faults that do not fall after
the first.  Run it from the repository root or anywhere else: it reads the
sources under ``src/`` beside this file.  Exits with the CLI's status when a
sweep fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from congames.cli import main as cli_main  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="sweeps to run (default 5)")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="the CLI's arguments, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    if args.repeat < 1 or not cli_args:
        parser.error("need --repeat >= 1 and the CLI's arguments after --")
    print("sweep wall_s minor_faults")
    for i in range(1, args.repeat + 1):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(cli_args)
        wall = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        if code:
            return code
        print(f"{i} {wall:.4f} {faults}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
