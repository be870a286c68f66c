"""Print the generated source of one solver's round kernel.

Usage:

    python tools/kernel_source.py dpp N A B
    python tools/kernel_source.py md N B
    python tools/kernel_source.py a1 N B

``dpp`` builds the drift-plus-penalty round for N resources, the first A
private to player A and the next B to player B
(``congames.dpp._round_kernel``); ``md`` the mirror-descent round for N
resources, the first B private to B (``congames.md._round_kernel``); and
``a1`` the A1 round for N resources, the B after resource 0 private to B
(``congames.quantile._round_kernel``).  Prints the kernel's source as
registered in :mod:`linecache` under its file name, such as
``<dpp round kernel n=3 a=1 b=1>``: the lines that tracebacks, ``pdb`` and
profilers show.  Run it from the repository root or anywhere else: it
reads the sources under ``src/`` beside this file.
"""

from __future__ import annotations

import argparse
import importlib
import linecache
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# solver -> (module of its _round_kernel, the kernel's arguments, resources
# no block may take: A1's resource 0 is A's)
KERNELS = {
    "dpp": ("congames.dpp", ("N", "A", "B"), 0),
    "md": ("congames.md", ("N", "B"), 0),
    "a1": ("congames.quantile", ("N", "B"), 1),
}


def kernel_source(solver: str, *shape: int) -> str:
    """The source of ``solver``'s round kernel for ``shape``, as
    :mod:`linecache` holds it."""
    kernel = importlib.import_module(KERNELS[solver][0])._round_kernel(*shape)
    return "".join(linecache.getlines(kernel.__code__.co_filename))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("solver", choices=KERNELS)
    parser.add_argument("shape", type=int, nargs="+", help="N A B for dpp, N B for md and a1")
    args = parser.parse_args(argv)
    _, names, reserved = KERNELS[args.solver]
    if len(args.shape) != len(names):
        parser.error(f"{args.solver} takes {' '.join(names)}")
    n, *blocks = args.shape
    if n < 1 or min(blocks) < 0 or sum(blocks) + reserved > n:
        parser.error(f"need N >= 1 and 0 <= {' + '.join(names[1:])} <= N{f' - {reserved}' if reserved else ''}")
    sys.stdout.write(kernel_source(args.solver, *args.shape))
    return 0


if __name__ == "__main__":
    sys.exit(main())
