"""Command-line driver.

Subcommands::

    congames nash     --scenario 1 --e1-min 0.1 --e1-max 2.4 --e1-step 0.1
    congames worst dpp --scenario 2 --V 200 --alpha 4e4 --T 100000 --reps 10
    congames evaluate --game g.txt --strategy s.txt --mode vs-worst-case

Every sweep command takes the grid, ``--scenario``, ``--reps``, ``--seed``,
``--samples`` and ``--out``, plus only the settings its solver reads, with
the defaults of :data:`congames.experiments.SOLVER_SETTINGS`: ``--epsilon``
for nash, ``--V``, ``--alpha`` and ``--T`` for dpp, ``--alpha`` and ``--T``
for md and a1, none for explicit.  ``worst`` takes its method first, so its
flags follow the method.  ``evaluate`` reads ``--opponent`` in vs-strategy
mode only, and ``--player`` in the other modes only.  Sweeps print a CSV
table (or write it with ``--out``); reruns with the same flags and seed are
byte-identical.  Exit status is 0 on success and 2 on any usage, file, or
configuration error, including a flag the command's solver or
``evaluate``'s mode does not read.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import SOLVER_SETTINGS, ScenarioSpec, evaluate_report, run_scenario
from .gamefile import GameFileError, load_game, load_strategy
from .montecarlo import McConfig

# the evaluate modes that read each optional flag (vs-strategy plays the
# strategy as A against the opponent as B); another mode refuses the flag
EVALUATE_FLAG_MODES = {
    "opponent": ("vs-strategy",),
    "player": ("stats", "vs-worst-case"),
}

SETTING_HELP = {
    "epsilon": "equilibrium threshold",
    "V": "penalty weight",
    "alpha": "step parameter",
    "T": "iteration count",
}


def _opt(parser, flag: str, type_, default, help_):
    """Add --flag with its default in the help."""
    parser.add_argument(f"--{flag}", type=type_, default=default, help=f"{help_} (default {default})")


def _sweep_parser(sub, command: str, solver: str, help_: str):
    parser = sub.add_parser(command, help=help_)
    _opt(parser, "scenario", int, 1, "preset scenario 1, 2, or 3")
    _opt(parser, "e1-min", float, 0.1, "smallest mean of resource 1")
    _opt(parser, "e1-max", float, 2.4, "largest mean of resource 1")
    _opt(parser, "e1-step", float, 0.1, "sweep step")
    _opt(parser, "reps", int, 1, "independent repetitions per sweep point")
    _opt(parser, "seed", int, 0, "master seed")
    _opt(parser, "samples", int, 100_000, "Monte Carlo samples per estimate")
    # each default's type is the flag's type: T is an int, the others floats
    for name, default in SOLVER_SETTINGS[solver].items():
        _opt(parser, name, type(default), default, SETTING_HELP[name])
    parser.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    parser.set_defaults(solver=solver)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congames",
        description="Two-player stochastic resource-sharing games: equilibria and worst-case strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _sweep_parser(sub, "nash", "nash", "approximate-equilibrium sweep")

    worst = sub.add_parser("worst", help="worst-case utility sweep")
    methods = worst.add_subparsers(dest="method", required=True)
    for solver in SOLVER_SETTINGS:
        if solver.startswith("worst-"):
            method = solver.removeprefix("worst-")
            _sweep_parser(methods, method, solver, f"worst-case sweep with the {method} solver")

    ev = sub.add_parser("evaluate", help="evaluate a strategy file in a game file")
    ev.add_argument("--game", required=True, help="game description file")
    ev.add_argument("--strategy", required=True, help="strategy file")
    ev.add_argument("--mode", choices=["stats", "vs-worst-case", "vs-strategy"], default="stats")
    ev.add_argument("--opponent", help="opponent strategy file (vs-strategy only)")
    ev.add_argument("--player", choices=["A", "B"], help="player of the strategy (default A; not vs-strategy)")
    _opt(ev, "samples", int, 100_000, "Monte Carlo samples")
    _opt(ev, "seed", int, 0, "seed")
    return parser


def _e1_grid(args) -> tuple[float, ...]:
    if args.e1_step <= 0:
        raise ValueError("--e1-step must be positive")
    if args.e1_max < args.e1_min:
        raise ValueError("--e1-max must be >= --e1-min")
    count = int((args.e1_max - args.e1_min) / args.e1_step + 1e-9) + 1
    return tuple(args.e1_min + k * args.e1_step for k in range(count))


def _run_sweep(args) -> int:
    spec = ScenarioSpec(
        args.scenario,
        args.solver,
        _e1_grid(args),
        n_samples=args.samples,
        seed=args.seed,
        repetitions=args.reps,
        **{name: getattr(args, name) for name in SOLVER_SETTINGS[args.solver]},
    )
    csv = run_scenario(spec).to_csv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    return 0


def _run_evaluate(args) -> int:
    for flag, modes in EVALUATE_FLAG_MODES.items():
        if getattr(args, flag) is not None and args.mode not in modes:
            raise ValueError(f"--mode {args.mode} does not read --{flag}")
    game = load_game(args.game, rng=args.seed)
    strategy = load_strategy(args.strategy, game)
    opponent = load_strategy(args.opponent, game) if args.opponent else None
    report = evaluate_report(
        strategy,
        game,
        args.mode,
        mc=McConfig(n_samples=args.samples, seed=args.seed),
        opponent=opponent,
        player=args.player or "A",
    )
    for key, value in report.items():
        if isinstance(value, list):
            print(f"{key}: " + " ".join(f"{v:.9g}" for v in value))
        else:
            print(f"{key}: {value:.9g}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "evaluate":
            return _run_evaluate(args)
        return _run_sweep(args)
    except (ValueError, GameFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
