"""Command-line driver.

Subcommands::

    congames nash     --scenario 1 --e1-min 0.1 --e1-max 2.4 --e1-step 0.1
    congames worst dpp --scenario 2 --V 200 --alpha 4e4 --T 100000 --reps 10
    congames evaluate --game g.txt --strategy s.txt --mode vs-worst-case

Every sweep command takes the grid, ``--scenario``, ``--reps``, ``--seed``,
``--samples`` and ``--out``, plus one flag per field of its solver's config
type in :data:`congames.experiments.SOLVER_CONFIGS`, with that field's
default: ``--epsilon`` for nash (``NashConfig``), ``--V``, ``--alpha`` and
``--T`` for dpp (``DppConfig``), ``--alpha`` and ``--T`` for md and a1
(``MdConfig``), none for explicit.  The flags build the config, which checks
them.  ``--scenario`` defaults to the lowest preset the solver solves (3
for a1, 1 for the others).  ``worst`` takes its method first, so its flags
follow the method.  ``evaluate`` reads ``--opponent`` in vs-strategy mode
only, and ``--player`` in stats mode only.  Sweeps print a CSV table
(or write it with ``--out``); reruns with the same flags and seed are
byte-identical.  Exit status is 0 on success and 2 on any usage, file, or
configuration error, including a flag the command's solver or
``evaluate``'s mode does not read.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields

from .experiments import SCENARIO_PARTITIONS, SOLVER_CONFIGS, ScenarioSpec, _unsolvable, evaluate_report, run_scenario
from .game import check_setting, check_upfront_budget
from .gamefile import GameFileError, load_game, load_strategy
from .montecarlo import DEFAULT_SAMPLES
from .rng import check_seed

# the evaluate modes that read each optional flag (vs-strategy plays the
# strategy as A against the opponent as B, and vs-worst-case plays it as A
# against the worst case); another mode refuses the flag
EVALUATE_FLAG_MODES = {
    "opponent": ("vs-strategy",),
    "player": ("stats",),
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
    scenario = min(s for s in SCENARIO_PARTITIONS if not _unsolvable(solver, s))
    _opt(parser, "scenario", int, scenario, "preset scenario 1, 2, or 3")
    _opt(parser, "e1-min", float, 0.1, "smallest mean of resource 1")
    _opt(parser, "e1-max", float, 2.4, "largest mean of resource 1")
    _opt(parser, "e1-step", float, 0.1, "sweep step")
    _opt(parser, "reps", int, 1, "independent repetitions per sweep point")
    _opt(parser, "seed", int, 0, "master seed")
    _opt(parser, "samples", int, DEFAULT_SAMPLES, "Monte Carlo samples per estimate")
    # one flag per config field (the closed form has no config); each
    # default's type is the flag's type: T is an int, the others floats
    config_type = SOLVER_CONFIGS[solver]
    for field in fields(config_type) if config_type else ():
        _opt(parser, field.name, type(field.default), field.default, SETTING_HELP[field.name])
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
    for solver in SOLVER_CONFIGS:
        if solver.startswith("worst-"):
            method = solver.removeprefix("worst-")
            _sweep_parser(methods, method, solver, f"worst-case sweep with the {method} solver")

    ev = sub.add_parser("evaluate", help="evaluate a strategy file in a game file")
    ev.add_argument("--game", required=True, help="game description file")
    ev.add_argument("--strategy", required=True, help="strategy file")
    ev.add_argument("--mode", choices=["stats", "vs-worst-case", "vs-strategy"], default="stats")
    ev.add_argument("--opponent", help="opponent strategy file (vs-strategy only)")
    ev.add_argument("--player", choices=["A", "B"], help="player of the strategy (default A; stats only)")
    _opt(ev, "samples", int, DEFAULT_SAMPLES, "Monte Carlo samples")
    _opt(ev, "seed", int, 0, "seed")
    return parser


def _e1_grid(args) -> tuple[float, ...]:
    """The swept means; refuses, before building any, a grid whose points
    exceed the up-front budget."""
    for flag in ("e1-min", "e1-max", "e1-step"):
        check_setting(f"--{flag}", getattr(args, flag.replace("-", "_")))
    if args.e1_max < args.e1_min:
        raise ValueError("--e1-max must be >= --e1-min")
    span = (args.e1_max - args.e1_min) / args.e1_step + 1e-9  # inf when the step is tiny
    count = int(span) + 1 if span < math.inf else span
    check_upfront_budget("sweep", count, 1, rows="grid points")
    return tuple(args.e1_min + k * args.e1_step for k in range(count))


def _run_sweep(args) -> int:
    config_type = SOLVER_CONFIGS[args.solver]
    config = config_type(**{f.name: getattr(args, f.name) for f in fields(config_type)}) if config_type else None
    spec = ScenarioSpec(
        args.scenario,
        args.solver,
        _e1_grid(args),
        config,
        n_samples=args.samples,
        seed=args.seed,
        repetitions=args.reps,
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
    check_seed(args.seed)
    game = load_game(args.game, rng=args.seed)
    strategy = load_strategy(args.strategy, game)
    opponent = load_strategy(args.opponent, game) if args.opponent else None
    report = evaluate_report(
        strategy,
        game,
        args.mode,
        n_samples=args.samples,
        seed=args.seed,
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
