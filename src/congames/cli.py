"""Command-line driver.

Subcommands::

    congames nash     --scenario 1 --e1-min 0.1 --e1-max 2.4 --e1-step 0.1
    congames worst dpp --scenario 2 --V 200 --alpha 4e4 --T 100000 --reps 10
    congames evaluate --game g.txt --strategy s.txt --mode vs-worst-case

Sweeps print a CSV table (or write it with ``--out``); reruns with the same
flags and seed are byte-identical.  Unset ``--alpha`` and ``--T`` take the
solver's entry in :data:`congames.experiments.STEP_DEFAULTS` (dpp 4e4 and
100000, md and a1 50 and 10000).  Exit status is 0 on success and 2 on any
usage, file, or configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import ScenarioSpec, evaluate_report, run_scenario
from .gamefile import GameFileError, load_game, load_strategy
from .montecarlo import McConfig


def _opt(parser, flag: str, type_, default, help_):
    """Add --flag with its default in the help (None: per solver)."""
    shown = "per solver" if default is None else default
    parser.add_argument(f"--{flag}", type=type_, default=default, help=f"{help_} (default {shown})")


def _sweep_flags(parser):
    _opt(parser, "scenario", int, 1, "preset scenario 1, 2, or 3")
    _opt(parser, "e1-min", float, 0.1, "smallest mean of resource 1")
    _opt(parser, "e1-max", float, 2.4, "largest mean of resource 1")
    _opt(parser, "e1-step", float, 0.1, "sweep step")
    _opt(parser, "reps", int, 1, "independent repetitions per sweep point")
    _opt(parser, "seed", int, 0, "master seed")
    _opt(parser, "samples", int, 100_000, "Monte Carlo samples per estimate")
    _opt(parser, "epsilon", float, 1e-3, "equilibrium threshold (nash)")
    _opt(parser, "V", float, 200.0, "penalty weight (dpp)")
    _opt(parser, "alpha", float, None, "step parameter (dpp / md / a1)")
    _opt(parser, "T", int, None, "iteration count (dpp / md / a1)")
    parser.add_argument("--out", default=None, help="write the CSV here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congames",
        description="Two-player stochastic resource-sharing games: equilibria and worst-case strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    nash = sub.add_parser("nash", help="approximate-equilibrium sweep")
    _sweep_flags(nash)

    worst = sub.add_parser("worst", help="worst-case utility sweep")
    worst.add_argument("method", choices=["explicit", "dpp", "md", "a1"])
    _sweep_flags(worst)

    ev = sub.add_parser("evaluate", help="evaluate a strategy file in a game file")
    ev.add_argument("--game", required=True, help="game description file")
    ev.add_argument("--strategy", required=True, help="strategy file")
    ev.add_argument("--mode", choices=["stats", "vs-worst-case", "vs-strategy"], default="stats")
    ev.add_argument("--opponent", default=None, help="opponent strategy file (vs-strategy)")
    ev.add_argument("--player", choices=["A", "B"], default="A")
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


def _run_sweep(solver: str, args) -> int:
    spec = ScenarioSpec(
        args.scenario,
        solver,
        _e1_grid(args),
        epsilon=args.epsilon,
        V=args.V,
        alpha=args.alpha,
        T=args.T,
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
    game = load_game(args.game, rng=args.seed)
    strategy = load_strategy(args.strategy, game)
    opponent = load_strategy(args.opponent, game) if args.opponent else None
    report = evaluate_report(
        strategy,
        game,
        args.mode,
        mc=McConfig(n_samples=args.samples, seed=args.seed),
        opponent=opponent,
        player=args.player,
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
        if args.command == "nash":
            return _run_sweep("nash", args)
        if args.command == "worst":
            return _run_sweep(f"worst-{args.method}", args)
        return _run_evaluate(args)
    except (ValueError, GameFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
