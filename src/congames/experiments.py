"""Sweep tables over the first resource's mean, plus one-shot evaluation.

The three preset scenarios share n = 3 exponential rewards with the means of
resources 2 and 3 pinned at 1; they differ in who observes what:

    1: nobody observes anything          (a, b, c, d) = (0, 0, 3, 0)
    2: player B observes resource 1      (0, 1, 2, 0)
    3: A observes 1, B observes 2        (1, 1, 1, 0)

A :class:`ScenarioSpec` names one preset by its number.  Its sweep varies
the exponential mean of resource 1 over a grid, runs the selected solver at
each point (averaging over ``repetitions`` derived seeds; the closed form,
exact and seed-free, is solved once per point), and emits one CSV row per
point.  :func:`_unsolvable` states, once, which presets each solver
solves; the spec refuses the others, and the CLI defaults each command's
``--scenario`` to the lowest preset its solver solves.
:data:`SOLVER_CONFIGS` names each solver's config type
(:class:`~congames.nash.NashConfig`, :class:`~congames.dpp.DppConfig`,
:class:`~congames.md.MdConfig`, none for the closed form), which declares,
once, the settings the solver reads, their defaults and their checks.  The
spec holds one config, which the sweep hands to the solver as it is, and
the CLI offers each command its config's fields as flags.

:func:`run_scenario` derives every (point, repetition) seed once and runs
one loop over the points for every solver; the solver picks only the
header, the notes and the function that makes a point's row and warning
(:func:`_nash_row` or :func:`_worst_point`, each folding the point's
repetitions).  Mirror descent runs every (point, repetition) pair of the
sweep as one batch (:func:`congames.md.run_md_batch`) before the points are
evaluated; the other solvers run point by point.  Identical spec + seed
reproduces the table byte for byte.  A point whose DPP runs broke the queue
cap, or whose best-response runs did not converge, gets a ``WARNING`` note;
its row is unchanged.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .distributions import Exponential
from .dpp import DppConfig
from .dpp import run as run_dpp
from .explicit import explicit_solution
from .game import GameInstance, Partition, check_count, check_setting, check_upfront_budget
from .md import MdConfig, run_md_batch
from .montecarlo import DEFAULT_SAMPLES, estimate_stats, expected_utility, simulate_payoff
from .nash import NashConfig, iterate_best_response
from .quantile import solve_a1
from .rng import check_seed
from .strategies import Strategy
from .worstcase import worst_case_objective, worst_case_utility

__all__ = [
    "SCENARIO_PARTITIONS",
    "SOLVER_CONFIGS",
    "ScenarioSpec",
    "SweepTable",
    "scenario_game",
    "run_scenario",
    "evaluate_report",
]

SCENARIO_PARTITIONS = {1: (0, 0, 3, 0), 2: (0, 1, 2, 0), 3: (1, 1, 1, 0)}

# the config type of each solver's settings (the closed form reads none); a
# spec refuses a config of another type, and the CLI offers each command
# only its config's fields
SOLVER_CONFIGS = {
    "nash": NashConfig,
    "worst-explicit": None,
    "worst-dpp": DppConfig,
    "worst-md": MdConfig,
    "worst-a1": MdConfig,
}


def _unsolvable(solver: str, scenario: int) -> str | None:
    """Why ``solver`` cannot solve preset ``scenario``, or None when it can."""
    a, b, _, _ = SCENARIO_PARTITIONS[scenario]
    if solver == "worst-explicit" and (a or b):
        return "worst-explicit requires a == b == 0 (symmetric information)"
    if solver == "worst-md" and a:
        return "worst-md requires a == 0"
    if solver == "worst-a1" and a != 1:
        return "worst-a1 requires a == 1"
    return None


@dataclass(frozen=True)
class ScenarioSpec:
    """One sweep: preset scenario, solver, grid of resource 1's mean.

    ``e1_values`` is stored as a tuple of floats and must hold positive,
    finite means.  ``config`` holds the solver's settings: an instance of
    its type in :data:`SOLVER_CONFIGS`, which has checked them already, or
    None for that type's defaults (worst-explicit takes none).
    ``repetitions`` must be an integer of at least 1, ``n_samples`` an
    integer of at least 1, and at least 2 for a worst-case sweep whose
    preset lets B observe a resource (its max term is sampled), and
    ``seed`` a non-negative integer.  Points x repetitions x n float64
    results must fit :data:`~congames.game.UPFRONT_BUDGET_BYTES`.  All are
    checked here, before any solver runs, so a count of 2.5 or NaN is
    refused here too.
    """

    scenario: int
    solver: str
    e1_values: tuple[float, ...]
    config: NashConfig | DppConfig | MdConfig | None = None
    n_samples: int = DEFAULT_SAMPLES
    seed: int = 0
    repetitions: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIO_PARTITIONS:
            raise ValueError(f"scenario must be one of {sorted(SCENARIO_PARTITIONS)}")
        if self.solver not in SOLVER_CONFIGS:
            raise ValueError(f"solver must be one of {tuple(SOLVER_CONFIGS)}, got {self.solver!r}")
        config_type = SOLVER_CONFIGS[self.solver]
        if self.config is None and config_type:
            object.__setattr__(self, "config", config_type())
        if not isinstance(self.config, config_type or type(None)):
            raise ValueError(f"{self.solver} does not read a {type(self.config).__name__}")
        e1_values = tuple(float(v) for v in self.e1_values)
        if not e1_values:
            raise ValueError("sweep grid must be non-empty")
        for v in e1_values:
            check_setting("swept mean", v)
        object.__setattr__(self, "e1_values", e1_values)
        check_count("repetitions", self.repetitions)
        # the sweep holds one length-n result per (point, rep) pair
        check_upfront_budget("sweep", len(e1_values) * self.repetitions, self.partition.n, rows="points x reps")
        check_count("n_samples", self.n_samples)
        check_seed(self.seed)
        if reason := _unsolvable(self.solver, self.scenario):
            raise ValueError(reason)
        if self.solver != "nash" and self.partition.b:
            check_count("n_samples", self.n_samples, 2, " when player B observes a resource")

    @property
    def partition(self) -> Partition:
        return Partition(*SCENARIO_PARTITIONS[self.scenario])


@dataclass(frozen=True)
class SweepTable:
    header: tuple[str, ...]
    rows: np.ndarray
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(self.header):
            raise ValueError("rows must be 2-D with one column per header entry")
        rows = rows.copy()
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def to_csv(self) -> str:
        out = io.StringIO()
        for note in self.notes:
            out.write(f"# {note}\n")
        out.write(",".join(self.header) + "\n")
        for row in self.rows:
            out.write(",".join(f"{v:.9g}" for v in row) + "\n")
        return out.getvalue()


def scenario_game(spec: ScenarioSpec, e1: float) -> GameInstance:
    """The game at one sweep point: exponential rewards, resource 1 with
    mean ``e1`` (positive) and the others with mean 1."""
    part = spec.partition
    return GameInstance(part, (Exponential(1.0 / e1),) + (Exponential(1.0),) * (part.n - 1))


def _rep_seed(spec: ScenarioSpec, point: int, rep: int) -> int:
    ss = np.random.SeedSequence(spec.seed, spawn_key=(point, rep))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63))


def _nash_row(spec: ScenarioSpec, game: GameInstance, seeds):
    """The point's row averaged over its repetitions, one per seed, and a
    warning when some of them did not converge (None otherwise)."""
    acc = []
    unconverged = 0
    for seed in seeds:
        report = iterate_best_response(game, spec.config, spec.n_samples, seed)
        unconverged += not report.converged
        last = report.trace[-1]
        acc.append(
            np.concatenate(
                [
                    [last.utility_a, last.utility_b, last.potential],
                    report.stats_a.p,
                    report.stats_b.p,
                ]
            )
        )
    warning = f"best response did not converge in {unconverged} of {len(seeds)} reps" if unconverged else None
    return np.mean(acc, axis=0), warning


def _md_solutions(spec: ScenarioSpec, games, seeds) -> np.ndarray:
    """Every (point, rep) mirror-descent run of the sweep, stepped as one
    batch; entry [point, rep] is that run's average iterate."""
    ps = run_md_batch(
        [game for game in games for _ in range(spec.repetitions)],
        spec.config,
        [seed for point_seeds in seeds for seed in point_seeds],
    )
    return ps.reshape(len(games), spec.repetitions, -1)


def _worst_point(spec: ScenarioSpec, game: GameInstance, seeds, md_ps=None):
    """The point's row for the selected worst-case solver, folded over its
    repetitions (one per seed), and a warning when its DPP runs broke the
    queue cap (None otherwise).

    The row is the mean value; its standard error (the spread of the values
    over the repetitions when there are several, the one run's own stderr
    otherwise); the mean p; and the least and greatest value.  worst-md
    only evaluates: ``md_ps`` holds the point's average iterates, one row
    per repetition, from :func:`_md_solutions`.  The closed form is exact
    and reads no seed, so it is solved once, whatever the repetitions: its
    row has stderr 0 and value_min == value_max == value.
    """
    if spec.solver == "worst-explicit":
        sol = explicit_solution(game.means)
        return np.concatenate([[sol.value, 0.0], sol.p, [sol.value, sol.value]]), None
    values, ps = [], []
    violations = 0
    for rep, seed in enumerate(seeds):
        if spec.solver == "worst-dpp":
            mixture, diag = run_dpp(game, spec.config, seed)
            violations += diag.violations
            ev = worst_case_utility(mixture, game, spec.n_samples, seed)
            p, value, stderr = ev.stats.p, ev.value, ev.stderr
        elif spec.solver == "worst-md":
            p = md_ps[rep]
            value, stderr = worst_case_objective(p, game, n_samples=spec.n_samples, rng=seed)
        else:  # worst-a1
            p, value, stderr = solve_a1(game, spec.config, seed, spec.n_samples)
        values.append(value)
        ps.append(p)
    values = np.array(values)
    if len(values) > 1:  # otherwise stderr is the one run's own
        stderr = float(values.std(ddof=1) / math.sqrt(len(values)))
    row = np.concatenate([[values.mean(), stderr], np.mean(ps, axis=0), [values.min(), values.max()]])
    # the cap holds by theorem when alpha >= V^2; a point that broke it has
    # no certified error bound
    warning = (
        f"{violations} DPP queue-cap violations over {len(seeds)} reps; the error bound is not certified"
        if violations
        else None
    )
    return row, warning


def run_scenario(spec: ScenarioSpec) -> SweepTable:
    """One CSV row per sweep point; deterministic for identical spec + seed."""
    n = spec.partition.n
    games = [scenario_game(spec, e1) for e1 in spec.e1_values]
    # seed [point][rep] of each run, handed to whichever function runs it
    seeds = [[_rep_seed(spec, i, rep) for rep in range(spec.repetitions)] for i in range(len(games))]
    if spec.solver == "nash":
        header = (
            ("e1", "utility_a", "utility_b", "potential")
            + tuple(f"pa{k}" for k in range(1, n + 1))
            + tuple(f"pb{k}" for k in range(1, n + 1))
        )
        notes = [f"nash sweep: epsilon={spec.config.epsilon:g} reps={spec.repetitions} seed={spec.seed}"]

        def point_row(i):
            return _nash_row(spec, games[i], seeds[i])

    else:
        header = (
            ("e1", "value", "stderr")
            + tuple(f"p{k}" for k in range(1, n + 1))
            + ("value_min", "value_max")
        )
        notes = [
            f"worst-case sweep: solver={spec.solver} reps={spec.repetitions} seed={spec.seed}",
            "value_min/value_max is the min/max over repetitions, not a confidence band",
        ]
        md_ps = _md_solutions(spec, games, seeds) if spec.solver == "worst-md" else None

        def point_row(i):
            return _worst_point(spec, games[i], seeds[i], None if md_ps is None else md_ps[i])

    rows = []
    for i, e1 in enumerate(spec.e1_values):
        row, warning = point_row(i)
        if warning:
            notes.append(f"WARNING: e1={e1:.9g}: {warning}")
        rows.append(np.concatenate([[e1], row]))
    return SweepTable(header, np.vstack(rows), tuple(notes))


def evaluate_report(
    strategy: Strategy,
    game: GameInstance,
    mode: str,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    opponent: Strategy | None = None,
    player: str = "A",
) -> dict[str, float | list[float]]:
    """Evaluation summary for one strategy: its stats, its worst-case value,
    or its matchup against an explicit opponent, on ``n_samples`` draws of
    ``seed``."""
    if mode == "stats":
        stats = estimate_stats(strategy, game, player, n_samples=n_samples, rng=seed)
        return {"p": list(stats.p), "q": list(stats.q)}
    if mode == "vs-worst-case":
        if player != "A":
            raise ValueError("worst-case evaluation is defined for player A")
        ev = worst_case_utility(strategy, game, n_samples, seed)
        return {
            "value": ev.value,
            "stderr": ev.stderr,
            "collision_max_mean": ev.lambda_max_mean,
        }
    if mode == "vs-strategy":
        if opponent is None:
            raise ValueError("vs-strategy mode needs an opponent strategy")
        stats_a = estimate_stats(strategy, game, "A", n_samples=n_samples, rng=seed)
        stats_b = estimate_stats(opponent, game, "B", n_samples=n_samples, rng=seed)
        mean, stderr = simulate_payoff(strategy, opponent, game, n_samples=n_samples, rng=seed)
        return {
            "utility_a": expected_utility(stats_a, stats_b, game, "A"),
            "utility_b": expected_utility(stats_b, stats_a, game, "B"),
            "simulated_a_mean": mean,
            "simulated_a_stderr": stderr,
        }
    raise ValueError(f"unknown mode {mode!r}")
