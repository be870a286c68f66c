"""Sweep tables over the first resource's mean, plus one-shot evaluation.

The three preset scenarios share n = 3 exponential rewards with the means of
resources 2 and 3 pinned at 1; they differ in who observes what:

    1: nobody observes anything          (a, b, c, d) = (0, 0, 3, 0)
    2: player B observes resource 1      (0, 1, 2, 0)
    3: A observes 1, B observes 2        (1, 1, 1, 0)

A :class:`ScenarioSpec` names one preset by its number.  Its sweep varies
the exponential mean of resource 1 over a grid, runs the selected solver at
each point (averaging over ``repetitions`` derived seeds, save that on a
preset with no private block, where every solver is deterministic, one run
stands for them all), and emits one CSV row per point.  :func:`_unsolvable`
states, once, which presets each solver solves; the spec refuses the
others, and the CLI defaults each command's ``--scenario`` to the lowest
preset its solver solves.
:data:`SOLVER_CONFIGS` names each solver's config type
(:class:`~congames.nash.NashConfig`, :class:`~congames.dpp.DppConfig`,
:class:`~congames.md.MdConfig`, none for the closed form), which declares,
once, the settings the solver reads, their defaults and their checks.  The
spec holds one config, which the sweep hands to the solver as it is, and
the CLI offers each command its config's fields as flags.  A worst-case
spec also asks the max term's check
(:func:`congames.worstcase._check_max_term`), and a DPP spec the check of
the estimate that evaluates its runs' mixtures, so a ``n_samples`` the
evaluation cannot hold is refused before any solver runs.

:func:`run_scenario` works out each point's runs from the preset, once:
one seed per repetition, or only repetition 0's seed where the partition
has no private block.  It runs one loop over the points for every solver;
the solver picks only the header, the notes and the function that makes a
point's row and counts its failures (:func:`_nash_row` or
:func:`_worst_point`, each running and folding the point's runs, one per
seed, independent of each other).  Identical spec + seed reproduces the
table byte for byte.  A point whose DPP runs broke the queue cap, or whose
best-response runs did not converge, gets a ``WARNING`` note counting over
the repetitions (one run's count times the repetitions where one run stands
for them); its row is unchanged.
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
from .md import MdConfig, run_md
from .montecarlo import DEFAULT_SAMPLES, _check_estimate_budget, _payoffs, estimate_stats, simulate_payoff
from .nash import NashConfig, iterate_best_response, iteration_cap
from .quantile import solve_a1
from .rng import check_seed
from .strategies import Strategy, _mixture_columns
from .worstcase import _check_max_term, worst_case_objective, worst_case_utility

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
# one Partition per preset, so that every point of a sweep shares the
# index sets it caches
_PRESETS = {scenario: Partition(*sizes) for scenario, sizes in SCENARIO_PARTITIONS.items()}

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
    finite means, each of which gives resource 1 a law the catalog accepts
    (``Exponential(1 / e1)``: a subnormal e1 has no finite rate).
    ``config`` holds the solver's settings: an instance of its type in
    :data:`SOLVER_CONFIGS`, which has checked them already, or None for
    that type's defaults (worst-explicit takes none).
    ``repetitions`` must be an integer of at least 1, ``n_samples`` an
    integer of at least 1, and ``seed`` a non-negative integer.  Points x
    repetitions x n float64 results must fit
    :data:`~congames.game.UPFRONT_BUDGET_BYTES`.  A worst-case sweep whose
    preset lets B observe a resource samples its max term, so its
    ``n_samples`` must also pass that term's one check
    (:func:`~congames.worstcase._check_max_term`: at least 2, and B's b
    columns within the budget), and a worst-case DPP sweep's must pass the
    check of the estimate that evaluates each run's T-row mixture
    (:func:`~congames.montecarlo._check_estimate_budget`).  A nash sweep's
    epsilon must give a finite iteration cap at the grid's largest mean
    (:func:`~congames.nash.iteration_cap`).  All are checked
    here, before any solver runs, so a count of 2.5 or NaN is refused here
    too.
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
            Exponential(1.0 / v)  # resource 1's law: refuses a rate 1/e1 out of its range
        object.__setattr__(self, "e1_values", e1_values)
        check_count("repetitions", self.repetitions)
        # the sweep holds one length-n result per (point, rep) pair
        check_upfront_budget("sweep", len(e1_values) * self.repetitions, self.partition.n, rows="points x reps")
        check_count("n_samples", self.n_samples)
        check_seed(self.seed)
        if reason := _unsolvable(self.solver, self.scenario):
            raise ValueError(reason)
        if self.solver == "nash":  # the iteration cap grows with the means
            iteration_cap(scenario_game(self, max(e1_values)), self.config.epsilon)
        else:
            _check_max_term(self.partition, self.n_samples)
        if self.solver == "worst-dpp" and self.partition.a:  # the evaluation samples A's T-row mixture
            acting = _mixture_columns(self.config.T, self.partition.a, self.partition.n, self.n_samples)
            _check_estimate_budget(self.partition, "A", self.n_samples, acting)

    @property
    def partition(self) -> Partition:
        """The preset's partition, one object per preset."""
        return _PRESETS[self.scenario]


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
    """The point's row averaged over its runs, one per seed, and the number
    of runs that did not converge."""
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
    return np.mean(acc, axis=0), unconverged


def _worst_point(spec: ScenarioSpec, game: GameInstance, seeds):
    """The point's row for the selected worst-case solver, folded over its
    runs (one per seed), and the number of queue-cap violations of its DPP
    runs (0 for the other solvers).

    The row is the mean value; its standard error (the spread of the values
    over the runs when there are several, the one run's own stderr
    otherwise); the mean p; and the least and greatest value.  A point of
    a preset with no private block has one seed (:func:`run_scenario`),
    whose run is exact: its row has stderr 0 and value_min == value_max ==
    value.
    """
    values, ps = [], []
    violations = 0
    for seed in seeds:
        if spec.solver == "worst-explicit":
            sol = explicit_solution(game.means)
            p, value, stderr = sol.p, sol.value, 0.0
        elif spec.solver == "worst-dpp":
            mixture, diag = run_dpp(game, spec.config, seed)
            violations += diag.violations
            ev = worst_case_utility(mixture, game, spec.n_samples, seed)
            p, value, stderr = ev.stats.p, ev.value, ev.stderr
        elif spec.solver == "worst-md":
            p = run_md(game, spec.config, seed)
            value, stderr = worst_case_objective(p, game, n_samples=spec.n_samples, rng=seed)
        else:  # worst-a1
            p, value, stderr = solve_a1(game, spec.config, seed, spec.n_samples)
        values.append(value)
        ps.append(p)
    values = np.array(values)
    if len(values) > 1:  # otherwise stderr is the one run's own
        stderr = float(values.std(ddof=1) / math.sqrt(len(values)))
    row = np.concatenate([[values.mean(), stderr], np.mean(ps, axis=0), [values.min(), values.max()]])
    return row, violations


def run_scenario(spec: ScenarioSpec) -> SweepTable:
    """One CSV row per sweep point; deterministic for identical spec + seed.

    A point runs once per repetition, on the seed ``_rep_seed(spec, i,
    rep)``, except on a preset with no private block: there every solver is
    deterministic, so one run on repetition 0's seed stands for all of
    them, and a worst-case row's stderr is that run's own, 0.  The header
    still names ``reps``, and a warning counts that run's failures once per
    repetition."""
    n = spec.partition.n
    # seed [point][k] of each run, handed to whichever function runs it
    runs = spec.repetitions if spec.partition.a or spec.partition.b else 1
    seeds = [[_rep_seed(spec, i, rep) for rep in range(runs)] for i in range(len(spec.e1_values))]
    if spec.solver == "nash":
        header = (
            ("e1", "utility_a", "utility_b", "potential")
            + tuple(f"pa{k}" for k in range(1, n + 1))
            + tuple(f"pb{k}" for k in range(1, n + 1))
        )
        notes = [f"nash sweep: epsilon={spec.config.epsilon:g} reps={spec.repetitions} seed={spec.seed}"]
        warning = "best response did not converge in {} of {} reps"
        point_row = _nash_row
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
        # the cap holds by theorem when alpha >= V^2; a point that broke it
        # has no certified error bound
        warning = "{} DPP queue-cap violations over {} reps; the error bound is not certified"
        point_row = _worst_point
    rows = []
    for e1, point_seeds in zip(spec.e1_values, seeds):
        row, failures = point_row(spec, scenario_game(spec, e1), point_seeds)
        if failures:
            count = failures * spec.repetitions // runs  # over the repetitions the runs stand for
            notes.append(f"WARNING: e1={e1:.9g}: " + warning.format(count, spec.repetitions))
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
        utility_a, utility_b, _ = _payoffs(stats_a, stats_b, game)
        return {
            "utility_a": utility_a,
            "utility_b": utility_b,
            "simulated_a_mean": mean,
            "simulated_a_stderr": stderr,
        }
    raise ValueError(f"unknown mode {mode!r}")
