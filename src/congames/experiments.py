"""Sweep tables over the first resource's mean, plus one-shot evaluation.

The three preset scenarios share n = 3 exponential rewards with the means of
resources 2 and 3 pinned at 1; they differ in who observes what:

    1: nobody observes anything          (a, b, c, d) = (0, 0, 3, 0)
    2: player B observes resource 1      (0, 1, 2, 0)
    3: A observes 1, B observes 2        (1, 1, 1, 0)

A :class:`ScenarioSpec` names one preset by its number.  Its sweep varies
the exponential mean of resource 1 over a grid, runs the selected solver at
each point (averaging over ``repetitions`` derived seeds), and emits one CSV
row per point.  :data:`SOLVER_SETTINGS` declares, once, which of the
settings ``epsilon``, ``V``, ``alpha`` and ``T`` each solver reads and
their defaults; the spec and the CLI both read it.  Mirror descent runs
every (point, repetition) pair of the sweep as one batch
(:func:`congames.md.run_md_batch`) before the points are evaluated; the
other solvers run point by point.  Identical spec + seed
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
from .game import GameInstance, Partition, check_setting, check_upfront_budget
from .md import MdConfig, run_md_batch
from .montecarlo import DEFAULT_SAMPLES, estimate_stats, expected_utility, simulate_payoff
from .nash import iterate_best_response
from .quantile import solve_a1
from .rng import check_seed
from .strategies import Strategy
from .worstcase import worst_case_objective, worst_case_utility

__all__ = [
    "SCENARIO_PARTITIONS",
    "SOLVER_SETTINGS",
    "ScenarioSpec",
    "SweepTable",
    "scenario_game",
    "run_scenario",
    "evaluate_report",
]

SCENARIO_PARTITIONS = {1: (0, 0, 3, 0), 2: (0, 1, 2, 0), 3: (1, 1, 1, 0)}

# the settings each solver reads, with their defaults; a spec refuses any
# other setting, and the CLI offers each command only its solver's flags
SOLVER_SETTINGS = {
    "nash": {"epsilon": 1e-3},  # convergence threshold
    "worst-explicit": {},
    "worst-dpp": {"V": 200.0, "alpha": 4.0e4, "T": 100_000},  # penalty weight, step, rounds
    "worst-md": {"alpha": 50.0, "T": 10_000},
    "worst-a1": {"alpha": 50.0, "T": 10_000},
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One sweep: preset scenario, solver, grid of resource 1's mean.

    ``e1_values`` is stored as a tuple of floats and must hold positive,
    finite means.  ``epsilon``, ``V``, ``alpha`` and ``T`` are the solver
    settings of :data:`SOLVER_SETTINGS`: one the solver reads takes its
    default there when left as None and must otherwise be positive and
    finite, and one it does not read must stay None.  ``n_samples`` must be
    at least 1, and at least 2 for a worst-case sweep whose preset lets B
    observe a resource (its max term is sampled), and ``seed`` a
    non-negative integer.  Points x repetitions x n float64 results must fit
    :data:`~congames.game.UPFRONT_BUDGET_BYTES`.  All are checked here,
    before any solver runs.
    """

    scenario: int
    solver: str
    e1_values: tuple[float, ...]
    epsilon: float | None = None
    V: float | None = None
    alpha: float | None = None
    T: int | None = None
    n_samples: int = DEFAULT_SAMPLES
    seed: int = 0
    repetitions: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIO_PARTITIONS:
            raise ValueError(f"scenario must be one of {sorted(SCENARIO_PARTITIONS)}")
        if self.solver not in SOLVER_SETTINGS:
            raise ValueError(f"solver must be one of {tuple(SOLVER_SETTINGS)}, got {self.solver!r}")
        settings = SOLVER_SETTINGS[self.solver]
        for name in ("epsilon", "V", "alpha", "T"):
            value = getattr(self, name)
            if name not in settings:
                if value is not None:
                    raise ValueError(f"{self.solver} does not read {name}")
            elif value is None:
                object.__setattr__(self, name, settings[name])
            else:
                check_setting(name, value)
        e1_values = tuple(float(v) for v in self.e1_values)
        if not e1_values:
            raise ValueError("sweep grid must be non-empty")
        for v in e1_values:
            check_setting("swept mean", v)
        object.__setattr__(self, "e1_values", e1_values)
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        # the sweep holds one length-n result per (point, rep) pair
        check_upfront_budget("sweep", len(e1_values) * self.repetitions, self.partition.n, rows="points x reps")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        check_seed(self.seed)
        part = self.partition
        if self.solver == "worst-explicit" and (part.a or part.b):
            raise ValueError("worst-explicit requires a == b == 0 (symmetric information)")
        if self.solver == "worst-md" and part.a:
            raise ValueError("worst-md requires a == 0")
        if self.solver == "worst-a1" and part.a != 1:
            raise ValueError("worst-a1 requires a == 1")
        if self.solver != "nash" and part.b and self.n_samples < 2:
            raise ValueError("n_samples must be >= 2 when player B observes a resource")

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


def _nash_row(spec: ScenarioSpec, game: GameInstance, point: int):
    """The point's averaged row, and how many repetitions did not converge."""
    acc = []
    unconverged = 0
    for rep in range(spec.repetitions):
        seed = _rep_seed(spec, point, rep)
        report = iterate_best_response(game, spec.epsilon, spec.n_samples, seed)
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


def _md_solutions(spec: ScenarioSpec, games) -> np.ndarray:
    """Every (point, rep) mirror-descent run of the sweep, stepped as one
    batch; entry [point, rep] is that run's average iterate."""
    seeds = [
        _rep_seed(spec, point, rep)
        for point in range(len(games))
        for rep in range(spec.repetitions)
    ]
    ps = run_md_batch(
        [game for game in games for _ in range(spec.repetitions)],
        [MdConfig(alpha=spec.alpha, T=spec.T, seed=seed) for seed in seeds],
    )
    return ps.reshape(len(games), spec.repetitions, -1)


def _worst_point(spec: ScenarioSpec, game: GameInstance, point: int, md_ps=None):
    """Per-repetition (value, stderr, p) for the selected worst-case solver,
    plus the DPP queue-cap violations summed over repetitions (0 otherwise).

    worst-md only evaluates: ``md_ps`` holds the point's average iterates,
    one row per repetition, from :func:`_md_solutions`.
    """
    values, stderrs, ps = [], [], []
    violations = 0
    for rep in range(spec.repetitions):
        seed = _rep_seed(spec, point, rep)
        if spec.solver == "worst-explicit":
            sol = explicit_solution(game.means)
            p, value, stderr = sol.p, sol.value, 0.0
        elif spec.solver == "worst-dpp":
            mixture, diag = run_dpp(game, DppConfig(spec.V, spec.alpha, spec.T, seed=seed))
            violations += diag.violations
            ev = worst_case_utility(mixture, game, spec.n_samples, seed)
            p, value, stderr = ev.stats.p, ev.value, ev.stderr
        elif spec.solver == "worst-md":
            p = md_ps[rep]
            value, stderr = worst_case_objective(p, game, n_samples=spec.n_samples, rng=seed)
        else:  # worst-a1
            p, value, stderr = solve_a1(
                game,
                MdConfig(alpha=spec.alpha, T=spec.T, seed=seed),
                n_eval_samples=spec.n_samples,
            )
        values.append(value)
        stderrs.append(stderr)
        ps.append(p)
    return np.array(values), np.array(stderrs), np.vstack(ps), violations


def run_scenario(spec: ScenarioSpec) -> SweepTable:
    """One CSV row per sweep point; deterministic for identical spec + seed."""
    n = spec.partition.n
    if spec.solver == "nash":
        header = (
            ("e1", "utility_a", "utility_b", "potential")
            + tuple(f"pa{k}" for k in range(1, n + 1))
            + tuple(f"pb{k}" for k in range(1, n + 1))
        )
        notes = [f"nash sweep: epsilon={spec.epsilon:g} reps={spec.repetitions} seed={spec.seed}"]
        rows = []
        for i, e1 in enumerate(spec.e1_values):
            row, unconverged = _nash_row(spec, scenario_game(spec, e1), i)
            if unconverged:
                notes.append(
                    f"WARNING: e1={e1:.9g}: best response did not converge in "
                    f"{unconverged} of {spec.repetitions} reps"
                )
            rows.append(np.concatenate([[e1], row]))
        return SweepTable(header, np.vstack(rows), tuple(notes))

    header = (
        ("e1", "value", "stderr")
        + tuple(f"p{k}" for k in range(1, n + 1))
        + ("value_min", "value_max")
    )
    notes = [
        f"worst-case sweep: solver={spec.solver} reps={spec.repetitions} seed={spec.seed}",
        "value_min/value_max is the min/max over repetitions, not a confidence band",
    ]
    games = [scenario_game(spec, e1) for e1 in spec.e1_values]
    md_ps = _md_solutions(spec, games) if spec.solver == "worst-md" else [None] * len(games)
    rows = []
    for i, (e1, game) in enumerate(zip(spec.e1_values, games)):
        values, stderrs, ps, violations = _worst_point(spec, game, i, md_ps[i])
        if violations:
            # the cap holds by theorem when alpha >= V^2; a point that broke
            # it has no certified error bound
            notes.append(
                f"WARNING: e1={e1:.9g}: {violations} DPP queue-cap violations "
                f"over {spec.repetitions} reps; the error bound is not certified"
            )
        if spec.repetitions > 1:
            stderr = float(values.std(ddof=1) / math.sqrt(len(values)))
        else:
            stderr = float(stderrs[0])
        rows.append(
            np.concatenate(
                [
                    [e1, values.mean(), stderr],
                    ps.mean(axis=0),
                    [values.min(), values.max()],
                ]
            )
        )
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
