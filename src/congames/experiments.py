"""Sweep tables over the first resource's mean, plus one-shot evaluation.

The three preset scenarios share n = 3 exponential rewards with the means of
resources 2 and 3 pinned at 1; they differ in who observes what:

    1: nobody observes anything          (a, b, c, d) = (0, 0, 3, 0)
    2: player B observes resource 1      (0, 1, 2, 0)
    3: A observes 1, B observes 2        (1, 1, 1, 0)

A sweep varies the mean of resource 1 over a grid, runs the selected solver
at each point (averaging over ``repetitions`` derived seeds), and emits one
CSV row per point.  Identical spec + seed reproduces the table byte for
byte.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .distributions import Discrete, Exponential, PointMass, RewardDistribution, Uniform
from .dpp import DppConfig
from .dpp import run as run_dpp
from .explicit import explicit_solution
from .game import GameInstance, Partition
from .md import MdConfig, run_md
from .montecarlo import McConfig, estimate_stats, expected_utility, simulate_payoff
from .nash import iterate_best_response
from .quantile import solve_a1
from .strategies import Strategy
from .worstcase import interleave_stats, worst_case_objective, worst_case_utility

__all__ = [
    "SCENARIO_PARTITIONS",
    "ScenarioSpec",
    "SweepTable",
    "scenario_game",
    "run_scenario",
    "evaluate_report",
]

SCENARIO_PARTITIONS = {1: (0, 0, 3, 0), 2: (0, 1, 2, 0), 3: (1, 1, 1, 0)}

SOLVERS = ("nash", "worst-explicit", "worst-dpp", "worst-md", "worst-a1")

# (alpha, T) of each iterative solver when the spec leaves them unset
STEP_DEFAULTS = {
    "worst-dpp": (4.0e4, 100_000),
    "worst-md": (50.0, 10_000),
    "worst-a1": (50.0, 10_000),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One sweep: partition, per-resource base distributions, grid, solver.

    ``alpha`` and ``T`` left as None take the solver's :data:`STEP_DEFAULTS`
    entry; nash and worst-explicit use neither.
    """

    partition: tuple[int, int, int, int]
    distributions: tuple[RewardDistribution, ...]
    e1_values: tuple[float, ...]
    solver: str
    epsilon: float = 1e-3  # nash convergence threshold
    V: float = 200.0  # dpp penalty weight
    alpha: float | None = None  # dpp / md / a1 step parameter
    T: int | None = None  # dpp / md / a1 rounds
    n_samples: int = 100_000
    seed: int = 0
    repetitions: int = 1

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}, got {self.solver!r}")
        if len(self.e1_values) == 0:
            raise ValueError("sweep grid must be non-empty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        part = Partition(*self.partition)
        if len(self.distributions) != part.n:
            raise ValueError("need one base distribution per resource")
        if self.solver == "worst-explicit" and (part.a or part.b):
            raise ValueError("worst-explicit requires a == b == 0 (symmetric information)")
        if self.solver == "worst-md" and part.a:
            raise ValueError("worst-md requires a == 0")
        if self.solver == "worst-a1" and part.a != 1:
            raise ValueError("worst-a1 requires a == 1")
        alpha, T = STEP_DEFAULTS.get(self.solver, (None, None))
        object.__setattr__(self, "alpha", alpha if self.alpha is None else self.alpha)
        object.__setattr__(self, "T", T if self.T is None else self.T)


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

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())


def preset_spec(scenario: int, solver: str, e1_values, **overrides) -> ScenarioSpec:
    """ScenarioSpec for one of the three presets (exponential rewards)."""
    if scenario not in SCENARIO_PARTITIONS:
        raise ValueError(f"scenario must be one of {sorted(SCENARIO_PARTITIONS)}")
    part = SCENARIO_PARTITIONS[scenario]
    dists = tuple(Exponential(1.0) for _ in range(sum(part)))
    return ScenarioSpec(
        partition=part,
        distributions=dists,
        e1_values=tuple(float(v) for v in e1_values),
        solver=solver,
        **overrides,
    )


def _with_mean(dist: RewardDistribution, mean: float) -> RewardDistribution:
    """Same distribution family rescaled to the requested mean."""
    if mean <= 0:
        raise ValueError("swept mean must be positive")
    if isinstance(dist, Exponential):
        return Exponential(rate=1.0 / mean)
    if isinstance(dist, Uniform):
        scale = mean / dist.mean if dist.mean > 0 else 0.0
        return Uniform(dist.lo * scale, dist.hi * scale)
    if isinstance(dist, PointMass):
        return PointMass(mean)
    if isinstance(dist, Discrete):
        scale = mean / dist.mean
        return Discrete(tuple(v * scale for v in dist.values), dist.probs)
    raise TypeError(f"unknown distribution {type(dist).__name__}")


def scenario_game(spec: ScenarioSpec, e1: float) -> GameInstance:
    """The game at one sweep point (resource 1's mean set to ``e1``)."""
    dists = (_with_mean(spec.distributions[0], e1),) + spec.distributions[1:]
    return GameInstance(Partition(*spec.partition), dists)


def _rep_seed(spec: ScenarioSpec, point: int, rep: int) -> int:
    ss = np.random.SeedSequence(spec.seed, spawn_key=(point, rep))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63))


def _nash_row(spec: ScenarioSpec, game: GameInstance, point: int) -> np.ndarray:
    acc = []
    for rep in range(spec.repetitions):
        mc = McConfig(n_samples=spec.n_samples, seed=_rep_seed(spec, point, rep))
        report = iterate_best_response(game, spec.epsilon, mc)
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
    return np.mean(acc, axis=0)


def _worst_point(spec: ScenarioSpec, game: GameInstance, point: int):
    """Per-repetition (value, stderr, p) for the selected worst-case solver."""
    values, stderrs, ps = [], [], []
    for rep in range(spec.repetitions):
        seed = _rep_seed(spec, point, rep)
        if spec.solver == "worst-explicit":
            sol = explicit_solution(game.means)
            p, value, stderr = sol.p, sol.value, 0.0
        elif spec.solver == "worst-dpp":
            mixture, _ = run_dpp(game, DppConfig(spec.V, spec.alpha, spec.T, seed=seed))
            stats = estimate_stats(mixture, game, "A", n_samples=spec.n_samples, rng=seed)
            p = stats.p
            value, stderr = worst_case_objective(
                interleave_stats(stats, game), game, n_samples=spec.n_samples, rng=seed, with_error=True
            )
        elif spec.solver == "worst-md":
            p = run_md(game, MdConfig(alpha=spec.alpha, T=spec.T, seed=seed))
            value, stderr = worst_case_objective(
                p, game, n_samples=spec.n_samples, rng=seed, with_error=True
            )
        else:  # worst-a1
            p, value, stderr = solve_a1(
                game,
                MdConfig(alpha=spec.alpha, T=spec.T, seed=seed),
                n_eval_samples=spec.n_samples,
            )
        values.append(value)
        stderrs.append(stderr)
        ps.append(p)
    return np.array(values), np.array(stderrs), np.vstack(ps)


def run_scenario(spec: ScenarioSpec) -> SweepTable:
    """One CSV row per sweep point; deterministic for identical spec + seed."""
    n = sum(spec.partition)
    if spec.solver == "nash":
        header = (
            ("e1", "utility_a", "utility_b", "potential")
            + tuple(f"pa{k}" for k in range(1, n + 1))
            + tuple(f"pb{k}" for k in range(1, n + 1))
        )
        notes = (f"nash sweep: epsilon={spec.epsilon:g} reps={spec.repetitions} seed={spec.seed}",)
        rows = [
            np.concatenate([[e1], _nash_row(spec, scenario_game(spec, e1), i)])
            for i, e1 in enumerate(spec.e1_values)
        ]
        return SweepTable(header, np.vstack(rows), notes)

    header = (
        ("e1", "value", "stderr")
        + tuple(f"p{k}" for k in range(1, n + 1))
        + ("value_min", "value_max")
    )
    notes = (
        f"worst-case sweep: solver={spec.solver} reps={spec.repetitions} seed={spec.seed}",
        "value_min/value_max is the min/max over repetitions, not a confidence band",
    )
    rows = []
    for i, e1 in enumerate(spec.e1_values):
        game = scenario_game(spec, e1)
        values, stderrs, ps = _worst_point(spec, game, i)
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
    return SweepTable(header, np.vstack(rows), notes)


def evaluate_report(
    strategy: Strategy,
    game: GameInstance,
    mode: str,
    mc: McConfig = McConfig(),
    opponent: Strategy | None = None,
    player: str = "A",
) -> dict[str, float | list[float]]:
    """Evaluation summary for one strategy: its stats, its worst-case value,
    or its matchup against an explicit opponent."""
    if mode == "stats":
        stats = estimate_stats(strategy, game, player, n_samples=mc.n_samples, rng=mc.seed)
        return {"p": list(stats.p), "q": list(stats.q)}
    if mode == "vs-worst-case":
        if player != "A":
            raise ValueError("worst-case evaluation is defined for player A")
        ev = worst_case_utility(strategy, game, mc)
        return {
            "value": ev.value,
            "stderr": ev.stderr,
            "collision_max_mean": ev.lambda_max_mean,
        }
    if mode == "vs-strategy":
        if opponent is None:
            raise ValueError("vs-strategy mode needs an opponent strategy")
        stats_a = estimate_stats(strategy, game, "A", n_samples=mc.n_samples, rng=mc.seed)
        stats_b = estimate_stats(opponent, game, "B", n_samples=mc.n_samples, rng=mc.seed)
        mean, stderr = simulate_payoff(strategy, opponent, game, n_samples=mc.n_samples, rng=mc.seed)
        return {
            "utility_a": expected_utility(stats_a, stats_b, game, "A"),
            "utility_b": expected_utility(stats_b, stats_a, game, "B"),
            "simulated_a_mean": mean,
            "simulated_a_stderr": stderr,
        }
    raise ValueError(f"unknown mode {mode!r}")
