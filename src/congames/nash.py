"""Iterative best response for approximate Nash equilibria.

The game is a potential game: the function

    H = sum_A (q_A + E p_B) + sum_B (q_B + E p_A) + sum_{C+AB} E (p_A + p_B)
        - collision/2

changes by exactly the updating player's utility change, and is bounded by
twice the total mean reward.  Alternating exact best responses therefore
reach a state where no unilateral deviation gains more than ``epsilon``
within at most ``2 * sum(E) / epsilon`` improving steps.  ``epsilon`` is the
one setting of :class:`NashConfig`; the sample count and the seed are
arguments of the run.

Best responses score resource k (for player A, symmetric for B) by

    W_k (1 - p_B[k]/2)   on A's private block,
    E_k - q_B[k]/2       on B's private block,
    E_k (1 - p_B[k]/2)   on the shared blocks,

and pick the argmax, lowest index on ties.

Every statistic of one run is estimated on the same seeded worlds, so a run
draws them once: the first turn that samples draws them, and every later
turn reuses the array.  Runs whose turns are all exact draw nothing.

A turn estimates the mover's best response on those worlds (for a
one-resource private block, one comparison of its column with a threshold
and one float mask summed for q) and evaluates the payoffs once
(:func:`congames.montecarlo._payoffs`): both utilities and the potential at
the new statistics, from one collision term.  The turn's gain is the
mover's utility there less its utility at the last evaluation, the same
function of the same statistics, so the trace keeps its bits; a run
evaluates the payoffs once per turn and once at the start.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .game import GameInstance, check_setting, check_upfront_budget, sample_world
from .montecarlo import DEFAULT_SAMPLES, StrategyStats, _payoffs, estimate_stats
from .rng import WORLD_STREAM, stream_generators
from .strategies import Mixture, Simplex, Strategy, _mixture_columns

__all__ = [
    "NashConfig",
    "TracePoint",
    "EquilibriumReport",
    "best_response",
    "potential",
    "iteration_cap",
    "iterate_best_response",
]


@dataclass(frozen=True)
class NashConfig:
    """Convergence threshold epsilon; :func:`iterate_best_response` takes
    the sample count and the seed."""

    epsilon: float = 1e-3

    def __post_init__(self):
        check_setting("epsilon", self.epsilon)


@dataclass(frozen=True)
class TracePoint:
    potential: float
    utility_a: float
    utility_b: float
    improvement: float


@dataclass(frozen=True)
class EquilibriumReport:
    strategy_a: Strategy
    strategy_b: Strategy
    stats_a: StrategyStats
    stats_b: StrategyStats
    trace: tuple[TracePoint, ...]
    iterations: int
    converged: bool


def best_response(player: str, opp_stats: StrategyStats, game: GameInstance) -> Mixture:
    """The one-row score strategy maximizing `player`'s expected utility
    against an opponent with the given statistics."""
    if opp_stats.player == player:
        raise ValueError(f"opponent stats belong to {player}, need the other player")
    part = game.partition
    means = game.means
    own, opp = (part.set_a, part.set_b) if player == "A" else (part.set_b, part.set_a)

    # one owning row, so that once read-only the mixture keeps it uncopied
    values = means * (1.0 - 0.5 * opp_stats.p[np.newaxis])
    values[0, own] = 1.0 - 0.5 * opp_stats.p[own]  # coefficient on the observed reward
    # the exact q never exceeds the mean, so this is at least mean / 2; the
    # floor keeps a few-sample estimate of q from making it negative
    values[0, opp] = np.maximum(means[opp] - 0.5 * opp_stats.q, 0.0)
    values.setflags(write=False)
    return Mixture(values, own)


def potential(stats_a: StrategyStats, stats_b: StrategyStats, game: GameInstance) -> float:
    """The exact potential H; bounded above by 2 * sum of mean rewards."""
    return _payoffs(stats_a, stats_b, game)[2]


def iteration_cap(game: GameInstance, epsilon: float) -> int:
    """Hard iteration budget: ceil(2 * sum(E) / epsilon) + 1.

    Raises ValueError, naming ``epsilon``, when 2 * sum(E) / epsilon is not
    a finite float."""
    steps = 2.0 * float(game.means.sum()) / float(epsilon)
    if not math.isfinite(steps):
        raise ValueError(f"epsilon={epsilon!r} is too small: 2 * sum(E) / epsilon is not finite")
    return int(math.ceil(steps)) + 1


def iterate_best_response(
    game: GameInstance,
    config: NashConfig = NashConfig(),
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> EquilibriumReport:
    """Alternate best responses until neither player can gain more than
    ``config.epsilon``.

    Players start from the uniform simplex.  Each turn the updating player
    adopts its best response outright (ties resolve to the lowest resource,
    so an indifferent player still settles deterministically); the estimated
    gain of the adoption is the stopping signal, and two adjacent turns with
    gain <= ``config.epsilon`` end the run.  All statistics in one run share
    the seed (common random numbers), so before/after utility estimates are
    differenced on identical worlds and the gain estimate is nearly
    noise-free; when neither player has private resources the statistics are
    exact and the potential trace is exactly non-decreasing.  Those worlds
    are drawn once per run, by the first estimate that samples:
    ``n_samples`` rows of the a + b private columns, the only ones a turn
    reads, on ``seed``'s world stream, and refused before they are drawn
    when they, with the threshold split an estimate builds beside them,
    exceed the up-front budget.
    """
    cap = iteration_cap(game, config.epsilon)
    (world_gen,) = stream_generators(seed, (WORLD_STREAM,))

    @functools.cache
    def worlds():  # every turn gets this one array, so it is read-only
        part = game.partition
        # the a + b columns and what an estimate on them holds besides: a
        # best response's threshold split, the larger one for the larger block
        held = part.a + part.b + _mixture_columns(1, max(part.a, part.b), game.n, n_samples)
        check_upfront_budget("nash", n_samples, game.n, held / game.n, rows="n_samples")
        drawn = sample_world(game, world_gen, size=n_samples, columns=part.a + part.b)
        drawn.setflags(write=False)
        return drawn

    def stats_of(strategy, player):
        return estimate_stats(strategy, game, player, n_samples=n_samples, rng=seed, worlds=worlds)

    uniform = Simplex(np.full(game.n, 1.0 / game.n))
    strat = {"A": uniform, "B": uniform}
    stats = {"A": stats_of(uniform, "A"), "B": stats_of(uniform, "B")}

    trace: list[TracePoint] = []
    # (utility of A, utility of B, potential) at the current stats: a turn's
    # gain is the mover's entry after it less the same entry before it
    payoffs = _payoffs(stats["A"], stats["B"], game)
    quiet_turns = 0
    converged = False
    iterations = 0
    while iterations < cap:
        mover = iterations % 2  # A moves first, and A's entries come first
        player, opponent = "AB"[mover], "BA"[mover]
        candidate = best_response(player, stats[opponent], game)
        strat[player] = candidate
        stats[player] = stats_of(candidate, player)
        before, payoffs = payoffs, _payoffs(stats["A"], stats["B"], game)
        improvement = payoffs[mover] - before[mover]
        iterations += 1
        quiet_turns = 0 if improvement > config.epsilon else quiet_turns + 1
        utility_a, utility_b, h = payoffs
        trace.append(TracePoint(potential=h, utility_a=utility_a, utility_b=utility_b, improvement=improvement))
        if quiet_turns >= 2:
            converged = True
            break

    return EquilibriumReport(
        strategy_a=strat["A"],
        strategy_b=strat["B"],
        stats_a=stats["A"],
        stats_b=stats["B"],
        trace=tuple(trace),
        iterations=iterations,
        converged=converged,
    )
