"""Iterative best response for approximate Nash equilibria.

The game is a potential game: the function

    H = sum_A (q_A + E p_B) + sum_B (q_B + E p_A) + sum_{C+AB} E (p_A + p_B)
        - collision/2

changes by exactly the updating player's utility change, and is bounded by
twice the total mean reward.  Alternating exact best responses therefore
reach a state where no unilateral deviation gains more than ``epsilon``
within at most ``2 * sum(E) / epsilon`` improving steps.

Best responses score resource k (for player A, symmetric for B) by

    W_k (1 - p_B[k]/2)   on A's private block,
    E_k - q_B[k]/2       on B's private block,
    E_k (1 - p_B[k]/2)   on the shared blocks,

and pick the argmax, lowest index on ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import GameInstance
from .montecarlo import (
    McConfig,
    StrategyStats,
    collision_term,
    estimate_stats,
    expected_utility,
)
from .strategies import Mixture, Simplex, Strategy

__all__ = [
    "TracePoint",
    "EquilibriumReport",
    "best_response",
    "potential",
    "iteration_cap",
    "iterate_best_response",
]


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

    values = means * (1.0 - 0.5 * opp_stats.p)
    values[own] = 1.0 - 0.5 * opp_stats.p[own]  # coefficient on the observed reward
    values[opp] = means[opp] - 0.5 * opp_stats.q
    return Mixture(values[np.newaxis], own)


def potential(stats_a: StrategyStats, stats_b: StrategyStats, game: GameInstance) -> float:
    """The exact potential H; bounded above by 2 * sum of mean rewards."""
    part = game.partition
    means = game.means
    shared = np.concatenate([part.set_c, part.set_ab])
    gross = (
        stats_a.q.sum()
        + np.dot(means[part.set_a], stats_b.p[part.set_a])
        + stats_b.q.sum()
        + np.dot(means[part.set_b], stats_a.p[part.set_b])
        + np.dot(means[shared], stats_a.p[shared] + stats_b.p[shared])
    )
    return float(gross - 0.5 * collision_term(stats_a, stats_b, game))


def iteration_cap(game: GameInstance, epsilon: float) -> int:
    """Hard iteration budget: ceil(2 * sum(E) / epsilon) + 1."""
    return int(math.ceil(2.0 * game.means.sum() / epsilon)) + 1


def iterate_best_response(
    game: GameInstance,
    epsilon: float,
    mc: McConfig = McConfig(),
) -> EquilibriumReport:
    """Alternate best responses until neither player can gain more than
    ``epsilon``.

    Players start from the uniform simplex.  Each turn the updating player
    adopts its best response outright (ties resolve to the lowest resource,
    so an indifferent player still settles deterministically); the estimated
    gain of the adoption is the stopping signal, and two adjacent turns with
    gain <= epsilon end the run.  All statistics in one run share the seed
    (common random numbers), so before/after utility estimates are
    differenced on identical worlds and the gain estimate is nearly
    noise-free; when neither player has private resources the statistics are
    exact and the potential trace is exactly non-decreasing.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    cap = iteration_cap(game, epsilon)

    def stats_of(strategy, player):
        return estimate_stats(strategy, game, player, n_samples=mc.n_samples, rng=mc.seed)

    uniform = Simplex(np.full(game.n, 1.0 / game.n))
    strat = {"A": uniform, "B": uniform}
    stats = {"A": stats_of(uniform, "A"), "B": stats_of(uniform, "B")}

    trace: list[TracePoint] = []
    quiet_turns = 0
    converged = False
    iterations = 0
    while iterations < cap:
        player = "A" if iterations % 2 == 0 else "B"
        opponent = "B" if player == "A" else "A"
        candidate = best_response(player, stats[opponent], game)
        cand_stats = stats_of(candidate, player)
        before = expected_utility(stats[player], stats[opponent], game, player)
        after = expected_utility(cand_stats, stats[opponent], game, player)
        improvement = after - before
        iterations += 1
        strat[player] = candidate
        stats[player] = cand_stats
        quiet_turns = 0 if improvement > epsilon else quiet_turns + 1
        trace.append(
            TracePoint(
                potential=potential(stats["A"], stats["B"], game),
                utility_a=expected_utility(stats["A"], stats["B"], game, "A"),
                utility_b=expected_utility(stats["B"], stats["A"], game, "B"),
                improvement=improvement,
            )
        )
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
