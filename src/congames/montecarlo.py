"""Strategy statistics and Monte Carlo payoff estimation.

A strategy's conditional statistics are the pick probabilities
``p[k] = Pr{action = k}`` for every resource and, for each resource the
player privately observes, the reward-weighted rate
``q[k] = E[W_k * 1{action = k}]``.  Expected utilities are bilinear in these
statistics, so estimating (p, q) once per strategy is enough to evaluate any
matchup:

    utility(A) = sum_A q_A + sum_{A^c} E p_A
                 - 1/2 (sum_A q_A p_B + sum_B p_A q_B + sum_{C+AB} E p_A p_B)

Simplex strategies ignore the world, and any Score strategy of a player with
no private resources acts deterministically, so both get exact statistics
without sampling; everything else is averaged over seeded world draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameInstance, sample_world
from .rng import ACTION_A_STREAM, ACTION_B_STREAM, WORLD_STREAM, stream_generators
from .strategies import Mixture, QuantileThreshold, Score, Simplex, Strategy, batch_actions

__all__ = [
    "StrategyStats",
    "McConfig",
    "estimate_stats",
    "expected_utility",
    "simulate_payoff",
]

STATS_SIMPLEX_TOL = 1e-6


@dataclass(frozen=True)
class McConfig:
    """Sample count and seed for Monte Carlo estimation."""

    n_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


@dataclass(frozen=True)
class StrategyStats:
    """Pick probabilities and reward-weighted pick rates for one player."""

    player: str
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        if self.player not in ("A", "B"):
            raise ValueError(f"player must be 'A' or 'B', got {self.player!r}")
        p = np.asarray(self.p, dtype=float).reshape(-1)
        q = np.asarray(self.q, dtype=float).reshape(-1)
        if np.any(p < -STATS_SIMPLEX_TOL) or abs(p.sum() - 1.0) > STATS_SIMPLEX_TOL:
            raise ValueError("p must lie in the probability simplex (tol 1e-6)")
        if np.any(q < 0):
            raise ValueError("q entries must be non-negative")
        p = p.copy()
        p.setflags(write=False)
        q = q.copy()
        q.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


def _action_stream(player: str) -> int:
    return ACTION_A_STREAM if player == "A" else ACTION_B_STREAM


def _check_strategy_player(strategy: Strategy, game: GameInstance, player: str):
    private = game.partition.private_set(player)
    if isinstance(strategy, Simplex):
        if strategy.p.size != game.n:
            raise ValueError(f"Simplex strategy has {strategy.p.size} entries, game has {game.n}")
        return private
    if isinstance(strategy, QuantileThreshold):
        if player != "A" or game.partition.a != 1:
            raise ValueError("QuantileThreshold requires player A with exactly one private resource")
        if strategy.tail.size != game.n - 1:
            raise ValueError("QuantileThreshold tail must cover resources 1..n-1")
        return private
    if strategy.values.shape[-1] != game.n:
        raise ValueError("score vector length does not match the game")
    if not np.array_equal(strategy.private, private):
        raise ValueError(
            f"strategy private block {strategy.private} does not match player {player}'s {private}"
        )
    return private


def estimate_stats(
    strategy: Strategy,
    game: GameInstance,
    player: str,
    n_samples: int = 100_000,
    rng=0,
) -> StrategyStats:
    """Estimate (p, q) for ``strategy`` played by ``player``.

    Exact (sample-free) whenever the action cannot depend on the world:
    Simplex strategies, and Score/Mixture strategies of a player with an
    empty private block.  Otherwise Monte Carlo over ``n_samples`` worlds,
    with world draws and action randomization on disjoint streams so that
    repeated calls with one seed share the same worlds.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    private = _check_strategy_player(strategy, game, player)
    n = game.n
    means = game.means

    if isinstance(strategy, Simplex):
        p = strategy.p
        return StrategyStats(player, p, means[private] * p[private])

    if isinstance(strategy, Score) and private.size == 0:
        p = np.zeros(n)
        p[int(np.argmax(strategy.values))] = 1.0
        return StrategyStats(player, p, np.zeros(0))

    if isinstance(strategy, Mixture) and private.size == 0:
        picks = np.argmax(strategy.values, axis=1)
        p = np.bincount(picks, minlength=n) / len(strategy)
        return StrategyStats(player, p, np.zeros(0))

    world_gen, act_gen = stream_generators(rng, (WORLD_STREAM, _action_stream(player)))
    worlds = sample_world(game, world_gen, size=n_samples)
    actions = batch_actions(strategy, worlds[:, private], act_gen)
    p = np.bincount(actions, minlength=n) / n_samples
    q = np.array([np.mean(worlds[:, k] * (actions == k)) for k in private])
    return StrategyStats(player, p, q)


def collision_term(stats_a: StrategyStats, stats_b: StrategyStats, game: GameInstance) -> float:
    """Expected reward lost to collisions (before the 1/2 discount)."""
    part = game.partition
    means = game.means
    shared = np.concatenate([part.set_c, part.set_ab])
    return float(
        np.dot(stats_a.q, stats_b.p[part.set_a])
        + np.dot(stats_a.p[part.set_b], stats_b.q)
        + np.sum(means[shared] * stats_a.p[shared] * stats_b.p[shared])
    )


def expected_utility(
    stats_self: StrategyStats,
    stats_opp: StrategyStats,
    game: GameInstance,
    player: str,
) -> float:
    """Closed-form conditional expected utility of ``player`` given both stats."""
    if stats_self.player != player or stats_opp.player == player:
        raise ValueError("stats do not match the requested player assignment")
    stats = {stats_self.player: stats_self, stats_opp.player: stats_opp}
    a_stats, b_stats = stats["A"], stats["B"]
    part = game.partition
    means = game.means

    if player == "A":
        own = a_stats.q.sum() + np.dot(means[part.a_comp], a_stats.p[part.a_comp])
    else:
        own = b_stats.q.sum() + np.dot(means[part.b_comp], b_stats.p[part.b_comp])
    return float(own - 0.5 * collision_term(a_stats, b_stats, game))


def simulate_payoff(
    strategy_a: Strategy,
    strategy_b: Strategy,
    game: GameInstance,
    n_samples: int = 100_000,
    rng=0,
) -> tuple[float, float]:
    """Empirical mean and standard error of player A's realized payoff.

    Worlds and both players' action randomizations use disjoint streams of
    the same seed, so the world draws here match ``estimate_stats`` calls
    made with that seed.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    _check_strategy_player(strategy_a, game, "A")
    _check_strategy_player(strategy_b, game, "B")
    world_gen, a_gen, b_gen = stream_generators(
        rng, (WORLD_STREAM, ACTION_A_STREAM, ACTION_B_STREAM)
    )
    part = game.partition
    worlds = sample_world(game, world_gen, size=n_samples)
    act_a = batch_actions(strategy_a, worlds[:, part.set_a], a_gen)
    act_b = batch_actions(strategy_b, worlds[:, part.set_b], b_gen)
    rewards = worlds[np.arange(n_samples), act_a] * (1.0 - 0.5 * (act_a == act_b))
    mean = float(rewards.mean())
    stderr = float(rewards.std(ddof=1) / np.sqrt(n_samples))
    return mean, stderr
