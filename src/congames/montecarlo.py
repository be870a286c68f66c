"""Strategy statistics and Monte Carlo payoff estimation.

A strategy's conditional statistics are the pick probabilities
``p[k] = Pr{action = k}`` for every resource and, for each resource the
player privately observes, the reward-weighted rate
``q[k] = E[W_k * 1{action = k}]``.  Expected utilities are bilinear in these
statistics, so estimating (p, q) once per strategy is enough to evaluate any
matchup:

    utility(A) = sum_A q_A + sum_{A^c} E p_A
                 - 1/2 (sum_A q_A p_B + sum_B p_A q_B + sum_{C+AB} E p_A p_B)

Simplex strategies ignore the world, and a score mixture of a player with no
private resources picks each row's constant argmax, so both get exact
statistics without sampling; everything else is averaged over seeded world
draws.  An estimate reads only the columns up to the end of the player's
private block, so it draws only those, and observes the block through a
view.  A caller that estimates many strategies on one seed can hand
:func:`estimate_stats` a ``worlds`` source that draws those worlds once, on
first use, and returns the same array afterwards; it must return at least
the columns read.  Iterative best response does, so each of its runs
samples its worlds at most once.  A one-row mixture (every best response)
is counted from the threshold masks of
:func:`congames.strategies._threshold_split`, with no action array; the
counts and the averaged products are those of the action array, so every
bit is the same.  The up-front budget counts n_samples x n draws, so a call
that would sample is refused up front
(:func:`congames.game.check_upfront_budget`) when they exceed it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameInstance, check_count, check_upfront_budget, sample_world
from .rng import ACTION_A_STREAM, ACTION_B_STREAM, WORLD_STREAM, stream_generators
from .strategies import (
    Mixture,
    QuantileThreshold,
    Simplex,
    Strategy,
    _check_simplex,
    _threshold_split,
    batch_actions,
)

__all__ = [
    "DEFAULT_SAMPLES",
    "StrategyStats",
    "estimate_stats",
    "expected_utility",
    "simulate_payoff",
]

STATS_SIMPLEX_TOL = 1e-6
# world draws per Monte Carlo estimate, unless the caller gives a count
DEFAULT_SAMPLES = 100_000


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
        _check_simplex(p, "p", STATS_SIMPLEX_TOL, -STATS_SIMPLEX_TOL)
        if not np.all(q >= 0):  # NaN fails the comparison too
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
    n_samples: int = DEFAULT_SAMPLES,
    rng=0,
    worlds=None,
) -> StrategyStats:
    """Estimate (p, q) for ``strategy`` played by ``player``.

    Exact (sample-free) whenever the action cannot depend on the world:
    Simplex strategies, and Mixture strategies of a player with an empty
    private block.  Otherwise Monte Carlo over ``n_samples`` worlds,
    with world draws and action randomization on disjoint streams so that
    repeated calls with one seed share the same worlds.

    Sampling reads the world columns up to the last private index, so only
    those are drawn.  ``worlds``, if given, is a zero-argument callable
    returning n_samples rows of worlds with at least those leading columns,
    to use instead of drawing them from ``rng``'s world stream; it is called
    only when the estimate samples, and a shape with too few rows or columns
    is refused.  A one-row mixture's (p, q) is counted from its threshold
    masks; other strategies act through :func:`batch_actions`.  Raises
    ValueError before sampling when n_samples x n worlds exceed the up-front
    budget.
    """
    check_count("n_samples", n_samples)
    private = _check_strategy_player(strategy, game, player)
    n = game.n
    means = game.means

    if isinstance(strategy, Simplex):
        p = strategy.p
        return StrategyStats(player, p, means[private] * p[private])

    if isinstance(strategy, Mixture) and private.size == 0:
        picks = np.argmax(strategy.values, axis=1)
        p = np.bincount(picks, minlength=n) / len(strategy)
        return StrategyStats(player, p, np.zeros(0))

    check_upfront_budget("estimate_stats", n_samples, n, rows="n_samples")
    streams = (WORLD_STREAM, _action_stream(player))
    # an int seed's streams are built only where read; a Generator is split
    # on every sampling call, so its later spawns stay where they were, and
    # any other rng is refused here
    split = None if isinstance(rng, (int, np.integer)) else stream_generators(rng, streams)

    def generator(i):
        return split[i] if split else stream_generators(rng, streams[i : i + 1])[0]

    columns = private[-1] + 1  # the private block is a range ending here
    if worlds is None:
        drawn = sample_world(game, generator(0), size=n_samples, columns=columns)
    else:
        drawn = worlds()
    if drawn.ndim != 2 or drawn.shape[0] != n_samples or drawn.shape[1] < columns:
        raise ValueError(
            f"worlds have shape {drawn.shape}, need {n_samples} rows "
            f"(n_samples) and at least {columns} columns"
        )
    obs = drawn[:, private[0] : columns]
    if isinstance(strategy, Mixture) and len(strategy) == 1:
        p, q = _threshold_stats(strategy.values[0], private, obs, n)
        return StrategyStats(player, p, q)
    actions = batch_actions(strategy, obs, generator(1))
    p = np.bincount(actions, minlength=n) / n_samples
    q = np.array([np.mean(drawn[:, k] * (actions == k)) for k in private])
    return StrategyStats(player, p, q)


def _threshold_stats(values, private, obs, n):
    """(p, q) of a one-row mixture from its threshold masks: the mask of
    private resource k is exactly ``actions == k``, so the counts and the
    products averaged into q are those of the action array, bit for bit."""
    j, take, top = _threshold_split(values, private, obs)
    rows = len(obs)
    counts = np.zeros(n, dtype=np.int64)
    q = np.empty(private.size)
    for i, k in enumerate(private):
        mask = take if private.size == 1 else take & (top == k)
        if k == j:  # every resource is private: rows that do not take pick j
            mask = mask | ~take
        counts[k] = np.count_nonzero(mask)
        q[i] = np.mean(obs[:, i] * mask)
    counts[j] += rows - counts.sum()  # j takes every other row
    return counts / rows, q


def collision_term(stats_a: StrategyStats, stats_b: StrategyStats, game: GameInstance) -> float:
    """Expected reward lost to collisions (before the 1/2 discount)."""
    part = game.partition
    means = game.means
    shared = part.shared
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
    n_samples: int = DEFAULT_SAMPLES,
    rng=0,
) -> tuple[float, float]:
    """Empirical mean and standard error of player A's realized payoff.

    Worlds and both players' action randomizations use disjoint streams of
    the same seed, so the world draws here match ``estimate_stats`` calls
    made with that seed.
    """
    check_count("n_samples", n_samples, 2)
    _check_strategy_player(strategy_a, game, "A")
    _check_strategy_player(strategy_b, game, "B")
    check_upfront_budget("simulate_payoff", n_samples, game.n, rows="n_samples")
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
