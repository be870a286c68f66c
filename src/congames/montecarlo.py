"""Strategy statistics and Monte Carlo payoff estimation.

A strategy's conditional statistics are the pick probabilities
``p[k] = Pr{action = k}`` for every resource and, for each resource the
player privately observes, the reward-weighted rate
``q[k] = E[W_k * 1{action = k}]``.  Expected utilities are bilinear in these
statistics, so estimating (p, q) once per strategy is enough to evaluate any
matchup:

    utility(A) = sum_A q_A + sum_{A^c} E p_A
                 - 1/2 (sum_A q_A p_B + sum_B p_A q_B + sum_{C+AB} E p_A p_B)

B's utility and the potential of :mod:`congames.nash` share that collision
term, so one function, :func:`_payoffs`, checks whose statistics are whose,
takes the term once and returns all three values; :func:`expected_utility`
and :func:`congames.nash.potential` read one entry of it.

Simplex strategies ignore the world, and a score mixture of a player with no
private resources picks each row's constant argmax, so both get exact
statistics without sampling; everything else is averaged over seeded world
draws.  An estimate reads only the columns up to the end of the player's
private block, so it draws only those, and observes the block through a
view.  A caller that estimates many strategies on one seed can hand
:func:`estimate_stats` a ``worlds`` source that draws those worlds once, on
first use, and returns the same array afterwards; it must return at least
the columns read.  Iterative best response does, so each of its runs samples
its worlds at most once.  A one-row mixture (every best response) is counted
from the threshold masks of :func:`congames.strategies._threshold_split`,
with no action array; the counts and the averaged products are those of the
action array, so every bit is the same.  Each rate q is summed on a float
copy of its mask, multiplied in place by the reward column: the 0.0 and 1.0
that numpy casts a boolean to before it multiplies, without the cast's
buffered pass; other sampled strategies sum their action masks the same
way.  A call that would sample is refused
up front (:func:`_check_estimate_budget`, which a worst-case DPP sweep's
spec asks too) when what it holds exceeds the budget: the n_samples rows of
the columns it draws and what acting holds at its peak
(:func:`congames.strategies._acting_columns`): a simplex's uniform draws
beside its actions, a threshold's mask and tail draws, a multi-row mixture's
component draws and n_samples x n scores, and a one-row mixture's threshold
split, which also serves its masks.  :func:`simulate_payoff` counts by the
same rule, for all n world columns, what both players' acting holds and the
reward vector, which it halves in place where the players collide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameInstance, Partition, check_count, check_upfront_budget, sample_world
from .rng import ACTION_A_STREAM, ACTION_B_STREAM, WORLD_STREAM, is_integer, stream_generators
from .strategies import (
    Mixture,
    QuantileThreshold,
    Simplex,
    Strategy,
    _acting_columns,
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
        # copies, so later writes to the sources leave the stats alone
        p = np.array(self.p, dtype=float).reshape(-1)
        q = np.array(self.q, dtype=float).reshape(-1)
        _check_simplex(p, "p", STATS_SIMPLEX_TOL, -STATS_SIMPLEX_TOL)
        if not (q >= 0).all():  # NaN fails the comparison too
            raise ValueError("q entries must be non-negative")
        p.setflags(write=False)
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
    # a best response keeps the partition's own index set
    if strategy.private is not private and not np.array_equal(strategy.private, private):
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
    ValueError before sampling when the drawn columns and what acting holds
    (a one-row mixture's threshold split) exceed the up-front budget.
    ``worlds`` must be finite: a caller's NaN or infinite rewards can make
    a one-row and a multi-row mixture act differently (see
    :mod:`congames.strategies`), and nothing here checks them.
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

    columns = private[-1] + 1  # the private block is a range ending here
    _check_estimate_budget(game.partition, player, n_samples, _acting_columns(strategy, n))
    streams = (WORLD_STREAM, _action_stream(player))
    # an int seed's streams are built only where read; a Generator is split
    # on every sampling call, so its later spawns stay where they were, and
    # any other rng is refused here
    split = None if is_integer(rng) else stream_generators(rng, streams)

    def generator(i):
        return split[i] if split else stream_generators(rng, streams[i : i + 1])[0]

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
    if isinstance(strategy, Mixture) and len(strategy) == 1:  # its threshold split counts its picks
        p, q = _threshold_stats(strategy.values[0], private, obs, n)
        return StrategyStats(player, p, q)
    actions = batch_actions(strategy, obs, generator(1))
    p = np.bincount(actions, minlength=n) / n_samples
    product = np.empty(n_samples)
    q = np.array([_masked_mean(drawn[:, k], actions == k, product) for k in private])
    return StrategyStats(player, p, q)


def _check_estimate_budget(partition: Partition, player: str, n_samples: int, acting: float):
    """Refuse, before anything is drawn, a sampled estimate of ``player``'s
    statistics whose n_samples rows of the columns it draws (those up to
    the end of the player's private block) and of the ``acting`` columns
    that acting holds beside them
    (:func:`~congames.strategies._acting_columns`) exceed the up-front
    budget.  The one statement of the rule:
    :func:`estimate_stats` asks it, and so does the spec of a worst-case DPP
    sweep, whose evaluation estimates A's stats of a T-row mixture where A
    observes a resource (a mixture of a player who observes none is exact).
    """
    held = partition.private_set(player)[-1] + 1 + acting
    check_upfront_budget("estimate_stats", n_samples, partition.n, held / partition.n, rows="n_samples")


def _threshold_stats(values, private, obs, n):
    """(p, q) of a one-row mixture from its threshold masks: the mask of
    private resource k is exactly ``actions == k``, so the counts and the
    products averaged into q are those of the action array, bit for bit.
    Each mask is copied into one float buffer as the 0.0 and 1.0 that numpy
    casts a boolean to before it multiplies, the column multiplies it in
    place, and its sum over the rows is ``np.mean``'s."""
    j, take, top = _threshold_split(values, private, obs)
    rows = len(obs)
    counts = np.zeros(n, dtype=np.int64)
    q = np.empty(private.size)
    product = np.empty(rows)
    for i, k in enumerate(private):
        mask = take if private.size == 1 else take & (top == k)
        if k == j:  # every resource is private: rows that do not take pick j
            mask = mask | ~take
        counts[k] = np.count_nonzero(mask)
        q[i] = _masked_mean(obs[:, i], mask, product)
    counts[j] += rows - counts.sum()  # j takes every other row
    return counts / rows, q


def _masked_mean(column, mask, product):
    """``np.mean(column * mask)``, bit for bit, through the float buffer
    ``product``: the boolean mask becomes the 0.0 and 1.0 numpy would cast
    it to, without the cast's buffered pass."""
    np.copyto(product, mask)
    np.multiply(column, product, out=product)
    return np.add.reduce(product) / len(product)


def _mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    """(``values.mean()``, ``values.std(ddof=1) / sqrt(len)``) of a 1-D
    contiguous array, bit for bit, overwriting ``values``: the steps of
    numpy's own mean and variance (the sum over N, the deviations, their
    squares, their sum over N - 1, the root), each done in place."""
    n = len(values)
    mean = np.add.reduce(values) / n
    np.subtract(values, mean, out=values)
    np.square(values, out=values)
    return float(mean), float(np.sqrt(np.add.reduce(values) / (n - 1)) / np.sqrt(n))


def _payoffs(stats_a: StrategyStats, stats_b: StrategyStats, game: GameInstance) -> tuple[float, float, float]:
    """(utility of A, utility of B, potential H) at A's and B's statistics:
    each player's own terms, and H's terms of both, less half of the one
    collision term they share.  The one check of which stats belong to
    which player."""
    if stats_a.player != "A" or stats_b.player != "B":
        raise ValueError("stats do not match the requested player assignment")
    # the blocks are ranges, so slices read what the index sets would
    a, ab = game.partition.a, game.partition.a + game.partition.b
    b_comp = game.partition.b_comp
    means, p_a, p_b, q_a, q_b = game.means, stats_a.p, stats_b.p, stats_a.q, stats_b.q
    # half the collision term: the expected reward lost to collisions
    half = 0.5 * float(
        np.dot(q_a, p_b[:a]) + np.dot(p_a[a:ab], q_b) + (means[ab:] * p_a[ab:] * p_b[ab:]).sum()
    )
    return (
        float(q_a.sum() + np.dot(means[a:], p_a[a:]) - half),
        float(q_b.sum() + np.dot(means[b_comp], p_b[b_comp]) - half),
        float(
            q_a.sum()
            + np.dot(means[:a], p_b[:a])
            + q_b.sum()
            + np.dot(means[a:ab], p_a[a:ab])
            + np.dot(means[ab:], p_a[ab:] + p_b[ab:])
            - half
        ),
    )


def expected_utility(
    stats_self: StrategyStats,
    stats_opp: StrategyStats,
    game: GameInstance,
    player: str,
) -> float:
    """Closed-form conditional expected utility of ``player`` given both stats."""
    if player == "A":
        return _payoffs(stats_self, stats_opp, game)[0]
    if player == "B":
        return _payoffs(stats_opp, stats_self, game)[1]
    raise ValueError("stats do not match the requested player assignment")


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
    made with that seed.  Raises ValueError before sampling when what it
    holds, by the rule of :func:`estimate_stats`, exceeds the up-front
    budget: the n world columns, what each player's acting holds and the
    rewards.
    """
    check_count("n_samples", n_samples, 2)
    _check_strategy_player(strategy_a, game, "A")
    _check_strategy_player(strategy_b, game, "B")
    # the n world columns, what each player's acting holds, and the rewards
    held = game.n + _acting_columns(strategy_a, game.n) + _acting_columns(strategy_b, game.n) + 1
    check_upfront_budget("simulate_payoff", n_samples, game.n, held / game.n, rows="n_samples")
    world_gen, a_gen, b_gen = stream_generators(
        rng, (WORLD_STREAM, ACTION_A_STREAM, ACTION_B_STREAM)
    )
    part = game.partition
    worlds = sample_world(game, world_gen, size=n_samples)
    # each player observes its private block through a view, not a copy
    act_a = batch_actions(strategy_a, worlds[:, : part.a], a_gen)
    collide = act_a == batch_actions(strategy_b, worlds[:, part.a : part.a + part.b], b_gen)
    # A's reward, halved in place where both pick it: the collision factor
    # is exactly 1 or 1/2, so the bits are those of multiplying by it
    rewards = worlds[np.arange(n_samples), act_a]
    np.multiply(rewards, 0.5, out=rewards, where=collide)
    return _mean_and_stderr(rewards)
