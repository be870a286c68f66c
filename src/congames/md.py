"""Mirror descent (multiplicative weights) for players with no private block.

When player A observes nothing privately, its achievable statistics are
exactly the probability simplex, and the worst-case objective becomes

    sum_k p_k E_k - 1/2 E[max_k p_k omega_k]

with omega the adversary weight vector.  Each round samples one omega, takes
the sampled ascent gradient

    grad_j = E_j - 1/2 * 1{argmax_k p_k omega_k = j} * omega_j

(the gradient that drift-plus-penalty steps along too), and applies the
entropy-geometry update p_k <- p_k exp(grad_k / alpha), renormalized
(exponents are max-shifted first, which leaves the value unchanged).  The
returned vector is the average of the iterates including the uniform
start; its expected suboptimality is at most

    C / (2 alpha) + alpha ln(n) / T,    C = 2 max(E)^2 + E[max_k omega_k^2]/2.

All runs of a sweep share one config (alpha and T) and n, and are
independent, so :func:`run_md_batch` steps them together: the iterates are
the rows of an (R, n) array, and one round serves all R runs.  A round does
only the work that depends on the iterate.  The exponent of each resource is
its gradient over alpha: w / alpha off the argmax, (w - omega/2) / alpha
at it.  The first is computed once per chunk of runs, the second once per
block of rounds (at most :data:`ROUND_BLOCK_BYTES` of them), and the round
picks between them at each row's argmax of p * omega with ``np.where``.
:func:`mw_update` then shifts, exponentiates, weights and normalizes the
exponents in place, calling ``np.maximum.reduce`` and ``np.add.reduce``
directly, the ufuncs that ``.max()`` and ``.sum()`` reach through Python
wrappers.  These are the bits of dividing the selected gradient by alpha
(the same two operations on the same floats), and every row gets the bits
it would get alone: the update is elementwise, and the row reductions
(max, sum, argmax with the lowest index on ties) see one row at a time.
:func:`run_md` is a batch of one.  The update stays on ``np.exp``:
``math.exp`` differs from it in the last bit on some inputs, which would
change every later iterate.
Each run's omega draws are still sampled in one call of size T from its own
seed, an argument of the run apart from the config; the batch holds them in
one T x R' x n array for a chunk of R' runs whose draws fit
:data:`BATCH_DRAW_BYTES`, so a sweep's memory stays bounded however many
points and repetitions it has.

The loop runs the unchecked :func:`mw_update` and checks positivity once,
after the last round: a zero or NaN entry is absorbing under the update
(0 * exp(.) stays 0, NaN spreads through the normalization), so it would
still be there.

:func:`congames.quantile.solve_a1` steps one run at a time on Python
floats, where numpy's per-call dispatch would cost more than the arithmetic
on n floats, and writes the same update out in its generated round, adding
its normalizer in numpy's order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import GameInstance, check_count, check_setting, check_upfront_budget, sample_omega
from .rng import OMEGA_STREAM, as_generator
from .worstcase import omega_maxima

__all__ = [
    "MdConfig",
    "mw_update",
    "require_positive",
    "run_md",
    "run_md_batch",
    "md_error_bound",
    "omega_sup_sq_mean",
]

# omega-draw bytes that run_md_batch samples and steps at a time (always at
# least one run): at T = 10 000, n = 3 about 140 runs, past which the cost
# per run falls little
BATCH_DRAW_BYTES = 32 * 2**20
# bytes of the exponents at the argmax, (w - omega/2) / alpha, that a chunk
# computes a block of rounds at a time (always at least one round): 170
# rounds of 8 runs at n = 3, small enough to leave a sweep's peak RSS as it was
ROUND_BLOCK_BYTES = 32 * 2**10


@dataclass(frozen=True)
class MdConfig:
    """Step weight alpha and round count T; :func:`run_md` takes the seed.

    alpha must be positive and finite, and T a positive integer.  Mirror
    descent and :func:`congames.quantile.solve_a1` both read it.
    """

    alpha: float = 50.0
    T: int = 10_000

    def __post_init__(self):
        for name in ("alpha", "T"):
            check_setting(name, getattr(self, name))
        check_count("T", self.T)


def require_positive(p):
    """Reject an iterate (an array or a list) with a zero or NaN entry."""
    if not np.all(np.asarray(p) > 0):
        raise ValueError("mirror-descent iterates must be strictly positive")


def mw_update(p: np.ndarray, expo: np.ndarray) -> np.ndarray:
    """Bare multiplicative-weights step p * exp(expo), renormalized, unchecked.

    ``expo`` holds the exponents, the ascent gradient over alpha, in an
    array of p's shape: one iterate (n,) or a batch (R, n), stepped
    row-wise.  The step is written into ``expo``, which is returned.
    """
    expo -= np.maximum.reduce(expo, axis=-1, keepdims=True)  # value-invariant shift against overflow
    np.exp(expo, out=expo)
    expo *= p
    expo /= np.add.reduce(expo, axis=-1, keepdims=True)
    return expo


def run_md(game: GameInstance, config: MdConfig, seed: int = 0) -> np.ndarray:
    """Average mirror-descent iterate after T rounds (uniform start
    included), with the omega draws of ``seed``."""
    return run_md_batch([game], config, [seed])[0]


def run_md_batch(games, config: MdConfig, seeds) -> np.ndarray:
    """:func:`run_md` for each (game, seed) pair under one config, stepped
    as one batch.

    Returns the (R, n) average iterates, row r bit-identical to
    ``run_md(games[r], config, seeds[r])``.  Every run needs a == 0, and all
    games must share n.  Runs are stepped in chunks whose draws fit
    :data:`BATCH_DRAW_BYTES`.  Raises ValueError, before drawing anything,
    when one run's T x n draws alone exceed
    :data:`~congames.game.UPFRONT_BUDGET_BYTES`.
    """
    games, seeds = list(games), list(seeds)
    if not games or len(games) != len(seeds):
        raise ValueError("need one seed per game and at least one run")
    if any(game.partition.a != 0 for game in games):
        raise ValueError("mirror descent applies only when player A has no private block")
    n = games[0].n
    if any(game.n != n for game in games):
        raise ValueError("batched runs must share n")
    check_upfront_budget("md", config.T, n)
    per_chunk = max(1, BATCH_DRAW_BYTES // (config.T * n * 8))
    return np.concatenate(
        [
            _run_chunk(games[s : s + per_chunk], config, seeds[s : s + per_chunk])
            for s in range(0, len(games), per_chunk)
        ]
    )


def _run_chunk(games, config: MdConfig, seeds) -> np.ndarray:
    """The mirror-descent loop over the (R, n) iterates of one chunk."""
    R, n = len(games), games[0].n
    alpha, T = config.alpha, config.T
    draws = np.empty((T, R, n))
    for r, (game, seed) in enumerate(zip(games, seeds)):
        draws[:, r] = sample_omega(game, as_generator(seed, OMEGA_STREAM), size=T)
    weights = np.array([game.weights for game in games])
    miss = weights / alpha  # the exponents off the argmax
    cols = np.arange(n)
    per_block = max(1, ROUND_BLOCK_BYTES // (R * n * 8))
    hits = np.empty((min(per_block, T), R, n))  # one block's exponents at the argmax

    p = np.full((R, n), 1.0 / n)
    total = np.zeros((R, n))
    for start in range(0, T, per_block):
        block = draws[start : start + per_block]
        block_hits = np.multiply(block, 0.5, out=hits[: len(block)])
        np.subtract(weights, block_hits, out=block_hits)
        block_hits /= alpha
        for omega, hit in zip(block, block_hits):
            total += p
            top = (p * omega).argmax(axis=-1, keepdims=True)
            p = mw_update(p, np.where(cols == top, hit, miss))
    require_positive(p)
    return total / T


def omega_sup_sq_mean(game: GameInstance, n_samples: int = 1_000_000, rng=0):
    """(mean, stderr) of max_k omega_k squared.

    Exact (stderr 0) when at most one coordinate of omega is random: the
    maximum is then max(W, m) with m the largest constant entry, whose
    second moment is closed-form for every catalog distribution.  With two
    or more random coordinates it is Monte Carlo estimated
    (:func:`congames.worstcase.omega_maxima` at x = 1), and raises
    ValueError before sampling when n_samples < 2 or when its three
    n_samples vectors exceed the up-front budget.
    """
    part = game.partition
    if part.b == 0:
        return float(np.max(game.weights) ** 2), 0.0
    if part.b == 1:
        const = game.weights.copy()
        k = int(part.set_b[0])
        const[k] = 0.0
        m = float(const.max()) if game.n > 1 else 0.0
        return float(game.distributions[k].expected_sq_max_with(m)), 0.0
    check_count("n_samples", n_samples, 2, " when player B observes two or more resources")
    # omega_maxima holds three n_samples vectors, whatever n is
    check_upfront_budget("omega_sup_sq_mean", n_samples, game.n, 3 / game.n, rows="n_samples")
    sq = omega_maxima(np.ones(game.n), game, n_samples, rng) ** 2
    return float(sq.mean()), float(sq.std(ddof=1) / np.sqrt(n_samples))


def md_error_bound(game: GameInstance, config: MdConfig) -> float:
    """Guaranteed expected gap C/(2 alpha) + alpha ln(n) / T of a run under
    ``config``."""
    sup_sq, _ = omega_sup_sq_mean(game)
    c = 2.0 * float(np.max(game.means)) ** 2 + 0.5 * sup_sq
    return c / (2.0 * config.alpha) + config.alpha * math.log(game.n) / config.T
