"""Mirror descent (multiplicative weights) for players with no private block.

When player A observes nothing privately, its achievable statistics are
exactly the probability simplex, and the worst-case objective becomes

    sum_k p_k E_k - 1/2 E[max_k p_k omega_k]

with omega the adversary weight vector.  Each round samples one omega, takes
the sampled ascent gradient

    grad_j = E_j - 1/2 * 1{argmax_k p_k omega_k = j} * omega_j

from :func:`congames.worstcase.sampled_subgradient` (the kernel
drift-plus-penalty and :func:`congames.quantile.solve_a1` use too), and
applies the entropy-geometry update p_k <- p_k exp(grad_k / alpha),
renormalized (exponents are max-shifted first, which leaves the value
unchanged).  The returned vector is the average of the iterates including
the uniform start; its expected suboptimality is at most

    C / (2 alpha) + alpha ln(n) / T,    C = 2 max(E)^2 + E[max_k omega_k^2]/2.

All runs of a sweep share one config (alpha and T) and n, and are
independent, so :func:`run_md_batch` steps them together: the iterates are
the rows of an (R, n) array, and each round makes one row-wise gradient
(:func:`congames.worstcase.sampled_subgradients`) and one row-wise
:func:`mw_update` for all R runs.  Neither gathers or scatters by index:
the gradient picks w - omega/2 at each row's argmax with ``np.where``, and
the update calls ``np.maximum.reduce`` and ``np.add.reduce`` directly, the
ufuncs that ``.max()`` and ``.sum()`` reach through Python wrappers.  Every
row gets the bits it would get alone: the update is elementwise, and the
row reductions (max, sum, argmax with the lowest index on ties) see one row
at a time.  :func:`run_md` is a batch of one.  The update stays on
``np.exp``: ``math.exp`` differs from it in the last bit on some inputs,
which would change every later iterate.
Each run's omega draws are still sampled in one call of size T from its own
seed, an argument of the run apart from the config; the batch holds them in
one T x R' x n array for a chunk of R' runs whose draws fit
:data:`BATCH_DRAW_BYTES`, so a sweep's memory stays bounded however many
points and repetitions it has.

The loop runs the unchecked :func:`mw_update` and checks positivity once,
after the last round: a zero or NaN entry is absorbing under the update
(0 * exp(.) stays 0, NaN spreads through the normalization), so it would
still be there.

:func:`congames.quantile.solve_a1` steps one run at a time, where numpy's
per-call dispatch would cost more than the arithmetic on n floats.  It runs
:func:`mw_step`, the one-iterate twin of :func:`mw_update` on Python floats,
as :func:`congames.worstcase.sampled_subgradient` is the twin of
:func:`~congames.worstcase.sampled_subgradients`.  The twin gives the same
bits: its exponents stay on ``np.exp``, and :func:`pairwise_sum` adds its
normalizer in numpy's order (left to right below 8 entries, which is
numpy's order there too, and numpy's own sum from 8 on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import GameInstance, check_count, check_setting, check_upfront_budget, sample_omega
from .rng import OMEGA_STREAM, as_generator
from .worstcase import omega_maxima, sampled_subgradients

__all__ = [
    "MdConfig",
    "mw_update",
    "mw_step",
    "pairwise_sum",
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


@dataclass(frozen=True)
class MdConfig:
    """Step weight alpha and round count T; :func:`run_md` takes the seed."""

    alpha: float
    T: int

    def __post_init__(self):
        check_setting("alpha", self.alpha)
        check_count("T", self.T)


def require_positive(p):
    """Reject an iterate (an array or a list) with a zero or NaN entry."""
    if not np.all(np.asarray(p) > 0):
        raise ValueError("mirror-descent iterates must be strictly positive")


def mw_update(p: np.ndarray, grad, alpha: float) -> np.ndarray:
    """Bare multiplicative-weights ascent step along ``grad``, unchecked.

    Works row-wise: ``p`` is one iterate of shape (n,) or a batch of shape
    (R, n), with ``grad`` of the same shape (a list is accepted).
    """
    expo = np.asarray(grad, dtype=float) / alpha
    expo -= np.maximum.reduce(expo, axis=-1, keepdims=True)  # value-invariant shift against overflow
    w = p * np.exp(expo)
    return w / np.add.reduce(w, axis=-1, keepdims=True)


def mw_step(p, grad, alpha: float) -> list[float]:
    """:func:`mw_update` of one iterate on Python floats, unchecked.

    Takes length-n float sequences and returns
    ``mw_update(np.array(p), grad, alpha).tolist()`` bit for bit, with one
    exception: where every weight underflows to 0, mw_update returns NaN and
    this raises :func:`require_positive`'s ValueError.
    """
    top = max(grad) / alpha  # the largest exponent: dividing by alpha > 0 keeps the order
    w = [pk * ek for pk, ek in zip(p, np.exp([g / alpha - top for g in grad]).tolist())]
    total = pairwise_sum(w)
    if total == 0.0:  # every weight underflowed, so w fails the check
        require_positive(w)
    return [wk / total for wk in w]


def pairwise_sum(xs) -> float:
    """Sum of a float list in the order numpy sums a contiguous float64 row.

    Left to right from 0.0 below 8 entries, where numpy's order is that
    too and a loop costs less than building an array; from 8 entries on,
    numpy's own sum of the list.  (The builtin ``sum`` is left to right only
    before Python 3.12.)
    """
    if len(xs) >= 8:
        return float(np.sum(xs))
    total = 0.0
    for x in xs:
        total += x
    return total


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

    p = np.full((R, n), 1.0 / n)
    total = np.zeros((R, n))
    for omega in draws:
        total += p
        p = mw_update(p, sampled_subgradients(p, omega, weights), alpha)
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
