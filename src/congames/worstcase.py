"""Worst-case opponent and worst-case expected utility for player A.

Against a fixed strategy of A with statistics (p, q), the opponent that
minimizes A's expected utility scores resource k by

    lambda_k = q_k            on A's private block (weight 1),
               W_k * p_k      on B's private block,
               E_k * p_k      on the shared blocks,

and picks the argmax.  A's resulting utility depends on A's strategy only
through the interleaved vector x = (q on the A block, p elsewhere):

    g(x) = sum_{A} x_k + sum_{A^c} E_k x_k - 1/2 E[max_k omega_k x_k],

with omega the adversary weight vector of :func:`congames.game.sample_omega`.
g is concave, entry-wise non-decreasing, and Lipschitz with weights 3/2 on
the A block and 3/2 E_k elsewhere.  The max term is exact when the B block
is empty and Monte Carlo estimated otherwise, by :func:`omega_maxima`,
which draws only B's columns of omega (the others are constant) and never
builds the (samples, n) product.

Every worst-case solver ends in one evaluation of g: at x itself
(:func:`worst_case_objective`), or at the x of a strategy's estimated
statistics, on the same seed (:func:`worst_case_utility`).

:func:`sampled_subgradient` is the one sampled (ascent) gradient of g for a
single omega draw; the drift-plus-penalty and A1 solvers step along it.  It
works on Python floats, not numpy arrays: those solvers call it once per
round of a single run on vectors of length n, and numpy's per-call dispatch
would cost more than the arithmetic.  :func:`sampled_subgradients` is the
same gradient row by row over (R, n) arrays, for the batched mirror-descent
loop, where one numpy call serves all R runs: it selects w - omega/2 at each
row's argmax with ``np.where`` rather than gathering and scattering by index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameInstance, check_upfront_budget
from .montecarlo import DEFAULT_SAMPLES, StrategyStats, estimate_stats
from .rng import OMEGA_STREAM, as_generator
from .strategies import Mixture, Strategy

__all__ = [
    "WorstCaseEval",
    "worst_case_response",
    "worst_case_objective",
    "worst_case_utility",
    "omega_max_mean",
    "omega_maxima",
    "sampled_subgradient",
    "sampled_subgradients",
]


@dataclass(frozen=True)
class WorstCaseEval:
    """Worst-case expected utility of a strategy for player A."""

    value: float
    stderr: float
    lambda_max_mean: float  # estimate of E[max_k lambda_k]
    stats: StrategyStats  # the statistics of A the value was computed from


def worst_case_response(stats_a: StrategyStats, game: GameInstance) -> Mixture:
    """The one-row score strategy of B minimizing A's expected utility given
    A's stats.

    This adversary is granted exact knowledge of A's (p, q); a B player
    without that knowledge may not realize it, so the resulting utility for
    A is a conservative guarantee.
    """
    if stats_a.player != "A":
        raise ValueError("worst_case_response needs player A statistics")
    part = game.partition
    values = game.means * stats_a.p
    values[part.set_a] = stats_a.q
    values[part.set_b] = stats_a.p[part.set_b]  # coefficient on B's observed reward
    return Mixture(values[np.newaxis], part.set_b)


def sampled_subgradient(x, omega, w) -> list[float]:
    """Gradient of w.x - max_k(omega_k x_k)/2 at x for one omega draw.

    ``w`` holds the gross gain per unit of x (for g itself
    :attr:`~congames.game.GameInstance.weights`: 1 on the A block, E_k
    elsewhere); the argmax of x * omega loses half its omega
    weight, lowest index on ties.  Takes length-n float sequences, returns a
    list, and does no checks.
    """
    prods = [xk * ok for xk, ok in zip(x, omega)]
    top = prods.index(max(prods))
    grad = list(w)
    grad[top] -= 0.5 * omega[top]
    return grad


def sampled_subgradients(x: np.ndarray, omega: np.ndarray, w: np.ndarray) -> np.ndarray:
    """:func:`sampled_subgradient` for each row of (R, n) arrays at once.

    Row r equals ``sampled_subgradient(x[r], omega[r], w[r])`` bit for bit
    (the argmax takes the lowest index on ties, as ``list.index`` does).
    """
    top = (x * omega).argmax(axis=-1, keepdims=True)
    return np.where(np.arange(x.shape[-1]) == top, w - 0.5 * omega, w)


def omega_max_mean(x, game: GameInstance, n_samples: int = DEFAULT_SAMPLES, rng=0):
    """Mean and standard error of max_k omega_k x_k.

    Deterministic (stderr 0) when the B block is empty.  Otherwise raises
    ValueError before sampling when n_samples < 2 (no standard error) or
    when n_samples x n draws exceed the up-front budget.
    """
    x = np.asarray(x, dtype=float)
    if game.partition.b == 0:
        return float(np.max(game.weights * x)), 0.0
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2 when player B observes a resource")
    check_upfront_budget("omega_max_mean", n_samples, game.n, rows="n_samples")
    maxima = omega_maxima(x, game, n_samples, rng)
    return float(maxima.mean()), float(maxima.std(ddof=1) / np.sqrt(n_samples))


def omega_maxima(x: np.ndarray, game: GameInstance, n_samples: int, rng) -> np.ndarray:
    """max_k omega_k x_k for each of ``n_samples`` omega draws, unchecked.

    Returns the bits of ``np.max(sample_omega(game, gen, n_samples) * x,
    axis=1)`` with ``gen = as_generator(rng, OMEGA_STREAM)``: B's columns
    are drawn from ``gen`` in the same order, each constant column enters as
    the scalar ``weights[k] * x[k]``, and the running maximum takes the
    columns 0 ... n-1 in turn, as numpy's row maximum does, so a tie of
    +0.0 and -0.0 resolves the same way.
    """
    gen = as_generator(rng, OMEGA_STREAM)
    b_block = range(game.partition.a, game.partition.a + game.partition.b)
    maxima = np.full(n_samples, -np.inf)
    for k, column in enumerate(game.weights * x):
        if k in b_block:
            column = game.distributions[k].sample(gen, size=n_samples) * x[k]
        np.maximum(maxima, column, out=maxima)
    return maxima


def worst_case_objective(
    x,
    game: GameInstance,
    n_samples: int = DEFAULT_SAMPLES,
    rng=0,
) -> tuple[float, float]:
    """Evaluate g(x) = sum_A x + sum_{A^c} E x - E[max omega*x]/2.

    Returns (g(x), its standard error), the error coming from the Monte
    Carlo max term (0 when b == 0).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (game.n,):
        raise ValueError(f"x must have shape ({game.n},)")
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise ValueError("x entries must be finite and non-negative")
    value, stderr, _ = _objective_terms(x, game, n_samples, rng)
    return value, stderr


def _objective_terms(x: np.ndarray, game: GameInstance, n_samples: int, rng):
    """(g(x), standard error of g(x), E[max omega*x]) without input checks."""
    part = game.partition
    base = float(x[part.set_a].sum() + np.dot(game.means[part.a_comp], x[part.a_comp]))
    max_mean, max_stderr = omega_max_mean(x, game, n_samples=n_samples, rng=rng)
    return base - 0.5 * max_mean, 0.5 * max_stderr, max_mean


def worst_case_utility(
    strategy_a: Strategy,
    game: GameInstance,
    n_samples: int = DEFAULT_SAMPLES,
    rng=0,
) -> WorstCaseEval:
    """Worst-case expected utility of an A strategy, via its statistics;
    the statistics and the max term take ``n_samples`` draws of ``rng``."""
    stats = estimate_stats(strategy_a, game, "A", n_samples=n_samples, rng=rng)
    x = stats.p.copy()
    x[game.partition.set_a] = stats.q  # q on the A block, p elsewhere
    value, stderr, max_mean = _objective_terms(x, game, n_samples, rng)
    return WorstCaseEval(value=value, stderr=stderr, lambda_max_mean=max_mean, stats=stats)
