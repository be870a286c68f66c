"""Worst-case opponent and worst-case expected utility for player A.

Against a fixed strategy of A with statistics (p, q), the opponent that
minimizes A's expected utility scores resource k by

    lambda_k = q_k            on A's private block (weight 1),
               W_k * p_k      on B's private block,
               E_k * p_k      on the shared blocks,

and picks the argmax.  A's resulting utility depends on A's strategy only
through the interleaved vector x = (q on the A block, p elsewhere):

    g(x) = sum_{A} x_k + sum_{A^c} E_k x_k - 1/2 E[max_k omega_k x_k],

with omega the adversary weight vector: a fresh reward draw on B's block,
:attr:`~congames.game.GameInstance.weights` elsewhere.  g is concave,
entry-wise non-decreasing, and Lipschitz with weights 3/2 on the A block
and 3/2 E_k elsewhere.  The max term is exact when the B block is empty and
Monte Carlo estimated otherwise, by :func:`omega_maxima`, which takes B's
columns from :func:`congames.game.sample_omega` (the others are constant)
and folds the products and their running maximum into them in place, never
building the (samples, n) product.  Its sample rules, at least 2 draws and
B's b columns of them within the up-front budget, are stated
once, by :func:`_check_max_term`, which :func:`omega_max_mean`,
:func:`congames.quantile.solve_a1` and every worst-case
:class:`~congames.experiments.ScenarioSpec` ask.

Every worst-case solver ends in one evaluation of g: at x itself
(:func:`worst_case_objective`), or at the x of a strategy's estimated
statistics, on the same seed (:func:`worst_case_utility`).

The sampled (ascent) gradient of g for one omega draw is w_k, less
omega_k / 2 at the argmax of x * omega (lowest index on ties), with w the
game's weights; the drift-plus-penalty, mirror-descent and A1 rounds take
it inside their loops (:mod:`congames.dpp`, :mod:`congames.md`,
:mod:`congames.quantile`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameInstance, Partition, check_count, check_upfront_budget, sample_omega
from .montecarlo import DEFAULT_SAMPLES, StrategyStats, _mean_and_stderr, estimate_stats
from .rng import OMEGA_STREAM, as_generator
from .strategies import Mixture, Strategy

__all__ = [
    "WorstCaseEval",
    "worst_case_response",
    "worst_case_objective",
    "worst_case_utility",
    "omega_max_mean",
    "omega_maxima",
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


def omega_max_mean(x, game: GameInstance, n_samples: int = DEFAULT_SAMPLES, rng=0):
    """Mean and standard error of max_k omega_k x_k.

    Deterministic (stderr 0) when the B block is empty.  Otherwise raises
    ValueError before sampling when :func:`_check_max_term` refuses
    ``n_samples``.
    """
    x = np.asarray(x, dtype=float)
    if game.partition.b == 0:
        return float(np.max(game.weights * x)), 0.0
    _check_max_term(game.partition, n_samples)
    return _mean_and_stderr(omega_maxima(x, game, n_samples, rng))


def _check_max_term(partition: Partition, n_samples: int):
    """Refuse the ``n_samples`` of a max term sampled under ``partition``
    before anything is drawn: fewer than 2 (no standard error), or
    :func:`omega_maxima`'s vectors over the up-front budget.  The term is
    exact, so nothing is checked, when the B block is empty.  The one
    statement of these rules: :func:`omega_max_mean`, the A1 solver and
    every worst-case sweep's spec ask it."""
    if partition.b == 0:
        return
    check_count("n_samples", n_samples, 2, " when player B observes a resource")
    # omega_maxima holds B's b n_samples columns, and the estimates fold
    # everything else into them
    check_upfront_budget("omega_max_mean", n_samples, partition.n, partition.b / partition.n, rows="n_samples")


def omega_maxima(x: np.ndarray, game: GameInstance, n_samples: int, rng) -> np.ndarray:
    """max_k omega_k x_k for each of ``n_samples`` omega draws, unchecked.

    B's columns come from ``sample_omega(game, as_generator(rng,
    OMEGA_STREAM), n_samples)``; each constant column enters as the scalar
    ``weights[k] * x[k]``, and the running maximum takes the columns
    0 ... n-1 in turn, each as the second argument, as numpy's row maximum
    of the full omega times x does, so a tie of +0.0 and -0.0 and a NaN
    resolve the same way.  The products and the running maximum are
    written into B's drawn columns in place, the maximum into the first,
    which is returned: the call holds B's n_samples x b draws and nothing
    else of their size (one vector of the constant maximum when b == 0).
    """
    a, b = game.partition.a, game.partition.b
    drawn = sample_omega(game, as_generator(rng, OMEGA_STREAM), n_samples)
    products = game.weights * x
    lead = -np.inf  # the maximum of the constant columns before B's block
    for column in products[:a]:
        lead = np.maximum(lead, column)
    maxima = drawn[:, 0] if b else np.full(n_samples, lead)
    for j, column in enumerate(drawn.T):
        np.multiply(column, x[a + j], out=column)
        np.maximum(maxima if j else lead, column, out=maxima)
    for column in products[a + b :]:
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
