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
is empty and Monte Carlo estimated otherwise.

:func:`sampled_subgradient` is the one sampled (ascent) gradient of g for a
single omega draw; the drift-plus-penalty, mirror-descent and A1 solvers all
step along it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameInstance, deterministic_omega, sample_omega
from .montecarlo import McConfig, StrategyStats, estimate_stats
from .rng import OMEGA_STREAM, as_generator
from .strategies import Mixture, Strategy

__all__ = [
    "WorstCaseEval",
    "worst_case_response",
    "worst_case_objective",
    "worst_case_utility",
    "omega_max_mean",
    "sampled_subgradient",
]


@dataclass(frozen=True)
class WorstCaseEval:
    """Worst-case expected utility of a strategy for player A."""

    value: float
    mc_samples: int
    stderr: float
    lambda_max_mean: float  # estimate of E[max_k lambda_k]


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


def sampled_subgradient(x: np.ndarray, omega: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient of w.x - max_k(omega_k x_k)/2 at x for one omega draw.

    ``w`` holds the gross gain per unit of x (1 on the A block, E_k
    elsewhere, for g itself); the argmax of x * omega loses half its omega
    weight, lowest index on ties.  Takes float arrays and does no checks.
    """
    grad = w.copy()
    top = int(np.argmax(x * omega))
    grad[top] -= 0.5 * omega[top]
    return grad


def omega_max_mean(x, game: GameInstance, n_samples: int = 100_000, rng=0):
    """Mean and standard error of max_k omega_k x_k.

    Deterministic (stderr 0) when the B block is empty.
    """
    x = np.asarray(x, dtype=float)
    if game.partition.b == 0:
        value = float(np.max(deterministic_omega(game) * x))
        return value, 0.0
    omegas = sample_omega(game, as_generator(rng, OMEGA_STREAM), size=n_samples)
    maxima = np.max(omegas * x, axis=1)
    return float(maxima.mean()), float(maxima.std(ddof=1) / np.sqrt(n_samples))


def worst_case_objective(
    x,
    game: GameInstance,
    n_samples: int = 100_000,
    rng=0,
    with_error: bool = False,
):
    """Evaluate g(x) = sum_A x + sum_{A^c} E x - E[max omega*x]/2.

    ``with_error=True`` additionally returns the standard error contributed
    by the Monte Carlo max term (0 when b == 0).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (game.n,):
        raise ValueError(f"x must have shape ({game.n},)")
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise ValueError("x entries must be finite and non-negative")
    value, stderr, _ = _objective_terms(x, game, n_samples, rng)
    if with_error:
        return value, stderr
    return value


def _objective_terms(x: np.ndarray, game: GameInstance, n_samples: int, rng):
    """(g(x), standard error of g(x), E[max omega*x]) without input checks."""
    part = game.partition
    base = float(x[part.set_a].sum() + np.dot(game.means[part.a_comp], x[part.a_comp]))
    max_mean, max_stderr = omega_max_mean(x, game, n_samples=n_samples, rng=rng)
    return base - 0.5 * max_mean, 0.5 * max_stderr, max_mean


def interleave_stats(stats_a: StrategyStats, game: GameInstance) -> np.ndarray:
    """The vector x = (q on the A block, p elsewhere) feeding the objective."""
    x = stats_a.p.copy()
    x[game.partition.set_a] = stats_a.q
    return x


def worst_case_utility(
    strategy_a: Strategy,
    game: GameInstance,
    mc: McConfig = McConfig(),
) -> WorstCaseEval:
    """Worst-case expected utility of an A strategy, via its statistics."""
    stats = estimate_stats(strategy_a, game, "A", n_samples=mc.n_samples, rng=mc.seed)
    value, stderr, max_mean = _objective_terms(
        interleave_stats(stats, game), game, mc.n_samples, mc.seed
    )
    return WorstCaseEval(
        value=value, mc_samples=mc.n_samples, stderr=stderr, lambda_max_mean=max_mean
    )
