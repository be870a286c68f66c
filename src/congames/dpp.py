"""Drift-plus-penalty solver for the general worst-case problem.

The target quantities x_j = E[W_j 1{action=j}] (private block) and
x_j = Pr{action=j} (elsewhere) live in the box K = prod [0, u_j] with
u_j = E_j on the private block and 1 elsewhere.  Each round t:

1. draw the private rewards X(t) and an adversary weight vector omega(t);
2. move the auxiliary target vector gamma by one projected step of the
   penalized objective,
       gamma_j <- clip(gamma_j - (Q_j - V * grad_j) / (2 alpha), 0, u_j),
   where grad is a subgradient of the sampled objective at the previous
   gamma (the separable closed form of the per-round proximal problem);
3. act with the virtual-queue score strategy: argmax over
   {Q_j X_j : j private} and {Q_j : j not private}, lowest index on ties;
4. update the queues toward the targets:
       Q_j <- max(Q_j + gamma_j - realized x_j, 0).

:func:`run` takes the subgradient of step 2 from
:func:`congames.worstcase.sampled_subgradient` (the sampled gradient of g,
shared with mirror descent and A1) and does the rest of steps 2 and 4 in
one pass over the resources, updating gamma and the queues in place.  The
round works on Python lists of floats: at n = 3 a numpy call costs more in
dispatch than in arithmetic.  Each comparison is written so that a -0.0
comes out as +0.0, which gives the bits of numpy's clip and maximum.  Each
stream's T draws are still sampled in one call and are read as lists a
chunk of rows at a time (:func:`congames.game.draw_rows`); the queue
history is kept in a compact float buffer.  The emitted strategy is the
equiprobable :class:`~congames.strategies.Mixture` of the T queue-score rows
(the all-zero first one included); the queue cap and its violation
count, the average realized x, and the final queues and targets are
returned on :class:`DppDiagnostics`.  With alpha >= V^2 every queue
stays below (v_j + 2 sqrt(2) u_j) sqrt(alpha) + u_j, which is what caps the
mixture's suboptimality at the error bound of :func:`bound_constants`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .game import (
    GameInstance,
    check_count,
    check_setting,
    check_upfront_budget,
    draw_rows,
    sample_omega,
    sample_world,
)
from .rng import OMEGA_STREAM, WORLD_STREAM, stream_generators
from .strategies import Mixture
from .worstcase import sampled_subgradient

__all__ = [
    "DppConfig",
    "DppDiagnostics",
    "BoundConstants",
    "box_upper",
    "run",
    "bound_constants",
    "queue_bound",
]

QUEUE_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class DppConfig:
    """Penalty weight V, proximal weight alpha, and round count T.

    A config holds settings only; :func:`run` takes the seed.

    The suboptimality guarantee and the queue cap both require
    alpha >= V^2 (see :attr:`guarantee_holds`); the iteration itself is
    well-defined for any positive alpha.
    """

    V: float
    alpha: float
    T: int

    def __post_init__(self):
        check_setting("V", self.V)
        check_setting("alpha", self.alpha)
        check_count("T", self.T)

    @property
    def guarantee_holds(self) -> bool:
        return self.alpha >= self.V**2


@dataclass(frozen=True)
class DppDiagnostics:
    """What a run leaves besides the mixture.

    ``queue_bound`` is the per-resource cap of :func:`queue_bound` and
    ``violations`` counts (round, resource) pairs whose queue exceeded it
    after the update.  ``avg_realized`` is the average realized x per round,
    and ``final_queues`` / ``final_gamma`` are the queues and targets after
    round T.
    """

    queue_bound: np.ndarray
    violations: int
    avg_realized: np.ndarray
    final_queues: np.ndarray
    final_gamma: np.ndarray


@dataclass(frozen=True)
class BoundConstants:
    """Constants of the suboptimality guarantee for given (V, alpha, T)."""

    drift_bound: float  # per-round Lyapunov drift constant
    subgrad_sq_bound: float  # bound on the expected squared subgradient norm
    diameter_sq_bound: float  # squared diameter of the feasible box
    error_bound: float  # full optimality-gap bound


def box_upper(game: GameInstance) -> np.ndarray:
    """Upper corner of the feasible box: E_j on the A block, 1 elsewhere."""
    u = np.ones(game.n)
    u[game.partition.set_a] = game.means[game.partition.set_a]
    return u


def run(game: GameInstance, config: DppConfig, seed: int = 0) -> tuple[Mixture, DppDiagnostics]:
    """Generate the equiprobable mixture of T queue-score strategies, with
    the world and omega draws of ``seed``.

    Raises ValueError, before drawing anything, when the run's draws, queue
    history and mixture would exceed
    :data:`~congames.game.UPFRONT_BUDGET_BYTES`.
    """
    n = game.n
    a = game.partition.a
    V, alpha, T = config.V, config.alpha, config.T
    # T x n omega draws, the T x n queue history, the mixture's copy of that
    # history, and T x a world draws
    check_upfront_budget("dpp", T, n, 3 + a / n)

    world_gen, omega_gen = stream_generators(seed, (WORLD_STREAM, OMEGA_STREAM))
    x_draws = sample_world(game, world_gen, size=T, columns=a)
    omega_draws = sample_omega(game, omega_gen, size=T)

    u = box_upper(game).tolist()
    v = game.weights.tolist()
    bound = queue_bound(game, alpha)

    two_alpha = 2.0 * alpha
    queues = [0.0] * n
    gamma = [0.0] * n
    history = array("d")
    realized_sum = [0.0] * n

    for omega, x in zip(draw_rows(omega_draws), draw_rows(x_draws)):
        grad = sampled_subgradient(gamma, omega, v)
        scores = [q * xk for q, xk in zip(queues, x)] + queues[a:]
        action = scores.index(max(scores))
        history.extend(queues)
        drain = x[action] if action < a else 1.0
        realized_sum[action] += drain

        # the rest of steps 2 and 4, in place
        for j, hi in enumerate(u):
            q = queues[j]
            y = gamma[j] - (q - V * grad[j]) / two_alpha
            y = y if y > 0.0 else 0.0
            g = gamma[j] = y if y < hi else hi
            y = q + g - drain if j == action else q + g
            queues[j] = y if y > 0.0 else 0.0

    q_history = np.frombuffer(history, dtype=float).reshape(T, n)
    final_queues = np.array(queues)
    # the queues after round t are the history row of round t + 1
    limit = bound + QUEUE_BOUND_TOL
    violations = int(
        np.count_nonzero(q_history[1:] > limit) + np.count_nonzero(final_queues > limit)
    )
    diagnostics = DppDiagnostics(
        queue_bound=bound,
        violations=violations,
        avg_realized=np.array(realized_sum) / T,
        final_queues=final_queues,
        final_gamma=np.array(gamma),
    )
    return Mixture(q_history, game.partition.set_a), diagnostics


def bound_constants(game: GameInstance, config: DppConfig) -> BoundConstants:
    """Exact guarantee constants; second moments come from the catalog."""
    part = game.partition
    means = game.means
    e_a = means[part.set_a]
    e_rest = means[part.a_comp]
    m2_a = np.array([game.distributions[k].second_moment for k in part.set_a])
    m2_b = np.array([game.distributions[k].second_moment for k in part.set_b])

    n, a = game.n, part.a
    omega_sq_mean = a + m2_b.sum() + np.sum(means[part.shared] ** 2)
    drift = n - a + 0.5 * np.sum(e_a**2 + m2_a)
    subgrad_sq = 4.0 * a + omega_sq_mean + 4.0 * np.sum(e_rest**2)
    diameter_sq = n - a + np.sum(e_a**2)

    V, alpha, T = config.V, config.alpha, config.T
    root_a = math.sqrt(alpha)
    root_2a = math.sqrt(2.0 * alpha)
    tail = np.sum(root_a + e_a * (2.0 * root_2a + 1.0))
    tail += np.sum(e_rest**2 * root_a + e_rest * (2.0 * root_2a + 1.0))
    error = (
        drift / V
        + V * subgrad_sq / (16.0 * alpha)
        + alpha * diameter_sq / (V * T)
        + 1.5 * tail / T
    )
    return BoundConstants(
        drift_bound=float(drift),
        subgrad_sq_bound=float(subgrad_sq),
        diameter_sq_bound=float(diameter_sq),
        error_bound=float(error),
    )


def queue_bound(game: GameInstance, alpha: float) -> np.ndarray:
    """Uniform-in-time queue cap (v_j + 2 sqrt(2) u_j) sqrt(alpha) + u_j,
    with v the game's weights and u the box's upper corner; alpha must be
    positive and finite."""
    check_setting("alpha", alpha)
    u = box_upper(game)
    v = game.weights
    return (v + 2.0 * math.sqrt(2.0) * u) * math.sqrt(alpha) + u

