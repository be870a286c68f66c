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

:func:`run` performs steps 2 and 4 with the kernels
:func:`congames.worstcase.sampled_subgradient` (the sampled gradient of g,
shared with mirror descent and A1), :func:`gamma_step` and
:func:`queue_step`.  The emitted strategy is the equiprobable
:class:`~congames.strategies.Mixture` of the T queue-score rows (the
all-zero first one included); the final queues and targets
are returned on :class:`DppDiagnostics`.  With alpha >= V^2 every queue
stays below (v_j + 2 sqrt(2) u_j) sqrt(alpha) + u_j, which is what caps the
mixture's suboptimality at the error bound of :func:`bound_constants`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import GameInstance, sample_omega, sample_world
from .rng import OMEGA_STREAM, WORLD_STREAM, stream_generators
from .strategies import Mixture
from .worstcase import sampled_subgradient

__all__ = [
    "DppConfig",
    "DppDiagnostics",
    "BoundConstants",
    "box_upper",
    "gamma_step",
    "queue_step",
    "run",
    "bound_constants",
    "queue_bound",
    "config_for_epsilon",
]

QUEUE_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class DppConfig:
    """Penalty weight V, proximal weight alpha, and round count T.

    The suboptimality guarantee and the queue cap both require
    alpha >= V^2 (see :attr:`guarantee_holds`); the iteration itself is
    well-defined for any positive alpha.
    """

    V: float
    alpha: float
    T: int
    seed: int = 0
    record_diagnostics: bool = False

    def __post_init__(self):
        if not self.V > 0:
            raise ValueError("V must be positive")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.T < 1:
            raise ValueError("T must be >= 1")

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
    max_queue: np.ndarray | None = None  # per round, only when recorded
    actions: np.ndarray | None = None

    def write_csv(self, path):
        """Dump one row per round: t, max queue, chosen resource."""
        if self.max_queue is None or self.actions is None:
            raise ValueError("diagnostics were not recorded; enable record_diagnostics")
        with open(path, "w") as fh:
            fh.write("t,max_queue,action\n")
            for t, (mq, act) in enumerate(zip(self.max_queue, self.actions), start=1):
                fh.write(f"{t},{mq:.9g},{act}\n")


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


def _base_weights(game: GameInstance) -> np.ndarray:
    """Gross gain per unit of x_j: 1 on the A block, E_j elsewhere."""
    v = game.means.copy()
    v[game.partition.set_a] = 1.0
    return v


# The step kernels take float arrays of length n and do no checks; run()
# passes v, u, V and alpha fixed for the whole run.


def gamma_step(gamma_prev, queues, grad, V: float, alpha: float, u) -> np.ndarray:
    """Projected proximal step of the auxiliary target vector onto [0, u]."""
    return np.clip(gamma_prev - (queues - V * grad) / (2.0 * alpha), 0.0, u)


def queue_step(queues, gamma, action: int, drain: float) -> np.ndarray:
    """Queue update: add the target, subtract the realized amount, floor at 0.

    ``drain`` is what the chosen resource realized: its sampled reward X_j
    for a resource on the A block, 1 for any other resource.
    """
    out = queues + gamma
    out[action] -= drain
    return np.maximum(out, 0.0, out=out)


def run(game: GameInstance, config: DppConfig) -> tuple[Mixture, DppDiagnostics]:
    """Generate the equiprobable mixture of T queue-score strategies."""
    n = game.n
    a = game.partition.a
    V, alpha, T = config.V, config.alpha, config.T

    world_gen, omega_gen = stream_generators(config.seed, (WORLD_STREAM, OMEGA_STREAM))
    x_draws = sample_world(game, world_gen, size=T)[:, :a] if a else np.zeros((T, 0))
    omega_draws = sample_omega(game, omega_gen, size=T)

    u = box_upper(game)
    v = _base_weights(game)
    bound = queue_bound(game, alpha)
    limit = bound + QUEUE_BOUND_TOL

    queues = np.zeros(n)
    gamma = np.zeros(n)
    q_history = np.empty((T, n))
    realized_sum = np.zeros(n)
    violations = 0
    max_queue = np.empty(T) if config.record_diagnostics else None
    actions = np.empty(T, dtype=int) if config.record_diagnostics else None

    for t in range(T):
        grad = sampled_subgradient(gamma, omega_draws[t], v)
        gamma = gamma_step(gamma, queues, grad, V, alpha, u)

        scores = queues.copy()
        if a:
            scores[:a] = queues[:a] * x_draws[t]
        action = int(np.argmax(scores))
        q_history[t] = queues

        drain = x_draws[t, action] if action < a else 1.0
        realized_sum[action] += drain
        queues = queue_step(queues, gamma, action, drain)

        violations += int(np.count_nonzero(queues > limit))
        if config.record_diagnostics:
            max_queue[t] = q_history[t].max()
            actions[t] = action

    diagnostics = DppDiagnostics(
        queue_bound=bound,
        violations=violations,
        avg_realized=realized_sum / T,
        final_queues=queues,
        final_gamma=gamma,
        max_queue=max_queue,
        actions=actions,
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
    shared = np.concatenate([part.set_c, part.set_ab])

    n, a = game.n, part.a
    omega_sq_mean = a + m2_b.sum() + np.sum(means[shared] ** 2)
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
    """Uniform-in-time queue cap (v_j + 2 sqrt(2) u_j) sqrt(alpha) + u_j."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    u = box_upper(game)
    v = _base_weights(game)
    return (v + 2.0 * math.sqrt(2.0) * u) * math.sqrt(alpha) + u


def config_for_epsilon(epsilon: float, seed: int = 0, record_diagnostics: bool = False) -> DppConfig:
    """Heuristic parameters for a target gap: V = 1/eps, T = ceil(1/eps^2),
    and alpha = V^2, the smallest alpha the guarantee allows.

    The guarantee constants multiply these rates, so the realized gap is
    O(epsilon) with problem-dependent constants, not epsilon itself.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    V = 1.0 / epsilon
    return DppConfig(
        V=V,
        alpha=V**2,
        T=int(math.ceil(1.0 / epsilon**2)),
        seed=seed,
        record_diagnostics=record_diagnostics,
    )
