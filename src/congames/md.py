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

The gradient is taken on Python floats (the iterate as a list, the omega
draws read a chunk of rows at a time by :func:`congames.game.draw_rows`);
the update itself stays in numpy on ``np.exp``, whose results differ from
``math.exp`` in the last bit on some inputs.

The loop runs the unchecked :func:`mw_update`, which
:func:`congames.quantile.solve_a1` shares, and checks positivity once, after
the last round: a zero or NaN entry is absorbing under the update
(0 * exp(.) stays 0, NaN spreads through the normalization), so it would
still be there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import GameInstance, deterministic_omega, draw_rows, sample_omega
from .rng import OMEGA_STREAM, as_generator
from .worstcase import sampled_subgradient

__all__ = [
    "MdConfig",
    "md_step",
    "mw_update",
    "require_positive",
    "run_md",
    "md_error_bound",
    "omega_sup_sq_mean",
]


@dataclass(frozen=True)
class MdConfig:
    alpha: float
    T: int
    seed: int = 0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.T < 1:
            raise ValueError("T must be >= 1")


def require_positive(p: np.ndarray):
    """Reject an iterate with a zero or NaN entry."""
    if not np.all(p > 0):
        raise ValueError("mirror-descent iterates must be strictly positive")


def mw_update(p: np.ndarray, grad, alpha: float) -> np.ndarray:
    """Bare multiplicative-weights ascent step along ``grad``, unchecked.

    ``grad`` may be a list, as :func:`~congames.worstcase.sampled_subgradient`
    returns it.  The step stays on ``np.exp``: ``math.exp`` differs from it
    in the last bit on some inputs, which would change every later iterate.
    """
    expo = np.asarray(grad, dtype=float) / alpha
    expo -= expo.max()  # value-invariant shift against overflow
    w = p * np.exp(expo)
    return w / w.sum()


def md_step(p, grad, alpha: float) -> np.ndarray:
    """One validated multiplicative-weights ascent step along ``grad``;
    preserves strict positivity."""
    p = np.asarray(p, dtype=float)
    require_positive(p)
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return mw_update(p, grad, alpha)


def run_md(game: GameInstance, config: MdConfig) -> np.ndarray:
    """Average mirror-descent iterate after T rounds (uniform start included)."""
    if game.partition.a != 0:
        raise ValueError("mirror descent applies only when player A has no private block")
    n = game.n
    means = game.means.tolist()
    omegas = sample_omega(game, as_generator(config.seed, OMEGA_STREAM), size=config.T)

    p = np.full(n, 1.0 / n)
    total = np.zeros(n)
    for omega in draw_rows(omegas):
        total += p
        p = mw_update(p, sampled_subgradient(p.tolist(), omega, means), config.alpha)
    require_positive(p)
    return total / config.T


def omega_sup_sq_mean(game: GameInstance, n_samples: int = 1_000_000, rng=0):
    """(mean, stderr) of max_k omega_k squared.

    Exact (stderr 0) when at most one coordinate of omega is random: the
    maximum is then max(W, m) with m the largest constant entry, whose
    second moment is closed-form for every catalog distribution.  With two
    or more random coordinates it is Monte Carlo estimated.
    """
    part = game.partition
    if part.b == 0:
        return float(np.max(deterministic_omega(game)) ** 2), 0.0
    if part.b == 1:
        const = np.ones(game.n)
        const[part.a_comp] = game.means[part.a_comp]
        k = int(part.set_b[0])
        const[k] = 0.0
        m = float(const.max()) if game.n > 1 else 0.0
        return float(game.distributions[k].expected_sq_max_with(m)), 0.0
    omegas = sample_omega(game, as_generator(rng, OMEGA_STREAM), size=n_samples)
    sq = np.max(omegas, axis=1) ** 2
    return float(sq.mean()), float(sq.std(ddof=1) / np.sqrt(n_samples))


def md_error_bound(game: GameInstance, alpha: float, T: int) -> float:
    """Guaranteed expected gap C/(2 alpha) + alpha ln(n) / T."""
    if not alpha > 0 or T < 1:
        raise ValueError("need alpha > 0 and T >= 1")
    sup_sq, _ = omega_sup_sq_mean(game)
    c = 2.0 * float(np.max(game.means)) ** 2 + 0.5 * sup_sq
    return c / (2.0 * alpha) + alpha * math.log(game.n) / T
