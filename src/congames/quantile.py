"""Threshold strategies for a player observing exactly one resource.

If player A privately observes only resource 0 (continuous CDF F), then for
any pick probability p0 the largest reward-weighted rate it can pair with it
is achieved by the upper-tail rule "pick resource 0 iff its reward is at
least the (1-p0)-quantile":

    q(p0) = p0 * E[W | F(W) >= 1 - p0],

and no strategy with Pr{pick 0} = p0 exceeds this (so q traces the exact
frontier of achievable (q, p) pairs).  q is concave and non-decreasing on
[0, 1] with q(0) = 0 and q(1) = E[W].

The worst-case problem then reduces to maximizing g(q(p0), p[1:]) over the
simplex (g from :mod:`congames.worstcase`), solved here by mirror descent
restricted to p0 >= delta: the q-term's slope blows up as p0 -> 0 for
heavy-ish tails (for the exponential it is -ln p0), and the restriction
keeps the sampled subgradients bounded.  The slope is taken by central
finite difference, which keeps the solver generic across the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import RewardDistribution
from .game import GameInstance, sample_omega
from .md import MdConfig, md_subgradient, mw_update, require_positive
from .rng import OMEGA_STREAM, as_generator
from .strategies import QuantileThreshold
from .worstcase import worst_case_objective

__all__ = [
    "TailFrontier",
    "tail_weighted_mean",
    "build_strategy_a1",
    "solve_a1",
]

FD_WIDTH = 1e-4  # central-difference width for the frontier slope
DEFAULT_DELTA = 1e-3  # simplex restriction p0 >= delta


def _require_continuous(dist: RewardDistribution):
    if not dist.is_continuous:
        raise ValueError(
            "tail frontier requires a continuous reward distribution for resource 0"
        )


def tail_weighted_mean(dist: RewardDistribution, p1: float) -> float:
    """p1 times the conditional mean of the upper p1-fraction of ``dist``."""
    _require_continuous(dist)
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must be in [0, 1], got {p1}")
    if p1 == 0.0:
        return 0.0
    return p1 * dist.tail_mean(p1)


@dataclass(frozen=True)
class TailFrontier:
    """Evaluable frontier p0 -> (threshold, best achievable q)."""

    dist: RewardDistribution

    def __post_init__(self):
        _require_continuous(self.dist)

    def q(self, p1: float) -> float:
        return tail_weighted_mean(self.dist, p1)

    def tau(self, p1: float) -> float:
        return self.dist.quantile(1.0 - p1)

    def slope(self, p1: float, width: float = FD_WIDTH) -> float:
        hi = min(1.0, p1 + width)
        lo = max(0.0, p1 - width)
        return (self.q(hi) - self.q(lo)) / (hi - lo)


def build_strategy_a1(p, game: GameInstance) -> QuantileThreshold:
    """The threshold strategy realizing pick probabilities ``p`` for A.

    Picks resource 0 exactly when its observed reward clears the
    (1 - p[0])-quantile, and otherwise draws from p[1:] renormalized.
    """
    if game.partition.a != 1:
        raise ValueError("threshold construction needs exactly one privately observed resource")
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.size != game.n:
        raise ValueError(f"p must have length {game.n}")
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("p must lie in the probability simplex")
    dist = game.distributions[0]
    _require_continuous(dist)
    tau = dist.quantile(1.0 - p[0])
    rest = p[1:]
    if rest.sum() > 0:
        tail = rest / rest.sum()
    else:
        # tail never reached when p[0] ~= 1; any valid simplex will do
        tail = np.full(game.n - 1, 1.0 / (game.n - 1)) if game.n > 1 else np.zeros(0)
    return QuantileThreshold(tau, tail)


def solve_a1(
    game: GameInstance,
    config: MdConfig,
    delta: float = DEFAULT_DELTA,
    n_eval_samples: int = 100_000,
):
    """Maximize A's worst-case utility over threshold strategies (a == 1).

    Runs mirror descent on p with the frontier value q(p0) substituted for
    the resource-0 coordinate, over the simplex restricted to p0 >= delta.
    Each round takes :func:`~congames.md.md_subgradient` at
    x = (q(p0), p[1:]) with weight 1 on resource 0, scales its first entry
    by the frontier slope q'(p0) (the chain rule), and applies the shared
    :func:`~congames.md.mw_update`, followed by the KL projection onto
    p0 >= delta.

    Returns ``(p, value, stderr)``: the average iterate p, the worst-case
    utility g(q(p0), p[1:]) of p evaluated with ``n_eval_samples`` draws when
    randomness remains, and the standard error of that value (0 when exact).
    """
    if game.partition.a != 1:
        raise ValueError("solve_a1 needs exactly one privately observed resource")
    if not 0.0 < delta < 1.0 / game.n:
        raise ValueError("delta must be in (0, 1/n)")
    frontier = TailFrontier(game.distributions[0])
    n = game.n
    # gross gain per unit of x: 1 for the rate q(p0), E_k for the other picks
    weights = game.means.copy()
    weights[0] = 1.0
    omegas = sample_omega(game, as_generator(config.seed, OMEGA_STREAM), size=config.T)

    p = np.full(n, 1.0 / n)
    total = np.zeros(n)
    x = np.empty(n)
    for t in range(config.T):
        total += p
        x[0] = frontier.q(p[0])
        x[1:] = p[1:]
        grad = md_subgradient(x, omegas[t], weights)
        grad[0] *= frontier.slope(p[0])
        p = mw_update(p, grad, config.alpha)
        if not p[0] >= delta:  # NaN fails the comparison, so it lands here too
            # a zero or NaN entry is absorbing; stop before the frontier sees it
            require_positive(p[1:])
            # KL projection onto {p0 >= delta}: pin p0, rescale the rest
            p[0] = delta
            p[1:] *= (1.0 - delta) / p[1:].sum()
    require_positive(p)
    p_avg = total / config.T

    x[0] = frontier.q(p_avg[0])
    x[1:] = p_avg[1:]
    value, stderr = worst_case_objective(
        x, game, n_samples=n_eval_samples, rng=config.seed, with_error=True
    )
    return p_avg, value, stderr
