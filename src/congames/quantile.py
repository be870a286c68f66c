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
restricted to p0 >= :data:`DEFAULT_DELTA`: the q-term's slope blows up as
p0 -> 0 for heavy-ish tails (for the exponential it is -ln p0), and the
restriction keeps the sampled subgradients bounded.  The slope is taken by
central finite difference of width :data:`FD_WIDTH`, which serves both
continuous laws of the catalog (exponential and uniform).  Only those two
answer quantile and tail-mean queries: the frontier, and with it the
threshold construction, refuses a point mass or a discrete law up front.

Unlike :func:`congames.md.run_md_batch`, :func:`solve_a1` steps one run at
a time, on Python floats, in one pass a round like the drift-plus-penalty
loop: the argmax of x * omega, the gradient (scaled by the frontier slope on
resource 0) and the multiplicative-weights step of
:func:`congames.md.mw_update` are written into the loop body, with one
conversion to numpy after the last round.  The exponents off the argmax,
w_k / alpha, are computed once before the loop.  Every bit is what the
numpy update gives: the exponents stay on ``np.exp`` and the normalizer on
:func:`congames.md.pairwise_sum`.  Its frontier makes three scalar
``tail_mean`` calls a round on ``math`` (``np.log1p``, which a batch would
need, differs from ``math.log1p`` in the last bit on some inputs).  Like
the other solvers it refuses, before sampling, a run whose T x n omega
draws exceed :data:`congames.game.UPFRONT_BUDGET_BYTES`; it also refuses
there an ``n_samples`` that its evaluation would refuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import RewardDistribution
from .game import GameInstance, check_upfront_budget, draw_rows, sample_omega
from .md import MdConfig, pairwise_sum, require_positive
from .montecarlo import DEFAULT_SAMPLES
from .rng import OMEGA_STREAM, as_generator
from .strategies import QuantileThreshold, _check_simplex
from .worstcase import _check_max_term, worst_case_objective

__all__ = [
    "TailFrontier",
    "build_strategy_a1",
    "solve_a1",
]

FD_WIDTH = 1e-4  # central-difference width for the frontier slope
DEFAULT_DELTA = 1e-3  # simplex restriction p0 >= DEFAULT_DELTA


@dataclass(frozen=True)
class TailFrontier:
    """Evaluable frontier p0 -> (threshold, best achievable q)."""

    dist: RewardDistribution

    def __post_init__(self):
        if not self.dist.is_continuous:
            raise ValueError(
                "tail frontier requires a continuous reward distribution for resource 0"
            )

    def q(self, p1: float) -> float:
        """p1 times the conditional mean of the upper p1-fraction of ``dist``.

        ``__post_init__`` checked the distribution once; ``tail_mean`` checks
        that p1 lies in [0, 1].
        """
        if p1 == 0.0:
            return 0.0
        return p1 * self.dist.tail_mean(p1)

    def tau(self, p1: float) -> float:
        return self.dist.quantile(1.0 - p1)

    def slope(self, p1: float) -> float:
        hi = min(1.0, p1 + FD_WIDTH)
        lo = max(0.0, p1 - FD_WIDTH)
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
    _check_simplex(p, "p")
    tau = TailFrontier(game.distributions[0]).tau(p[0])
    rest = p[1:]
    if rest.sum() > 0:
        tail = rest / rest.sum()
    else:
        # tail never reached when p[0] ~= 1; any valid simplex will do
        tail = np.full(game.n - 1, 1.0 / (game.n - 1)) if game.n > 1 else np.zeros(0)
    return QuantileThreshold(tau, tail)


def solve_a1(game: GameInstance, config: MdConfig, seed: int = 0, n_samples: int = DEFAULT_SAMPLES):
    """Maximize A's worst-case utility over threshold strategies (a == 1).

    Runs mirror descent on p with the frontier value q(p0) substituted for
    the resource-0 coordinate, over the simplex restricted to
    p0 >= :data:`DEFAULT_DELTA`.  Each round takes the sampled ascent
    gradient of g at x = (q(p0), p[1:]) (w_k, less omega_k / 2 at the argmax
    of x * omega, lowest index on ties) with weight 1 on resource 0, scales
    its first entry by the frontier slope q'(p0) (the chain rule), makes the
    multiplicative-weights step p_k <- p_k exp(grad_k / alpha), renormalized,
    and then the KL projection onto p0 >= DEFAULT_DELTA.

    ``seed`` drives both the omega draws of the rounds and the evaluation.
    Returns ``(p, value, stderr)``: the average iterate p, the worst-case
    utility g(q(p0), p[1:]) of p evaluated with ``n_samples`` draws when
    randomness remains, and the standard error of that value (0 when exact).
    Raises ValueError, before drawing anything, when DEFAULT_DELTA >= 1/n
    (n >= 1000), when the T x n omega draws exceed
    :data:`~congames.game.UPFRONT_BUDGET_BYTES`, or when the evaluation
    would refuse ``n_samples`` (fewer than 2, or over its budget, where
    player B observes a resource).
    """
    if game.partition.a != 1:
        raise ValueError("solve_a1 needs exactly one privately observed resource")
    if not DEFAULT_DELTA < 1.0 / game.n:
        raise ValueError(f"solve_a1 keeps p0 >= {DEFAULT_DELTA:g}, which needs n < {1 / DEFAULT_DELTA:g}")
    frontier = TailFrontier(game.distributions[0])
    n, alpha = game.n, config.alpha
    check_upfront_budget("a1", config.T, n)
    _check_max_term(game, n_samples)
    # gross gain per unit of x: 1 for the rate q(p0), E_k for the other picks
    weights = game.weights.tolist()
    scaled = [wk / alpha for wk in weights]  # the exponents off the argmax
    omegas = sample_omega(game, as_generator(seed, OMEGA_STREAM), size=config.T)

    p = [1.0 / n] * n
    total = [0.0] * n
    for omega in draw_rows(omegas):
        p0 = p[0]
        # the argmax of x * omega, the first of equal products
        top, best = 0, frontier.q(p0) * omega[0]
        for k in range(1, n):
            prod = p[k] * omega[k]
            if prod > best:
                top, best = k, prod
        expo = scaled.copy()
        if top:
            expo[top] = (weights[top] - 0.5 * omega[top]) / alpha
            expo[0] = weights[0] * frontier.slope(p0) / alpha
        else:
            expo[0] = (weights[0] - 0.5 * omega[0]) * frontier.slope(p0) / alpha
        shift = max(expo)  # value-invariant shift against overflow
        w = np.exp([e - shift for e in expo]).tolist()
        for k, pk in enumerate(p):
            total[k] += pk
            w[k] *= pk
        norm = pairwise_sum(w)
        if norm == 0.0:  # every weight underflowed, so w fails the check
            require_positive(w)
        p = [wk / norm for wk in w]
        if not p[0] >= DEFAULT_DELTA:  # NaN fails the comparison, so it lands here too
            rest = p[1:]
            # a zero or NaN entry is absorbing; stop before the frontier sees it
            require_positive(rest)
            # KL projection onto {p0 >= DEFAULT_DELTA}: pin p0, rescale the rest
            scale = (1.0 - DEFAULT_DELTA) / pairwise_sum(rest)
            p = [DEFAULT_DELTA, *(pk * scale for pk in rest)]
    require_positive(p)
    p_avg = np.array(total) / config.T

    x = p_avg.copy()
    x[0] = frontier.q(p_avg[0])
    value, stderr = worst_case_objective(x, game, n_samples=n_samples, rng=seed)
    return p_avg, value, stderr
