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

:func:`solve_a1` steps one run at a time, on Python floats, like the
mirror-descent and drift-plus-penalty loops: its T rounds are one
straight-line function, generated from the integers n and b alone and
compiled once per (n, b) (``_round_kernel``, registered with
:mod:`linecache` as ``<a1 round kernel n=3 b=1>`` and so on).  Each iterate
entry and running total is a local float, the argmax of x * omega and the
shift of the exponents are chains of comparisons, and the gradient (scaled
by the frontier slope on resource 0), the multiplicative-weights step
(:func:`~congames.game.mw_source`) and the projection are written out per
entry, because a local costs less than a list subscript at n = 3.  Unlike
mirror descent's, its exponents cannot be taken before the loop: the one
at resource 0 is scaled by the frontier's slope at the iterate's p0.  The exponents off the argmax, w_k / alpha,
are computed once before the loop, and so are those at the argmax wherever
omega_k is the constant w_k: everywhere but B's block, resource 0 included.
Each exponential is one ``math.exp`` call, libm's ``exp``, on a Python
float, save that an exponent of exactly 0, the shift's own among them, is
taken as 1, which ``exp(0.0)`` gives; so the iterates' bits depend on the
libm, not on the SIMD code numpy dispatches its ``np.exp`` to.  Every bit
is what the array update gives with that exponential taken on each entry:
the normalizer and the projection's sum are added in numpy's order (left
to right below 8 entries, numpy's own sum of the list from 8 on; see
:func:`~congames.game._sum`).  A round writes q(p0) and the central
difference of :meth:`TailFrontier.slope` out in place, from
three scalar ``tail_mean`` calls on ``math`` (``np.log1p``, which a batch
would need, differs from ``math.log1p`` in the last bit on some inputs), and
reads B's omega columns, the random ones and the only ones
:func:`~congames.game.sample_omega` draws, as lists
:data:`~congames.game.DRAW_CHUNK` rows at a time.  So at n = 3 a round with
finite exponents makes at most two ``math.exp`` calls and three Python-level
calls, all to the law's ``tail_mean``, and builds no array.  The kernel
runs in mirror descent's run (:func:`congames.md._mw_run`), which refuses,
before sampling, a run whose T x b omega draws, with the column being
drawn, exceed :data:`congames.game.UPFRONT_BUDGET_BYTES`, draws them, checks
the last iterate's positivity and averages the iterates; :func:`solve_a1`
refuses before it an ``n_samples`` that its evaluation would refuse.  The
draws are freed before the evaluation samples its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import RewardDistribution
from .game import GameInstance, _sum, argmax_chain, chunk_loop, compile_kernel, mw_source
from .md import MdConfig, _mw_run
from .montecarlo import DEFAULT_SAMPLES
from .strategies import QuantileThreshold, _check_simplex
from .worstcase import _check_max_term, worst_case_objective

__all__ = [
    "TailFrontier",
    "build_strategy_a1",
    "solve_a1",
]

FD_WIDTH = 1e-4  # central-difference width for the frontier slope
# simplex restriction p0 >= DEFAULT_DELTA; above FD_WIDTH, so the lower end
# of an A1 round's difference stays above 0
DEFAULT_DELTA = 1e-3


@dataclass(frozen=True)
class TailFrontier:
    """Evaluable frontier p0 -> (threshold, best achievable q).

    ``q`` is the frontier value, ``tau`` the threshold that realizes it and
    ``slope`` its central difference of width :data:`FD_WIDTH`.
    """

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
        """The central difference of q over [p1 - FD_WIDTH, p1 + FD_WIDTH],
        clamped to [0, 1]; raises ValueError unless p1 lies in [0, 1]."""
        if not 0.0 <= p1 <= 1.0:  # first, as the clamps would hide a NaN
            raise ValueError(f"tail fraction must be in [0,1], got {p1}")
        hi, lo = min(1.0, p1 + FD_WIDTH), max(0.0, p1 - FD_WIDTH)
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
    (n >= 1000), when the evaluation would refuse ``n_samples`` (fewer than
    2, or over its budget, where player B observes a resource), or when B's
    T x b omega draws exceed
    :data:`~congames.game.UPFRONT_BUDGET_BYTES` (the budget of the run it
    shares with mirror descent, :func:`congames.md._mw_run`).
    """
    if game.partition.a != 1:
        raise ValueError("solve_a1 needs exactly one privately observed resource")
    if not DEFAULT_DELTA < 1.0 / game.n:
        raise ValueError(f"solve_a1 keeps p0 >= {DEFAULT_DELTA:g}, which needs n < {1 / DEFAULT_DELTA:g}")
    frontier = TailFrontier(game.distributions[0])
    _check_max_term(game.partition, n_samples)
    # the weights are the gross gain per unit of x: 1 for the rate q(p0), E_k
    # for the other picks; the draws are freed with the run, before the
    # evaluation samples its own
    p_avg = _mw_run(
        "a1", _round_kernel, game, config.T, seed, frontier.dist.tail_mean, game.weights.tolist(), config.alpha
    )

    x = p_avg.copy()
    x[0] = frontier.q(p_avg[0])
    value, stderr = worst_case_objective(x, game, n_samples=n_samples, rng=seed)
    return p_avg, value, stderr


@functools.lru_cache
def _round_kernel(n: int, b: int):
    """The T rounds of :func:`solve_a1` for n resources, the b after
    resource 0 private to B, as one straight-line function compiled from
    generated source.

    Each iterate entry and running total is a local float (``P0``, ``S0``,
    ...), the argmax is a chain of ``if s > best``
    (:func:`~congames.game.argmax_chain`), the shift one of
    ``if c > shift`` (as ``max`` takes it), each exponential one
    ``math.exp`` call, skipped where the exponent is 0, and each sum is
    written out in numpy's order (:func:`~congames.game._sum`), so below 8
    resources a round builds no list and no array.
    It starts with q(p0) and its central difference, as
    :class:`TailFrontier` gives them, from three calls of the law's
    ``tail_mean``: the value enters the argmax and the difference scales
    resource 0's exponent.  As p0 >= DEFAULT_DELTA > FD_WIDTH, neither p0
    nor the lower end of the difference is 0, and only the upper end can
    need its clamp.  Only the integers n and b enter the source.  The
    function takes a view of B's T x b omega columns
    (:func:`~congames.game.kernel_columns`), which it reads as lists
    :data:`~congames.game.DRAW_CHUNK` rows at a time, T, the law's bound
    ``tail_mean``, the weights and alpha, and returns the last iterate and
    the iterates' sums as lists.  Every other omega entry, resource 0's
    among them, is the constant weight w_k, so its product with x reads
    w_k and its argmax term w_k - w_k / 2 (over alpha, off resource 0) is
    computed once, before the loop: the same float operations on the same
    floats as on the drawn row.
    """
    n, b = int(n), int(b)
    o, w, s, t, c, e, P, S = ([f"{name}{k}" for k in range(n)] for name in "owstcePS")
    drawn = range(1, 1 + b)
    omega = [o[k] if k in drawn else w[k] for k in range(n)]
    at_top = [f"({w[k]} - 0.5 * {o[k]}) / alpha" if k in drawn else t[k] for k in range(n)]
    rest = P[1:]
    lines = [
        "def a1_rounds(omegas, T, tail_mean, w, alpha):",
        f"    ({', '.join(w)},) = w",
        *(f"    {s[k]} = {w[k]} / alpha" for k in range(1, n)),
        "    # the argmax's terms where omega is constant",
        f"    {t[0]} = {w[0]} - 0.5 * {w[0]}",
        *(f"    {t[k]} = ({w[k]} - 0.5 * {w[k]}) / alpha" for k in range(1, n) if k not in drawn),
        "    fd, delta, keep = FD_WIDTH, DEFAULT_DELTA, 1.0 - DEFAULT_DELTA",
        f"    {' = '.join(P)} = 1.0 / {n}",
        f"    {' = '.join(S)} = 0.0",
        "    for start in range(0, T, DRAW_CHUNK):",
        "        stop = start + DRAW_CHUNK",
        chunk_loop({"omegas": o[1 : 1 + b]}),
        *(f"            {S[k]} += {P[k]}" for k in range(n)),
        "            # q(p0) and its central difference, the upper end clamped at 1",
        f"            qp = {P[0]} * tail_mean({P[0]})",
        f"            hi = {P[0]} + fd",
        "            hi = hi if hi < 1.0 else 1.0",
        f"            lo = {P[0]} - fd",
        "            dq = (hi * tail_mean(hi) - lo * tail_mean(lo)) / (hi - lo)",
        "            # the argmax of x * omega, x = (q(p0), p[1:])",
        *argmax_chain("top", [f"qp * {omega[0]}", *(f"{P[k]} * {omega[k]}" for k in range(1, n))]),
        "            # the exponents, the ascent gradient over alpha, the slope of q scaling",
        "            # resource 0's; the argmax loses half its omega weight",
        f"            {c[0]} = {t[0]} * dq / alpha if top == 0 else {w[0]} * dq / alpha",
        *(f"            {c[k]} = {at_top[k]} if top == {k} else {s[k]}" for k in range(1, n)),
        *mw_source(c, e, P),
        f"            if not {P[0]} >= delta:  # NaN fails the comparison, so it lands here too",
        "                # a zero or NaN entry is absorbing; stop before the frontier sees it",
        f"                require_positive([{', '.join(rest)}])",
        "                # KL projection onto {p0 >= delta}: pin p0, rescale the rest",
        f"                scale = keep / ({_sum(rest)})",
        f"                {P[0]} = delta",
        *(f"                {P[k]} = {P[k]} * scale" for k in range(1, n)),
        f"    return [{', '.join(P)}], [{', '.join(S)}]",
    ]
    filename = f"<a1 round kernel n={n} b={b}>"
    return compile_kernel(
        "\n".join(lines) + "\n", filename, "a1_rounds", exp=math.exp, FD_WIDTH=FD_WIDTH, DEFAULT_DELTA=DEFAULT_DELTA
    )
