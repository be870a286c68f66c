"""Mirror descent (multiplicative weights) for players with no private block.

When player A observes nothing privately, its achievable statistics are
exactly the probability simplex, and the worst-case objective becomes

    sum_k p_k E_k - 1/2 E[max_k p_k omega_k]

with omega the adversary weight vector.  Each round samples one omega, takes
the sampled ascent gradient

    grad_j = E_j - 1/2 * 1{argmax_k p_k omega_k = j} * omega_j

(the gradient that drift-plus-penalty steps along too), and applies the
entropy-geometry update p_k <- p_k exp(grad_k / alpha), renormalized
(exponents are max-shifted first, which leaves the value unchanged).  The
returned vector is the average of the iterates including the uniform
start; its expected suboptimality is at most

    C / (2 alpha) + alpha ln(n) / T,    C = 2 max(E)^2 + E[max_k omega_k^2]/2.

The T rounds of :func:`run_md` are one straight-line function, generated
from the integers n and b alone and compiled once per (n, b)
(``_round_kernel``, registered with :mod:`linecache` as
``<md round kernel n=3 b=1>`` and so on), like the drift-plus-penalty and
A1 rounds: at n = 3 a numpy call costs more in dispatch than the
arithmetic on n floats.  Each iterate entry and running total is a local
float, the argmax of p * omega is a chain of comparisons, and the update
is written out per entry.  The kernel reads B's omega columns, the random
ones and the only ones :func:`~congames.game.sample_omega` draws (columns
0..b-1, as a == 0), as lists :data:`~congames.game.DRAW_CHUNK` rows at a
time, in step with the lists of the factors taken from them; every other
omega entry is the constant weight w_k.

No round takes an exponential: each factor a round multiplies its
iterate by depends on its omega draw and on constants only, never on the
iterate, so all of them are taken before the rounds that read them.  With
s = w / alpha, t = (w - w/2) / alpha and M = max s: a round whose argmax k
is not ``unique``, the resource with the unique largest s, has the shift
M, since its exponent at k is at most s_k and some other s_j equals M.  Its
exponents off the argmax are the constants s_j, so it multiplies each entry
there by F_j = exp(s_j - M), taken before the loop; at a constant argmax it
multiplies by G_k = exp(t_k - M), also taken before the loop, and at an
argmax in B's block by X_k = exp((w_k - omega_k/2) / alpha - M), taken for
every row of a :data:`~congames.game.DRAW_CHUNK` of draws by one array
``np.exp`` (none where b = 1 and ``unique`` is drawn: B's only column is
then ``unique``, so no round reads X).  A round at ``unique`` shifts its
exponents by their largest and multiplies by H_k = exp(c_k - shift): at a
constant ``unique`` every exponent is a constant, so H is taken before the
loop; at a ``unique`` u in B's block a row's shift is the larger of
c_u = (w_u - omega_u/2) / alpha and the other s, and H, one value a row and
resource, is taken once a chunk.  Every bit is what the array update
gives: an array ``np.exp`` runs the ufunc loop the update's does
(``math.exp`` differs from it in the last bit on some inputs, which would
change every later iterate), ``exp(0.0)`` is exactly 1, float64 arithmetic
on arrays rounds as it does on Python floats, the largest of the
exponents has the value of their chain of comparisons (none is NaN), and
the normalizer is added in numpy's order (:func:`~congames.game._sum`).
A chunk's array arithmetic raises no warning where the rounds' float
arithmetic would raise none (inf - inf where alpha is so small that
w / alpha overflows).

A round whose every weight underflows to 0 raises at once; otherwise the
iterate's positivity is checked once, after the last round: a zero or NaN
entry is absorbing under the update (0 * exp(.) stays 0, NaN spreads
through the normalization), so it would still be there.

:func:`congames.quantile.solve_a1` writes the same update out in its own
generated round, with the frontier in place of resource 0, whose exponent,
scaled by the frontier's slope at the iterate, it takes in the round.  Both
solvers share one run, :func:`_mw_run`, which states the part they have in
common once: the up-front budget (B's T x b omega draws), the draws on
:data:`~congames.rng.OMEGA_STREAM`, the kernel call, the positivity check
and the average.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .game import (
    GameInstance,
    argmax_chain,
    check_count,
    check_setting,
    check_upfront_budget,
    chunk_loop,
    compile_kernel,
    kernel_columns,
    normalize_source,
    require_positive,
    sample_omega,
)
from .montecarlo import _mean_and_stderr
from .rng import OMEGA_STREAM, as_generator
from .worstcase import _check_max_term, omega_maxima

__all__ = [
    "MdConfig",
    "run_md",
    "md_error_bound",
    "omega_sup_sq_mean",
]


@dataclass(frozen=True)
class MdConfig:
    """Step weight alpha and round count T; :func:`run_md` takes the seed.

    alpha must be positive and finite, and T a positive integer.  Mirror
    descent and :func:`congames.quantile.solve_a1` both read it.
    """

    alpha: float = 50.0
    T: int = 10_000

    def __post_init__(self):
        for name in ("alpha", "T"):
            check_setting(name, getattr(self, name))
        check_count("T", self.T)


def run_md(game: GameInstance, config: MdConfig, seed: int = 0) -> np.ndarray:
    """Average mirror-descent iterate after T rounds (uniform start
    included), with the omega draws of ``seed``.

    Needs a == 0.  Raises ValueError, before drawing anything, when the
    shared run (:func:`_mw_run`) refuses its budget.
    """
    if game.partition.a != 0:
        raise ValueError("mirror descent applies only when player A has no private block")
    return _mw_run("md", _round_kernel, game, config.T, seed, game.weights.tolist(), config.alpha)


def _mw_run(name: str, round_kernel, game: GameInstance, T: int, seed: int, *args) -> np.ndarray:
    """The average of the T iterates of a multiplicative-weights round
    kernel (uniform start included), with the omega draws of ``seed``.

    The run of :func:`run_md` and :func:`congames.quantile.solve_a1`.  It
    raises ValueError naming ``name``, before compiling or drawing
    anything, when B's T x b omega draws exceed
    :data:`~congames.game.UPFRONT_BUDGET_BYTES`; then it draws them on
    :data:`~congames.rng.OMEGA_STREAM`, calls the kernel
    ``round_kernel(n, b)`` as ``kernel(omegas, T, *args)`` and rejects a
    last iterate with a zero or NaN entry
    (:func:`~congames.game.require_positive`).  The draws are freed when it
    returns.
    """
    n, b = game.n, game.partition.b
    # B's T x b omega draws, each column filled in place
    check_upfront_budget(name, T, n, b / n)
    omegas = sample_omega(game, as_generator(seed, OMEGA_STREAM), T)
    p, total = round_kernel(n, b)(kernel_columns(omegas), T, *args)
    require_positive(p)
    return np.array(total) / T


@functools.lru_cache
def _round_kernel(n: int, b: int):
    """The T rounds of :func:`run_md` for n resources, the first b private
    to B, as one straight-line function compiled from generated source.

    Each iterate entry and running total is a local float (``P0``, ``S0``,
    ...), the argmax is a chain of ``if s > best``
    (:func:`~congames.game.argmax_chain`), and each sum is written out in
    numpy's order (:func:`~congames.game._sum`).  Only the integers n and b
    enter the source.  The function takes a view of B's T x b omega columns
    (:func:`~congames.game.kernel_columns`), T, the weights and alpha, and
    returns the last iterate and the iterates' sums as lists.  Its rounds
    call nothing: every factor a round multiplies by is read from a local
    or from the lists of the draw chunk, whose rows the loop reads in step.
    A round whose argmax ``top`` is not ``unique``, the resource with the
    unique largest s (-1 when the largest is tied), is shifted by M: it
    takes its factors from F, from G at a constant argmax and from X, one
    per row and drawn column, at an argmax in B's block.  A round at
    ``unique`` takes H, its exponents shifted by their largest, as ``max``
    would: constants at a constant ``unique``, one per row and resource at
    one in B's block.  F and G are taken by one ``np.exp`` call before the
    loop and the constant H by another, X and the drawn H by one each a
    chunk; at b = 1 a chunk takes X only where ``unique`` is not drawn, as
    B's only column is otherwise ``unique`` and no round reads X.
    """
    o, w, s, t, c, e, F, G, H, X, P, S = ([f"{name}{k}" for k in range(n)] for name in "owstceFGHXPS")
    body = [
        *(f"            {S[k]} += {P[k]}" for k in range(n)),
        "            # the argmax of p * omega",
        *argmax_chain("top", [f"{P[k]} * {o[k] if k < b else w[k]}" for k in range(n)]),
        "            if top != unique:",
        *(f"                {e[k]} = ({X[k] if k < b else G[k]} if top == {k} else {F[k]}) * {P[k]}" for k in range(n)),
        "            else:",
        *(f"                {e[k]} = {H[k]} * {P[k]}" for k in range(n)),
        *normalize_source(e, P),
    ]
    lines = [
        "def md_rounds(omegas, T, w, alpha):",
        f"    ({', '.join(w)},) = w",
        *(f"    {s[k]} = {w[k]} / alpha" for k in range(n)),
        "    # the argmax's exponents where omega is constant",
        *(f"    {t[k]} = ({w[k]} - 0.5 * {w[k]}) / alpha" for k in range(b, n)),
        f"    ss = [{', '.join(s)}]",
        "    M = max(ss)",
        "    unique = ss.index(M) if ss.count(M) == 1 else -1",
        "    # the factors of a round whose argmax is not the unique largest s",
        f"    {', '.join(F + G[b:])}, = exp([{', '.join(f'{x} - M' for x in s + t[b:])}]).tolist()",
        "    # the factors of a round at a constant unique, whose exponents are all constant",
        *(f"    {c[k]} = {t[k]} if unique == {k} else {s[k]}" for k in range(b, n)),
        f"    shift = max([{', '.join(s[:b] + c[b:])}])",
        f"    {', '.join(H)}, = exp([{', '.join(f'{x} - shift' for x in s[:b] + c[b:])}]).tolist()",
    ]
    if b:
        lines += [
            "    # at a unique in B's block, a row is shifted by its exponent there or the largest other s",
            f"    drawn_unique = 0 <= unique < {b}",
            "    rest = max(ss[:unique] + ss[unique + 1 :], default=-np.inf)",
            f"    wb = np.array([{', '.join(f'[{x}]' for x in w[:b])}])",
        ]
    lines += [
        f"    {' = '.join(P)} = 1.0 / {n}",
        f"    {' = '.join(S)} = 0.0",
        "    for start in range(0, T, DRAW_CHUNK):",
        "        stop = start + DRAW_CHUNK",
    ]
    if not b:
        lines += [chunk_loop({}), *body]
    else:
        # at b = 1 a drawn unique is B's only column, so no round reads X
        read_x = b > 1
        x_factors = "X = exp(cb - M).tolist()"
        lines += [
            # B's columns of the chunk as a b-row array
            f"        o = {'omegas[None, start:stop]' if b == 1 else 'omegas[start:stop].T'}",
            "        # as the rounds' float arithmetic, which raises no warning",
            "        with np.errstate(over='ignore', invalid='ignore'):",
            "            # each row's exponents at an argmax in B's block, and its factors shifted by M",
            "            cb = (wb - 0.5 * o) / alpha",
            *([f"            {x_factors}"] if read_x else []),
            "            if drawn_unique:",
            "                shift = np.maximum(cb[unique], rest)",
            "                h = np.subtract.outer(ss, shift)",
            "                h[unique] = cb[unique] - shift",
            "                hs = exp(h).tolist()",
            *([] if read_x else ["            else:", f"                {x_factors}"]),
            "        if drawn_unique:",
            f"            for {', '.join(o[:b] + X[:b] * read_x + H)} in zip(*o.tolist(), {'*X, ' * read_x}*hs):",
            *("    " + line for line in body),
            "        else:",
            f"            for {', '.join(o[:b] + X[:b])} in zip(*o.tolist(), *X):",
            *("    " + line for line in body),
        ]
    lines.append(f"    return [{', '.join(P)}], [{', '.join(S)}]")
    return compile_kernel("\n".join(lines) + "\n", f"<md round kernel n={n} b={b}>", "md_rounds")


def omega_sup_sq_mean(game: GameInstance, n_samples: int = 1_000_000, rng=0):
    """(mean, stderr) of max_k omega_k squared.

    Exact (stderr 0) when at most one coordinate of omega is random: the
    maximum is then max(W, m) with m the largest constant entry, whose
    second moment is closed-form for every catalog distribution.  With two
    or more random coordinates it is Monte Carlo estimated
    (:func:`congames.worstcase.omega_maxima` at x = 1, squared in place),
    and raises ValueError before sampling when the max term's check
    (:func:`congames.worstcase._check_max_term`) refuses ``n_samples``.
    Where the squares or their sum pass the float range, the mean is inf,
    with no numpy warning, and the stderr inf or NaN.
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
    _check_max_term(part, n_samples)
    maxima = omega_maxima(np.ones(game.n), game, n_samples, rng)
    # squares or a sum past the float range, and then inf - inf in the deviations
    with np.errstate(over="ignore", invalid="ignore"):
        return _mean_and_stderr(np.square(maxima, out=maxima))


def md_error_bound(game: GameInstance, config: MdConfig) -> float:
    """Guaranteed expected gap C/(2 alpha) + alpha ln(n) / T of a run under
    ``config``.

    Laws whose second moments are near the top of the float range make C
    overflow: the bound is then inf, with no numpy warning, even where the
    sampled mean of max_k omega_k squared overflows."""
    sup_sq, _ = omega_sup_sq_mean(game)
    c = 2.0 * float(np.max(game.means)) ** 2 + 0.5 * sup_sq
    return c / (2.0 * config.alpha) + config.alpha * math.log(game.n) / config.T
