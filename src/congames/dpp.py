"""Drift-plus-penalty solver for the general worst-case problem.

The target quantities x_j = E[W_j 1{action=j}] (private block) and
x_j = Pr{action=j} (elsewhere) live in the box K = prod [0, u_j] with
u_j = E_j on the private block and 1 elsewhere.  Each round t:

1. draw the private rewards X(t) and an adversary weight vector omega(t);
2. move the auxiliary target vector gamma by one projected step of the
   penalized objective,
       gamma_j <- clip(gamma_j - (Q_j - V * grad_j) / (2 alpha), 0, u_j),
   where grad, the game's weights v less omega_j / 2 at the argmax j of
   gamma * omega (lowest index on ties), is the sampled ascent gradient of
   the objective at the previous gamma (the separable closed form of the
   per-round proximal problem);
3. act with the virtual-queue score strategy: argmax over
   {Q_j X_j : j private} and {Q_j : j not private}, lowest index on ties;
4. update the queues toward the targets:
       Q_j <- max(Q_j + gamma_j - realized x_j, 0).

:func:`run` steps the T rounds in one straight-line function, generated
from the integers n, a and b alone and compiled once per (n, a, b) shape
(``_round_kernel``).  Each resource's queue, target and realized sum is a
local Python float, each argmax a chain of ``if s > best`` (the first of
equal values wins), and each resource's step is written out, so a round
builds no tuple and takes no subscript: at n = 3 a numpy call costs more in
dispatch than in arithmetic, and a list subscript more than a local.  The
source is compiled by :func:`~congames.game.compile_kernel`, whose kernel
namespace supplies every name it reads, and registered with
:mod:`linecache` under a name such as ``<dpp round kernel n=3 a=1 b=1>``,
so tracebacks, ``pdb`` and profilers show its lines.  Gamma's clip is a
branch: a step above 0 is capped at u_j, and any other (-0.0 and NaN
included) takes Z_j = clip(0, 0, u_j), computed once before the loop; a
drained queue is floored in place where it is not above 0.  So a -0.0
comes out as +0.0 (as u_j where u_j is a zero), which gives the bits of
numpy's clip and maximum; queues and targets never fall below +0.0, so
only the drained queue needs its floor.  A's omega entries are its
weights, exactly 1.0, so the argmax of gamma * omega reads A's gamma_j
alone, as g * 1.0 is g.  Each
stream's T draws are still sampled in one call, and only the random ones
are drawn, B's omega columns (:func:`~congames.game.sample_omega`) and A's
world columns, which the kernel reads as lists
:data:`~congames.game.DRAW_CHUNK` rows at a time.  Every other omega entry
is the constant weight v_j, so its terms are computed once, before the
loop.  A round appends its queues to a list of the chunk's rows, and one
``struct.pack_into`` call a chunk writes them, in place, into the chunk's
rows of the T x n float64 history, allocated once at that size, which the
mixture takes over read-only, without a copy.  A run's up-front budget is
therefore T x (n + a + b) floats, the history and the draws, and one
chunk's lists; the violations are counted DRAW_CHUNK rows of the history
at a time, so no T x n mask is held.  The emitted strategy is the
equiprobable :class:`~congames.strategies.Mixture` of the T queue-score
rows (the all-zero first one included); the queue cap and its violation
count, the average realized x, and the final queues and targets are
returned on :class:`DppDiagnostics`.  With alpha >= V^2 every queue
stays below (v_j + 2 sqrt(2) u_j) sqrt(alpha) + u_j, which is what caps the
mixture's suboptimality at the error bound of :func:`bound_constants`.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .game import (
    GameInstance,
    check_count,
    check_setting,
    argmax_chain,
    check_upfront_budget,
    chunk_loop,
    compile_kernel,
    kernel_columns,
    sample_omega,
    sample_world,
)
from .rng import DRAW_CHUNK, OMEGA_STREAM, WORLD_STREAM, stream_generators
from .strategies import Mixture

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
# branches in one if/elif chain of a kernel: each elif nests one level
# deeper, and the compiler's recursion limit stops a chain short of 3000
ELIF_RUN = 1000


@dataclass(frozen=True)
class DppConfig:
    """Penalty weight V, proximal weight alpha, and round count T.

    A config holds settings only; :func:`run` takes the seed.  The defaults
    are the ``worst dpp`` sweep's; V and alpha must be positive and finite,
    and T a positive integer.

    The suboptimality guarantee and the queue cap both require
    alpha >= V^2 (see :attr:`guarantee_holds`); the iteration itself is
    well-defined for any positive alpha.
    """

    V: float = 200.0
    alpha: float = 4.0e4
    T: int = 100_000

    def __post_init__(self):
        for name in ("V", "alpha", "T"):
            check_setting(name, getattr(self, name))
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

    Raises ValueError, before drawing anything, when the run's draws and
    queue history, which the mixture keeps, would exceed
    :data:`~congames.game.UPFRONT_BUDGET_BYTES`.  This count is DPP's own;
    mirror descent and A1 count theirs once, in the run they share
    (:func:`congames.md._mw_run`).
    """
    n = game.n
    a, b = game.partition.a, game.partition.b
    V, alpha, T = config.V, config.alpha, config.T
    # in T x n float64 arrays: the T x n queue history (the mixture keeps
    # it without a copy); T x a world draws and B's T x b omega draws, each
    # column filled in place; and a chunk's queue rows and draws as lists,
    # up to 56 bytes (7 floats) an entry of their min(T, DRAW_CHUNK) rows
    listed = 7 * (n + a + b) * min(T, DRAW_CHUNK) / T
    check_upfront_budget("dpp", T, n, (n + a + b + listed) / n)

    world_gen, omega_gen = stream_generators(seed, (WORLD_STREAM, OMEGA_STREAM))
    x_draws = sample_world(game, world_gen, size=T, columns=a)
    omega_draws = sample_omega(game, omega_gen, size=T)

    u = box_upper(game).tolist()
    v = game.weights.tolist()
    bound = queue_bound(game, alpha)

    q_history = np.empty((T, n))
    queues, gamma, realized_sum = _round_kernel(n, a, b)(
        kernel_columns(omega_draws), kernel_columns(x_draws), T, V, 2.0 * alpha, u, v, q_history
    )
    q_history.setflags(write=False)  # so the mixture keeps it uncopied
    final_queues = np.array(queues)
    # the queues after round t are the history row of round t + 1, counted
    # DRAW_CHUNK rows at a time so that no T x n mask is held
    limit = bound + QUEUE_BOUND_TOL
    violations = np.count_nonzero(final_queues > limit)
    for start in range(1, T, DRAW_CHUNK):
        violations += np.count_nonzero(q_history[start : start + DRAW_CHUNK] > limit)
    diagnostics = DppDiagnostics(
        queue_bound=bound,
        violations=int(violations),
        avg_realized=np.array(realized_sum) / T,
        final_queues=final_queues,
        final_gamma=np.array(gamma),
    )
    return Mixture(q_history, game.partition.set_a), diagnostics


@functools.lru_cache
def _round_kernel(n: int, a: int, b: int):
    """The T rounds of :func:`run` for n resources, the first a private to
    A and the next b to B, as one straight-line function compiled from
    generated source.

    Each resource's queue, target and realized sum is a local float
    (``Q0``, ``G0``, ``R0``, ...) and each argmax a chain of ``if s > best``
    (:func:`~congames.game.argmax_chain`), so a round makes no list, no
    subscript and no Python-level call.  Only the integers n, a and b enter
    the source.  The function takes views of B's T x b omega columns and
    of the T x a world draws (:func:`~congames.game.kernel_columns`), which
    it reads as lists :data:`~congames.game.DRAW_CHUNK` rows at a time, T,
    V, 2 alpha, u, v and the C-contiguous T x n float64 history, and
    returns the final queues, targets and realized sums as lists.  Every
    other omega entry is the constant v_j, so its product with gamma reads
    v_j and its gradient term V (v_j - v_j / 2) is computed once, before
    the loop: the same float operations on the same floats as on the drawn
    row.  On A's block v_j is 1.0 (:attr:`~congames.game.GameInstance.weights`)
    and the product is read as ``G_j`` alone, since g * 1.0 is exactly g.
    Gamma's step is clipped by a branch, ``if y > 0.0`` to the least of y
    and u_j and otherwise to ``Z_j`` = clip(0, 0, u_j), taken once before
    the loop, and the drained queue floored in place by
    ``if not Q_j > 0.0``: no temporary is stored and read back, and every
    value, NaN and signed zeros included, is the two-step clip's.  Each
    round appends its queues, before they move, to a list of the chunk's
    rows, which one ``struct.pack_into`` call writes into the chunk's rows
    of the history, in place, at the chunk's end; the history never grows
    or moves.
    """
    n, a, b = int(n), int(a), int(b)
    o, x, u, v, Q, G, R = ([f"{name}{j}" for j in range(n)] for name in "oxuvQGR")
    drawn = range(a, a + b)
    omega = [o[j] if j in drawn else v[j] for j in range(n)]
    lines = [
        "def dpp_rounds(omegas, worlds, T, V, two_alpha, u, v, history):",
        f"    ({', '.join(u)},) = u",
        f"    ({', '.join(v)},) = v",
        *(f"    V{v[j]} = V * {v[j]}" for j in range(n)),
        "    # the gradient term at the argmax, V (v - omega / 2), where omega is constant",
        *(f"    Vt{j} = V * ({v[j]} - 0.5 * {v[j]})" for j in range(n) if j not in drawn),
        "    # gamma's clip of a step that is not above 0 (-0.0 and NaN included)",
        *(f"    Z{j} = 0.0 if 0.0 < {u[j]} else {u[j]}" for j in range(n)),
        f"    {' = '.join(Q + G + R)} = 0.0",
        "    for start in range(0, T, DRAW_CHUNK):",
        "        stop = start + DRAW_CHUNK",
        "        rows = []",
        chunk_loop({"omegas": o[a : a + b], "worlds": x[:a]}),
        "            # the argmax of gamma * omega, omega 1.0 on A's block: its resource's gradient is v - omega / 2",
        *argmax_chain("top", [G[j] if j < a else f"{G[j]} * {omega[j]}" for j in range(n)]),
        "            # the queue-score action: Q_j x_j on A's block, Q_j elsewhere",
        *argmax_chain("act", [f"{Q[j]} * {x[j]}" if j < a else Q[j] for j in range(n)]),
        *(f"            rows.append({Q[j]})" for j in range(n)),
        "            # gamma's projected step, clipped to [0, u_j], and each queue's arrival",
    ]
    for j in range(n):
        at_top = f"V * ({v[j]} - 0.5 * {o[j]})" if j in drawn else f"Vt{j}"
        lines += [
            f"            y = {G[j]} - ({Q[j]} - ({at_top} if top == {j} else V{v[j]})) / two_alpha",
            "            if y > 0.0:",
            f"                {G[j]} = y if y < {u[j]} else {u[j]}",
            "            else:",
            f"                {G[j]} = Z{j}",
            f"            {Q[j]} = {Q[j]} + {G[j]}",
        ]
    lines.append("            # the action's drain: its world draw on A's block, 1 elsewhere")
    # if, elif, ..., else; a chain of more than ELIF_RUN branches starts
    # afresh with if every ELIF_RUN branches, and so ends on an elif
    last = n - 1 if n <= ELIF_RUN else None
    for j in range(n):
        drain = x[j] if j < a else "1.0"
        head = "else" if 0 < j == last else f"{'elif' if j % ELIF_RUN else 'if'} act == {j}"
        lines += [
            f"            {head}:",
            f"                {Q[j]} = {Q[j]} - {drain}",
            f"                if not {Q[j]} > 0.0:",
            f"                    {Q[j]} = 0.0",
            f"                {R[j]} += {drain}",
        ]
    lines += [
        f"        pack_into(f'{{len(rows)}}d', history, {8 * n} * start, *rows)",
        f"    return [{', '.join(Q)}], [{', '.join(G)}], [{', '.join(R)}]",
    ]
    filename = f"<dpp round kernel n={n} a={a} b={b}>"
    return compile_kernel("\n".join(lines) + "\n", filename, "dpp_rounds", pack_into=struct.pack_into)


@np.errstate(over="ignore")
def bound_constants(game: GameInstance, config: DppConfig) -> BoundConstants:
    """Exact guarantee constants; second moments come from the catalog.

    A law whose second moment is near the top of the float range makes a
    constant overflow: it is then inf, an honest if useless bound, with no
    numpy warning."""
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

