"""Strategy representations and the action rule.

Three strategy forms cover everything the solvers produce:

* :class:`Simplex` -- pick resource k with probability p[k], ignoring any
  observation.
* :class:`QuantileThreshold` -- for a player observing exactly resource 0:
  pick resource 0 when its reward clears a threshold, otherwise draw from a
  fixed simplex over the remaining resources.
* :class:`Mixture` -- draw one row of a score matrix uniformly at random,
  score every resource by it and pick the argmax, breaking ties toward the
  lowest index.  On the acting player's private resources the score is
  ``values[i, k] * observed_reward[k]``; elsewhere it is the constant
  ``values[i, k]``.  A one-row mixture is deterministic: best responses and
  the worst-case opponent take that form, and drift-plus-penalty emits the
  T-row mixture of its virtual-queue strategies.

A mixture of two or more rows draws its component indices in one call,
so the draw's bits do not depend on the blocks, and then scores and acts
:data:`MIXTURE_BLOCK` observation rows at a time, each block's argmax
written into one action array: it holds the draws, the actions and one
block of scores, never the (samples, n) scores, and each row picks what
the argmax of all the scores picks.

A one-row mixture acts by threshold rather than through a score
matrix: its best constant resource is the same in every row, so a row picks
its best private product where that beats the best constant, or ties it at a
lower index, and the constant otherwise.  On finite observations this
picks the same resource as the argmax, bit for bit.  A NaN or infinite
observation can make a NaN product (infinity times a zero score): the
threshold split takes no private resource there and picks the best
constant, while a mixture of two or more rows takes ``np.argmax`` of its
scores, which picks the NaN's index.  :func:`act` refuses such an
observation; :func:`batch_actions` acts on what it is given, and sampled
worlds are finite.  One threshold split serves both consumers:
:func:`batch_actions` turns it into action indices, and
:func:`congames.montecarlo.estimate_stats` counts a one-row mixture's picks
and reward-weighted rates from its masks without building actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import DRAW_CHUNK, as_generator, is_integer

__all__ = [
    "Simplex",
    "QuantileThreshold",
    "Mixture",
    "Strategy",
    "act",
]

SIMPLEX_TOL = 1e-9
# the observation rows a mixture of two or more rows scores at a time
MIXTURE_BLOCK = 16 * DRAW_CHUNK


def _check_simplex(p: np.ndarray, what: str, tol: float = SIMPLEX_TOL, floor: float = 0.0):
    """Refuse ``p`` unless its entries are >= ``floor`` and sum to 1 within
    ``tol``; a NaN entry fails both comparisons."""
    if not ((p >= floor).all() and abs(p.sum() - 1.0) <= tol):
        raise ValueError(f"{what} must be a probability vector (sum 1 within {tol:g})")


@dataclass(frozen=True)
class Simplex:
    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).reshape(-1)
        _check_simplex(p, "Simplex.p")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class QuantileThreshold:
    """Pick resource 0 iff its observed reward is >= ``tau``; otherwise draw
    from ``tail``, a simplex over resources 1..n-1."""

    tau: float
    tail: np.ndarray

    def __post_init__(self):
        if np.isnan(self.tau):
            raise ValueError("QuantileThreshold.tau must not be NaN")
        tail = np.asarray(self.tail, dtype=float).reshape(-1)
        if tail.size:
            _check_simplex(tail, "QuantileThreshold.tail")
        tail = tail.copy()
        tail.setflags(write=False)
        object.__setattr__(self, "tail", tail)


@dataclass(frozen=True)
class Mixture:
    """Equiprobable mixture of argmax strategies, one score row per component;
    ``values[:, private]`` multiply the observed rewards.

    A read-only float64 ``values`` array that owns its memory is kept as
    given (drift-plus-penalty hands over its T-row queue history this way,
    and a best response its one row), as is such an int ``private`` array
    (a partition's index set); anything else, a read-only view of writable
    memory too, is copied, so later writes to the source leave the mixture
    alone.  The entries are checked by their minimum and maximum, so a long
    history is checked without a mask of its size.
    """

    values: np.ndarray  # shape (m, n)
    private: np.ndarray  # global indices of the acting player's private block

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] == 0:
            raise ValueError("mixture needs at least one component row")
        # a minimum and a maximum, so that a T-row history is checked without
        # a T x n mask; a NaN carries through both and fails the comparisons
        if values.size and not (values.min() >= 0.0 and values.max() < np.inf):
            raise ValueError("score values must be finite and non-negative")
        private = self.private
        if not (isinstance(private, np.ndarray) and private.dtype.kind in "iu" and private.ndim == 1):
            # integers, or floats of integral value; a bool, NaN or fraction is refused
            entries = np.asarray(private, dtype=object).reshape(-1).tolist()
            if not all(is_integer(i) or isinstance(i, float) and i.is_integer() for i in entries):
                raise ValueError("private indices must be integers")
            private = np.array(entries, dtype=float)
        if private.size and (private.min() < 0 or private.max() >= values.shape[1]):
            raise ValueError("private indices out of range")
        # only a read-only array that owns its memory is kept as given: a
        # read-only view may look at memory that its source still writes
        private = private.astype(int, copy=private.flags.writeable or not private.flags.owndata)
        if private.size > 1 and (private[1:] <= private[:-1]).any():
            raise ValueError("private indices must be strictly increasing")
        if values.flags.writeable or not values.flags.owndata:
            values = values.copy()
            values.setflags(write=False)
        private.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "private", private)

    def __len__(self) -> int:
        return self.values.shape[0]


Strategy = Simplex | QuantileThreshold | Mixture


def _categorical(p: np.ndarray, gen: np.random.Generator, size: int) -> np.ndarray:
    """``size`` draws of the categorical law ``p``; holds the uniform draws
    beside the indices, which are clamped in place."""
    cum = np.cumsum(p)
    idx = np.searchsorted(cum, gen.random(size) * cum[-1], side="right")
    return np.minimum(idx, p.size - 1, out=idx)


def _check_observation(obs: np.ndarray, expected: int, what: str):
    if obs.shape[-1] != expected:
        raise ValueError(
            f"{what}: observation has length {obs.shape[-1]}, expected {expected}"
        )


def _need_generator(rng, strategy: Strategy) -> np.random.Generator:
    if rng is None:
        raise ValueError(f"{type(strategy).__name__} requires an rng to act")
    return as_generator(rng)


def batch_actions(strategy: Strategy, obs: np.ndarray, rng=None) -> np.ndarray:
    """Vectorized action rule: one resource index per observation row.

    ``obs`` has shape (samples, m) where m is the size of the acting player's
    private block.  Argmax ties always resolve to the lowest index.
    """
    obs = np.asarray(obs, dtype=float)
    if obs.ndim != 2:
        raise ValueError("obs must be 2-D (samples, private block size)")
    rows = obs.shape[0]
    if isinstance(strategy, Simplex):
        return _categorical(strategy.p, _need_generator(rng, strategy), rows)
    if isinstance(strategy, QuantileThreshold):
        _check_observation(obs, 1, "QuantileThreshold")
        rest = ~(obs[:, 0] >= strategy.tau)
        actions = np.zeros(rows, dtype=int)
        if np.any(rest):
            if strategy.tail.size == 0:
                raise ValueError("threshold not met but the tail simplex is empty")
            gen = _need_generator(rng, strategy)
            actions[rest] = _categorical(strategy.tail, gen, int(rest.sum()))
            actions += rest  # the tail's resources start at 1
        return actions
    if isinstance(strategy, Mixture):
        _check_observation(obs, strategy.private.size, "Mixture")
        if len(strategy) == 1:  # deterministic: no draw, no rng needed
            j, take, top = _threshold_split(strategy.values[0], strategy.private, obs)
            # arithmetic selection: np.where on an unpredictable mask is
            # several times slower
            actions = take * (top - j)
            actions += j
            return actions
        # one integers call: a split call could move the bounded draw's bits
        comp = _need_generator(rng, strategy).integers(len(strategy), size=rows)
        actions = np.empty(rows, dtype=np.intp)
        scores = np.empty((min(rows, MIXTURE_BLOCK), strategy.values.shape[1]))
        for start in range(0, rows, MIXTURE_BLOCK):
            stop = min(start + MIXTURE_BLOCK, rows)
            block = scores[: stop - start]
            # the draws are in range; "clip" takes straight into the block,
            # where the default "raise" would take into a buffered copy
            np.take(strategy.values, comp[start:stop], axis=0, out=block, mode="clip")
            for col, k in enumerate(strategy.private):  # in place, column by column
                block[:, k] *= obs[start:stop, col]
            np.argmax(block, axis=1, out=actions[start:stop])
        return actions
    raise TypeError(f"unknown strategy type {type(strategy).__name__}")


def _threshold_split(values: np.ndarray, private: np.ndarray, obs: np.ndarray):
    """The argmax of ``values`` with ``values[private]`` scaled by each row of
    ``obs``, lowest index on ties, as ``(j, take, top)``, without building
    the (rows, n) scores.

    The best constant resource (lowest index j, value c) is the same in
    every row, so each row takes (boolean ``take``) its best private
    resource ``top`` where the product beats c, or ties it at an index
    below j, and picks j otherwise.  ``top`` is one index when the private
    block has one column, else an index per row.  When every resource is
    private, c is -inf and j is the first private index.  A row with a NaN
    product takes nothing: NaN clears no comparison, and from two columns
    on it carries through the running maximum.

    A one-column block compares its observations with the least float t
    whose product with the score clears c (:func:`_least_clearing`), which
    gives the products' mask without forming them; where t is not found
    (a zero score, all resources private, products among subnormals) the
    products are formed and compared.
    """
    const = values.copy()
    const[private] = -np.inf  # every product beats this when all are private
    j = int(const.argmax())
    c = const[j]
    if not private.size:
        return j, np.zeros(obs.shape[0], dtype=bool), j
    top = private[0]
    if private.size == 1:  # the tie rule is fixed, so one comparison decides
        t = _least_clearing(float(values[top]), float(c), strict=top > j)
        if t is not None:
            return j, obs[:, 0] >= t, top
        best = obs[:, 0] * values[top]
        return j, (best >= c if top < j else best > c), top
    best = obs[:, 0] * values[top]
    top, prod = np.full(len(obs), top), np.empty_like(best)
    for col in range(1, private.size):  # ascending, so a tie keeps the lower index
        np.multiply(obs[:, col], values[private[col]], out=prod)
        np.copyto(top, private[col], where=prod > best)
        np.maximum(best, prod, out=best)
    return j, (best > c) | ((best == c) & (top < j)), top


# steps of the search for a least clearing float; the quotient c / v is
# rounded once, so the answer lies a step or two from it when it is normal
_CLEARING_STEPS = 4


def _least_clearing(v: float, c: float, strict: bool):
    """The least float t whose product with ``v`` clears ``c`` (``t * v > c``
    when ``strict``, else ``>=``), or None where it is not found.

    For v > 0, rounding keeps x * v non-decreasing in x, so the products of
    a column that clear c are exactly the entries >= t (NaN clears neither
    way).  t is searched by ``nextafter`` from c / v, at most
    :data:`_CLEARING_STEPS` steps, and is returned only where a step
    crosses from clearing to not, so it is exact.  None (take the products
    instead) where v is 0 or c is not finite, or where the search does not
    settle: among subnormals, or near -0.0, to which a small v rounds the
    products of many negative floats."""
    if not (v > 0.0 and -math.inf < c < math.inf):
        return None
    t = c / v
    clears = t * v > c if strict else t * v >= c
    for _ in range(_CLEARING_STEPS):
        step = math.nextafter(t, -math.inf if clears else math.inf)
        step_clears = step * v > c if strict else step * v >= c
        if step_clears != clears:
            return t if clears else step
        t = step
    return None


def _acting_columns(strategy: Strategy, n: int, samples: int) -> float:
    """The float64 columns, one entry per observation row, that
    :func:`batch_actions` holds at its peak while ``strategy`` acts on
    ``samples`` rows, the actions among them; a boolean mask is 1/8 of a
    column.  A simplex holds its uniform draws beside the actions, a
    threshold its mask and the tail's uniform draws and indices, and a
    mixture what :func:`_mixture_columns` states: from two rows on its
    component draws, the actions and one block of scores, and for one row
    its threshold split."""
    if isinstance(strategy, Mixture):
        return _mixture_columns(len(strategy), strategy.private.size, n, samples)
    return 2 if isinstance(strategy, Simplex) else 3.125


def _mixture_columns(rows: int, size: int, n: int, samples: int) -> float:
    """:func:`_acting_columns` of a mixture of ``rows`` score rows over a
    private block of ``size`` resources acting on ``samples`` rows, which a
    caller can ask before the mixture exists.  From two rows on: the
    component draws and the actions, two columns, and one block of scores,
    :data:`MIXTURE_BLOCK` rows of n (fewer where ``samples`` is fewer),
    which is n x MIXTURE_BLOCK / samples columns.  One row: what
    :func:`_threshold_split`, and what is built from its masks, hold at
    their peak: up to four boolean masks, and one column (the actions or
    the float mask that a reward-weighted rate is summed on, or for one
    resource without a threshold the products) or, from two resources on,
    three (the best product, the product compared and the index of the
    best)."""
    if rows > 1:
        return 2 + min(samples, MIXTURE_BLOCK) * n / samples
    return (1 if size < 2 else 3) + 0.5


def act(strategy: Strategy, observed_private_rewards, rng=None) -> int:
    """Choose one resource given the acting player's private observations,
    which must be finite."""
    obs = np.asarray(observed_private_rewards, dtype=float).reshape(1, -1)
    if not np.isfinite(obs).all():
        raise ValueError("observed rewards must be finite")
    return int(batch_actions(strategy, obs, rng)[0])
