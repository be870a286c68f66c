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

A one-row mixture acts by threshold rather than through a (samples, n) score
matrix: its best constant resource is the same in every row, so a row picks
its best private product where that beats the best constant, or ties it at a
lower index, and the constant otherwise.  This picks the same resource as
the argmax, bit for bit.  One threshold split serves both consumers:
:func:`batch_actions` turns it into action indices, and
:func:`congames.montecarlo.estimate_stats` counts a one-row mixture's picks
and reward-weighted rates from its masks without building actions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import as_generator, is_integer

__all__ = [
    "Simplex",
    "QuantileThreshold",
    "Mixture",
    "Strategy",
    "act",
]

SIMPLEX_TOL = 1e-9


def _check_simplex(p: np.ndarray, what: str, tol: float = SIMPLEX_TOL, floor: float = 0.0):
    """Refuse ``p`` unless its entries are >= ``floor`` and sum to 1 within
    ``tol``; a NaN entry fails both comparisons."""
    if not (np.all(p >= floor) and abs(p.sum() - 1.0) <= tol):
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

    A read-only float64 ``values`` array is kept as given (drift-plus-penalty
    hands over its T-row queue history this way); anything writable is
    copied, so later writes to the source leave the mixture alone.  The
    entries are checked by their minimum and maximum, so a long history
    is checked without a mask of its size.
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
        # integers, or floats of integral value; a bool, NaN or fraction is refused
        entries = np.asarray(self.private, dtype=object).reshape(-1).tolist()
        if not all(is_integer(i) or isinstance(i, float) and i.is_integer() for i in entries):
            raise ValueError("private indices must be integers")
        given = np.array(entries, dtype=float)
        if given.size and (given.min() < 0 or given.max() >= values.shape[1]):
            raise ValueError("private indices out of range")
        private = given.astype(int)
        if np.any(np.diff(private) <= 0):
            raise ValueError("private indices must be strictly increasing")
        if values.flags.writeable:
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
        comp = _need_generator(rng, strategy).integers(len(strategy), size=rows)
        scores = np.take(strategy.values, comp, axis=0)
        for col, k in enumerate(strategy.private):  # in place, column by column
            scores[:, k] *= obs[:, col]
        return np.argmax(scores, axis=1)
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
    private, c is -inf and j is the first private index.
    """
    const = values.copy()
    const[private] = -np.inf  # every product beats this when all are private
    j = int(const.argmax())
    c = const[j]
    if not private.size:
        return j, np.zeros(obs.shape[0], dtype=bool), j
    top = private[0]
    best = obs[:, 0] * values[top]
    if private.size == 1:  # the tie rule is fixed, so one comparison decides
        return j, (best >= c if top < j else best > c), top
    top, prod = np.full(len(obs), top), np.empty_like(best)
    for col in range(1, private.size):  # ascending, so a tie keeps the lower index
        np.multiply(obs[:, col], values[private[col]], out=prod)
        np.copyto(top, private[col], where=prod > best)
        np.maximum(best, prod, out=best)
    return j, (best > c) | ((best == c) & (top < j)), top


def _acting_columns(strategy: Strategy, n: int) -> float:
    """The float64 columns, one entry per observation row, that
    :func:`batch_actions` holds at its peak while ``strategy`` acts, the
    actions among them; a boolean mask is 1/8 of a column.  A simplex holds
    its uniform draws beside the actions, a threshold its mask and the
    tail's uniform draws and indices, a mixture of two or more rows its
    component draws and n scores, and a one-row mixture its threshold split
    (:func:`_mixture_columns`)."""
    if isinstance(strategy, Mixture):
        return _mixture_columns(len(strategy), strategy.private.size, n)
    return 2 if isinstance(strategy, Simplex) else 3.125


def _mixture_columns(rows: int, size: int, n: int) -> float:
    """:func:`_acting_columns` of a mixture of ``rows`` score rows over a
    private block of ``size`` resources, which a caller can ask before the
    mixture exists: n scores and the component draws from two rows on, the
    threshold split (:func:`_split_columns`) of one row."""
    return n + 2 if rows > 1 else _split_columns(size)


def _split_columns(size: int) -> float:
    """The columns that :func:`_threshold_split` of a private block of
    ``size`` resources, and what is built from its masks, hold at their
    peak: the best product, with the product compared and the index of the
    best from two resources on, and up to four boolean masks."""
    return (1 if size < 2 else 3) + 0.5


def act(strategy: Strategy, observed_private_rewards, rng=None) -> int:
    """Choose one resource given the acting player's private observations."""
    obs = np.asarray(observed_private_rewards, dtype=float).reshape(1, -1)
    return int(batch_actions(strategy, obs, rng)[0])
