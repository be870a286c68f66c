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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import as_generator

__all__ = [
    "Simplex",
    "QuantileThreshold",
    "Mixture",
    "Strategy",
    "act",
]

SIMPLEX_TOL = 1e-9


def _check_simplex(p: np.ndarray, what: str, tol: float = SIMPLEX_TOL):
    if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= tol):  # also rejects NaN
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
    ``values[:, private]`` multiply the observed rewards."""

    values: np.ndarray  # shape (m, n)
    private: np.ndarray  # global indices of the acting player's private block

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] == 0:
            raise ValueError("mixture needs at least one component row")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("score values must be finite and non-negative")
        private = np.asarray(self.private, dtype=int).reshape(-1)
        if private.size and (private.min() < 0 or private.max() >= values.shape[1]):
            raise ValueError("private indices out of range")
        values = values.copy()
        values.setflags(write=False)
        private = private.copy()
        private.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "private", private)

    def __len__(self) -> int:
        return self.values.shape[0]


Strategy = Simplex | QuantileThreshold | Mixture


def _categorical(p: np.ndarray, gen: np.random.Generator, size: int) -> np.ndarray:
    cum = np.cumsum(p)
    idx = np.searchsorted(cum, gen.random(size) * cum[-1], side="right")
    return np.minimum(idx, p.size - 1)


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
        take_first = obs[:, 0] >= strategy.tau
        actions = np.zeros(rows, dtype=int)
        rest = ~take_first
        if np.any(rest):
            if strategy.tail.size == 0:
                raise ValueError("threshold not met but the tail simplex is empty")
            gen = _need_generator(rng, strategy)
            actions[rest] = 1 + _categorical(strategy.tail, gen, int(rest.sum()))
        return actions
    if isinstance(strategy, Mixture):
        _check_observation(obs, strategy.private.size, "Mixture")
        values = strategy.values
        if len(strategy) == 1:  # deterministic: no draw, no rng needed
            scores = np.repeat(values, rows, axis=0)
        else:
            comp = _need_generator(rng, strategy).integers(len(strategy), size=rows)
            scores = np.take(values, comp, axis=0)
        if strategy.private.size:
            scores[:, strategy.private] *= obs
        return np.argmax(scores, axis=1)
    raise TypeError(f"unknown strategy type {type(strategy).__name__}")


def act(strategy: Strategy, observed_private_rewards, rng=None) -> int:
    """Choose one resource given the acting player's private observations."""
    obs = np.asarray(observed_private_rewards, dtype=float).reshape(1, -1)
    return int(batch_actions(strategy, obs, rng)[0])
