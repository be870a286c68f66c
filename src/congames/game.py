"""Game model: resource partition, instances, and world sampling.

Two players, A and B, each pick one of ``n`` resources.  A resource's random
reward is split in half when both players pick it.  The index set splits into
four blocks by who observes the reward realization before acting:

* ``A``  -- observed by player A only (indices ``0..a-1``),
* ``B``  -- observed by player B only (``a..a+b-1``),
* ``C``  -- observed by neither (``a+b..a+b+c-1``),
* ``AB`` -- observed by both (``a+b+c..n-1``).

A :class:`GameInstance` fixes the commonly observed rewards to one realized
vector ``z``; all solvers condition on it.  The per-resource conditional mean
vector is ``E[k] = z[k]`` on the AB block and the distribution mean elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import RewardDistribution
from .rng import as_generator

__all__ = [
    "Partition",
    "GameInstance",
    "sample_world",
    "sample_omega",
    "draw_rows",
    "UPFRONT_BUDGET_BYTES",
    "check_upfront_budget",
    "check_setting",
    "check_count",
]

# rows that draw_rows converts to Python floats at a time
DRAW_CHUNK = 4096
# the solvers refuse a run whose draws and history, allocated before the
# first round, would exceed this
UPFRONT_BUDGET_BYTES = 2**30


@dataclass(frozen=True)
class Partition:
    """Sizes (a, b, c, d) of the four observation blocks."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= 0):
                raise ValueError(f"partition size {name} must be a non-negative integer, got {v}")
        if self.n == 0:
            raise ValueError("partition must contain at least one resource")

    @property
    def n(self) -> int:
        return self.a + self.b + self.c + self.d

    @property
    def set_a(self) -> np.ndarray:
        return np.arange(0, self.a)

    @property
    def set_b(self) -> np.ndarray:
        return np.arange(self.a, self.a + self.b)

    @property
    def set_c(self) -> np.ndarray:
        return np.arange(self.a + self.b, self.a + self.b + self.c)

    @property
    def set_ab(self) -> np.ndarray:
        return np.arange(self.a + self.b + self.c, self.n)

    @property
    def shared(self) -> np.ndarray:
        """The C and AB blocks, which both players see alike."""
        return np.arange(self.a + self.b, self.n)

    @property
    def a_comp(self) -> np.ndarray:
        """Everything player A does not privately observe."""
        return np.arange(self.a, self.n)

    @property
    def b_comp(self) -> np.ndarray:
        """Everything player B does not privately observe."""
        return np.concatenate([np.arange(0, self.a), np.arange(self.a + self.b, self.n)])

    def private_set(self, player: str) -> np.ndarray:
        if player == "A":
            return self.set_a
        if player == "B":
            return self.set_b
        raise ValueError(f"player must be 'A' or 'B', got {player!r}")


@dataclass(frozen=True)
class GameInstance:
    """A game conditioned on one realized vector of commonly observed rewards.

    ``z`` holds the realized rewards of the AB block (length ``partition.d``);
    it enters the conditional means and is never resampled.
    """

    partition: Partition
    distributions: tuple[RewardDistribution, ...]
    z: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        dists = tuple(self.distributions)
        object.__setattr__(self, "distributions", dists)
        if len(dists) != self.partition.n:
            raise ValueError(
                f"expected {self.partition.n} distributions, got {len(dists)}"
            )
        z = np.asarray(self.z, dtype=float).reshape(-1)
        if z.size != self.partition.d:
            raise ValueError(f"z must have length d={self.partition.d}, got {z.size}")
        if np.any(z < 0):
            raise ValueError("realized shared rewards must be non-negative")
        z = z.copy()
        z.setflags(write=False)
        object.__setattr__(self, "z", z)
        means = np.array([dist.mean for dist in dists], dtype=float)
        means[self.partition.set_ab] = z
        if np.any(means < 0) or not np.all(np.isfinite(means)):
            raise ValueError("conditional means must be finite and non-negative")
        means.setflags(write=False)
        object.__setattr__(self, "_means", means)
        weights = means.copy()
        weights[self.partition.set_a] = 1.0
        weights.setflags(write=False)
        object.__setattr__(self, "_weights", weights)

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def means(self) -> np.ndarray:
        """Conditional mean rewards: z on the AB block, distribution mean elsewhere."""
        return self._means

    @property
    def weights(self) -> np.ndarray:
        """The adversary's mean weight vector, the gross gain per unit of
        A's pick rates: 1 on the A block, the conditional mean elsewhere."""
        return self._weights


def sample_world(game: GameInstance, rng, size: int, columns: int | None = None) -> np.ndarray:
    """Draw ``size`` reward realizations of the first ``columns`` resources
    (all n when None), shape ``(size, columns)``; AB-block entries stay
    fixed at ``z``.  The columns are drawn in order from one generator, so
    they are the leading columns of the full draw, bit for bit."""
    gen = as_generator(rng)
    out = np.empty((size, game.n if columns is None else columns))
    ab_start = game.partition.a + game.partition.b + game.partition.c
    for k, dist in enumerate(game.distributions[:columns]):
        if k >= ab_start:
            out[:, k] = game.z[k - ab_start]
        else:
            out[:, k] = dist.sample(gen, size=size)
    return out


def sample_omega(game: GameInstance, rng, size: int) -> np.ndarray:
    """Draw ``size`` adversary weight vectors for worst-case evaluation,
    shape ``(size, n)``.

    Entry k is a fresh reward draw on the B block and
    :attr:`GameInstance.weights` elsewhere: 1 on the A block (the worst-case
    opponent weights A's private resources through A's reward-weighted pick
    rates) and the conditional mean on the rest.
    """
    gen = as_generator(rng)
    out = np.tile(game.weights, (size, 1))
    for k in game.partition.set_b:
        out[:, k] = game.distributions[k].sample(gen, size=size)
    return out


def draw_rows(draws: np.ndarray):
    """Yield the rows of a ``(T, n)`` draw array as lists of floats.

    The solver loops step on Python floats; rows are converted DRAW_CHUNK at
    a time, so only one chunk of them exists as Python objects at once.
    """
    for start in range(0, len(draws), DRAW_CHUNK):
        yield from draws[start : start + DRAW_CHUNK].tolist()


def check_upfront_budget(solver: str, T: int, n: int, arrays: float = 1, rows: str = "T"):
    """Raise ValueError naming T, n and the MiB needed when one run's
    ``arrays`` T x n float64 arrays, allocated before its first round, would
    exceed :data:`UPFRONT_BUDGET_BYTES`; a solver or Monte Carlo estimate
    calls it before it samples anything.  A fraction counts narrower arrays:
    a T x a array is a / n of one.  ``rows`` names T in the message
    (``n_samples`` for the Monte Carlo estimates)."""
    need = T * n * 8 * arrays
    if need > UPFRONT_BUDGET_BYTES:
        raise ValueError(
            f"{solver} run with {rows}={T}, n={n} needs {need / 2**20:.0f} MiB up front, "
            f"over the {UPFRONT_BUDGET_BYTES / 2**20:.0f} MiB budget; use a smaller {rows}"
        )


def check_setting(name: str, value):
    """Raise ValueError naming ``name`` unless ``value`` is positive and
    finite; NaN and both infinities are refused."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_count(name: str, value, minimum: int = 1, why: str = ""):
    """Raise ValueError naming ``name`` unless ``value`` is an integer of at
    least ``minimum``; a float (2.5, NaN, even 3.0) is refused.  ``why``
    ends the message of a conditional minimum."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}{why}")
