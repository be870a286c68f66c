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

from dataclasses import dataclass, field

import numpy as np

from .distributions import RewardDistribution
from .rng import as_generator

__all__ = [
    "Partition",
    "GameInstance",
    "sample_world",
    "sample_omega",
]


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

    def class_of(self, k: int) -> str:
        """Observation class of resource ``k``: 'A', 'B', 'C', or 'AB'."""
        if not 0 <= k < self.n:
            raise IndexError(f"resource index {k} out of range [0, {self.n})")
        if k < self.a:
            return "A"
        if k < self.a + self.b:
            return "B"
        if k < self.a + self.b + self.c:
            return "C"
        return "AB"


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

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def means(self) -> np.ndarray:
        """Conditional mean rewards: z on the AB block, distribution mean elsewhere."""
        return self._means


def sample_world(game: GameInstance, rng, size: int | None = None) -> np.ndarray:
    """Draw reward realizations; AB-block entries stay fixed at ``z``.

    Returns shape ``(n,)`` when ``size`` is None, else ``(size, n)``.
    """
    gen = as_generator(rng)
    n = game.n
    rows = 1 if size is None else size
    out = np.empty((rows, n))
    ab_start = game.partition.a + game.partition.b + game.partition.c
    for k, dist in enumerate(game.distributions):
        if k >= ab_start:
            out[:, k] = game.z[k - ab_start]
        else:
            out[:, k] = dist.sample(gen, size=rows)
    return out[0] if size is None else out


def sample_omega(game: GameInstance, rng, size: int | None = None) -> np.ndarray:
    """Draw the adversary weight vector used in worst-case evaluation.

    Entry k is 1 on the A block (the worst-case opponent weights A's private
    resources through A's reward-weighted pick rates), a fresh reward draw on
    the B block, and the conditional mean elsewhere.
    """
    gen = as_generator(rng)
    part = game.partition
    rows = 1 if size is None else size
    out = np.tile(game.means, (rows, 1))
    out[:, part.set_a] = 1.0
    for k in part.set_b:
        out[:, k] = game.distributions[k].sample(gen, size=rows)
    return out[0] if size is None else out


def deterministic_omega(game: GameInstance) -> np.ndarray:
    """The adversary weight vector when the B block is empty (no randomness)."""
    if game.partition.b != 0:
        raise ValueError("adversary weights are random unless b == 0")
    out = game.means.copy()
    out[game.partition.set_a] = 1.0
    return out
