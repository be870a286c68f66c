"""Reward distribution catalog.

Every resource reward is a non-negative random variable with finite mean and
second moment.  The catalog is fixed to four kinds -- exponential, uniform,
point mass, and finite discrete -- which cover all simulation scenarios while
keeping every moment used by the solvers available in closed form:

* ``mean`` and ``second_moment``;
* ``expected_sq_max_with(m)``, ``E[max(W, m)^2]``, needed for the exact
  gradient-norm constants of the mirror-descent error bound.

The two continuous kinds (``is_continuous``), exponential and uniform, also
answer the tail queries of the quantile-threshold frontier
(:class:`congames.quantile.TailFrontier`), which refuses the other two:

* ``quantile(u)``, the inverse CDF;
* ``tail_mean(p)``, the conditional mean of the upper p-fraction,
  ``E[W | W >= quantile(1 - p)]``, with ``tail_mean(1) == mean``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Exponential",
    "Uniform",
    "PointMass",
    "Discrete",
    "RewardDistribution",
]


@dataclass(frozen=True)
class Exponential:
    """Exponential with rate ``rate`` (mean ``1/rate``)."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def second_moment(self) -> float:
        return 2.0 / self.rate**2

    @property
    def is_continuous(self) -> bool:
        return True

    def quantile(self, u: float) -> float:
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"quantile argument must be in [0,1], got {u}")
        if u == 1.0:
            return math.inf
        return -math.log1p(-u) / self.rate

    def tail_mean(self, p: float) -> float:
        _check_tail_fraction(p)
        if p == 0.0:
            return math.inf  # limit of quantile(1-p) + 1/rate as p -> 0
        # memorylessness: E[W | W >= t] = t + 1/rate
        return self.quantile(1.0 - p) + 1.0 / self.rate

    def expected_sq_max_with(self, m: float) -> float:
        if m <= 0:
            return self.second_moment
        lam = self.rate
        tail = math.exp(-lam * m) * (m**2 + 2 * m / lam + 2 / lam**2)
        return m**2 * (1.0 - math.exp(-lam * m)) + tail

    def sample(self, rng: np.random.Generator, size=None):
        return rng.exponential(1.0 / self.rate, size=size)


@dataclass(frozen=True)
class Uniform:
    """Uniform on [lo, hi] with 0 <= lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi < math.inf):
            raise ValueError(f"need 0 <= lo <= hi < inf, got [{self.lo}, {self.hi}]")

    @property
    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def second_moment(self) -> float:
        lo, hi = self.lo, self.hi
        return (hi**3 - lo**3) / (3.0 * (hi - lo)) if hi > lo else lo**2

    @property
    def is_continuous(self) -> bool:
        return self.hi > self.lo

    def quantile(self, u: float) -> float:
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"quantile argument must be in [0,1], got {u}")
        return self.lo + u * (self.hi - self.lo)

    def tail_mean(self, p: float) -> float:
        _check_tail_fraction(p)
        if p == 0.0:
            return self.hi
        return 0.5 * (self.quantile(1.0 - p) + self.hi)

    def expected_sq_max_with(self, m: float) -> float:
        lo, hi = self.lo, self.hi
        if m <= lo:
            return self.second_moment
        if m >= hi:
            return m**2
        return (m**2 * (m - lo) + (hi**3 - m**3) / 3.0) / (hi - lo)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.uniform(self.lo, self.hi, size=size)


@dataclass(frozen=True)
class PointMass:
    """Degenerate law concentrated at ``value``."""

    value: float

    def __post_init__(self):
        if not 0 <= self.value < math.inf:  # also rejects NaN
            raise ValueError(f"support must be finite and non-negative, got {self.value}")

    @property
    def mean(self) -> float:
        return self.value

    @property
    def second_moment(self) -> float:
        return self.value**2

    @property
    def is_continuous(self) -> bool:
        return False

    def expected_sq_max_with(self, m: float) -> float:
        return max(self.value, m) ** 2

    def sample(self, rng: np.random.Generator, size=None):
        return np.full(size, self.value) if size is not None else self.value


@dataclass(frozen=True)
class Discrete:
    """Finite discrete law with atoms `values` and probabilities `probs`."""

    values: tuple[float, ...]
    probs: tuple[float, ...]
    # sorted atoms and their cumulative probabilities, filled in post-init
    # so that sampling is one searchsorted
    _sorted_values: np.ndarray = field(init=False, repr=False, compare=False)
    _cum_probs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        pr = np.asarray(self.probs, dtype=float)
        if vals.size == 0 or vals.shape != pr.shape:
            raise ValueError("values and probs must be equal-length and non-empty")
        if not np.all((vals >= 0) & np.isfinite(vals)):  # also rejects NaN
            raise ValueError("support must be finite and non-negative")
        if not (np.all(pr >= 0) and abs(pr.sum() - 1.0) <= 1e-9):
            raise ValueError("probs must be non-negative and sum to 1")
        order = np.argsort(vals, kind="stable")
        object.__setattr__(self, "_sorted_values", vals[order])
        object.__setattr__(self, "_cum_probs", np.cumsum(pr[order]))

    @property
    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    @property
    def second_moment(self) -> float:
        return float(np.dot(np.square(self.values), self.probs))

    @property
    def is_continuous(self) -> bool:
        return False

    def expected_sq_max_with(self, m: float) -> float:
        vals = np.maximum(np.asarray(self.values, dtype=float), m)
        return float(np.dot(np.square(vals), self.probs))

    def sample(self, rng: np.random.Generator, size=None):
        # the uniforms are freed once searched, and take's clip folds a
        # uniform past the last cumulative probability onto the last atom,
        # so at most two draw-sized arrays exist at once
        idx = np.searchsorted(self._cum_probs, rng.random(size=size), side="left")
        out = self._sorted_values.take(idx, mode="clip")
        return out if size is not None else float(out)


RewardDistribution = Exponential | Uniform | PointMass | Discrete


def _check_tail_fraction(p: float):
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"tail fraction must be in [0,1], got {p}")
