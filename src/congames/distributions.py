"""Reward distribution catalog.

Every resource reward is a non-negative random variable with finite mean and
second moment.  The catalog is fixed to four kinds -- exponential, uniform,
point mass, and finite discrete -- which cover all simulation scenarios while
keeping every moment used by the solvers available in closed form.  Each
law states two formulas:

* ``mean``;
* ``expected_sq_max_with(m)``, ``E[max(W, m)^2]``, needed for the exact
  gradient-norm constants of the mirror-descent error bound.

The catalog's base class derives the rest from them, once for all four
kinds: ``second_moment`` is ``expected_sq_max_with(0)``, which is E[W^2] as
rewards are non-negative, and ``is_continuous`` holds where the law has a
``quantile`` function whose range is more than one point.

The exponential and the uniform also answer the tail queries of the
quantile-threshold frontier (:class:`congames.quantile.TailFrontier`),
which takes only a continuous law, so it refuses a point mass, a discrete
law and a uniform of one point:

* ``quantile(u)``, the inverse CDF;
* ``tail_mean(p)``, the conditional mean of the upper p-fraction,
  ``E[W | W >= quantile(1 - p)]``, with ``tail_mean(1) == mean``.

Both refuse an argument outside [0, 1], NaN included.  ``tail_mean`` checks
its own range and writes ``quantile(1 - p)`` out in place, to its bits,
because each round of :func:`congames.quantile.solve_a1` calls
it three times; the exponential's adds its mean 1/rate, a double taken
once when the law is built.  The exponential's takes its common case
first: it forms t = p - 1, exactly -(1 - p) under round-to-nearest, and
when t is not -1 and p lies in [0, 1] returns ``-log1p(t) / rate + 1/rate``
at once; only then does it refuse p, or return inf where p is 0 or too
small to move 1 - p, with the values and messages of the range check.

A law whose parameters give no finite second moment (``Exponential(1e-200)``,
``Uniform(0, 1e200)``) is refused when it is built, so every guarantee
constant computed from the moments is a float; so is an exponential whose
rate is not positive and finite (an infinite rate would be a point mass at
0).  A rate whose square passes the float range is accepted: its second
moment 2 / rate**2 is tiny, or 0 (``Exponential(1e200)``).  So is a
uniform whose width squared passes the float range while its second moment
does not (``Uniform(0, 1.5e154)``, E[W^2] = 7.5e307): a uniform takes such
a square one factor at a time, as ``w * (w / 12.0)``, and keeps every
finite square's bits.  Where
E[max(W, m)^2] itself passes the float range, ``expected_sq_max_with(m)``
is inf, with no error or numpy warning; finite results keep their bits.

Each law draws through one primitive, ``fill(rng, out)``, which writes one
whole draw of the stream into a C-contiguous float64 array in place, the
bits and the generator state of ``sample(rng, out.shape)``; ``sample``
allocates its array and calls it, so there is one drawing path, and the
samplers of :mod:`congames.game` fill each column of their draws where it
is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import log1p

import numpy as np

from .rng import DRAW_CHUNK

__all__ = [
    "Exponential",
    "Uniform",
    "PointMass",
    "Discrete",
    "RewardDistribution",
]


def _sq(x: float) -> float:
    """``x**2``, or inf where the square passes the float range."""
    try:
        return x**2
    except OverflowError:
        return math.inf


class _Law:
    """What every catalog law shares: the second moment and continuity,
    derived from the law's own formulas; the refusal of parameters without
    a finite second moment; and ``sample``, written by the law's ``fill``."""

    @property
    def second_moment(self) -> float:
        """E[W^2], which is E[max(W, 0)^2] as rewards are non-negative."""
        return self.expected_sq_max_with(0.0)

    @property
    def is_continuous(self) -> bool:
        """Whether the law has a quantile function whose range is more
        than one point."""
        return hasattr(self, "quantile") and self.quantile(0.0) < self.quantile(1.0)

    def _check_second_moment(self):
        if not math.isfinite(self.second_moment):
            raise ValueError(f"{self!r} is out of range: its second moment is not a finite float")

    def sample(self, rng: np.random.Generator, size=None):
        """``size`` draws (one float when None), written by ``fill``."""
        out = np.empty(() if size is None else size)
        self.fill(rng, out)
        return out if size is not None else float(out)


@dataclass(frozen=True)
class Exponential(_Law):
    """Exponential with rate ``rate`` (mean ``1/rate``)."""

    rate: float

    def __post_init__(self):
        if not 0 < self.rate < math.inf:  # also refuses NaN
            raise ValueError(f"rate must be positive and finite, got {self.rate}")
        self._check_second_moment()
        # the scale 1/rate, taken once: the mean, the tail mean's offset and
        # the draws' factor read it
        object.__setattr__(self, "_scale", 1.0 / self.rate)

    @property
    def mean(self) -> float:
        return self._scale

    def quantile(self, u: float) -> float:
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"quantile argument must be in [0,1], got {u}")
        if u == 1.0:
            return math.inf
        return -math.log1p(-u) / self.rate

    def tail_mean(self, p: float) -> float:
        # memorylessness: E[W | W >= t] = t + 1/rate, t = quantile(1 - p);
        # p - 1 is exactly -(1 - p), as round-to-nearest is symmetric
        t = p - 1.0
        if t != -1.0 and 0.0 <= p <= 1.0:
            return -log1p(t) / self.rate + self._scale
        if not 0.0 <= p <= 1.0:  # also refuses NaN
            raise ValueError(f"tail fraction must be in [0,1], got {p}")
        return math.inf  # p == 0, or p too small to move 1 - p

    def expected_sq_max_with(self, m: float) -> float:
        lam = self.rate
        # E[W^2] = 2 / rate**2; where rate**2 underflows to 0 or passes the
        # float range, two divisions take the quotient: inf, or tiny
        lam_sq = _sq(lam)
        second = 2.0 / lam_sq if 0.0 < lam_sq < math.inf else 2.0 / lam / lam
        if m <= 0:
            return second
        # where exp(-lam * m) underflows to 0 the tail is 0, even where
        # its bracket passes the float range (0 * inf would be NaN)
        decay = math.exp(-lam * m)
        m_sq = _sq(m)
        tail = decay * (m_sq + 2 * m / lam + second) if decay else 0.0
        return m_sq * (1.0 - decay) + tail

    def fill(self, rng: np.random.Generator, out: np.ndarray):
        # exponential(scale) draws scale * standard_exponential: these bits
        rng.standard_exponential(out=out)
        out *= self._scale


@dataclass(frozen=True)
class Uniform(_Law):
    """Uniform on [lo, hi] with 0 <= lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi < math.inf):
            raise ValueError(f"need 0 <= lo <= hi < inf, got [{self.lo}, {self.hi}]")
        self._check_second_moment()

    @property
    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def quantile(self, u: float) -> float:
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"quantile argument must be in [0,1], got {u}")
        return self.lo + u * (self.hi - self.lo)

    def tail_mean(self, p: float) -> float:
        if not 0.0 <= p <= 1.0:  # also refuses NaN
            raise ValueError(f"tail fraction must be in [0,1], got {p}")
        if p == 0.0:
            return self.hi
        # 0.5 * (quantile(1 - p) + hi)
        return 0.5 * (self.lo + (1.0 - p) * (self.hi - self.lo) + self.hi)

    def expected_sq_max_with(self, m: float) -> float:
        lo, hi = self.lo, self.hi
        if m <= lo:
            if hi == lo:
                return _sq(lo)
            # mean^2 + variance: non-negative terms, so a narrow support
            # cancels no digits and the result is never below mean^2
            width = hi - lo
            width_sq = _sq(width)
            return _sq(self.mean) + (width_sq / 12.0 if width_sq < math.inf else width * (width / 12.0))
        if m >= hi:
            return _sq(m)
        # m^2 plus its excess, a product of non-negative terms, so a narrow
        # support cancels no digits and the result is never below m^2; the
        # ratio is taken first, so a wide support does not overflow hi^3
        ratio = (hi + 2.0 * m) / (3.0 * (hi - lo))
        rest = hi - m
        rest_sq = _sq(rest)
        return _sq(m) + (rest_sq * ratio if rest_sq < math.inf else rest * (rest * ratio))

    def fill(self, rng: np.random.Generator, out: np.ndarray):
        # uniform(lo, hi) draws lo + (hi - lo) * random: these bits
        rng.random(out=out)
        out *= self.hi - self.lo
        out += self.lo


@dataclass(frozen=True)
class PointMass(_Law):
    """Degenerate law concentrated at ``value``."""

    value: float

    def __post_init__(self):
        if not 0 <= self.value < math.inf:  # also rejects NaN
            raise ValueError(f"support must be finite and non-negative, got {self.value}")
        self._check_second_moment()

    @property
    def mean(self) -> float:
        return self.value

    def expected_sq_max_with(self, m: float) -> float:
        return _sq(max(self.value, m))

    def fill(self, rng: np.random.Generator, out: np.ndarray):
        out.fill(self.value)  # draws nothing from rng


@dataclass(frozen=True)
class Discrete(_Law):
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
        self._check_second_moment()

    @property
    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def expected_sq_max_with(self, m: float) -> float:
        if _sq(m) == math.inf:  # the result is at least m^2
            return math.inf
        vals = np.maximum(np.asarray(self.values, dtype=float), m)
        # a square past the float range is inf; an atom of probability 0
        # there adds inf * 0, NaN, so the law is refused where it is built
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.dot(np.square(vals), self.probs))

    def fill(self, rng: np.random.Generator, out: np.ndarray):
        # out is filled DRAW_CHUNK uniforms at a time, which draws the stream
        # of one call, so a draw holds no second draw-sized array; take's
        # clip folds a uniform past the last cumulative probability onto the
        # last atom
        for chunk in np.split(out.reshape(-1), range(DRAW_CHUNK, out.size, DRAW_CHUNK)):
            self._sorted_values.take(np.searchsorted(self._cum_probs, rng.random(chunk.size)), mode="clip", out=chunk)


RewardDistribution = Exponential | Uniform | PointMass | Discrete
