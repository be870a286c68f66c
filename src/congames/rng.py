"""Seeded random-number streams.

All stochastic operations in this package accept a ``rng`` argument that may
be an integer seed, an :class:`RngSpec`, or a ready ``numpy.random.Generator``.
Identical (seed, stream) pairs always reproduce identical sample sequences.
Distinct stream ids give statistically independent streams, which is how
world sampling, adversary-weight sampling, and strategy randomization are
kept disjoint so that common-random-number comparisons are possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Reserved stream ids for the three independent sources of randomness.
WORLD_STREAM = 0
OMEGA_STREAM = 1
ACTION_A_STREAM = 2
ACTION_B_STREAM = 3


@dataclass(frozen=True)
class RngSpec:
    """A reproducible stream: 64-bit seed plus a stream id."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(ss)


def as_generator(rng, stream: int = 0) -> np.random.Generator:
    """Coerce an int seed, RngSpec, or Generator into a Generator.

    An int seed selects stream ``stream`` of that seed; RngSpecs and
    Generators already name their stream and are used as given.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        rng = RngSpec(int(rng), stream)
    if isinstance(rng, RngSpec):
        return rng.generator()
    raise TypeError(f"cannot interpret {rng!r} as a random generator")


def stream_generators(rng, streams) -> list[np.random.Generator]:
    """One generator per requested stream id, disjoint and reproducible.

    Integer seeds and RngSpecs give seed-stable streams (the common-random-
    number path); a Generator is split via ``spawn``.
    """
    if isinstance(rng, np.random.Generator):
        return rng.spawn(len(streams))
    if isinstance(rng, (int, np.integer)):
        rng = RngSpec(int(rng))
    if isinstance(rng, RngSpec):
        return [
            np.random.default_rng(np.random.SeedSequence(rng.seed, spawn_key=(rng.stream, s)))
            for s in streams
        ]
    raise TypeError(f"cannot interpret {rng!r} as a random generator")
