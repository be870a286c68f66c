"""Seeded random-number streams.

All stochastic operations in this package accept a ``rng`` argument that may
be an integer seed or a ready ``numpy.random.Generator``.  Identical
(seed, stream) pairs always reproduce identical sample sequences.  Distinct
stream ids give statistically independent streams, which is how world
sampling, adversary-weight sampling, and strategy randomization are kept
disjoint so that common-random-number comparisons are possible.
"""

from __future__ import annotations

import numpy as np

# Reserved stream ids for the three independent sources of randomness.
WORLD_STREAM = 0
OMEGA_STREAM = 1
ACTION_A_STREAM = 2
ACTION_B_STREAM = 3

# rows that a solver's round kernel converts to Python floats at a time (at
# most n + 2b floats a row, MD's draws and factors, about 160 KiB at n = 3
# and b = 1, less than a short run's draws), and that a discrete law draws
# its uniforms for at a time
DRAW_CHUNK = 1024


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer.  A bool is not,
    though Python counts True and False as the integers 1 and 0."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_generator(rng, stream: int = 0) -> np.random.Generator:
    """Coerce an int seed or Generator into a Generator.

    An int seed selects stream ``stream`` of that seed (spawn key
    ``(stream,)``); a Generator already names its stream and is used as
    given.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if is_integer(rng):
        return np.random.default_rng(np.random.SeedSequence(int(rng), spawn_key=(stream,)))
    raise TypeError(f"cannot interpret {rng!r} as a random generator")


def stream_generators(rng, streams) -> list[np.random.Generator]:
    """One generator per requested stream id, disjoint and reproducible.

    An int seed gives seed-stable streams, spawn key ``(0, s)`` for stream
    ``s`` (the common-random-number path); a Generator is split via
    ``spawn``.
    """
    if isinstance(rng, np.random.Generator):
        return rng.spawn(len(streams))
    if is_integer(rng):
        return [
            np.random.default_rng(np.random.SeedSequence(int(rng), spawn_key=(0, s)))
            for s in streams
        ]
    raise TypeError(f"cannot interpret {rng!r} as a random generator")


def check_seed(seed):
    """Raise ValueError unless ``seed`` is a non-negative integer, the
    seeds :class:`numpy.random.SeedSequence` takes."""
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
