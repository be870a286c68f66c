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

:func:`sample_world` draws reward realizations.  The worst-case adversary
weights resource k by omega_k, a fresh reward draw on the B block and the
constant :attr:`GameInstance.weights` elsewhere, so :func:`sample_omega`
draws only B's columns; every solver reads the constant entries from the
weights.

The module also hosts the toolkit of the generated round kernels of the
drift-plus-penalty, mirror-descent and A1 solvers: :func:`compile_kernel`,
whose one namespace supplies every name a generated round calls (``np``,
``exp``, :func:`require_positive` and :data:`DRAW_CHUNK`), the source
builders (:func:`chunk_loop`, :func:`argmax_chain`, :func:`mw_source`,
:func:`normalize_source` and :func:`_sum`), :func:`kernel_columns`, and
the up-front budget rule (:func:`check_upfront_budget`) that every solver
run and Monte Carlo estimate checks before it draws.
"""

from __future__ import annotations

import functools
import linecache
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import RewardDistribution
# the kernel namespace of compile_kernel supplies DRAW_CHUNK
from .rng import DRAW_CHUNK, as_generator, is_integer

__all__ = [
    "Partition",
    "GameInstance",
    "sample_world",
    "sample_omega",
    "compile_kernel",
    "argmax_chain",
    "require_positive",
    "UPFRONT_BUDGET_BYTES",
    "check_upfront_budget",
    "check_setting",
    "check_count",
]

# the solvers refuse a run whose draws and history, allocated before the
# first round, would exceed this
UPFRONT_BUDGET_BYTES = 2**30


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


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
            if not (is_integer(v) and v >= 0):
                raise ValueError(f"partition size {name} must be a non-negative integer, got {v}")
        if self.n == 0:
            raise ValueError("partition must contain at least one resource")

    @property
    def n(self) -> int:
        return self.a + self.b + self.c + self.d

    # the index sets are built once per partition, read-only, as every
    # turn and evaluation reads them
    @functools.cached_property
    def set_a(self) -> np.ndarray:
        return _read_only(np.arange(0, self.a))

    @functools.cached_property
    def set_b(self) -> np.ndarray:
        return _read_only(np.arange(self.a, self.a + self.b))

    @functools.cached_property
    def set_ab(self) -> np.ndarray:
        return _read_only(np.arange(self.a + self.b + self.c, self.n))

    @functools.cached_property
    def shared(self) -> np.ndarray:
        """The C and AB blocks, which both players see alike."""
        return _read_only(np.arange(self.a + self.b, self.n))

    @functools.cached_property
    def a_comp(self) -> np.ndarray:
        """Everything player A does not privately observe."""
        return _read_only(np.arange(self.a, self.n))

    @functools.cached_property
    def b_comp(self) -> np.ndarray:
        """Everything player B does not privately observe."""
        return _read_only(np.concatenate([np.arange(0, self.a), np.arange(self.a + self.b, self.n)]))

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
    they are the leading columns of the full draw, bit for bit.  The array
    is column-major: each column is contiguous, and each law writes its
    draw into its column in place (``fill``).  Raises ValueError unless
    ``columns`` is an integer in 0..n."""
    if columns is None:
        columns = game.n
    elif not (is_integer(columns) and 0 <= columns <= game.n):
        raise ValueError(f"columns must be an integer in 0..n={game.n}, got {columns!r}")
    gen = as_generator(rng)
    out = np.empty((columns, size)).T
    ab_start = game.partition.a + game.partition.b + game.partition.c
    for k, (column, dist) in enumerate(zip(out.T, game.distributions)):
        if k >= ab_start:
            column.fill(game.z[k - ab_start])
        else:
            dist.fill(gen, column)
    return out


def sample_omega(game: GameInstance, rng, size: int) -> np.ndarray:
    """Draw ``size`` rows of the adversary's random weights, shape
    ``(size, b)``: the columns of B's block, in order.

    The adversary weight vector omega is a fresh reward draw on the B block
    and :attr:`GameInstance.weights` elsewhere: 1 on the A block (the
    worst-case opponent weights A's private resources through A's
    reward-weighted pick rates) and the conditional mean on the rest.  Only
    the B block is random, so only it is drawn; column j is resource a + j.
    Each column is one whole draw of its law, taken in order from one
    generator and written in place into the column-major array, whose
    columns are contiguous.
    """
    gen = as_generator(rng)
    out = np.empty((game.partition.b, size)).T
    for column, k in zip(out.T, game.partition.set_b):
        game.distributions[k].fill(gen, column)
    return out


def compile_kernel(source: str, filename: str, name: str, **constants):
    """Compile the generated ``source`` under ``filename`` and return the
    function ``name`` it defines.

    Its globals are the kernel namespace, every name a generated round
    calls or reads (``np``, ``exp``, which is ``np.exp``,
    :func:`require_positive` and :data:`DRAW_CHUNK`), with a generator's
    own ``constants`` beside them, which override it: the A1 kernel passes
    ``exp=math.exp``, and the DPP kernel ``pack_into``, which writes each
    draw chunk's queue rows into its history.  The source's lines are registered in
    :mod:`linecache` under ``filename``, so tracebacks, ``pdb`` and
    profilers show them.
    """
    namespace = {"np": np, "exp": np.exp, "require_positive": require_positive, "DRAW_CHUNK": DRAW_CHUNK, **constants}
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def kernel_columns(draws: np.ndarray) -> np.ndarray:
    """``draws`` as a round kernel reads them: a one-column array as its
    1-D view, so that each entry of a chunk's ``tolist`` is one float rather
    than a one-float list."""
    return draws[:, 0] if draws.shape[1] == 1 else draws


def chunk_loop(views: dict[str, list[str]]) -> str:
    """The head of a kernel's loop over the rows ``start:stop`` of one draw
    chunk, indented for the body of its loop over the chunks.

    ``views`` maps each draw view (:func:`kernel_columns`) to the local
    names its row is unpacked into, one name for a 1-D view; the rows of
    the views that have names are read in step as lists.  With no view to
    read, the loop still runs the chunk's rounds, ``stop`` clamped at
    ``T``."""
    read = [(view, names) for view, names in views.items() if names]
    if not read:
        return "        for _ in range(start, stop if stop < T else T):"
    targets = ", ".join(names[0] if len(names) == 1 else f"({', '.join(names)},)" for _, names in read)
    rows = [f"{view}[start:stop].tolist()" for view, _ in read]
    source = rows[0] if len(rows) == 1 else f"zip({', '.join(rows)})"
    return f"        for {targets} in {source}:"


def argmax_chain(index: str, values: list[str]) -> list[str]:
    """Source lines, indented for the body of a kernel's loop over the
    rows of a draw chunk, that set ``index`` to the position of the first
    largest of the expressions ``values``, as ``values.index(max(values))``
    would: a chain of ``if s > best``, which keeps the earlier of equal
    values (-0.0 and 0.0 among them).  An expression that is not a name is
    stored in ``s`` where ``best`` may take it, and the last one, which
    ``best`` never takes, is compared as it is."""
    lines = [f"            {index} = 0"]
    if len(values) > 1:
        lines.append(f"            best = {values[0]}")
    for j, value in enumerate(values[1:], 1):
        last = j == len(values) - 1
        if not (last or value.isidentifier()):
            lines.append(f"            s = {value}")
            value = "s"
        lines += [f"            if {value} > best:", f"                {index} = {j}"]
        if not last:
            lines.append(f"                best = {value}")
    return lines


def _sum(terms: list[str]) -> str:
    """Source adding ``terms`` in the order numpy sums a contiguous float64
    row.

    Left to right from 0.0 below 8 terms, where numpy's order is that too
    and a chain costs less than building an array; from 8 terms on, numpy's
    own sum of the list.  (The builtin ``sum`` is left to right only before
    Python 3.12.)
    """
    if len(terms) >= 8:
        return f"float(np.sum([{', '.join(terms)}]))"
    return " + ".join(["0.0", *terms])


def require_positive(p):
    """Reject an iterate (an array or a list) with a zero or NaN entry."""
    if not np.all(np.asarray(p) > 0):
        raise ValueError("mirror-descent iterates must be strictly positive")


def mw_source(c: list[str], e: list[str], P: list[str]) -> list[str]:
    """Source lines, indented for the body of a kernel's loop over the rows
    of a draw chunk, of a round's multiplicative-weights step: the weights
    ``e`` = ``P`` exp(``c``), shifted by the largest exponent (the first of
    equal ones, as ``max`` takes it), then the iterate ``P`` = ``e`` / their
    sum (:func:`normalize_source`).  Each exponential is one scalar ``exp``
    call on a Python float, which must return a float (``math.exp``, as
    the A1 kernel compiles it), skipped where the exponent is exactly 0,
    as exp(0) is exactly 1.
    """
    lines = ["            # a value-invariant shift against overflow", f"            shift = {c[0]}"]
    for ck in c[1:]:
        lines += [f"            if {ck} > shift:", f"                shift = {ck}"]
    return lines + [
        "            # exp(0) is exactly 1, and the shift's own exponent is exactly 0",
        *(f"            {ek} = {pk} if (d := {ck} - shift) == 0.0 else exp(d) * {pk}" for ck, ek, pk in zip(c, e, P)),
        *normalize_source(e, P),
    ]


def normalize_source(e: list[str], P: list[str]) -> list[str]:
    """Source lines, indented for the body of a kernel's loop over the rows
    of a draw chunk, that set the iterate ``P`` to the weights ``e`` over
    their sum (:func:`_sum`), and raise through ``require_positive`` where
    every weight underflowed."""
    return [
        f"            norm = {_sum(e)}",
        "            if norm == 0.0:  # every weight underflowed",
        f"                require_positive([{', '.join(e)}])",
        *(f"            {pk} = {ek} / norm" for ek, pk in zip(e, P)),
    ]


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
    finite; NaN, both infinities and a bool are refused."""
    if isinstance(value, (bool, np.bool_)) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_count(name: str, value, minimum: int = 1, why: str = ""):
    """Raise ValueError naming ``name`` unless ``value`` is an integer of at
    least ``minimum``; a float (2.5, NaN, even 3.0) or a bool is refused.
    ``why`` ends the message of a conditional minimum."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}{why}")
