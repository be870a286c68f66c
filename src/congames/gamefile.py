"""Plain-text descriptions of games and strategies.

Game files are line-oriented ``key: value`` documents; ``#`` starts a
comment and blank lines are ignored.  Resource numbers are 1-based in files.

::

    n: 3
    partition: 1 1 1 0          # a b c d
    dist 1: exponential rate=1.0
    dist 2: uniform lo=0.0 hi=2.0
    dist 3: pointmass value=1.5
    # z: 0.8 1.2                # realized shared rewards, length d

``z`` is required only when d > 0; if omitted, the loader samples it from
the shared-block distributions (pass an rng).  Unknown keys, missing keys,
or malformed values are rejected with the offending line number.

Strategy files use the same syntax with a ``kind`` selector::

    kind: simplex               kind: score          kind: quantile
    p: 0.5 0.3 0.2              player: A            tau: 0.693
                                values: 1 0.7 0.75   tail: 0.6 0.4

    kind: mixture
    player: A
    component: 1 0.5 0.2
    component: 0 1 0

``kind: score`` is read as a one-component mixture.  Score/mixture values
on the named player's private block multiply the observed reward; the rest
are constants.

Faults are reported in three passes, each in file order.  One reader
serves both kinds of file and first refuses a line that is not
``key: value`` and a repeated key (only ``component`` may repeat); then
each key and value is checked; what is missing or inconsistent across
lines is checked last.
"""

from __future__ import annotations

import itertools

import numpy as np

from .distributions import Discrete, Exponential, PointMass, RewardDistribution, Uniform
from .game import GameInstance, Partition
from .rng import as_generator
from .strategies import Mixture, QuantileThreshold, Simplex, Strategy

__all__ = ["GameFileError", "load_game", "parse_game", "load_strategy", "parse_strategy"]

# each distribution kind's constructor and parameter names; discrete
# parameters are comma-separated lists, the others single numbers
DISTRIBUTIONS = {
    "exponential": (Exponential, ("rate",)),
    "uniform": (Uniform, ("lo", "hi")),
    "pointmass": (PointMass, ("value",)),
    "discrete": (Discrete, ("values", "probs")),
}

# each strategy kind's keys, all required; a score is a one-component mixture
STRATEGY_KEYS = {
    "simplex": ("p",),
    "score": ("player", "values"),
    "quantile": ("tau", "tail"),
    "mixture": ("player", "component"),
}


class GameFileError(ValueError):
    """Malformed game or strategy file; message carries the line number."""


def _fail(line_no, msg):
    raise GameFileError(f"line {line_no}: {msg}")


def _read(text: str) -> dict[str, list[tuple[int, str]]]:
    """Each key's (line_no, value) entries in file order.  Keys are
    lower-cased with their inner spaces collapsed; only 'component' may
    repeat."""
    entries: dict[str, list[tuple[int, str]]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            _fail(line_no, f"expected 'key: value', got {raw.strip()!r}")
        key, value = line.split(":", 1)
        key = " ".join(key.split()).lower()
        if key in entries and key != "component":
            _fail(line_no, f"duplicate key {key!r} (first at line {entries[key][0][0]})")
        entries.setdefault(key, []).append((line_no, value.strip()))
    return entries


def _at(line_no, build, *args, what=None, **kwargs):
    """build(*args, **kwargs), reporting a ValueError at line_no as ``what``
    (by default the error's own message)."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        _fail(line_no, what or str(exc))


def _floats(value, line_no, what):
    return _at(
        line_no, lambda: np.array([float(tok) for tok in value.split()], dtype=float),
        what=f"{what} must be a list of numbers, got {value!r}",
    )


def _distribution(value, line_no) -> RewardDistribution:
    kind, *tokens = value.split() or [""]
    kind = kind.lower()
    if not kind:
        _fail(line_no, "missing distribution kind")
    if kind not in DISTRIBUTIONS:
        _fail(line_no, f"unknown distribution kind {kind!r}")
    build, names = DISTRIBUTIONS[kind]
    params = {}
    for tok in tokens:
        if "=" not in tok:
            _fail(line_no, f"expected name=value, got {tok!r}")
        name, raw = tok.split("=", 1)
        params[name.lower()] = raw
    if build is Discrete:
        number, what = (lambda v: tuple(float(tok) for tok in v.split(","))), "comma-separated numbers"
    else:
        number, what = float, "a number"
    args = {}
    for name in names:
        if name not in params:
            _fail(line_no, f"{kind} needs parameter {name!r}")
        args[name] = _at(line_no, number, params.pop(name), what=f"parameter {name!r} must be {what}")
    if params:
        _fail(line_no, f"unknown {kind} parameters: {sorted(params)}")
    return _at(line_no, build, **args)


def parse_game(text: str, rng=None) -> GameInstance:
    """Build a GameInstance from game-file text (see module docstring)."""
    n = partition = z = None
    dists: dict[int, RewardDistribution] = {}
    # no game key repeats, so the keys come in file order
    for key, [(line_no, value), *_] in _read(text).items():
        if key == "n":
            n = _at(line_no, int, value, what=f"n must be an integer, got {value!r}")
        elif key == "partition":
            sizes = value.split()
            if len(sizes) != 4 or not all(tok.isdigit() for tok in sizes):
                _fail(line_no, "partition must be four non-negative integers 'a b c d'")
            partition = _at(line_no, Partition, *map(int, sizes))
        elif key.startswith("dist "):
            tok = key[5:]
            if not tok.isdigit() or int(tok) < 1:
                _fail(line_no, f"resource number must be a positive integer, got {tok!r}")
            if int(tok) in dists:  # 'dist 01' after 'dist 1'
                _fail(line_no, f"duplicate distribution for resource {int(tok)}")
            dists[int(tok)] = _distribution(value, line_no)
        elif key == "z":
            z = _floats(value, line_no, "z")
        else:
            _fail(line_no, f"unknown key {key!r}")

    if n is None:
        raise GameFileError("missing required key 'n'")
    if partition is None:
        raise GameFileError("missing required key 'partition'")
    if partition.n != n:
        raise GameFileError(f"partition sizes sum to {partition.n}, but n is {n}")
    # the count and the first ten, never a list of size n
    absent = n - sum(k <= n for k in dists)
    missing = list(itertools.islice((k for k in range(1, n + 1) if k not in dists), 10))
    if absent > 10:
        raise GameFileError(f"missing distributions for {absent} resources, the first ten {missing}")
    if missing:
        raise GameFileError(f"missing distributions for resources {missing}")
    extra = [k for k in dists if k > n]
    if extra:
        raise GameFileError(f"distributions given for nonexistent resources {extra}")

    if z is None and partition.d > 0:
        if rng is None:
            raise GameFileError(
                "file omits 'z' but d > 0: pass an rng to sample the shared rewards"
            )
        gen = as_generator(rng)
        z = np.array([dists[k + 1].sample(gen) for k in partition.set_ab])
    if z is None:
        z = np.zeros(0)
    try:
        return GameInstance(partition, tuple(dists[k] for k in range(1, n + 1)), z=z)
    except ValueError as exc:
        raise GameFileError(str(exc)) from exc


def load_game(path, rng=None) -> GameInstance:
    with open(path) as fh:
        return parse_game(fh.read(), rng=rng)


def _strategy_value(key, value, line_no):
    if key == "player":
        if value.upper() not in ("A", "B"):
            _fail(line_no, f"player must be A or B, got {value.upper()!r}")
        return value.upper()
    if key == "tau":
        return _at(line_no, float, value, what=f"tau must be a number, got {value!r}")
    return _floats(value, line_no, key)


def parse_strategy(text: str, game: GameInstance) -> Strategy:
    """Build a Strategy from strategy-file text for the given game."""
    entries = _read(text)
    if "kind" not in entries:
        raise GameFileError("missing required key 'kind'")
    [(line_no, kind)] = entries.pop("kind")
    kind = kind.lower()
    if kind not in STRATEGY_KEYS:
        _fail(line_no, f"unknown strategy kind {kind!r}")
    keys = STRATEGY_KEYS[kind]
    got: dict[str, list] = {}
    for line_no, key, value in sorted((ln, key, v) for key, lines in entries.items() for ln, v in lines):
        if key not in keys:
            _fail(line_no, f"unknown key {key!r} for kind {kind!r}")
        got.setdefault(key, []).append(_strategy_value(key, value, line_no))
    for key in keys:
        if key not in got:
            need = "at least one" if key == "component" else "key"
            raise GameFileError(f"kind {kind!r} requires {need} {key!r}")
    try:
        if kind == "simplex":
            return Simplex(*got["p"])
        if kind == "quantile":
            return QuantileThreshold(*got["tau"], *got["tail"])
        rows = got["values" if kind == "score" else "component"]
        return Mixture(np.vstack(rows), game.partition.private_set(*got["player"]))
    except ValueError as exc:
        raise GameFileError(str(exc)) from exc


def load_strategy(path, game: GameInstance) -> Strategy:
    with open(path) as fh:
        return parse_strategy(fh.read(), game)
