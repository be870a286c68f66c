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
"""

from __future__ import annotations

import numpy as np

from .distributions import Discrete, Exponential, PointMass, RewardDistribution, Uniform
from .game import GameInstance, Partition
from .rng import as_generator
from .strategies import Mixture, QuantileThreshold, Simplex, Strategy

__all__ = ["GameFileError", "load_game", "parse_game", "load_strategy", "parse_strategy"]


class GameFileError(ValueError):
    """Malformed game or strategy file; message carries the line number."""


def _fail(line_no, msg):
    raise GameFileError(f"line {line_no}: {msg}")


def _entries(text: str):
    """Yield (line_no, key, value) for every non-comment line."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            _fail(line_no, f"expected 'key: value', got {raw.strip()!r}")
        key, value = line.split(":", 1)
        yield line_no, " ".join(key.split()).lower(), value.strip()


def _floats(value, line_no, what):
    try:
        return np.array([float(tok) for tok in value.split()], dtype=float)
    except ValueError:
        _fail(line_no, f"{what} must be a list of numbers, got {value!r}")


def _parse_params(value, line_no):
    tokens = value.split()
    if not tokens:
        _fail(line_no, "missing distribution kind")
    kind, params = tokens[0].lower(), {}
    for tok in tokens[1:]:
        if "=" not in tok:
            _fail(line_no, f"expected name=value, got {tok!r}")
        name, raw = tok.split("=", 1)
        params[name.lower()] = raw
    return kind, params


def _parse_distribution(value, line_no) -> RewardDistribution:
    kind, params = _parse_params(value, line_no)

    def num(name):
        if name not in params:
            _fail(line_no, f"{kind} needs parameter {name!r}")
        try:
            return float(params.pop(name))
        except ValueError:
            _fail(line_no, f"parameter {name!r} must be a number")

    def numlist(name):
        if name not in params:
            _fail(line_no, f"{kind} needs parameter {name!r}")
        try:
            return tuple(float(tok) for tok in params.pop(name).split(","))
        except ValueError:
            _fail(line_no, f"parameter {name!r} must be comma-separated numbers")

    try:
        if kind == "exponential":
            dist = Exponential(rate=num("rate"))
        elif kind == "uniform":
            dist = Uniform(lo=num("lo"), hi=num("hi"))
        elif kind == "pointmass":
            dist = PointMass(value=num("value"))
        elif kind == "discrete":
            dist = Discrete(values=numlist("values"), probs=numlist("probs"))
        else:
            _fail(line_no, f"unknown distribution kind {kind!r}")
    except GameFileError:
        raise
    except ValueError as exc:
        _fail(line_no, str(exc))
    if params:
        _fail(line_no, f"unknown {kind} parameters: {sorted(params)}")
    return dist


def parse_game(text: str, rng=None) -> GameInstance:
    """Build a GameInstance from game-file text (see module docstring)."""
    n = None
    partition = None
    dists: dict[int, RewardDistribution] = {}
    z = None
    first_line = {}

    for line_no, key, value in _entries(text):
        if key in first_line:
            _fail(line_no, f"duplicate key {key!r} (first at line {first_line[key]})")
        first_line[key] = line_no
        if key == "n":
            try:
                n = int(value)
            except ValueError:
                _fail(line_no, f"n must be an integer, got {value!r}")
        elif key == "partition":
            sizes = value.split()
            if len(sizes) != 4 or not all(tok.isdigit() for tok in sizes):
                _fail(line_no, "partition must be four non-negative integers 'a b c d'")
            partition = Partition(*(int(tok) for tok in sizes))
        elif key.startswith("dist "):
            tok = key[5:]
            if not tok.isdigit() or int(tok) < 1:
                _fail(line_no, f"resource number must be a positive integer, got {tok!r}")
            dists[int(tok)] = _parse_distribution(value, line_no)
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
    missing = [k for k in range(1, n + 1) if k not in dists]
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


def parse_strategy(text: str, game: GameInstance) -> Strategy:
    """Build a Strategy from strategy-file text for the given game."""
    kind = None
    fields: list[tuple[int, str, str]] = []
    for line_no, key, value in _entries(text):
        if key == "kind":
            if kind is not None:
                _fail(line_no, "duplicate 'kind'")
            kind = value.lower()
        else:
            fields.append((line_no, key, value))
    if kind is None:
        raise GameFileError("missing required key 'kind'")

    def single(name, allowed):
        got = {}
        for line_no, key, value in fields:
            if key not in allowed:
                _fail(line_no, f"unknown key {key!r} for kind {kind!r}")
            if key in got:
                _fail(line_no, f"duplicate key {key!r}")
            got[key] = (line_no, value)
        for req in name:
            if req not in got:
                raise GameFileError(f"kind {kind!r} requires key {req!r}")
        return got

    def private_for(got):
        line_no, player = got["player"]
        player = player.upper()
        if player not in ("A", "B"):
            _fail(line_no, f"player must be A or B, got {player!r}")
        return game.partition.private_set(player)

    try:
        if kind == "simplex":
            got = single(("p",), {"p"})
            return Simplex(_floats(got["p"][1], got["p"][0], "p"))
        if kind == "score":
            got = single(("player", "values"), {"player", "values"})
            values = _floats(got["values"][1], got["values"][0], "values")
            return Mixture(values[np.newaxis], private_for(got))
        if kind == "quantile":
            got = single(("tau", "tail"), {"tau", "tail"})
            line_no, raw = got["tau"]
            try:
                tau = float(raw)
            except ValueError:
                _fail(line_no, f"tau must be a number, got {raw!r}")
            return QuantileThreshold(tau, _floats(got["tail"][1], got["tail"][0], "tail"))
        if kind == "mixture":
            private = None
            components = []
            seen_player = False
            for line_no, key, value in fields:
                if key == "player":
                    if seen_player:
                        _fail(line_no, "duplicate key 'player'")
                    seen_player = True
                    private = private_for({"player": (line_no, value)})
                elif key == "component":
                    components.append(_floats(value, line_no, "component"))
                else:
                    _fail(line_no, f"unknown key {key!r} for kind 'mixture'")
            if private is None:
                raise GameFileError("kind 'mixture' requires key 'player'")
            if not components:
                raise GameFileError("kind 'mixture' requires at least one 'component'")
            return Mixture(np.vstack(components), private)
        raise GameFileError(f"unknown strategy kind {kind!r}")
    except GameFileError:
        raise
    except ValueError as exc:
        raise GameFileError(str(exc)) from exc


def load_strategy(path, game: GameInstance) -> Strategy:
    with open(path) as fh:
        return parse_strategy(fh.read(), game)
