import numpy as np
import pytest

from congames import (
    Discrete,
    Exponential,
    GameFileError,
    Mixture,
    PointMass,
    QuantileThreshold,
    Simplex,
    Uniform,
    load_game,
    parse_game,
    parse_strategy,
)

GAME_TEXT = """
# three resources, A sees 1, B sees 2
n: 3
partition: 1 1 1 0
dist 1: exponential rate=0.5
dist 2: uniform lo=0.0 hi=2.0
dist 3: pointmass value=1.5
"""


def test_parse_game_round_trip():
    g = parse_game(GAME_TEXT)
    assert g.partition.a == 1 and g.partition.b == 1 and g.partition.c == 1
    assert isinstance(g.distributions[0], Exponential)
    assert isinstance(g.distributions[1], Uniform)
    assert isinstance(g.distributions[2], PointMass)
    np.testing.assert_allclose(g.means, [2.0, 1.0, 1.5])


def test_parse_game_discrete_and_z():
    text = """
    n: 2
    partition: 0 0 1 1
    dist 1: discrete values=1,3 probs=0.5,0.5
    dist 2: exponential rate=1.0
    z: 0.7
    """
    g = parse_game(text)
    assert isinstance(g.distributions[0], Discrete)
    np.testing.assert_allclose(g.z, [0.7])
    np.testing.assert_allclose(g.means, [2.0, 0.7])


def test_missing_z_sampled_with_rng():
    text = "n: 1\npartition: 0 0 0 1\ndist 1: exponential rate=1.0\n"
    with pytest.raises(GameFileError, match="rng"):
        parse_game(text)
    g1 = parse_game(text, rng=5)
    g2 = parse_game(text, rng=5)
    np.testing.assert_array_equal(g1.z, g2.z)


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ("nonsense: 1", "unknown key"),
        ("dist 9: exponential rate=1.0", "nonexistent"),
        ("partition: 1 1", "four non-negative integers"),
        ("dist 1: gaussian mu=0", "unknown distribution kind"),
        ("dist 1: exponential", "needs parameter"),
        ("dist 1: exponential rate=1.0 foo=2", "unknown exponential parameters"),
        ("n: x", "must be an integer"),
    ],
)
def test_parse_game_errors(mutation, fragment):
    base = "n: 2\npartition: 0 0 2 0\ndist 1: exponential rate=1.0\ndist 2: exponential rate=1.0\n"
    if mutation.split(":")[0] in ("n", "partition", "dist 1"):
        text = "\n".join(
            mutation if line.startswith(mutation.split(":")[0] + ":") else line
            for line in base.splitlines()
        )
    else:
        text = base + mutation + "\n"
    with pytest.raises(GameFileError, match=fragment):
        parse_game(text)


def test_error_reports_line_number():
    text = "n: 2\npartition: 0 0 2 0\ndist 1: exponential rate=1.0\nbogus: 3\ndist 2: exponential rate=1.0\n"
    with pytest.raises(GameFileError, match="line 4"):
        parse_game(text)


def test_duplicate_key_rejected():
    text = "n: 2\nn: 3\npartition: 0 0 2 0\ndist 1: exponential rate=1\ndist 2: exponential rate=1\n"
    with pytest.raises(GameFileError, match="duplicate"):
        parse_game(text)


def test_partition_sum_mismatch():
    text = "n: 3\npartition: 0 0 2 0\ndist 1: exponential rate=1\ndist 2: exponential rate=1\ndist 3: exponential rate=1\n"
    with pytest.raises(GameFileError, match="sum"):
        parse_game(text)


def test_load_game_from_file(tmp_path):
    path = tmp_path / "game.txt"
    path.write_text(GAME_TEXT)
    g = load_game(path)
    assert g.n == 3


def test_parse_strategies():
    g = parse_game(GAME_TEXT)
    s = parse_strategy("kind: simplex\np: 0.5 0.25 0.25\n", g)
    assert isinstance(s, Simplex)

    s = parse_strategy("kind: score\nplayer: A\nvalues: 1.0 0.7 0.75\n", g)
    assert isinstance(s, Mixture)  # a score file is a one-component mixture
    np.testing.assert_array_equal(s.values, [[1.0, 0.7, 0.75]])
    np.testing.assert_array_equal(s.private, [0])

    s = parse_strategy("kind: score\nplayer: B\nvalues: 1.0 0.7 0.75\n", g)
    np.testing.assert_array_equal(s.private, [1])

    s = parse_strategy("kind: quantile\ntau: 0.69\ntail: 0.6 0.4\n", g)
    assert isinstance(s, QuantileThreshold)

    s = parse_strategy(
        "kind: mixture\nplayer: A\ncomponent: 1 0.5 0.2\ncomponent: 0 1 0\n", g
    )
    assert isinstance(s, Mixture)
    assert len(s) == 2


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("p: 0.5 0.5 0\n", "missing required key 'kind'"),
        ("kind: simplex\n", "requires key 'p'"),
        ("kind: simplex\np: 0.5 0.6 0\n", "probability vector"),
        ("kind: simplex\np: nan 1 0\n", "probability vector"),
        ("kind: score\nvalues: 1 1 1\n", "requires key 'player'"),
        ("kind: score\nplayer: Q\nvalues: 1 1 1\n", "player must be A or B"),
        ("kind: simplex\np: 0.5 0.5 0\nextra: 1\n", "unknown key"),
        ("kind: mixture\nplayer: A\n", "at least one 'component'"),
        ("kind: wavelet\n", "unknown strategy kind"),
    ],
)
def test_parse_strategy_errors(text, fragment):
    g = parse_game(GAME_TEXT)
    with pytest.raises(GameFileError, match=fragment):
        parse_strategy(text, g)
