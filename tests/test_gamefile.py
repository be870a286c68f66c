import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import congames
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
from congames.cli import main

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


def test_missing_distributions_are_counted_past_ten():
    # ten or fewer missing resources are listed; more are counted, with the
    # first ten listed
    def message(n, present):
        dists = "".join(f"dist {k}: pointmass value=1\n" for k in present)
        with pytest.raises(GameFileError) as err:
            parse_game(f"n: {n}\npartition: {n} 0 0 0\n{dists}")
        return str(err.value)

    assert message(3, [2]) == "missing distributions for resources [1, 3]"
    assert message(11, [2]) == "missing distributions for resources [1, 3, 4, 5, 6, 7, 8, 9, 10, 11]"
    assert message(13, [2, 5]) == "missing distributions for 11 resources, the first ten [1, 3, 4, 6, 7, 8, 9, 10, 11, 12]"


def test_a_game_of_a_hundred_million_missing_resources_exits_2(tmp_path):
    # run in a child whose address space is capped at 1 GiB, so that a
    # loader building a list of the 10^8 missing numbers fails there
    game, strategy = tmp_path / "game.txt", tmp_path / "strategy.txt"
    game.write_text("n: 100000000\npartition: 100000000 0 0 0\n")
    strategy.write_text("kind: simplex\np: 1\n")
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
        "from congames.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    threads = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **threads, "PYTHONPATH": str(Path(congames.__file__).parents[1])}
    argv = ["evaluate", "--game", str(game), "--strategy", str(strategy)]
    result = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True, text=True, env=env, timeout=300)
    first_ten = list(range(1, 11))
    assert (result.returncode, result.stdout) == (2, ""), result.stderr[-2000:]
    assert result.stderr == f"error: missing distributions for 100000000 resources, the first ten {first_ten}\n"
    assert len(result.stderr) < 1024


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


TWO = "n: 2\npartition: 0 0 2 0\ndist 1: exponential rate=1.0\ndist 2: exponential rate=1.0\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (TWO + "no colon\n", "line 5: expected 'key: value', got 'no colon'"),
        (TWO.replace("dist 2: exponential rate=1.0", "dist 2:"), "line 4: missing distribution kind"),
        (TWO.replace("rate=1.0\ndist 2", "rate\ndist 2"), "line 3: expected name=value, got 'rate'"),
        (TWO + "dist x: pointmass value=1\n", "line 5: resource number must be a positive integer, got 'x'"),
        (TWO + "dist 0: pointmass value=1\n", "line 5: resource number must be a positive integer, got '0'"),
        (TWO.replace("n: 2\n", ""), "missing required key 'n'"),
        (TWO.replace("partition: 0 0 2 0\n", ""), "missing required key 'partition'"),
        (TWO + "z: 1.0\n", "z must have length d=0, got 1"),
        (TWO.replace("0 0 2 0", "0 0 1 1") + "z: inf\n", "conditional means must be finite and non-negative"),
        (TWO.replace("0 0 2 0", "0 0 1 1") + "z: nan\n", "conditional means must be finite and non-negative"),
    ],
)
def test_game_file_refusals(text, message):
    with pytest.raises(GameFileError) as caught:
        parse_game(text)
    assert str(caught.value) == message


def test_a_game_file_with_an_infinite_rate_exits_2_naming_its_line(tmp_path, capsys):
    # an infinite rate would load as a point mass at 0
    game, strategy = tmp_path / "game.txt", tmp_path / "strategy.txt"
    game.write_text("n: 1\npartition: 0 0 1 0\ndist 1: exponential rate=inf\n")
    strategy.write_text("kind: simplex\np: 1\n")
    assert main(["evaluate", "--game", str(game), "--strategy", str(strategy)]) == 2
    assert capsys.readouterr() == ("", "error: line 3: rate must be positive and finite, got inf\n")


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


GAME_BASE = "n: 2\npartition: 0 0 2 0\ndist 1: exponential rate=1.0\ndist 2: exponential rate=1.0\n"


def _with_line(text, line_no, line):
    lines = text.splitlines()
    lines[line_no - 1] = line
    return "\n".join(lines) + "\n"


# the exact message of each fault; a file with two faults reports the one
# on the earlier line
@pytest.mark.parametrize(
    "game_text, message",
    [
        (_with_line(GAME_BASE, 3, "dist 1: exponential rate=1,2"), "line 3: parameter 'rate' must be a number"),
        (
            _with_line(GAME_BASE, 3, "dist 1: discrete values=1,x probs=0.5,0.5"),
            "line 3: parameter 'values' must be comma-separated numbers",
        ),
        (_with_line(GAME_BASE, 1, "n: -1"), "partition sizes sum to 2, but n is -1"),
        (_with_line(GAME_BASE, 1, "n: x") + "bogus: 1\n", "line 1: n must be an integer, got 'x'"),
        (_with_line(GAME_BASE, 2, "partition: 0 0 0 0"), "line 2: partition must contain at least one resource"),
        (GAME_BASE + "dist 01: exponential rate=2.0\n", "line 5: duplicate distribution for resource 1"),
    ],
)
def test_game_error_messages(game_text, message):
    with pytest.raises(GameFileError) as err:
        parse_game(game_text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("kind: simplex\np: 1 0 0\np: 1 0 0\n", "line 3: duplicate key 'p' (first at line 2)"),
        ("kind: simplex\nkind: simplex\np: 1 0 0\n", "line 2: duplicate key 'kind' (first at line 1)"),
        ("kind: mixture\nplayer: A\ncomponent: 1 0 0\nplayer: B\n", "line 4: duplicate key 'player' (first at line 2)"),
        (
            "kind: score\nplayer: A\nvalues: 1 0 0\ncomponent: 1 0 0\n",
            "line 4: unknown key 'component' for kind 'score'",
        ),
        ("kind: quantile\ntau: x\ntail: 0.6 0.4\n", "line 2: tau must be a number, got 'x'"),
        ("kind: simplex\nextra: 1\np: 1 x 0\n", "line 2: unknown key 'extra' for kind 'simplex'"),
        ("kind: quantile\ntail: 0.6 x\ntau: y\n", "line 2: tail must be a list of numbers, got '0.6 x'"),
        ("kind: wavelet\n", "line 1: unknown strategy kind 'wavelet'"),
    ],
)
def test_strategy_error_messages(text, message):
    with pytest.raises(GameFileError) as err:
        parse_strategy(text, parse_game(GAME_TEXT))
    assert str(err.value) == message
