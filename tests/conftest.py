import numpy as np
import pytest

from congames import (
    Exponential,
    GameInstance,
    Partition,
    Mixture,
    QuantileThreshold,
    Simplex,
    StrategyStats,
)


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[ACCEPTANCE] {name}: {status} ({report.duration:.1f}s)")


def exp_game(means, partition) -> GameInstance:
    """Game with exponential rewards of the given means."""
    return GameInstance(
        Partition(*partition), tuple(Exponential(1.0 / m) for m in means)
    )


def random_simplex(n, rng):
    return rng.dirichlet(np.ones(n))


def random_stats(game, player, rng) -> StrategyStats:
    """A valid (p, q) pair: p on the simplex, 0 <= q_k <= E_k."""
    private = game.partition.private_set(player)
    p = random_simplex(game.n, rng)
    q = rng.uniform(0.0, game.means[private] * p[private])
    return StrategyStats(player, p, q)


def random_strategy(game, player, rng, kinds=("simplex", "score", "mixture")):
    """Random strategy of a random kind valid for ``player``."""
    private = game.partition.private_set(player)
    kind = kinds[rng.integers(len(kinds))]
    if kind == "simplex":
        return Simplex(random_simplex(game.n, rng))
    if kind == "score":  # one-row mixture: deterministic given the observation
        return Mixture(rng.uniform(0.05, 2.0, (1, game.n)), private)
    if kind == "mixture":
        rows = rng.integers(2, 5)
        return Mixture(rng.uniform(0.05, 2.0, (rows, game.n)), private)
    if kind == "quantile":
        dist = game.distributions[0]
        tau = dist.quantile(float(rng.uniform(0.05, 0.95)))
        return QuantileThreshold(tau, random_simplex(game.n - 1, rng))
    raise ValueError(kind)


_GRID_CACHE = {}


def simplex_grid(n, steps=100):
    """All simplex points with coordinates that are multiples of 1/steps."""
    key = (n, steps)
    if key not in _GRID_CACHE:
        if n == 1:
            grid = np.ones((1, 1))
        else:
            axes = [np.arange(steps + 1)] * (n - 1)
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n - 1)
            mesh = mesh[mesh.sum(axis=1) <= steps]
            last = steps - mesh.sum(axis=1)
            grid = np.column_stack([mesh, last]) / steps
        _GRID_CACHE[key] = grid
    return _GRID_CACHE[key]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
