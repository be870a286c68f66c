import math

import numpy as np
import pytest

from congames import (
    Discrete,
    Exponential,
    GameInstance,
    MdConfig,
    Partition,
    PointMass,
    TailFrontier,
    Uniform,
    build_strategy_a1,
    estimate_stats,
    explicit_solution,
    solve_a1,
    tail_weighted_mean,
    worst_case_objective,
)
from conftest import exp_game, random_strategy


def test_tail_weighted_mean_exponential():
    d = Exponential(1.0)
    assert tail_weighted_mean(d, 1.0) == pytest.approx(1.0)
    assert tail_weighted_mean(d, math.exp(-1)) == pytest.approx(2 * math.exp(-1))
    assert tail_weighted_mean(d, 0.0) == 0.0
    # closed form p (1 - ln p) for the unit-rate exponential
    for p in (0.1, 0.25, 0.5, 0.75, 0.9):
        assert tail_weighted_mean(d, p) == pytest.approx(p * (1 - math.log(p)), rel=1e-12)


def test_tail_weighted_mean_uniform():
    d = Uniform(0.0, 2.0)
    assert tail_weighted_mean(d, 0.5) == pytest.approx(0.5 * 1.5)
    assert tail_weighted_mean(d, 1.0) == pytest.approx(1.0)


def test_rejects_discontinuous():
    with pytest.raises(ValueError):
        tail_weighted_mean(PointMass(1.0), 0.5)
    with pytest.raises(ValueError):
        tail_weighted_mean(Discrete((1.0, 2.0), (0.5, 0.5)), 0.5)
    with pytest.raises(ValueError):
        TailFrontier(PointMass(1.0))


def test_frontier_shape():
    for dist in (Exponential(0.7), Uniform(0.2, 3.0)):
        frontier = TailFrontier(dist)
        grid = np.linspace(0.0, 1.0, 101)
        qs = np.array([frontier.q(float(p)) for p in grid])
        assert qs[0] == 0.0
        assert qs[-1] == pytest.approx(dist.mean)
        assert np.all(qs <= dist.mean + 1e-12)
        assert np.all(np.diff(qs) >= -1e-12)  # non-decreasing
        mid = 0.5 * (qs[:-2] + qs[2:])
        assert np.all(qs[1:-1] >= mid - 1e-9)  # concave on the grid


def test_build_strategy_examples():
    g = exp_game([1.0, 1.0, 1.0], (1, 0, 2, 0))
    s = build_strategy_a1([0.5, 0.3, 0.2], g)
    assert s.tau == pytest.approx(math.log(2.0))
    np.testing.assert_allclose(s.tail, [0.6, 0.4])

    s_all = build_strategy_a1([1.0, 0.0, 0.0], g)
    assert s_all.tau == 0.0  # threshold below the support: always resource 0
    stats = estimate_stats(s_all, g, "A", n_samples=50_000, rng=1)
    np.testing.assert_allclose(stats.p, [1.0, 0.0, 0.0])
    assert stats.q[0] == pytest.approx(1.0, abs=0.02)


def test_build_strategy_requires_a1():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    with pytest.raises(ValueError):
        build_strategy_a1([0.5, 0.5], g)


def test_built_strategy_meets_frontier():
    g = exp_game([1.0, 1.0, 1.0], (1, 0, 2, 0))
    frontier = TailFrontier(g.distributions[0])
    for p0 in (0.25, 0.5, 0.75):
        target = np.array([p0, 0.6 * (1 - p0), 0.4 * (1 - p0)])
        s = build_strategy_a1(target, g)
        stats = estimate_stats(s, g, "A", n_samples=1_000_000, rng=17)
        p_err = 3.0 / math.sqrt(1_000_000)
        np.testing.assert_allclose(stats.p, target, atol=4 * p_err)
        stderr_q = math.sqrt(frontier.dist.second_moment / 1_000_000)
        assert stats.q[0] == pytest.approx(frontier.q(p0), abs=3 * stderr_q)


def test_frontier_dominates_random_strategies(rng):
    g = exp_game([1.0, 1.0, 1.0], (1, 0, 2, 0))
    frontier = TailFrontier(g.distributions[0])
    n_samples = 40_000
    for _ in range(60):
        s = random_strategy(g, "A", rng, kinds=("simplex", "score", "mixture", "quantile"))
        stats = estimate_stats(s, g, "A", n_samples=n_samples, rng=int(rng.integers(2**31)))
        stderr = math.sqrt(frontier.dist.second_moment / n_samples)
        assert stats.q[0] <= frontier.q(stats.p[0]) + 4 * stderr


def test_solve_a1_symmetric_beats_uninformed():
    g = exp_game([1.0, 1.0, 1.0], (1, 0, 2, 0))
    p, value, stderr = solve_a1(g, MdConfig(alpha=50.0, T=10_000, seed=2))
    assert abs(p.sum() - 1.0) <= 1e-9
    assert value >= 5.0 / 6.0 - 0.03  # observing resource 0 cannot hurt
    assert stderr == 0.0  # b == 0: the worst-case value is exact


def test_solve_a1_large_first_mean():
    g = GameInstance(
        Partition(1, 0, 2, 0),
        (Exponential(0.01), Exponential(1.0), Exponential(1.0)),
    )
    p, value, _ = solve_a1(g, MdConfig(alpha=13_000.0, T=20_000, seed=2))
    assert p[0] > 0.8  # nearly always take the observed high-mean resource
    oracle = explicit_solution([100.0, 1.0, 1.0]).value
    # subgradient steps leave a small optimization gap; allow 1 percent
    assert value >= oracle * (1.0 - 0.01)


def test_solve_a1_degenerate_matches_uninformed():
    g = GameInstance(
        Partition(1, 0, 2, 0),
        (Uniform(2.0 - 1e-6, 2.0 + 1e-6), Exponential(1.0), Exponential(1.0)),
    )
    p, value, _ = solve_a1(g, MdConfig(alpha=80.0, T=20_000, seed=2))
    oracle = explicit_solution([2.0, 1.0, 1.0]).value
    assert value == pytest.approx(oracle, abs=0.02)


def test_solve_a1_requires_a1():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    with pytest.raises(ValueError):
        solve_a1(g, MdConfig(alpha=10.0, T=10))


def test_solve_a1_stderr_matches_its_evaluation():
    # b == 1: the returned value and stderr are one Monte Carlo evaluation of
    # the frontier point of the returned p, with the run's seed
    g = exp_game([1.5, 1.0, 1.0], (1, 1, 1, 0))
    p, value, stderr = solve_a1(g, MdConfig(alpha=50.0, T=500, seed=4), n_eval_samples=3000)
    x = p.copy()
    x[0] = TailFrontier(g.distributions[0]).q(p[0])
    assert (value, stderr) == worst_case_objective(x, g, n_samples=3000, rng=4, with_error=True)
    assert stderr > 0
