import math
import tracemalloc

import numpy as np
import pytest

import congames.quantile
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
    worst_case_objective,
)
from conftest import exp_game, random_strategy


def test_tail_weighted_mean_exponential():
    q = TailFrontier(Exponential(1.0)).q
    assert q(1.0) == pytest.approx(1.0)
    assert q(math.exp(-1)) == pytest.approx(2 * math.exp(-1))
    assert q(0.0) == 0.0
    # closed form p (1 - ln p) for the unit-rate exponential
    for p in (0.1, 0.25, 0.5, 0.75, 0.9):
        assert q(p) == pytest.approx(p * (1 - math.log(p)), rel=1e-12)


def test_tail_weighted_mean_uniform():
    q = TailFrontier(Uniform(0.0, 2.0)).q
    assert q(0.5) == pytest.approx(0.5 * 1.5)
    assert q(1.0) == pytest.approx(1.0)


def test_rejects_discontinuous():
    for dist in (PointMass(1.0), Discrete((1.0, 2.0), (0.5, 0.5)), Uniform(1.0, 1.0)):
        with pytest.raises(ValueError, match="continuous"):
            TailFrontier(dist)
        # the threshold construction refuses them before asking for a quantile
        game = GameInstance(Partition(1, 0, 1, 0), (dist, Exponential(1.0)))
        with pytest.raises(ValueError, match="continuous"):
            build_strategy_a1([0.5, 0.5], game)


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


def test_frontier_q_is_the_checked_tail_weighted_mean():
    # q is p1 * tail_mean(p1) bit for bit, and p1 is range-checked
    for dist in (Exponential(0.7), Exponential(2.0), Uniform(0.2, 3.0), Uniform(0.0, 1.0)):
        frontier = TailFrontier(dist)
        for p1 in [0.0, 1e-12, 1e-4, 0.3, 0.5, 1.0 - 1e-9, 1.0, *np.linspace(0.0, 1.0, 97).tolist()]:
            expected = p1 * dist.tail_mean(p1) if p1 > 0 else 0.0
            assert frontier.q(p1) == expected
        for bad in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError):
                frontier.q(bad)


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
    p, value, stderr = solve_a1(g, MdConfig(alpha=50.0, T=10_000), seed=2)
    assert abs(p.sum() - 1.0) <= 1e-9
    assert value >= 5.0 / 6.0 - 0.03  # observing resource 0 cannot hurt
    assert stderr == 0.0  # b == 0: the worst-case value is exact


def test_solve_a1_large_first_mean():
    g = GameInstance(
        Partition(1, 0, 2, 0),
        (Exponential(0.01), Exponential(1.0), Exponential(1.0)),
    )
    p, value, _ = solve_a1(g, MdConfig(alpha=13_000.0, T=20_000), seed=2)
    assert p[0] > 0.8  # nearly always take the observed high-mean resource
    oracle = explicit_solution([100.0, 1.0, 1.0]).value
    # subgradient steps leave a small optimization gap; allow 1 percent
    assert value >= oracle * (1.0 - 0.01)


def test_solve_a1_degenerate_matches_uninformed():
    g = GameInstance(
        Partition(1, 0, 2, 0),
        (Uniform(2.0 - 1e-6, 2.0 + 1e-6), Exponential(1.0), Exponential(1.0)),
    )
    p, value, _ = solve_a1(g, MdConfig(alpha=80.0, T=20_000), seed=2)
    oracle = explicit_solution([2.0, 1.0, 1.0]).value
    assert value == pytest.approx(oracle, abs=0.02)


def test_solve_a1_requires_a1():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    with pytest.raises(ValueError):
        solve_a1(g, MdConfig(alpha=10.0, T=10))


def test_solve_a1_refuses_games_too_wide_for_its_restriction():
    # p0 >= DEFAULT_DELTA = 1e-3 needs n < 1000; the refusal comes before any draw
    for n, ok in ((999, True), (1000, False)):
        g = exp_game([1.0] * n, (1, 0, n - 1, 0))
        if ok:
            p, _, _ = solve_a1(g, MdConfig(alpha=50.0, T=1))
            assert p.shape == (n,)
        else:
            with pytest.raises(ValueError, match="needs n < 1000"):
                solve_a1(g, MdConfig(alpha=50.0, T=1))


def test_solve_a1_stderr_matches_its_evaluation():
    # b == 1: the returned value and stderr are one Monte Carlo evaluation of
    # the frontier point of the returned p, with the run's seed
    g = exp_game([1.5, 1.0, 1.0], (1, 1, 1, 0))
    p, value, stderr = solve_a1(g, MdConfig(alpha=50.0, T=500), seed=4, n_samples=3000)
    x = p.copy()
    x[0] = TailFrontier(g.distributions[0]).q(p[0])
    assert (value, stderr) == worst_case_objective(x, g, n_samples=3000, rng=4)
    assert stderr > 0


def test_solve_a1_holds_no_round_history():
    # the run holds its T x n omega draws and one DRAW_CHUNK of them as Python
    # floats (about 0.6 MiB at n = 3), never a T x n record of its iterates
    T, n = 60_000, 3
    game = exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0))
    solve_a1(game, MdConfig(alpha=50.0, T=10), n_samples=2000)  # leave numpy's one-time allocations out
    tracemalloc.start()
    try:
        solve_a1(game, MdConfig(alpha=50.0, T=T), seed=1, n_samples=2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= T * n * 8 + 2**20


@pytest.mark.parametrize(
    "n_samples, message",
    [
        (1, "^n_samples must be >= 2 when player B observes a resource$"),
        (0, "^n_samples must be >= 2 when player B observes a resource$"),
        (2.5, "^n_samples must be an integer, got 2.5$"),
        (10**10, "^omega_max_mean run with n_samples=10000000000, n=3 needs 228882 MiB up front"),
    ],
)
def test_solve_a1_refuses_a_bad_sample_count_before_sampling(monkeypatch, n_samples, message):
    # the evaluation's own checks, with its messages, run before any round
    def no_draws(*args, **kwargs):
        raise AssertionError("solve_a1 sampled before checking its evaluation's sample count")

    monkeypatch.setattr(congames.quantile, "sample_omega", no_draws)
    with pytest.raises(ValueError, match=message):
        solve_a1(exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0)), MdConfig(alpha=50.0, T=50_000), n_samples=n_samples)
