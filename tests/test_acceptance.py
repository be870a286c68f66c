"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Tolerances and runtime limits are fixed here, not
tuned at runtime.
"""

import math
import time

import numpy as np
import pytest

from congames import (
    DppConfig,
    Exponential,
    GameInstance,
    MdConfig,
    Partition,
    Simplex,
    TailFrontier,
    bound_constants,
    build_strategy_a1,
    estimate_stats,
    expected_utility,
    explicit_solution,
    iterate_best_response,
    md_error_bound,
    no_info_objective,
    potential,
    run_dpp,
    run_md,
    simulate_payoff,
    worst_case_objective,
    worst_case_utility,
)
from congames.game import sample_omega
from congames.nash import iteration_cap
from conftest import exp_game, random_stats, random_strategy, simplex_grid


def test_criterion_01_explicit_oracle_equivalence():
    start = time.perf_counter()
    gen = np.random.default_rng(101)
    for _ in range(200):
        n = int(gen.integers(2, 5))
        means = gen.uniform(0.1, 5.0, n)
        sol = explicit_solution(means)
        grid = simplex_grid(n, 100)
        loads = grid * means
        grid_best = float(np.max(loads.sum(axis=1) - 0.5 * loads.max(axis=1)))
        assert sol.value >= grid_best - 2e-2
    assert time.perf_counter() - start < 10.0


def test_criterion_02_point_checks_exact():
    sol = explicit_solution([2.0, 1.0])
    assert abs(sol.p[0] - 1.0) <= 1e-12 and abs(sol.p[1]) <= 1e-12
    assert abs(sol.value - 1.0) <= 1e-12
    assert abs(no_info_objective([1.0 / 3.0, 2.0 / 3.0], [2.0, 1.0]) - 1.0) <= 1e-12


def test_criterion_03_dpp_convergence_at_reference_parameters():
    start = time.perf_counter()
    g = exp_game([1.0, 1.0, 1.0], (0, 0, 3, 0))
    cfg = DppConfig(V=200.0, alpha=4.0e4, T=100_000)
    mixture, diag = run_dpp(g, cfg, seed=0)
    stats = estimate_stats(mixture, g, "A", n_samples=1)  # exact: a = b = 0
    value, _ = worst_case_objective(stats.p, g)  # exact: b = 0
    optimum = 5.0 / 6.0
    assert abs(value - optimum) <= 0.05
    assert value >= optimum - bound_constants(g, cfg).error_bound
    assert diag.violations == 0
    assert time.perf_counter() - start < 120.0


def test_criterion_04_queue_bound_twenty_seeded_runs():
    start = time.perf_counter()
    partitions = [(0, 0, 3, 0), (0, 1, 2, 0), (1, 1, 1, 0), (1, 0, 1, 1)]
    params = [(5.0, 25.0), (20.0, 400.0), (200.0, 4.0e4), (10.0, 1.0e4), (50.0, 2500.0)]
    for seed in range(20):
        partition = partitions[seed % len(partitions)]
        V, alpha = params[seed % len(params)]
        means = [1.0 + 0.2 * (seed % 5), 1.0, 0.5 + 0.1 * (seed % 3)]
        dists = tuple(Exponential(1.0 / m) for m in means)
        g = GameInstance(Partition(*partition), dists, z=np.ones(partition[3]))
        cfg = DppConfig(V=V, alpha=alpha, T=5_000)
        assert cfg.guarantee_holds
        _, diag = run_dpp(g, cfg, seed)
        assert diag.violations == 0
    assert time.perf_counter() - start < 120.0


def test_criterion_05_mirror_descent_bound():
    start = time.perf_counter()
    g = exp_game([1.0, 1.0, 1.0], (0, 0, 3, 0))
    cfg = MdConfig(alpha=50.0, T=10_000)
    p = run_md(g, cfg, seed=0)
    value, _ = worst_case_objective(p, g)  # exact: b = 0, so stderr = 0
    bound = md_error_bound(g, cfg)
    assert bound == pytest.approx(2.5 / 100.0 + 50.0 * math.log(3.0) / 10_000.0)
    assert value >= 5.0 / 6.0 - bound
    assert time.perf_counter() - start < 5.0


def test_criterion_06_nash_scenario_one():
    epsilon = 1e-3
    for e1 in (0.4, 0.8, 1.2, 1.6, 2.0, 2.4):
        start = time.perf_counter()
        g = exp_game([e1, 1.0, 1.0], (0, 0, 3, 0))
        report = iterate_best_response(g, epsilon)
        assert report.converged
        hs = [t.potential for t in report.trace]
        assert all(b >= a for a, b in zip(hs, hs[1:]))  # exact stats: no slack
        assert report.iterations <= iteration_cap(g, epsilon)
        if e1 >= 2.0:
            assert np.array_equal(report.stats_a.p, [1.0, 0.0, 0.0])
            assert np.array_equal(report.stats_b.p, [1.0, 0.0, 0.0])
        assert time.perf_counter() - start < 10.0


def test_criterion_07_potential_identity_and_bound():
    g = exp_game([1.3, 0.8, 2.1], (1, 1, 1, 0))
    part = g.partition
    means = g.means
    gen = np.random.default_rng(107)
    for _ in range(100):
        sa = random_stats(g, "A", gen)
        sb = random_stats(g, "B", gen)
        h = potential(sa, sb, g)
        ua = expected_utility(sa, sb, g, "A")
        b_standalone = float(np.dot(means[part.b_comp], sb.p[part.b_comp]) + sb.q.sum())
        assert abs(h - (ua + b_standalone)) <= 1e-9
        assert h <= 2.0 * means.sum() + 1e-9


def test_criterion_08_objective_property_suite():
    start = time.perf_counter()
    gen = np.random.default_rng(108)

    def check(game, n_pairs, omegas, stderr):
        part = game.partition
        means = game.means
        weights = means.copy()
        weights[part.set_a] = 1.0
        upper = np.ones(game.n)
        upper[part.set_a] = means[part.set_a]

        def value(x):
            return float(np.dot(weights, x) - 0.5 * np.max(omegas * x, axis=1).mean())

        for _ in range(n_pairs):
            x = gen.uniform(0, upper)
            y = gen.uniform(0, upper)
            lam = float(gen.uniform(0.05, 0.95))
            fx, fy = value(x), value(y)
            assert value(lam * x + (1 - lam) * y) >= lam * fx + (1 - lam) * fy - 5 * stderr - 1e-12
            assert value(np.maximum(x, y)) >= fx - 5 * stderr - 1e-12
            lip = 1.5 * np.abs(x - y)[part.set_a].sum() + 1.5 * float(
                np.dot(means[part.a_comp], np.abs(x - y)[part.a_comp])
            )
            assert abs(fx - fy) <= lip + 5 * stderr

    g_exact = exp_game([1.2, 0.9, 2.0], (1, 0, 2, 0))
    check(g_exact, 250, g_exact.weights[None, :], 0.0)

    g_mc = exp_game([1.2, 0.9, 2.0], (1, 1, 1, 0))
    omegas = sample_omega(g_mc, 1080, size=20_000)
    stderr = 0.5 * float(np.max(omegas, axis=1).std(ddof=1) / math.sqrt(omegas.shape[0]))
    check(g_mc, 250, omegas, stderr)
    assert time.perf_counter() - start < 30.0


def test_criterion_09_tail_frontier():
    start = time.perf_counter()
    g = exp_game([1.0, 1.0, 1.0], (1, 0, 2, 0))
    frontier = TailFrontier(g.distributions[0])
    gen = np.random.default_rng(109)

    # 500 random strategies never beat the frontier
    n_samples = 20_000
    stderr = math.sqrt(g.distributions[0].second_moment / n_samples)
    for _ in range(500):
        s = random_strategy(g, "A", gen, kinds=("simplex", "score", "mixture", "quantile"))
        stats = estimate_stats(s, g, "A", n_samples=n_samples, rng=int(gen.integers(2**31)))
        assert stats.q[0] <= frontier.q(stats.p[0]) + 4 * stderr

    # built threshold strategies achieve it, and the closed form matches MC
    big = 1_000_000
    stderr_big = math.sqrt(g.distributions[0].second_moment / big)
    for p0 in (0.25, 0.5, 0.75):
        target = np.array([p0, 0.5 * (1 - p0), 0.5 * (1 - p0)])
        s = build_strategy_a1(target, g)
        stats = estimate_stats(s, g, "A", n_samples=big, rng=int(gen.integers(2**31)))
        closed = p0 * (1.0 - math.log(p0))  # unit-rate exponential frontier
        assert frontier.q(p0) == pytest.approx(closed, rel=1e-12)
        assert stats.q[0] == pytest.approx(closed, abs=3 * stderr_big)
    assert time.perf_counter() - start < 60.0


def test_criterion_10_simulation_matches_formula():
    gen = np.random.default_rng(110)
    pairs = 0
    for partition in ((0, 0, 3, 0), (0, 1, 2, 0), (1, 1, 1, 0)):
        g = exp_game([1.4, 1.0, 0.7], partition)
        for _ in range(7):
            sa = random_strategy(g, "A", gen)
            sb = random_strategy(g, "B", gen)
            seed = int(gen.integers(2**31))
            stats_a = estimate_stats(sa, g, "A", n_samples=100_000, rng=seed)
            stats_b = estimate_stats(sb, g, "B", n_samples=100_000, rng=seed)
            analytic = expected_utility(stats_a, stats_b, g, "A")
            mean, stderr = simulate_payoff(sa, sb, g, n_samples=100_000, rng=seed)
            assert abs(mean - analytic) <= 4 * stderr + 1e-9
            pairs += 1
    assert pairs >= 20
