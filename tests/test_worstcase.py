import numpy as np
import pytest

from congames import (
    McConfig,
    Simplex,
    StrategyStats,
    estimate_stats,
    no_info_objective,
    worst_case_objective,
    worst_case_response,
    worst_case_utility,
)
from congames.strategies import act
from congames.worstcase import omega_max_mean
from conftest import exp_game, random_simplex, random_strategy


def test_worst_case_response_all_shared():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    br = worst_case_response(StrategyStats("A", [1.0, 0.0], []), g)
    np.testing.assert_allclose(br.values, [[1.0, 0.0]])  # one deterministic row
    assert act(br, []) == 0  # adversary collides on A's resource


def test_worst_case_response_mixed_blocks():
    g = exp_game([1.0, 1.0], (1, 0, 1, 0))
    br = worst_case_response(StrategyStats("A", [0.1, 0.9], [0.2]), g)
    np.testing.assert_allclose(br.values, [[0.2, 0.9]])
    assert act(br, []) == 1


def test_worst_case_response_tie_goes_low():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    br = worst_case_response(StrategyStats("A", [0.5, 0.5], []), g)
    assert act(br, []) == 0


def test_worst_case_response_needs_a_stats():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    with pytest.raises(ValueError):
        worst_case_response(StrategyStats("B", [0.5, 0.5], []), g)


def test_objective_examples():
    g = exp_game([2.0, 1.0], (0, 0, 2, 0))
    assert worst_case_objective(np.array([1.0, 0.0]), g) == pytest.approx(1.0)
    assert worst_case_objective(np.zeros(2), g) == pytest.approx(0.0)
    g3 = exp_game([1.0, 1.0, 1.0], (0, 0, 3, 0))
    assert worst_case_objective(np.full(3, 1 / 3), g3) == pytest.approx(5.0 / 6.0)


def test_objective_rejects_negative():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    with pytest.raises(ValueError):
        worst_case_objective(np.array([-0.1, 0.5]), g)


def test_worst_case_utility_examples():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    assert worst_case_utility(Simplex([1.0, 0.0]), g).value == pytest.approx(0.5)
    assert worst_case_utility(Simplex([0.5, 0.5]), g).value == pytest.approx(0.75)
    g211 = exp_game([2.0, 1.0, 1.0], (0, 0, 3, 0))
    assert worst_case_utility(Simplex([1.0, 0.0, 0.0]), g211).value == pytest.approx(1.0)


def test_eval_fields_consistent():
    g = exp_game([1.0, 2.0, 0.5], (0, 1, 2, 0))
    ev = worst_case_utility(Simplex([0.2, 0.5, 0.3]), g, McConfig(n_samples=20_000, seed=3))
    stats = estimate_stats(Simplex([0.2, 0.5, 0.3]), g, "A", 20_000, rng=3)
    base = float(np.dot(g.means, stats.p))
    assert ev.value == pytest.approx(base - 0.5 * ev.lambda_max_mean, abs=1e-12)
    assert ev.stderr > 0


def test_matches_no_info_objective_when_symmetric():
    # a = b = 0: worst-case utility of a simplex equals the closed objective
    gen = np.random.default_rng(12)
    g = exp_game([1.7, 0.6, 1.1], (0, 0, 3, 0))
    for _ in range(20):
        p = random_simplex(3, gen)
        wc = worst_case_utility(Simplex(p), g).value
        assert wc == pytest.approx(no_info_objective(p, g.means), abs=1e-12)


def test_stats_simplex_feasibility_when_a_zero(rng):
    g = exp_game([1.0, 1.5, 0.5], (0, 1, 2, 0))
    for _ in range(10):
        s = random_strategy(g, "A", rng)
        stats = estimate_stats(s, g, "A", n_samples=10_000, rng=rng.integers(2**31))
        assert abs(stats.p.sum() - 1.0) <= 1e-6
        assert np.all(stats.p >= 0)


def _objective_with_shared_draws(x, base_weights, omegas):
    return float(np.dot(base_weights, x) - 0.5 * np.max(omegas * x, axis=1).mean())


def test_concavity_monotonicity_lipschitz_exact_b0(rng):
    g = exp_game([1.2, 0.9, 2.0], (1, 0, 2, 0))
    means = g.means
    upper = np.array([means[0], 1.0, 1.0])
    for _ in range(50):
        x = rng.uniform(0, upper)
        y = rng.uniform(0, upper)
        lam = rng.uniform(0.1, 0.9)
        fx = worst_case_objective(x, g)
        fy = worst_case_objective(y, g)
        fmid = worst_case_objective(lam * x + (1 - lam) * y, g)
        assert fmid >= lam * fx + (1 - lam) * fy - 1e-12
        hi = np.maximum(x, y)
        assert worst_case_objective(hi, g) >= fx - 1e-12
        lip = 1.5 * abs(x[0] - y[0]) + 1.5 * np.dot(means[1:], np.abs(x[1:] - y[1:]))
        assert abs(fx - fy) <= lip + 1e-12


def test_concavity_monotone_lipschitz_mc_b1(rng):
    from congames.game import sample_omega

    g = exp_game([1.2, 0.9, 2.0], (1, 1, 1, 0))
    means = g.means
    weights = means.copy()
    weights[g.partition.set_a] = 1.0
    omegas = sample_omega(g, 99, size=20_000)
    stderr = 0.5 * np.max(omegas, axis=1).std(ddof=1) / np.sqrt(omegas.shape[0])
    upper = np.array([means[0], 1.0, 1.0])
    for _ in range(50):
        x = rng.uniform(0, upper)
        y = rng.uniform(0, upper)
        lam = rng.uniform(0.1, 0.9)
        fx = _objective_with_shared_draws(x, weights, omegas)
        fy = _objective_with_shared_draws(y, weights, omegas)
        fmid = _objective_with_shared_draws(lam * x + (1 - lam) * y, weights, omegas)
        # shared draws make the max term convex sample by sample
        assert fmid >= lam * fx + (1 - lam) * fy - 1e-12
        assert _objective_with_shared_draws(np.maximum(x, y), weights, omegas) >= fx - 1e-12
        lip = 1.5 * abs(x[0] - y[0]) + 1.5 * np.dot(means[1:], np.abs(x[1:] - y[1:]))
        assert abs(fx - fy) <= lip + 5 * stderr


def test_omega_max_mean_matches_exact_when_b0():
    g = exp_game([2.0, 1.0], (0, 0, 2, 0))
    mean, stderr = omega_max_mean(np.array([0.5, 0.5]), g)
    assert mean == pytest.approx(1.0) and stderr == 0.0


@pytest.mark.parametrize("partition", [(0, 0, 3, 0), (0, 1, 2, 0), (1, 1, 1, 0)])
def test_simulation_against_adversary_matches_value(partition, rng):
    # playing A against the constructed minimizer reproduces the analytic
    # worst-case value, whatever the information pattern
    from congames.montecarlo import simulate_payoff

    g = exp_game([1.5, 1.0, 0.8], partition)
    for _ in range(4):
        sa = random_strategy(g, "A", rng)
        stats = estimate_stats(sa, g, "A", n_samples=150_000, rng=5)
        adversary = worst_case_response(stats, g)
        ev = worst_case_utility(sa, g, McConfig(n_samples=150_000, seed=5))
        mean, stderr = simulate_payoff(sa, adversary, g, n_samples=150_000, rng=5)
        assert mean == pytest.approx(ev.value, abs=4 * (stderr + ev.stderr) + 2e-3)
