import math

import numpy as np
import pytest

import congames.game
import congames.montecarlo
import congames.nash
from congames import (
    Exponential,
    GameInstance,
    Mixture,
    Partition,
    PointMass,
    QuantileThreshold,
    Simplex,
    StrategyStats,
    estimate_stats,
    expected_utility,
    simulate_payoff,
)
from congames.cli import main
from congames.md import omega_sup_sq_mean
from congames.worstcase import omega_max_mean
from conftest import exp_game, random_strategy


def test_simplex_stats_exact():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    stats = estimate_stats(Simplex([0.5, 0.5]), g, "A", n_samples=1)
    np.testing.assert_array_equal(stats.p, [0.5, 0.5])
    assert stats.q.size == 0

    # with a private block, q is the mean times the pick probability
    g = exp_game([2.0, 1.0], (1, 0, 1, 0))
    stats = estimate_stats(Simplex([0.25, 0.75]), g, "A", n_samples=1)
    np.testing.assert_allclose(stats.q, [2.0 * 0.25])


def test_score_dominant_private_resource():
    # coefficient 1 on resource 0, constant 0 elsewhere: resource 0 always wins
    g = exp_game([1.0, 1.0], (1, 0, 1, 0))
    s = Mixture([[1.0, 0.0]], private=[0])
    stats = estimate_stats(s, g, "A", n_samples=200_000, rng=2)
    np.testing.assert_allclose(stats.p, [1.0, 0.0])
    assert stats.q[0] == pytest.approx(1.0, abs=0.02)


def test_quantile_threshold_stats_match_tail_formula():
    # threshold at the exponential median: picks resource 0 half the time,
    # with conditional mean ln2 + 1 above the threshold
    g = exp_game([1.0, 1.0], (1, 0, 1, 0))
    s = QuantileThreshold(math.log(2), [1.0])
    stats = estimate_stats(s, g, "A", n_samples=400_000, rng=6)
    np.testing.assert_allclose(stats.p, [0.5, 0.5], atol=0.005)
    assert stats.q[0] == pytest.approx(0.5 * (math.log(2) + 1.0), abs=0.01)


def test_deterministic_score_exact_when_no_private_block():
    g = exp_game([1.0, 2.0, 0.5], (0, 0, 3, 0))
    stats = estimate_stats(Mixture([[0.1, 0.9, 0.5]], private=[]), g, "A", n_samples=1)
    np.testing.assert_array_equal(stats.p, [0.0, 1.0, 0.0])


def test_estimate_stats_player_mismatch():
    g = exp_game([1.0, 1.0], (1, 1, 0, 0))
    s = Mixture([[1.0, 1.0]], private=[0])  # an A strategy
    with pytest.raises(ValueError):
        estimate_stats(s, g, "B")


def test_expected_utility_examples():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    u = estimate_stats(Simplex([0.5, 0.5]), g, "A", 1)
    ub = estimate_stats(Simplex([0.5, 0.5]), g, "B", 1)
    assert expected_utility(u, ub, g, "A") == pytest.approx(0.75)

    a = estimate_stats(Simplex([1.0, 0.0]), g, "A", 1)
    b = estimate_stats(Simplex([0.0, 1.0]), g, "B", 1)
    assert expected_utility(a, b, g, "A") == pytest.approx(1.0)  # disjoint picks

    b_same = estimate_stats(Simplex([1.0, 0.0]), g, "B", 1)
    assert expected_utility(a, b_same, g, "A") == pytest.approx(0.5)  # certain collision


def test_simulate_payoff_deterministic_world():
    g = GameInstance(Partition(0, 0, 2, 0), (PointMass(1.0), PointMass(2.0)))
    mean, stderr = simulate_payoff(Simplex([1.0, 0.0]), Simplex([0.0, 1.0]), g, n_samples=100)
    assert mean == 1.0 and stderr == 0.0

    g1 = GameInstance(Partition(0, 0, 1, 0), (PointMass(2.0),))
    mean, stderr = simulate_payoff(Simplex([1.0]), Simplex([1.0]), g1, n_samples=100)
    assert mean == 1.0 and stderr == 0.0  # halved point mass


def test_simulate_matches_formula_uniform():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    mean, stderr = simulate_payoff(Simplex([0.5, 0.5]), Simplex([0.5, 0.5]), g, 200_000, rng=1)
    assert abs(mean - 0.75) <= 3 * stderr


@pytest.mark.parametrize("partition", [(0, 0, 3, 0), (0, 1, 2, 0), (1, 1, 1, 0)])
def test_agreement_random_pairs(partition):
    # simulated payoff vs closed-form utility from estimated stats, shared seeds
    g = exp_game([1.4, 1.0, 0.7], partition)
    gen = np.random.default_rng(hash(partition) % 2**32)
    for trial in range(7):
        sa = random_strategy(g, "A", gen)
        sb = random_strategy(g, "B", gen)
        seed = 1000 + trial
        stats_a = estimate_stats(sa, g, "A", n_samples=100_000, rng=seed)
        stats_b = estimate_stats(sb, g, "B", n_samples=100_000, rng=seed)
        analytic = expected_utility(stats_a, stats_b, g, "A")
        mean, stderr = simulate_payoff(sa, sb, g, n_samples=100_000, rng=seed)
        assert abs(mean - analytic) <= 4 * stderr + 1e-9


def test_stats_invariants_on_random_strategies(rng):
    g = exp_game([1.0, 2.0, 0.5], (1, 1, 1, 0))
    for _ in range(10):
        for player in ("A", "B"):
            kinds = ("simplex", "score", "mixture", "quantile") if player == "A" else ("simplex", "score", "mixture")
            s = random_strategy(g, player, rng, kinds=kinds)
            stats = estimate_stats(s, g, player, n_samples=20_000, rng=rng.integers(2**31))
            assert abs(stats.p.sum() - 1.0) <= 1e-6
            assert np.all(stats.p >= 0)
            assert np.all(stats.q >= 0)


def test_estimation_determinism():
    g = exp_game([1.0, 2.0], (1, 0, 1, 0))
    s = Mixture([[0.9, 1.1]], private=[0])
    a = estimate_stats(s, g, "A", n_samples=5000, rng=77)
    b = estimate_stats(s, g, "A", n_samples=5000, rng=77)
    np.testing.assert_array_equal(a.p, b.p)
    np.testing.assert_array_equal(a.q, b.q)


def test_simulation_determinism():
    g = exp_game([1.0, 2.0], (1, 1, 0, 0))
    sa = Mixture([[0.9, 1.1]], private=[0])
    sb = Mixture([[1.2, 0.8]], private=[1])
    assert simulate_payoff(sa, sb, g, 4000, rng=5) == simulate_payoff(sa, sb, g, 4000, rng=5)


def test_strategy_stats_validation():
    with pytest.raises(ValueError):
        StrategyStats("A", [0.6, 0.6], [])
    with pytest.raises(ValueError):
        StrategyStats("A", [1.0, 0.0], [-0.1])
    with pytest.raises(ValueError):
        StrategyStats("C", [1.0], [])



def test_max_term_budget_does_not_grow_with_n(monkeypatch):
    # the sampled max term holds three n_samples vectors whatever n is:
    # 1000 samples need 24 000 bytes at n = 12, not 1000 x 12 draws (96 000)
    g = exp_game([1.0] * 12, (0, 2, 10, 0))
    x = np.full(12, 1.0 / 12)
    monkeypatch.setattr(congames.game, "UPFRONT_BUDGET_BYTES", 24_000)
    assert omega_max_mean(x, g, n_samples=1000, rng=1)[1] > 0
    assert omega_sup_sq_mean(g, n_samples=1000, rng=1)[1] > 0
    monkeypatch.setattr(congames.game, "UPFRONT_BUDGET_BYTES", 23_999)
    need = "run with n_samples=1000, n=12 needs 0 MiB up front"
    with pytest.raises(ValueError, match="omega_max_mean " + need):
        omega_max_mean(x, g, n_samples=1000, rng=1)
    with pytest.raises(ValueError, match="omega_sup_sq_mean " + need):
        omega_sup_sq_mean(g, n_samples=1000, rng=1)

def test_oversized_estimates_fail_before_sampling(monkeypatch, capsys):
    def no_draws(*args, **kwargs):
        raise AssertionError("the estimate sampled before checking its budget")

    for module in (congames.montecarlo, congames.nash):
        monkeypatch.setattr(module, "sample_world", no_draws)
    monkeypatch.setattr(Exponential, "sample", no_draws)
    g = exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0))
    score = Mixture([[1.0, 0.5, 0.5]], private=[0])
    need = r"run with n_samples=100000000, n=3 needs 2289 MiB up front"
    with pytest.raises(ValueError, match="estimate_stats " + need):
        estimate_stats(score, g, "A", n_samples=10**8)
    with pytest.raises(ValueError, match="simulate_payoff " + need):
        simulate_payoff(score, Simplex([0.0, 1.0, 0.0]), g, n_samples=10**8)
    with pytest.raises(ValueError, match="omega_max_mean " + need):
        omega_max_mean(np.full(3, 1.0 / 3.0), g, n_samples=10**8)
    # exact statistics and a deterministic max allocate nothing, so pass
    assert estimate_stats(Simplex([1.0, 0.0, 0.0]), g, "A", n_samples=10**8).p[0] == 1.0
    g0 = exp_game([1.0, 1.0, 1.0], (1, 0, 2, 0))
    assert omega_max_mean(np.full(3, 1.0 / 3.0), g0, n_samples=10**8) == (1.0 / 3.0, 0.0)
    code = main(["nash", "--scenario", "3", "--samples", "100000000"])
    assert code == 2
    assert "MiB up front" in capsys.readouterr().err
