import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congames import (
    DppConfig,
    Exponential,
    GameInstance,
    Partition,
    bound_constants,
    config_for_epsilon,
    queue_bound,
    run_dpp,
    worst_case_objective,
)
from congames.dpp import _base_weights, box_upper, gamma_step, queue_step
from congames.game import sample_omega
from congames.worstcase import sampled_subgradient
from conftest import exp_game, simplex_grid


def subgradient(gamma, omega, game):
    return sampled_subgradient(np.asarray(gamma, float), np.asarray(omega, float), _base_weights(game))


def test_subgradient_tie_and_blocks():
    g = exp_game([1.0, 1.0], (1, 0, 1, 0))
    grad = subgradient([0.5, 0.5], [1.0, 1.0], g)
    np.testing.assert_allclose(grad, [0.5, 1.0])  # tie resolves to index 0


def test_subgradient_all_zero_gamma():
    g = exp_game([1.0, 2.0, 1.5], (1, 0, 2, 0))
    grad = subgradient(np.zeros(3), np.array([1.0, 0.8, 0.3]), g)
    assert grad[0] == pytest.approx(1.0 - 0.5)  # index 0 wins the all-tie
    np.testing.assert_allclose(grad[1:], [2.0, 1.5])


def test_subgradient_no_private_block():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    grad = subgradient([0.0, 1.0], [1.0, 1.0], g)
    np.testing.assert_allclose(grad, [1.0, 0.5])


def test_subgradient_examples():
    # the weights mirror descent passes (w = E) and the ascent sign it uses
    def kernel(x, omega, w):
        return sampled_subgradient(*(np.asarray(v, float) for v in (x, omega, w)))

    np.testing.assert_allclose(kernel([1.0, 0.0], [2.0, 1.0], [2.0, 1.0]), [1.0, 1.0])
    # equal products tie to index 0
    np.testing.assert_allclose(kernel([0.5, 0.5], [0.8, 0.8], [1.0, 1.0]), [1.0 - 0.4, 1.0])
    np.testing.assert_allclose(kernel([0.5, 0.5], [0.0, 0.0], [1.0, 2.0]), [1.0, 2.0])


def test_gamma_step_hand_values():
    u1 = box_upper(exp_game([1.0], (0, 0, 1, 0)))
    one = np.array([1.0])
    out = gamma_step(np.array([0.5]), one, one, 2.0, 2.0, u1)
    assert out[0] == pytest.approx(0.75)
    # huge queue forces the lower clamp
    out = gamma_step(np.array([0.5]), np.array([1e9]), one, 2.0, 2.0, u1)
    assert out[0] == 0.0
    # upper clamp
    out = gamma_step(one, np.array([0.0]), one, 1.0, 1.0, u1)
    assert out[0] == 1.0


def test_gamma_step_stays_in_box(rng):
    upper = box_upper(exp_game([2.0, 1.0, 0.5], (1, 1, 1, 0)))
    np.testing.assert_array_equal(upper, [2.0, 1.0, 1.0])
    for _ in range(50):
        out = gamma_step(
            rng.uniform(0, upper), rng.uniform(0, 50, 3), rng.uniform(-3, 3, 3), 3.0, 9.0, upper
        )
        assert np.all(out >= 0) and np.all(out <= upper + 1e-12)


def test_queue_step_hand_values():
    # non-private resource, chosen: drains 1
    np.testing.assert_allclose(queue_step(np.array([2.0]), np.array([0.3]), 0, 1.0), [1.3])
    # clamp at zero
    np.testing.assert_allclose(queue_step(np.array([0.0]), np.array([0.0]), 0, 1.0), [0.0])
    # private resource, not chosen: target just accumulates
    out = queue_step(np.array([1.0, 0.0]), np.array([0.5, 0.0]), 1, 1.0)
    assert out[0] == pytest.approx(1.5)
    # private resource, chosen: drains its observed reward
    np.testing.assert_allclose(queue_step(np.array([4.0, 1.0]), np.array([0.5, 0.5]), 0, 3.0), [1.5, 1.5])


@given(
    st.lists(st.floats(min_value=0, max_value=20), min_size=2, max_size=4),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=100, deadline=None)
def test_queue_step_increase_bounded(qs, action):
    # one step never adds more than the box upper bound u_j
    q = np.asarray(qs)
    action = action % q.size
    u = np.ones(q.size)
    u[0] = 4.0  # pretend resource 0 is private with mean 4
    gamma = np.minimum(u, 0.9 * u)
    out = queue_step(q, gamma, action, 5.0 if action == 0 else 1.0)
    assert np.all(out >= 0)
    assert np.all(out <= q + u + 1e-12)


def test_run_single_round_mixture():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    mixture, diag = run_dpp(g, DppConfig(V=1.0, alpha=1.0, T=1, seed=0))
    np.testing.assert_array_equal(mixture.values, np.zeros((1, 2)))
    # zero scores tie: the mixture always picks resource 0
    assert diag.avg_realized[0] == 1.0
    assert diag.violations == 0


def test_run_deterministic_given_seed():
    g = exp_game([1.5, 1.0, 1.0], (1, 1, 1, 0))
    m1, d1 = run_dpp(g, DppConfig(V=5.0, alpha=25.0, T=500, seed=21))
    m2, d2 = run_dpp(g, DppConfig(V=5.0, alpha=25.0, T=500, seed=21))
    np.testing.assert_array_equal(m1.values, m2.values)
    np.testing.assert_array_equal(d1.final_queues, d2.final_queues)
    np.testing.assert_array_equal(d1.final_gamma, d2.final_gamma)
    assert np.all(d1.final_queues >= 0)
    assert np.all((d1.final_gamma >= 0) & (d1.final_gamma <= box_upper(g)))


def test_queue_bound_examples():
    g = GameInstance(Partition(1, 0, 0, 0), (Exponential(1.0),))
    assert queue_bound(g, 4.0)[0] == pytest.approx((1 + 2 * math.sqrt(2)) * 2 + 1)
    # with all means 1 the private and shared bounds coincide
    g2 = exp_game([1.0, 1.0], (1, 0, 1, 0))
    b = queue_bound(g2, 7.3)
    assert b[0] == pytest.approx(b[1])
    with pytest.raises(ValueError):
        queue_bound(g2, 0.0)


def test_bound_constants_examples():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    bc = bound_constants(g, DppConfig(V=1.0, alpha=1.0, T=1))
    assert bc.drift_bound == pytest.approx(2.0)
    assert bc.subgrad_sq_bound == pytest.approx(10.0)  # 0 + 2 + 8
    assert bc.diameter_sq_bound == pytest.approx(2.0)

    # all resources private to A: the non-private diameter term vanishes
    g_all_a = exp_game([1.0, 2.0], (2, 0, 0, 0))
    bc = bound_constants(g_all_a, DppConfig(V=1.0, alpha=1.0, T=1))
    assert bc.diameter_sq_bound == pytest.approx(1.0 + 4.0)

    # b = 0: omega is deterministic, so its norm term is exact
    g_b0 = exp_game([2.0, 1.0, 1.0], (1, 0, 2, 0))
    bc = bound_constants(g_b0, DppConfig(V=1.0, alpha=1.0, T=1))
    omega_sq = 1.0 + 1.0 + 1.0  # 1 on the A block, E^2 on the shared ones
    assert bc.subgrad_sq_bound == pytest.approx(4.0 + omega_sq + 4.0 * 2.0)


def test_error_bound_formula_value():
    g = exp_game([1.0, 1.0, 1.0], (0, 0, 3, 0))
    cfg = DppConfig(V=200.0, alpha=4.0e4, T=100_000)
    bc = bound_constants(g, cfg)
    hand = (
        3.0 / 200.0
        + 200.0 * 15.0 / (16.0 * 4.0e4)
        + 4.0e4 * 3.0 / (200.0 * 100_000.0)
        + 1.5 / 100_000.0 * 3.0 * (200.0 + (2.0 * math.sqrt(8.0e4) + 1.0))
    )
    assert bc.error_bound == pytest.approx(hand, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        DppConfig(V=0.0, alpha=1.0, T=10)
    with pytest.raises(ValueError):
        DppConfig(V=1.0, alpha=-1.0, T=10)
    with pytest.raises(ValueError):
        DppConfig(V=1.0, alpha=1.0, T=0)
    assert DppConfig(V=2.0, alpha=4.0, T=1).guarantee_holds
    assert not DppConfig(V=2.0, alpha=2.0, T=1).guarantee_holds
    cfg = config_for_epsilon(0.01)
    assert cfg.guarantee_holds and cfg.T == 10_000
    for epsilon in (1e-4, 3e-4, 1e-3, 0.003, 0.007, 0.03, 0.1, 0.3, 0.9):
        cfg = config_for_epsilon(epsilon)
        assert cfg.guarantee_holds and cfg.alpha == cfg.V**2


def test_queue_bound_invariant_across_partitions():
    cases = [
        ((0, 0, 3, 0), [1.6, 1.0, 1.0], 8.0, 64.0),
        ((0, 1, 2, 0), [1.0, 2.0, 0.7], 5.0, 40.0),
        ((1, 1, 1, 0), [1.5, 1.0, 1.0], 6.0, 36.0),
        ((1, 0, 1, 1), [1.0, 1.0, 1.0], 4.0, 30.0),
    ]
    for partition, means, V, alpha in cases:
        dists = tuple(Exponential(1.0 / m) for m in means)
        z = np.ones(partition[3])
        g = GameInstance(Partition(*partition), dists, z=z)
        _, diag = run_dpp(g, DppConfig(V=V, alpha=alpha, T=4000, seed=13))
        assert diag.violations == 0


def test_gap_shrinks_with_more_rounds():
    # reference optimum by grid search with shared omega draws (A uninformed)
    g = exp_game([1.5, 1.0, 1.0], (0, 1, 2, 0))
    grid = simplex_grid(3, 50)
    omegas = sample_omega(g, 12345, size=40_000)
    base = grid @ g.means
    penalty = np.array([np.max(omegas * p, axis=1).mean() for p in grid])
    f_opt = float(np.max(base - 0.5 * penalty))

    def value_at(T, seed):
        mixture, _ = run_dpp(g, DppConfig(V=60.0, alpha=3600.0, T=T, seed=seed))
        from congames import estimate_stats

        stats = estimate_stats(mixture, g, "A", n_samples=1)
        return float(np.dot(g.means, stats.p) - 0.5 * np.max(omegas * stats.p, axis=1).mean())

    gaps_small = [f_opt - value_at(1_000, s) for s in range(10)]
    gaps_large = [f_opt - value_at(100_000, s) for s in range(10)]
    assert np.mean(gaps_large) <= np.mean(gaps_small)


def test_diagnostics_recording_and_dump(tmp_path):
    g = exp_game([1.0, 1.0], (1, 0, 1, 0))
    _, diag = run_dpp(g, DppConfig(V=2.0, alpha=4.0, T=50, seed=3, record_diagnostics=True))
    assert diag.max_queue.shape == (50,)
    assert diag.actions.shape == (50,)
    out = tmp_path / "diag.csv"
    diag.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,max_queue,action"
    assert len(lines) == 51

    _, no_diag = run_dpp(g, DppConfig(V=2.0, alpha=4.0, T=5, seed=3))
    with pytest.raises(ValueError):
        no_diag.write_csv(out)


def test_guarantee_on_known_instance():
    # exact optimum 1 at means (2, 1, 1); mixture value must be within the bound
    g = exp_game([2.0, 1.0, 1.0], (0, 0, 3, 0))
    cfg = DppConfig(V=100.0, alpha=1.0e4, T=40_000, seed=0)
    mixture, diag = run_dpp(g, cfg)
    from congames import estimate_stats

    stats = estimate_stats(mixture, g, "A", n_samples=1)
    value = worst_case_objective(stats.p, g)
    bc = bound_constants(g, cfg)
    assert value >= 1.0 - bc.error_bound
    assert diag.violations == 0
