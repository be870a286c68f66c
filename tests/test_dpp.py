import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congames import (
    DppConfig,
    Exponential,
    GameInstance,
    MdConfig,
    Partition,
    bound_constants,
    config_for_epsilon,
    queue_bound,
    run_dpp,
    run_md,
    solve_a1,
    worst_case_objective,
)
import congames.dpp
from congames.dpp import box_upper, gamma_step, queue_step
from congames.game import sample_omega
from congames.worstcase import sampled_subgradient
from conftest import exp_game, simplex_grid


def subgradient(gamma, omega, game):
    return sampled_subgradient(np.asarray(gamma, float), np.asarray(omega, float), game.weights)


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
        out = np.asarray(gamma_step(
            rng.uniform(0, upper), rng.uniform(0, 50, 3), rng.uniform(-3, 3, 3), 3.0, 9.0, upper
        ))
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
    out = np.asarray(queue_step(q, gamma, action, 5.0 if action == 0 else 1.0))
    assert np.all(out >= 0)
    assert np.all(out <= q + u + 1e-12)


# The array formulas the kernels had before they moved to Python floats: the
# oracle the list kernels must match bit for bit.
def numpy_subgradient(x, omega, w):
    grad = w.copy()
    top = int(np.argmax(x * omega))
    grad[top] -= 0.5 * omega[top]
    return grad


def numpy_gamma_step(gamma_prev, queues, grad, V, alpha, u):
    return np.clip(gamma_prev - (queues - V * grad) / (2.0 * alpha), 0.0, u)


def numpy_queue_step(queues, gamma, action, drain):
    out = queues + gamma
    out[action] -= drain
    return np.maximum(out, 0.0, out=out)


# few distinct values, so ties and signed zeros are common
kernel_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
positive_floats = st.floats(min_value=1e-3, max_value=1e6)


def vectors(count):
    """``count`` lists of kernel floats sharing one length n in [1, 5]."""
    return st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(*[st.lists(kernel_floats, min_size=n, max_size=n)] * count)
    )


def assert_same_bits(listed, array):
    assert isinstance(listed, list)
    assert np.asarray(listed, dtype=float).tobytes() == array.tobytes()


@given(vectors(3))
@example(([0.0, -0.0, 0.5], [1.0, 1.0, 0.0], [1.0, 2.0, 0.5]))  # 0.0 ties -0.0
@example(([-0.0, 0.0], [1.0, 1.0], [1.0, 1.0]))
@settings(max_examples=200, deadline=None)
def test_subgradient_matches_numpy_formula(vs):
    x, omega, w = vs
    assert_same_bits(
        sampled_subgradient(x, omega, w), numpy_subgradient(*(np.array(v) for v in vs))
    )


@given(vectors(4), positive_floats, positive_floats)
@example(([-0.0, 0.5], [0.0, 0.0], [0.0, 0.0], [1.0, 0.25]), 1.0, 1.0)  # -0.0 clips to +0.0
@settings(max_examples=200, deadline=None)
def test_gamma_step_matches_numpy_formula(vs, V, alpha):
    gamma, queues, grad, u = vs
    assert_same_bits(
        gamma_step(gamma, queues, grad, V, alpha, u),
        numpy_gamma_step(*(np.array(v) for v in (gamma, queues, grad)), V, alpha, np.array(u)),
    )


@given(vectors(2), st.integers(min_value=0, max_value=4), kernel_floats)
@example(([-0.0, 1.0], [-0.0, 0.0]), 1, 0.0)  # -0.0 floors to +0.0
@settings(max_examples=200, deadline=None)
def test_queue_step_matches_numpy_formula(vs, action, drain):
    queues, gamma = vs
    action %= len(queues)
    assert_same_bits(
        queue_step(queues, gamma, action, drain),
        numpy_queue_step(np.array(queues), np.array(gamma), action, drain),
    )


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


def test_guarantee_on_known_instance():
    # exact optimum 1 at means (2, 1, 1); mixture value must be within the bound
    g = exp_game([2.0, 1.0, 1.0], (0, 0, 3, 0))
    cfg = DppConfig(V=100.0, alpha=1.0e4, T=40_000, seed=0)
    mixture, diag = run_dpp(g, cfg)
    from congames import estimate_stats

    stats = estimate_stats(mixture, g, "A", n_samples=1)
    value, _ = worst_case_objective(stats.p, g)
    bc = bound_constants(g, cfg)
    assert value >= 1.0 - bc.error_bound
    assert diag.violations == 0


def test_oversized_run_fails_before_sampling(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("the run sampled before checking its budget")

    monkeypatch.setattr(congames.dpp, "sample_omega", no_draws)
    monkeypatch.setattr(congames.dpp, "sample_world", no_draws)
    g = exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0))
    with pytest.raises(ValueError, match=r"T=100000000, n=3 needs 9155 MiB"):
        run_dpp(g, config_for_epsilon(1e-4))


def _game(partition, means, z=()):
    dists = tuple(Exponential(1.0 / m) for m in means)
    return GameInstance(Partition(*partition), dists, z=np.asarray(z, dtype=float))


def _sha256(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype=float).tobytes())
    return h.hexdigest()


# Output bits of the three step solvers at T = 2000, recorded before their
# kernels moved from numpy arrays to Python floats; a solver change must keep
# them.  The last DPP case has alpha < V^2 and breaks the queue cap.
GOLDEN_DPP = [
    # partition, means, z, V, alpha, seed, sha256, violations
    ((0, 1, 2, 0), [1.3, 1.0, 1.0], (), 50.0, 2500.0, 1,
     "0501217cd43559d11539acfd9148488c0d38ee49df4ff1c47c328a566cd1b94b", 0),
    ((1, 1, 1, 0), [1.5, 1.0, 1.0], (), 200.0, 4.0e4, 2,
     "76adcf8cad57f0c413e4ba8db72e3377c9a4cde1134ca72a5a3a805179c1f128", 0),
    ((2, 1, 0, 1), [0.8, 1.7, 1.0, 1.2], (1.2,), 40.0, 1600.0, 3,
     "05873e0bbb92216c65b3e968efa5c7fe186d4b0bda1841b8a3fab645b18f488b", 0),
    ((1, 1, 1, 0), [1.0, 1.0, 1.0], (), 200.0, 1000.0, 0,
     "b87cbb45450209159e2de8ced48d9ac8c5d2413def969292e548946df4985b12", 4981),
]
GOLDEN_MD = [
    ((0, 1, 2, 0), [1.3, 1.0, 1.0], (), 4,
     "6b91300a3e9ca8965b739b48972c98b89fc99c6b2e29ca77dee0b30a0ae3a2f0"),
    ((0, 2, 1, 1), [0.9, 1.4, 1.0, 0.7], (0.7,), 5,
     "86eb56f9acd94ee1803277fae53ac94eb19b8242b3312f44b8657de9178f1ede"),
]
GOLDEN_A1 = [
    ((1, 1, 1, 0), [1.5, 1.0, 1.0], (), 6,
     "ed390610a2ed64f847405d15c9d544c454e9fc43e085e585c69673ee2a8deab0"),
    ((1, 2, 1, 0), [1.2, 0.8, 1.0, 1.1], (), 7,
     "5206bf5f7926e76a7a6f742ba22ed5ea1c9d43f18e089e7eb49c6542bb8f70ca"),
    # n = 9: the normalizer sums 9 entries and the projection 8, past numpy's
    # left-to-right range; the second game pins p0 at DEFAULT_DELTA in 1407
    # of its 2000 rounds, the first in none
    ((1, 3, 4, 1), [0.4, 1.1, 0.9, 1.3, 1.0, 1.2, 0.8, 1.0, 0.7], (0.7,), 8,
     "13e258b336427565b6c7a81e92a71a2613d3e9bb3b9125ad8d42e3aab70e0d9b"),
    ((1, 3, 4, 1), [0.1, 1.1, 0.9, 1.3, 1.0, 1.2, 0.8, 1.0, 0.7], (0.7,), 8,
     "88aee99dca2b8640f478c42f7f5bc71d16ad49a46ab696d80468f8be40914403"),
]


def test_solver_outputs_keep_their_bits():
    for partition, means, z, V, alpha, seed, expected, violations in GOLDEN_DPP:
        config = DppConfig(V=V, alpha=alpha, T=2000, seed=seed)
        mixture, diag = run_dpp(_game(partition, means, z), config)
        digest = _sha256(mixture.values, diag.final_queues, diag.final_gamma, diag.avg_realized)
        assert (digest, diag.violations) == (expected, violations), partition
    for partition, means, z, seed, expected in GOLDEN_MD:
        p = run_md(_game(partition, means, z), MdConfig(alpha=50.0, T=2000, seed=seed))
        assert _sha256(p) == expected, partition
    for partition, means, z, seed, expected in GOLDEN_A1:
        p, value, stderr = solve_a1(
            _game(partition, means, z), MdConfig(alpha=50.0, T=2000, seed=seed), n_eval_samples=5000
        )
        assert _sha256(p, [value, stderr]) == expected, partition
