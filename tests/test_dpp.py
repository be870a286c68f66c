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
    queue_bound,
    run_dpp,
    run_md,
    solve_a1,
    worst_case_objective,
)
import congames.dpp
import congames.game
from congames.dpp import box_upper
from congames.game import sample_omega, sample_world
from congames.rng import OMEGA_STREAM, WORLD_STREAM, stream_generators
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


# The array formulas of the DPP steps before they moved to Python floats: the
# oracle that the list kernel and run()'s round must match bit for bit.
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


def numpy_run(game, config, seed):
    """run() as a loop of the array formulas.  Returns its queue history,
    final queues and gamma, average realized x and violations, and which of
    the lower clamp, upper clamp and queue floor some round hit."""
    n, a, T = game.n, game.partition.a, config.T
    world_gen, omega_gen = stream_generators(seed, (WORLD_STREAM, OMEGA_STREAM))
    x_draws = sample_world(game, world_gen, size=T)[:, :a]
    omegas = sample_omega(game, omega_gen, size=T)
    u, w = box_upper(game), game.weights
    queues, gamma = np.zeros(n), np.zeros(n)
    history, realized, hits = np.empty((T, n)), np.zeros(n), set()
    for t in range(T):
        grad = numpy_subgradient(gamma, omegas[t], w)
        raw = gamma - (queues - config.V * grad) / (2.0 * config.alpha)
        if np.any(raw < 0):
            hits.add("lower")
        if np.any(raw > u):
            hits.add("upper")
        gamma = numpy_gamma_step(gamma, queues, grad, config.V, config.alpha, u)
        action = int(np.argmax(np.concatenate([queues[:a] * x_draws[t], queues[a:]])))
        history[t] = queues
        drain = x_draws[t, action] if action < a else 1.0
        realized[action] += drain
        if queues[action] + gamma[action] - drain < 0:
            hits.add("floor")
        queues = numpy_queue_step(queues, gamma, action, drain)
    limit = queue_bound(game, config.alpha) + congames.dpp.QUEUE_BOUND_TOL
    violations = int(np.count_nonzero(history[1:] > limit) + np.count_nonzero(queues > limit))
    return history, queues, gamma, realized / T, violations, hits


def assert_gamma_matches_numpy(run, reference):
    """run()'s final gamma has numpy_run's bytes."""
    diag, gamma = run[1], reference[2]
    assert diag.final_gamma.tobytes() == gamma.tobytes()


def assert_queues_match_numpy(run, reference):
    """run()'s queue history, final queues, average realized x and
    violations equal numpy_run's, byte for byte."""
    (mixture, diag), (history, queues, _, avg_realized, violations, _) = run, reference
    assert mixture.values.tobytes() == history.tobytes()
    assert diag.final_queues.tobytes() == queues.tobytes()
    assert diag.avg_realized.tobytes() == avg_realized.tobytes()
    assert diag.violations == violations


@st.composite
def dpp_runs(draw):
    """A random game with n from 1 to 5 and any split of its blocks, and a
    config with T <= 200; alpha < V^2 in many of them."""
    n = draw(st.integers(1, 5))
    a = draw(st.integers(0, n))
    b = draw(st.integers(0, n - a))
    c = draw(st.integers(0, n - a - b))
    d = n - a - b - c
    means = draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
    z = draw(st.lists(st.floats(0.0, 3.0), min_size=d, max_size=d))
    config = DppConfig(
        V=draw(st.floats(0.1, 100.0)),
        alpha=draw(st.floats(0.01, 1e4)),
        T=draw(st.integers(1, 200)),
    )
    return _game((a, b, c, d), means, z), config, draw(st.integers(0, 2**32 - 1))


@given(dpp_runs())
@settings(max_examples=60, deadline=None)
def test_gamma_step_matches_numpy_formula(game_config):
    # run()'s inlined gamma clip against a loop of numpy_gamma_step
    assert_gamma_matches_numpy(run_dpp(*game_config), numpy_run(*game_config))


@given(dpp_runs())
@settings(max_examples=60, deadline=None)
def test_queue_step_matches_numpy_formula(game_config):
    # run()'s inlined queue update against a loop of numpy_queue_step
    assert_queues_match_numpy(run_dpp(*game_config), numpy_run(*game_config))


def test_reference_cases_reach_every_clamp():
    # the comparison covers both clamps of gamma and the queue floor
    cases = [
        ((1, 1, 1, 0), [1.5, 1.0, 1.0], (), DppConfig(V=10.0, alpha=1.0, T=200), 4),
        ((0, 1, 2, 0), [1.3, 1.0, 0.5], (), DppConfig(V=3.0, alpha=4.0, T=200), 5),
        ((2, 0, 1, 1), [0.8, 1.7, 1.0, 1.2], (1.2,), DppConfig(V=5.0, alpha=25.0, T=200), 6),
    ]
    for partition, means, z, config, seed in cases:
        game = _game(partition, means, z)
        run, reference = run_dpp(game, config, seed), numpy_run(game, config, seed)
        assert_gamma_matches_numpy(run, reference)
        assert_queues_match_numpy(run, reference)
        hits = reference[5]
        assert hits == {"lower", "upper", "floor"}, partition


@given(dpp_runs())
@settings(max_examples=30, deadline=None)
def test_run_gamma_stays_in_box(game_config):
    game, config, seed = game_config
    gamma = run_dpp(game, config, seed)[1].final_gamma
    assert np.all((gamma >= 0) & (gamma <= box_upper(game)))


@given(dpp_runs())
@settings(max_examples=30, deadline=None)
def test_run_queue_increase_bounded(game_config):
    # one round never adds more than the box's upper corner u_j to a queue
    game, config, seed = game_config
    mixture, diag = run_dpp(game, config, seed)
    queues = np.vstack([mixture.values, diag.final_queues])
    assert np.all(queues >= 0)
    assert np.all(queues[1:] <= queues[:-1] + box_upper(game))


# two shared resources of mean 1: omega = w = (1, 1), u = (1, 1), and every
# value in the two hand-value tests is exact in binary.  Round 1 ties to
# resource 0, whose queue floors at 0; round 2 picks resource 1 and drains it;
# round 3 picks resource 0 and clips gamma_1 from 1.09375 to 1.
def hand_run(T):
    return run_dpp(exp_game([1.0, 1.0], (0, 0, 2, 0)), DppConfig(V=2.0, alpha=2.0, T=T))


def test_gamma_step_hand_values():
    gammas = [hand_run(T)[1].final_gamma for T in (1, 2, 3)]
    np.testing.assert_array_equal(gammas, [[0.25, 0.5], [0.75, 0.625], [0.8125, 1.0]])


def test_queue_step_hand_values():
    mixture, diag = hand_run(3)
    np.testing.assert_array_equal(mixture.values, [[0.0, 0.0], [0.0, 0.5], [0.75, 0.125]])
    np.testing.assert_array_equal(diag.final_queues, [0.5625, 1.125])
    np.testing.assert_array_equal(diag.avg_realized, [2.0 / 3.0, 1.0 / 3.0])


def test_run_single_round_mixture():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    mixture, diag = run_dpp(g, DppConfig(V=1.0, alpha=1.0, T=1), seed=0)
    np.testing.assert_array_equal(mixture.values, np.zeros((1, 2)))
    # zero scores tie: the mixture always picks resource 0
    assert diag.avg_realized[0] == 1.0
    assert diag.violations == 0


def test_run_deterministic_given_seed():
    g = exp_game([1.5, 1.0, 1.0], (1, 1, 1, 0))
    m1, d1 = run_dpp(g, DppConfig(V=5.0, alpha=25.0, T=500), seed=21)
    m2, d2 = run_dpp(g, DppConfig(V=5.0, alpha=25.0, T=500), seed=21)
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


def test_queue_bound_rejects_non_finite_alpha():
    g = exp_game([1.0, 1.0], (1, 0, 1, 0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^alpha must be positive and finite, got {bad!r}$"):
            queue_bound(g, bad)


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
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^V must be positive and finite"):
            DppConfig(V=bad, alpha=1.0, T=10)
        with pytest.raises(ValueError, match=r"^alpha must be positive and finite"):
            DppConfig(V=1.0, alpha=bad, T=10)
    assert DppConfig(V=2.0, alpha=4.0, T=1).guarantee_holds
    assert not DppConfig(V=2.0, alpha=2.0, T=1).guarantee_holds


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
        _, diag = run_dpp(g, DppConfig(V=V, alpha=alpha, T=4000), seed=13)
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
        mixture, _ = run_dpp(g, DppConfig(V=60.0, alpha=3600.0, T=T), seed=seed)
        from congames import estimate_stats

        stats = estimate_stats(mixture, g, "A", n_samples=1)
        return float(np.dot(g.means, stats.p) - 0.5 * np.max(omegas * stats.p, axis=1).mean())

    gaps_small = [f_opt - value_at(1_000, s) for s in range(10)]
    gaps_large = [f_opt - value_at(100_000, s) for s in range(10)]
    assert np.mean(gaps_large) <= np.mean(gaps_small)


def test_guarantee_on_known_instance():
    # exact optimum 1 at means (2, 1, 1); mixture value must be within the bound
    g = exp_game([2.0, 1.0, 1.0], (0, 0, 3, 0))
    cfg = DppConfig(V=100.0, alpha=1.0e4, T=40_000)
    mixture, diag = run_dpp(g, cfg, seed=0)
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
    # T x (3n + a) floats: omega, the history, its copy and one world column
    with pytest.raises(ValueError, match=r"T=100000000, n=3 needs 7629 MiB"):
        run_dpp(g, DppConfig(V=1e4, alpha=1e8, T=10**8))


def test_budget_counts_only_the_world_columns_drawn(monkeypatch):
    # a wide game with one private resource holds T x (3n + a) = 100 x 37
    # floats (29 600 bytes), not four T x n arrays (38 400 bytes)
    g = exp_game([1.0] * 12, (1, 1, 10, 0))
    config = DppConfig(V=10.0, alpha=100.0, T=100)
    monkeypatch.setattr(congames.game, "UPFRONT_BUDGET_BYTES", 32_000)
    mixture, _ = run_dpp(g, config)
    assert len(mixture) == 100
    monkeypatch.setattr(congames.game, "UPFRONT_BUDGET_BYTES", 29_599)
    with pytest.raises(ValueError, match="dpp run with T=100, n=12 needs 0 MiB up front"):
        run_dpp(g, config)


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
        config = DppConfig(V=V, alpha=alpha, T=2000)
        mixture, diag = run_dpp(_game(partition, means, z), config, seed)
        digest = _sha256(mixture.values, diag.final_queues, diag.final_gamma, diag.avg_realized)
        assert (digest, diag.violations) == (expected, violations), partition
    for partition, means, z, seed, expected in GOLDEN_MD:
        p = run_md(_game(partition, means, z), MdConfig(alpha=50.0, T=2000), seed)
        assert _sha256(p) == expected, partition
    for partition, means, z, seed, expected in GOLDEN_A1:
        p, value, stderr = solve_a1(
            _game(partition, means, z), MdConfig(alpha=50.0, T=2000), seed, n_samples=5000
        )
        assert _sha256(p, [value, stderr]) == expected, partition
