import contextlib
import hashlib
import io
import linecache
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

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
    PointMass,
    bound_constants,
    md_error_bound,
    queue_bound,
    run_dpp,
    run_md,
    solve_a1,
    worst_case_objective,
)
import congames.dpp
import congames.game
from congames.cli import main
from congames.dpp import box_upper
from congames.experiments import ScenarioSpec, run_scenario, scenario_game
from congames.game import DRAW_CHUNK, sample_omega, sample_world
from congames.rng import OMEGA_STREAM, WORLD_STREAM, stream_generators
from conftest import a1_preset_optimum, exp_game, full_omega, kernel_calls, simplex_grid


def subgradient(gamma, omega, game):
    return numpy_subgradient(np.asarray(gamma, float), np.asarray(omega, float), game.weights)


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
        return numpy_subgradient(*(np.asarray(v, float) for v in (x, omega, w)))

    np.testing.assert_allclose(kernel([1.0, 0.0], [2.0, 1.0], [2.0, 1.0]), [1.0, 1.0])
    # equal products tie to index 0
    np.testing.assert_allclose(kernel([0.5, 0.5], [0.8, 0.8], [1.0, 1.0]), [1.0 - 0.4, 1.0])
    np.testing.assert_allclose(kernel([0.5, 0.5], [0.0, 0.0], [1.0, 2.0]), [1.0, 2.0])


# The array formulas of the DPP round: the oracle that run()'s generated
# round kernel must match bit for bit.
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


@given(vectors(3))
@example(([0.0, -0.0, 0.5], [1.0, 1.0, 0.0], [1.0, 2.0, 0.5]))  # 0.0 ties -0.0
@example(([-0.0, 0.0], [1.0, 1.0], [1.0, 1.0]))
@settings(max_examples=200, deadline=None)
def test_subgradient_matches_numpy_formula(vs):
    # the oracle's argmax is the first of the largest products, -0.0 tying
    # 0.0, as with the round kernel's chain of `if s > best`
    x, omega, w = vs
    prods = [xk * ok for xk, ok in zip(x, omega)]
    top = prods.index(max(prods))
    grad = list(w)
    grad[top] -= 0.5 * omega[top]
    assert np.array(grad).tobytes() == numpy_subgradient(*(np.array(v) for v in vs)).tobytes()


def numpy_run(game, config, seed):
    """run() as a loop of the array formulas.  Returns its queue history,
    final queues and gamma, average realized x and violations, and which of
    the lower clamp, upper clamp and queue floor some round hit."""
    n, a, T = game.n, game.partition.a, config.T
    world_gen, omega_gen = stream_generators(seed, (WORLD_STREAM, OMEGA_STREAM))
    x_draws = sample_world(game, world_gen, size=T)[:, :a]
    omegas = full_omega(game, omega_gen, size=T)
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


def _game(partition, means, z=()):
    dists = tuple(Exponential(1.0 / m) for m in means)
    return GameInstance(Partition(*partition), dists, z=np.asarray(z, dtype=float))


@st.composite
def dpp_runs(draw):
    """A random game with n from 1 to 9 and any split of its blocks, and a
    config with T <= 200; alpha < V^2 in many of them."""
    n = draw(st.integers(1, 9))
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


# n = 9 with every block filled: reaches both clamps of gamma and the queue floor
WIDE_DPP = (
    GameInstance(
        Partition(3, 2, 2, 2),
        tuple(Exponential(1.0 / m) for m in [1.5, 0.7, 1.2, 1.0, 2.0, 0.9, 1.1, 1.3, 0.8]),
        z=np.array([0.4, 2.5]),
    ),
    DppConfig(V=5.0, alpha=4.0, T=200),
    9,
)


# kernel shapes with no world column, no omega column, or neither; the
# last runs past one DRAW_CHUNK with nothing to draw, and the queue test's
# history check asks for exactly T rows of it
NO_WORLD_DPP = (_game((0, 2, 1, 0), [1.3, 0.7, 1.0]), DppConfig(V=5.0, alpha=4.0, T=200), 3)
NO_OMEGA_DPP = (_game((2, 0, 1, 1), [0.8, 1.7, 1.0, 1.2], [1.2]), DppConfig(V=5.0, alpha=4.0, T=200), 4)
NO_DRAWS_DPP = (_game((0, 0, 2, 1), [1.0, 1.4, 0.9], [0.9]), DppConfig(V=5.0, alpha=4.0, T=1500), 2)


def dpp_twin_examples(test):
    for case in (WIDE_DPP, NO_WORLD_DPP, NO_OMEGA_DPP, NO_DRAWS_DPP):
        test = example(case)(test)
    return test


@given(dpp_runs())
@dpp_twin_examples
@settings(max_examples=60, deadline=None)
def test_gamma_step_matches_numpy_formula(game_config):
    # run()'s inlined gamma clip against a loop of numpy_gamma_step
    assert_gamma_matches_numpy(run_dpp(*game_config), numpy_run(*game_config))


@given(dpp_runs())
@dpp_twin_examples
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
    assert numpy_run(*WIDE_DPP)[5] == {"lower", "upper", "floor"}


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


def test_bounds_near_the_float_range_end_are_inf_without_warning():
    # a point mass whose second moment, 1.44e308, is finite: the DPP
    # constants and the MD bound overflow to inf, and numpy says nothing
    big = PointMass(1.2e154)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = GameInstance(Partition(1, 1, 1, 0), (Exponential(1.0), big, Exponential(1.0)))
        assert bound_constants(g, DppConfig()).error_bound == math.inf
        # one drawn column (exact) and two (bounded, whose sum overflows)
        for sizes, laws in (((0, 1, 2, 0), (big, Exponential(1.0), Exponential(1.0))), ((0, 2, 1, 0), (big, big, Exponential(1.0)))):
            g = GameInstance(Partition(*sizes), laws)
            assert bound_constants(g, DppConfig()).error_bound == math.inf
            assert md_error_bound(g, MdConfig()) == math.inf


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
    omegas = full_omega(g, 12345, size=40_000)
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
    # T x (n + a + b) floats: the history (the mixture keeps it uncopied),
    # one world column and B's omega column, with a chunk's lists beside
    with pytest.raises(ValueError, match=r"T=100000000, n=3 needs 3815 MiB"):
        run_dpp(g, DppConfig(V=1e4, alpha=1e8, T=10**8))


def test_budget_counts_only_the_world_columns_drawn(monkeypatch):
    # a wide game with one resource private to each player counts
    # T x (n + a + b) = 100 x 14 floats (11 200 bytes): the history and the
    # world and omega columns drawn; and its 100 rows of n + a + b = 14
    # entries as lists, 7 floats an entry (78 400 bytes); n world columns
    # would count more
    g = exp_game([1.0] * 12, (1, 1, 10, 0))
    config = DppConfig(V=10.0, alpha=100.0, T=100)
    monkeypatch.setattr(congames.game, "UPFRONT_BUDGET_BYTES", 89_600)
    mixture, _ = run_dpp(g, config)
    assert len(mixture) == 100
    monkeypatch.setattr(congames.game, "UPFRONT_BUDGET_BYTES", 89_599)
    with pytest.raises(ValueError, match="dpp run with T=100, n=12 needs 0 MiB up front"):
        run_dpp(g, config)


def test_history_of_a_wide_game_is_exactly_its_rows(monkeypatch):
    # the history is allocated once at its size and written in place: the
    # mixture keeps that T x n float64 array, C-contiguous, read-only and
    # owning its data, so no larger buffer stands behind it, and the count
    # is that array and a chunk's lists, 7 floats an entry
    counts = []

    def spy_budget(solver, T, n, arrays=1, rows="T"):
        counts.append(T * n * 8 * arrays)

    monkeypatch.setattr(congames.dpp, "check_upfront_budget", spy_budget)
    T, n = 5000, 20
    mixture, _ = run_dpp(exp_game([1.0] * n, (0, 0, n, 0)), DppConfig(T=T))
    history = mixture.values
    assert history.shape == (T, n) and history.dtype == np.float64
    assert history.flags.c_contiguous and not history.flags.writeable
    assert history.flags.owndata and history.base is None
    assert sys.getsizeof(history) - sys.getsizeof(np.empty((0, n))) == history.nbytes == T * n * 8
    assert counts == [pytest.approx(history.nbytes + 7 * 8 * n * DRAW_CHUNK, rel=1e-12)]


def test_run_holds_its_draws_and_history_and_little_more():
    # beside its T x (a + b) draws and the T x n queue history, a run holds
    # at most 512 KiB: one DRAW_CHUNK of B's and A's draws as Python floats,
    # the list of that chunk's queue rows, the diagnostics and the mixture;
    # the bound allows T x (n + a) draws, a column more than are drawn
    T, n, a = 20_000, 3, 1
    game = exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0))
    run_dpp(game, DppConfig(T=10))  # leave the kernel and numpy's one-time allocations out
    tracemalloc.start()
    try:
        run_dpp(game, DppConfig(T=T), seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= T * (n + a) * 8 + T * n * 8 + 2**19


def test_wide_game_runs_on_a_flat_kernel():
    # the generated statements stay flat however wide the game: at n = 3000
    # a chain of elif would pass the compiler's nesting limit
    game = _game((1000, 1000, 500, 500), [1.0] * 3000, [1.0] * 500)
    config = DppConfig(V=5.0, alpha=4.0, T=3)
    run, reference = run_dpp(game, config, 1), numpy_run(game, config, 1)
    assert_gamma_matches_numpy(run, reference)
    assert_queues_match_numpy(run, reference)


@pytest.mark.parametrize("e1", [0.5, 1.0, 2.0])
def test_sweep_value_lies_near_the_preset_optimum(e1):
    # `worst dpp --scenario 3 --e1-min e1 --e1-max e1 --T 20000`, seed 0:
    # the printed value, an estimate of g at the mixture's statistics, lies
    # at most 3 stderr above g*, the scenario-3 optimum (a threshold
    # strategy is optimal when A observes one resource), and below it by at
    # most the run's error bound, and by at most 2e-2 (measured: 3.6e-3,
    # 6.2e-3 and 1.37e-2, against bounds of 0.191, 0.225 and 0.320)
    spec = ScenarioSpec(3, "worst-dpp", [e1], DppConfig(T=20_000), seed=0)
    (row,) = run_scenario(spec).rows
    value, stderr = row[1], row[2]
    g_star = a1_preset_optimum(e1)
    assert value <= g_star + 3 * stderr + 1e-12
    assert g_star - value <= bound_constants(scenario_game(spec, e1), spec.config).error_bound
    assert g_star - value <= 2e-2


def test_default_sweep_builds_one_kernel():
    # every point of a sweep shares one game shape, so one generated kernel
    congames.dpp._round_kernel.cache_clear()
    argv = ["worst", "dpp", "--scenario", "3", "--T", "500", "--samples", "2000"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    info = congames.dpp._round_kernel.cache_info()
    assert (info.misses, info.hits) == (1, 23)


def test_kernel_makes_no_python_call():
    # a round's only calls are the appends of its n queues to the chunk's
    # rows, a C method; the kernel reads B's omega column and A's world
    # column DRAW_CHUNK rows at a time with one tolist each, and writes
    # each chunk's rows into the history with one pack_into, whose format
    # reads the rows' len
    T = 2500
    chunks = -(-T // congames.game.DRAW_CHUNK)
    game = exp_game([1.0, 1.5, 1.0], (1, 1, 1, 0))
    kernel = congames.dpp._round_kernel(3, 1, 1)
    python, c = kernel_calls(kernel, lambda: run_dpp(game, DppConfig(T=T)))
    assert python == {}
    assert c == {"append": 3 * T, "len": chunks, "pack_into": chunks, "tolist": 2 * chunks}


def test_kernel_reads_only_the_drawn_omega_columns(monkeypatch):
    # a run draws only B's T x b block of omega, and the kernel takes every
    # other entry, the constant weight, from the game: the run gives the
    # bits of the array formulas on the full omega
    shapes = []

    def spy(game, rng, size):
        omegas = sample_omega(game, rng, size)
        shapes.append(omegas.shape)
        return omegas

    config = DppConfig(V=5.0, alpha=25.0, T=2500)
    for partition, means, z in [
        ((1, 1, 1, 0), [1.5, 1.0, 1.0], ()),
        ((2, 0, 1, 1), [0.8, 1.7, 1.0, 1.2], (1.2,)),
        ((0, 2, 1, 1), [1.3, 0.7, 1.0, 0.9], (0.9,)),
    ]:
        game = _game(partition, means, z)
        with monkeypatch.context() as patch:
            patch.setattr(congames.dpp, "sample_omega", spy)
            run = run_dpp(game, config, seed=5)
        assert shapes.pop() == (config.T, partition[1])
        reference = numpy_run(game, config, seed=5)
        assert_gamma_matches_numpy(run, reference)
        assert_queues_match_numpy(run, reference)


def test_each_kernel_shape_has_its_own_source():
    # every (n, a, b) compiles its own source under its own linecache name
    shapes = [(n, a, b) for n in range(1, 5) for a in range(n + 1) for b in range(n - a + 1)]
    names = {congames.dpp._round_kernel(*shape).__code__.co_filename for shape in shapes}
    assert len(names) == len(shapes)
    assert all(linecache.getlines(name) for name in names)
    assert "<dpp round kernel n=3 a=1 b=1>" in names


def _sha256(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype=float).tobytes())
    return h.hexdigest()


# Output bits of the three step solvers at T = 2000, recorded before their
# kernels moved from numpy arrays to Python floats; a solver change must keep
# them.  The last DPP case has alpha < V^2 and breaks the queue cap.  The MD
# digests hold where numpy dispatches np.exp to its AVX-512 code; the A1
# digests were recorded again when A1's exponentials moved to math.exp, and
# equal what its np.exp kernel gave with that dispatch off.
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
     "c674353ed00aaf95619a9135960a977e4713fd8bfe0fb7a18792f44b87bde932"),
    ((1, 2, 1, 0), [1.2, 0.8, 1.0, 1.1], (), 7,
     "76c64e76f7417e2197a6b844c7580aaba8befbc00cfc09087606a9899e3b6bfc"),
    # n = 9: the normalizer sums 9 entries and the projection 8, past numpy's
    # left-to-right range; the second game pins p0 at DEFAULT_DELTA in 1407
    # of its 2000 rounds, the first in none
    ((1, 3, 4, 1), [0.4, 1.1, 0.9, 1.3, 1.0, 1.2, 0.8, 1.0, 0.7], (0.7,), 8,
     "ba04d96a4875e58e446100740f398eebeddaa991695e418ed1ab3a60e1f9633c"),
    ((1, 3, 4, 1), [0.1, 1.1, 0.9, 1.3, 1.0, 1.2, 0.8, 1.0, 0.7], (0.7,), 8,
     "37518787686f949ac32400203463eb96d35e8a9ebcab1a2d4c61f525622a2837"),
]


def test_dpp_outputs_keep_their_bits():
    for partition, means, z, V, alpha, seed, expected, violations in GOLDEN_DPP:
        config = DppConfig(V=V, alpha=alpha, T=2000)
        mixture, diag = run_dpp(_game(partition, means, z), config, seed)
        digest = _sha256(mixture.values, diag.final_queues, diag.final_gamma, diag.avg_realized)
        assert (digest, diag.violations) == (expected, violations), partition


def test_md_outputs_keep_their_bits():
    for partition, means, z, seed, expected in GOLDEN_MD:
        p = run_md(_game(partition, means, z), MdConfig(alpha=50.0, T=2000), seed)
        assert _sha256(p) == expected, partition


def test_a1_outputs_keep_their_bits():
    for partition, means, z, seed, expected in GOLDEN_A1:
        p, value, stderr = solve_a1(
            _game(partition, means, z), MdConfig(alpha=50.0, T=2000), seed, n_samples=5000
        )
        assert _sha256(p, [value, stderr]) == expected, partition


# numpy's dispatch targets that run its AVX-512 code
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

# run with those targets disabled: the A1 digests and the seed-0 smoke CSV of
# the benchmark's worst-a1-s3 workload keep their bits
NO_AVX512_CHILD = """
import contextlib, hashlib, io, json, sys
from numpy._core._multiarray_umath import __cpu_features__
from congames.cli import main
import test_dpp

disabled = sys.argv[1:]
assert not any(__cpu_features__[target] for target in disabled), disabled
test_dpp.test_a1_outputs_keep_their_bits()
with open("perfbench/workloads.json") as f:
    workloads = json.load(f)
spec = workloads["workloads"]["worst-a1-s3"]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(spec["argv"] + spec["smoke_argv"] + ["--seed", "0"]) == 0
digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
assert digest == workloads["smoke_csv_sha256_seed0"]["worst-a1-s3"], digest
"""


def test_a1_bits_hold_without_avx512_dispatch():
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    targets = [t for t in AVX512_TARGETS if t in umath.__cpu_dispatch__ and umath.__cpu_features__.get(t)]
    if not targets:
        pytest.skip(f"this host runs none of numpy's AVX-512 dispatch targets {', '.join(AVX512_TARGETS)}")
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root / "tests")])
    proc = subprocess.run(
        [sys.executable, "-c", NO_AVX512_CHILD, *targets], cwd=root, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
