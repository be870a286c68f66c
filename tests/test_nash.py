import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import congames.nash
from congames import (
    Exponential,
    GameInstance,
    Mixture,
    NashConfig,
    Partition,
    StrategyStats,
    best_response,
    estimate_stats,
    expected_utility,
    iterate_best_response,
    potential,
)
from congames.experiments import SCENARIO_PARTITIONS
from congames.nash import iteration_cap
from conftest import exp_game, random_stats, spy_on_sample_world


def test_best_response_all_shared():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    opp = StrategyStats("B", [1.0, 0.0], [])
    br = best_response("A", opp, g)
    np.testing.assert_allclose(br.values, [[0.5, 1.0]])  # one deterministic row
    assert br.private.size == 0  # picks resource 2


def test_best_response_mixed_blocks():
    g = exp_game([1.0, 1.0], (0, 1, 1, 0))
    opp = StrategyStats("B", [0.5, 0.5], [0.6])
    br = best_response("A", opp, g)
    np.testing.assert_allclose(br.values, [[0.7, 0.75]])


def test_best_response_private_coefficient():
    g = exp_game([1.0, 1.0], (1, 0, 1, 0))
    opp = StrategyStats("B", [1.0, 0.0], [])
    br = best_response("A", opp, g)
    assert br.values[0, 0] == pytest.approx(0.5)
    np.testing.assert_array_equal(br.private, [0])


def test_best_response_player_mismatch():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    stats_a = StrategyStats("A", [1.0, 0.0], [])
    with pytest.raises(ValueError):
        best_response("A", stats_a, g)


def test_potential_uniform_example():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    sa = StrategyStats("A", [0.5, 0.5], [])
    sb = StrategyStats("B", [0.5, 0.5], [])
    assert potential(sa, sb, g) == pytest.approx(1.75)


def test_potential_identity_and_bound(rng):
    # H equals either player's utility plus the other's standalone terms
    g = exp_game([1.3, 0.8, 2.1], (1, 1, 1, 0))
    part = g.partition
    means = g.means
    for _ in range(100):
        sa = random_stats(g, "A", rng)
        sb = random_stats(g, "B", rng)
        h = potential(sa, sb, g)
        ua = expected_utility(sa, sb, g, "A")
        ub = expected_utility(sb, sa, g, "B")
        b_standalone = np.dot(means[part.b_comp], sb.p[part.b_comp]) + sb.q.sum()
        a_standalone = np.dot(means[part.a_comp], sa.p[part.a_comp]) + sa.q.sum()
        assert h == pytest.approx(ua + b_standalone, abs=1e-9)
        assert h == pytest.approx(ub + a_standalone, abs=1e-9)
        assert h <= 2.0 * means.sum() + 1e-9


def test_iterate_dominant_resource():
    g = exp_game([3.0, 1.0, 1.0], (0, 0, 3, 0))
    report = iterate_best_response(g, NashConfig(1e-3))
    assert report.converged
    np.testing.assert_allclose(report.stats_a.p, [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(report.stats_b.p, [1.0, 0.0, 0.0], atol=1e-12)
    assert report.trace[-1].utility_a == pytest.approx(1.5)
    assert report.trace[-1].utility_b == pytest.approx(1.5)


@pytest.mark.parametrize("e1", [2.0, 2.5, 3.5])
def test_iterate_threshold_mean_pins_first_resource(e1):
    g = exp_game([e1, 1.0, 1.0], (0, 0, 3, 0))
    report = iterate_best_response(g, NashConfig(1e-3))
    np.testing.assert_allclose(report.stats_a.p, [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(report.stats_b.p, [1.0, 0.0, 0.0], atol=1e-12)


def test_trace_monotone_and_capped_exact():
    for e1 in (0.4, 0.9, 1.7, 2.2):
        g = exp_game([e1, 1.0, 1.0], (0, 0, 3, 0))
        report = iterate_best_response(g, NashConfig(1e-3))
        assert report.converged
        assert report.iterations == len(report.trace) <= iteration_cap(g, 1e-3)
        hs = [t.potential for t in report.trace]
        assert all(b - a >= -1e-12 for a, b in zip(hs, hs[1:]))
        # each potential increment equals the updating player's gain
        for prev, cur in zip(report.trace, report.trace[1:]):
            if cur.improvement > 1e-3:
                assert cur.potential - prev.potential == pytest.approx(
                    cur.improvement, abs=1e-9
                )
        assert all(t.improvement >= -1e-12 for t in report.trace)


def test_exit_certificate_exact():
    g = exp_game([1.6, 1.0, 0.8], (0, 0, 3, 0))
    eps = 1e-3
    report = iterate_best_response(g, NashConfig(eps))
    assert report.converged
    pairs = {"A": (report.stats_a, report.stats_b), "B": (report.stats_b, report.stats_a)}
    for player, (own, opp) in pairs.items():
        cand = best_response(player, opp, g)
        cand_stats = estimate_stats(cand, g, player, n_samples=1)
        gain = expected_utility(cand_stats, opp, g, player) - expected_utility(
            own, opp, g, player
        )
        assert gain <= eps + 1e-12


def test_iterate_with_noisy_stats_converges():
    g = exp_game([1.5, 1.0, 1.0], (0, 1, 2, 0))
    report = iterate_best_response(g, NashConfig(5e-3), n_samples=40_000, seed=9)
    assert report.converged
    assert report.iterations <= iteration_cap(g, 5e-3)
    hs = [t.potential for t in report.trace]
    # noisy mode: monotone within a few standard errors of the estimates
    slack = 4.0 * g.means.max() / np.sqrt(40_000)
    assert all(b - a >= -slack for a, b in zip(hs, hs[1:]))


def test_rejects_bad_epsilon():
    # NashConfig checks epsilon when it is built, before any run
    with pytest.raises(ValueError):
        NashConfig(0.0)


def test_rejects_non_finite_epsilon():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^epsilon must be positive and finite, got {bad!r}$"):
            NashConfig(bad)


def assert_same_report(got, want):
    for mine, theirs in ((got.strategy_a, want.strategy_a), (got.strategy_b, want.strategy_b)):
        assert type(mine) is type(theirs)
        if isinstance(mine, Mixture):
            np.testing.assert_array_equal(mine.values, theirs.values)
            np.testing.assert_array_equal(mine.private, theirs.private)
        else:
            np.testing.assert_array_equal(mine.p, theirs.p)
    for mine, theirs in ((got.stats_a, want.stats_a), (got.stats_b, want.stats_b)):
        np.testing.assert_array_equal(mine.p, theirs.p)
        np.testing.assert_array_equal(mine.q, theirs.q)
    assert got.trace == want.trace
    assert (got.iterations, got.converged) == (want.iterations, want.converged)


def redraw_every_turn(strategy, game, player, n_samples, rng, worlds=None):
    """The oracle: plain ``estimate_stats``, drawing its own worlds each turn."""
    return estimate_stats(strategy, game, player, n_samples=n_samples, rng=rng)


@pytest.mark.parametrize("scenario,draws", [(1, 0), (2, 1), (3, 1)])
def test_each_run_draws_its_worlds_once(monkeypatch, scenario, draws):
    calls = spy_on_sample_world(monkeypatch)
    a, b, _, _ = SCENARIO_PARTITIONS[scenario]
    for e1 in (0.5, 1.0, 2.0):
        before = len(calls)
        g = exp_game([e1, 1.0, 1.0], SCENARIO_PARTITIONS[scenario])
        report = iterate_best_response(g, NashConfig(1e-3), n_samples=2000, seed=5)
        assert calls[before:] == [(2000, a + b)] * draws  # only the private columns
        assert report.iterations > 1  # so later turns reused the one draw


@given(
    st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4).filter(sum),
    st.lists(st.floats(min_value=0.2, max_value=3.0), min_size=10, max_size=10),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=25, deadline=None)
def test_one_world_draw_matches_redrawing_every_turn(partition, means, seed):
    n, d = sum(partition), partition[3]
    g = GameInstance(
        Partition(*partition), tuple(Exponential(1.0 / m) for m in means[:n]), z=means[n : n + d]
    )
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_on_sample_world(mp)
        report = iterate_best_response(g, NashConfig(1e-3), n_samples=2000, seed=seed)
        sampled_turns = partition[0] + partition[1] > 0
        assert len(calls) == int(sampled_turns)
        mp.setattr(congames.nash, "estimate_stats", redraw_every_turn)
        oracle = iterate_best_response(g, NashConfig(1e-3), n_samples=2000, seed=seed)
    assert_same_report(report, oracle)
