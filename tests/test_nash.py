import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import congames.nash
from congames import (
    Exponential,
    GameInstance,
    Mixture,
    NashConfig,
    Partition,
    Simplex,
    StrategyStats,
    best_response,
    estimate_stats,
    expected_utility,
    iterate_best_response,
    parse_game,
    potential,
    sample_world,
)
from congames.experiments import SCENARIO_PARTITIONS, ScenarioSpec
from congames.nash import iteration_cap
from congames.rng import WORLD_STREAM, stream_generators
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


def test_payoffs_refuse_swapped_or_mislabelled_stats():
    g = exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0))
    sa = StrategyStats("A", [0.5, 0.25, 0.25], [0.25])
    sb = StrategyStats("B", [0.25, 0.5, 0.25], [0.25])
    message = "^stats do not match the requested player assignment$"
    for first, second in ((sb, sa), (sa, sa), (sb, sb)):
        with pytest.raises(ValueError, match=message):
            potential(first, second, g)
    for own, opp, player in ((sb, sa, "A"), (sa, sa, "A"), (sa, sb, "B"), (sb, sb, "B"), (sa, sb, "C")):
        with pytest.raises(ValueError, match=message):
            expected_utility(own, opp, g, player)


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


def test_iteration_cap_refuses_an_epsilon_it_cannot_count_to():
    # 2 * sum(E) / epsilon past the float range: refused, naming epsilon,
    # with no numpy warning (which the test settings make an error)
    g = exp_game([1.0, 1.0, 1.0], (0, 0, 3, 0))
    for eps in (1e-308, np.float64(1e-308), 5e-324):
        message = re.escape(f"epsilon={eps!r} is too small: 2 * sum(E) / epsilon is not finite")
        with pytest.raises(ValueError, match=f"^{message}$"):
            iteration_cap(g, eps)
    # a sweep asks it at the grid's largest mean, where it is largest
    with pytest.raises(ValueError, match="^epsilon=1e-308 is too small"):
        ScenarioSpec(1, "nash", [0.5, 1.0], NashConfig(1e-308))
    assert iteration_cap(g, 1e-307) == math.ceil(6.0 / 1e-307) + 1
    assert iteration_cap(g, 0.5) == 13


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


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_a_run_evaluates_the_payoffs_once_a_turn_and_once_at_the_start(monkeypatch, scenario):
    calls, original = [], congames.nash._payoffs

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(congames.nash, "_payoffs", spy)
    g = exp_game([1.0, 1.0, 1.0], SCENARIO_PARTITIONS[scenario])
    report = iterate_best_response(g, NashConfig(1e-3), n_samples=2000, seed=5)
    assert len(calls) == report.iterations + 1


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


LAWS = (
    "exponential rate={:g}",
    "uniform lo=0 hi={:g}",
    "pointmass value={:g}",
    "discrete values=0,{:g} probs=0.5,0.5",
)


@st.composite
def two_column_game_files(draw):
    """Game-file text whose A or B block (or both) has two columns, with
    exponential, uniform, point-mass and two-atom laws."""
    a, b = draw(st.sampled_from([(2, 0), (0, 2), (2, 1), (1, 2), (2, 2)]))
    c, d = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    lines = [f"n: {a + b + c + d}", f"partition: {a} {b} {c} {d}"]
    scale = st.sampled_from([0.5, 0.8, 1.0, 1.25, 2.0])
    for k in range(1, a + b + c + d + 1):
        lines.append(f"dist {k}: " + draw(st.sampled_from(LAWS)).format(draw(scale)))
    if d:
        lines.append(f"z: {draw(scale):g}")
    return "\n".join(lines) + "\n"


def four_call_trace(game, config, n_samples, seed):
    """The trace of a run whose every turn takes the mover's utility before
    and after its best response, then both utilities of the trace point:
    four ``expected_utility`` calls a turn, on the run's one world draw."""
    part = game.partition
    (gen,) = stream_generators(seed, (WORLD_STREAM,))
    drawn = sample_world(game, gen, size=n_samples, columns=part.a + part.b)

    def stats_of(strategy, player):
        return estimate_stats(strategy, game, player, n_samples=n_samples, rng=seed, worlds=lambda: drawn)

    uniform = Simplex(np.full(game.n, 1.0 / game.n))
    stats = {"A": stats_of(uniform, "A"), "B": stats_of(uniform, "B")}
    trace, quiet = [], 0
    for turn in range(iteration_cap(game, config.epsilon)):
        player, opponent = ("A", "B") if turn % 2 == 0 else ("B", "A")
        cand = stats_of(best_response(player, stats[opponent], game), player)
        before = expected_utility(stats[player], stats[opponent], game, player)
        after = expected_utility(cand, stats[opponent], game, player)
        stats[player] = cand
        trace.append(
            (
                potential(stats["A"], stats["B"], game),
                expected_utility(stats["A"], stats["B"], game, "A"),
                expected_utility(stats["B"], stats["A"], game, "B"),
                after - before,
            )
        )
        quiet = 0 if after - before > config.epsilon else quiet + 1
        if quiet >= 2:
            break
    return trace


@given(two_column_game_files(), st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32))
@example("n: 3\npartition: 2 1 0 0\ndist 1: exponential rate=1\ndist 2: exponential rate=2\n"
         "dist 3: uniform lo=0 hi=2\n", 1, 0)
@example("n: 4\npartition: 0 2 1 1\ndist 1: pointmass value=1\ndist 2: exponential rate=1\n"
         "dist 3: exponential rate=0.5\ndist 4: uniform lo=0 hi=1\nz: 0.8\n", 5, 3)
@settings(max_examples=40, deadline=None)
def test_trace_utilities_are_those_of_a_four_call_trace(text, n_samples, seed):
    game = parse_game(text)
    config = NashConfig(1e-3)
    report = iterate_best_response(game, config, n_samples=n_samples, seed=seed)
    want = four_call_trace(game, config, n_samples, seed)
    got = [(p.potential, p.utility_a, p.utility_b, p.improvement) for p in report.trace]
    # bit for bit: float.hex tells -0.0 from 0.0
    assert [tuple(map(float.hex, point)) for point in got] == [tuple(map(float.hex, point)) for point in want]
