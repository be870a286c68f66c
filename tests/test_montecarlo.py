import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import congames.game
import congames.montecarlo
import congames.nash
from congames import (
    Discrete,
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
    sample_world,
    simulate_payoff,
)
from congames.cli import main
from congames.montecarlo import _action_stream
from congames.rng import WORLD_STREAM, stream_generators
from congames.strategies import batch_actions
from congames.md import omega_sup_sq_mean
from congames.worstcase import omega_max_mean
from conftest import exp_game, random_strategy, spy_on_sample_world


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


def reference_stats(strategy, game, player, drawn, seed):
    """The action-array formula: act every row with ``batch_actions``, count
    the picks with ``np.bincount``, and average ``W_k * (actions == k)``."""
    private = game.partition.private_set(player)
    (act_gen,) = stream_generators(seed, (_action_stream(player),))
    obs = drawn[:, private]
    actions = batch_actions(strategy, obs, act_gen)
    if len(strategy) == 1:  # and check them against the plain argmax
        scores = np.repeat(strategy.values, len(drawn), axis=0)
        scores[:, private] *= obs
        np.testing.assert_array_equal(actions, np.argmax(scores, axis=1))
    p = np.bincount(actions, minlength=game.n) / len(drawn)
    q = np.array([np.mean(drawn[:, k] * (actions == k)) for k in private])
    return p, q


# scores and rewards on these atoms tie often: 0.5 * 2 == 1 * 1 == 1
ATOMS = (0.0, 0.5, 1.0, 2.0)


@given(
    sizes=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)).filter(
        lambda s: s[0] + s[1] > 0
    ),
    player_b=st.booleans(),
    rows=st.lists(st.lists(st.sampled_from(ATOMS), min_size=10, max_size=10), min_size=1, max_size=2),
    z=st.lists(st.sampled_from(ATOMS), min_size=2, max_size=2),
    n_samples=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32),
)
@example(sizes=(2, 0, 0, 0), player_b=False, rows=[[0.0] * 10], z=[0.0] * 2, n_samples=50, seed=1)
@example(sizes=(0, 3, 0, 0), player_b=True, rows=[[1.0, 0.5, 2.0] + [0.0] * 7], z=[0.0] * 2, n_samples=80, seed=2)
@example(sizes=(1, 0, 0, 0), player_b=False, rows=[[0.5] * 10], z=[0.0] * 2, n_samples=40, seed=3)
@example(sizes=(1, 1, 1, 0), player_b=False, rows=[[0.5, 1.0, 1.0] + [0.0] * 7], z=[0.0] * 2, n_samples=60, seed=4)
@example(sizes=(1, 2, 0, 1), player_b=True, rows=[[1.0, 0.5, 1.0, 1.0] + [0.0] * 6], z=[1.0, 0.0], n_samples=60, seed=5)
@settings(max_examples=150, deadline=None)
def test_threshold_mask_stats_match_the_action_array_formula(sizes, player_b, rows, z, n_samples, seed):
    a, b, c, d = sizes
    n = a + b + c + d
    player = "B" if (player_b and b) or not a else "A"
    law = Discrete(ATOMS, (0.25,) * 4)
    g = GameInstance(Partition(*sizes), (law,) * n, z=z[:d])
    private = g.partition.private_set(player)
    strategy = Mixture(np.array(rows)[:, :n], private)
    (world_gen,) = stream_generators(seed, (WORLD_STREAM,))
    full = sample_world(g, world_gen, size=n_samples)
    read = np.ascontiguousarray(full[:, : private[-1] + 1])
    want_p, want_q = reference_stats(strategy, g, player, full, seed)
    # worlds holding exactly the columns read, all n, or drawn by the estimate
    for worlds in (lambda: read, lambda: full, None):
        got = estimate_stats(strategy, g, player, n_samples=n_samples, rng=seed, worlds=worlds)
        assert got.p.tobytes() == want_p.tobytes()
        assert got.q.tobytes() == want_q.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_threshold_mask_stats_count_rows_that_fall_back_to_a_private_j():
    # every resource is private, so j is private too; an infinite reward at
    # score 0 gives a NaN product that takes nothing and falls back to j
    g = GameInstance(Partition(2, 0, 0, 0), (Exponential(1.0),) * 2)
    strategy = Mixture([[0.0, 0.0]], private=[0, 1])
    drawn = np.array([[np.inf, 1.0], [1.0, 2.0], [3.0, 1.0]])
    want_p, want_q = reference_stats(strategy, g, "A", drawn, 0)
    got = estimate_stats(strategy, g, "A", n_samples=3, worlds=lambda: drawn)
    assert want_p.tolist() == [1.0, 0.0] and want_q[0] == np.inf
    assert got.p.tobytes() == want_p.tobytes()
    assert got.q.tobytes() == want_q.tobytes()


@pytest.mark.parametrize("sizes", [(1, 1, 1, 0), (2, 1, 0, 1), (1, 2, 1, 1), (0, 2, 1, 0)])
def test_estimates_draw_only_the_columns_they_read(monkeypatch, sizes):
    calls = spy_on_sample_world(monkeypatch)
    g = GameInstance(Partition(*sizes), (Exponential(1.0),) * sum(sizes), z=[1.0] * sizes[3])
    part = g.partition
    for player, columns in (("A", part.a), ("B", part.a + part.b)):
        private = part.private_set(player)
        if not private.size:
            continue
        one_row = Mixture([np.linspace(1.0, 0.5, g.n)], private)
        two_rows = Mixture([np.linspace(1.0, 0.5, g.n), np.linspace(0.5, 1.0, g.n)], private)
        for strategy in (one_row, two_rows):
            calls.clear()
            estimate_stats(strategy, g, player, n_samples=500, rng=3)
            assert calls == [(500, columns)]
    if part.a == 1:
        calls.clear()
        estimate_stats(QuantileThreshold(0.5, np.full(g.n - 1, 1.0 / (g.n - 1))), g, "A", n_samples=500)
        assert calls == [(500, 1)]


def test_worlds_with_too_few_rows_or_columns_are_refused():
    g = exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0))
    score_b = Mixture([[0.5, 1.0, 0.5]], private=[1])
    need = r"need 100 rows \(n_samples\) and at least 2 columns"
    for shape in ((99, 3), (101, 2), (100, 1), (100,)):
        with pytest.raises(ValueError, match=rf"^worlds have shape \({shape[0]},.*{need}$"):
            estimate_stats(score_b, g, "B", n_samples=100, worlds=lambda: np.ones(shape))
    assert estimate_stats(score_b, g, "B", n_samples=100, worlds=lambda: np.ones((100, 2))).p[1] == 1.0


def test_best_response_estimate_peaks_under_12_bytes_per_sample():
    # a one-row mixture on given worlds holds one product vector and one
    # mask at a time: no action array, no copy of the private block
    n_samples = 100_000
    g = exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0))
    drawn = sample_world(g, 0, size=n_samples, columns=2)
    scores = {"A": Mixture([[1.0, 0.5, 0.7]], private=[0]), "B": Mixture([[0.6, 1.0, 0.7]], private=[1])}
    for player, score in scores.items():
        estimate_stats(score, g, player, n_samples=n_samples, worlds=lambda: drawn)  # warm caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            estimate_stats(score, g, player, n_samples=n_samples, worlds=lambda: drawn)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / n_samples < 12, f"player {player} peaked at {peak / n_samples:.1f} bytes per sample"


def test_a_generator_is_split_on_every_sampling_call():
    # each sampling estimate spawns two generators from a Generator argument,
    # used or not, so the generator's later spawns stay where they were
    g = exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0))
    worlds = sample_world(g, 7, size=500)
    gen = np.random.default_rng(11)
    estimate_stats(Mixture([[1.0, 0.5, 0.2]], [0]), g, "A", n_samples=500, rng=gen, worlds=lambda: worlds)
    estimate_stats(Mixture([[1.0, 0.5, 0.2], [0.1, 0.5, 0.9]], [0]), g, "A", n_samples=500, rng=gen)
    estimate_stats(Simplex([0.2, 0.3, 0.5]), g, "A", n_samples=500, rng=gen)  # exact: no spawn
    reference = np.random.default_rng(11)
    reference.spawn(4)
    assert gen.spawn(1)[0].random(4).tobytes() == reference.spawn(1)[0].random(4).tobytes()
    # an rng that is neither is refused, even where no stream is read
    with pytest.raises(TypeError, match="cannot interpret '11' as a random generator"):
        estimate_stats(Mixture([[1.0, 0.5, 0.2]], [0]), g, "A", n_samples=500, rng="11", worlds=lambda: worlds)


def test_nash_turns_on_cached_worlds_build_no_generator(monkeypatch):
    # a best response is a one-row mixture counted on the run's worlds, so
    # neither the world nor the action stream is read; an int seed builds
    # neither
    calls = []
    original = congames.montecarlo.stream_generators

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(congames.montecarlo, "stream_generators", spy)
    game = exp_game([1.2, 1.0, 0.8], (1, 1, 1, 0))
    report = congames.nash.iterate_best_response(game, n_samples=2000, seed=3)
    assert report.iterations >= 2 and calls == []
    # an estimate that draws its own worlds builds the world stream alone
    estimate_stats(report.strategy_a, game, "A", n_samples=2000, rng=3)
    assert calls == [(3, (WORLD_STREAM,))]
