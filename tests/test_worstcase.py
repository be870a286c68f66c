import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from congames import (
    Exponential,
    Simplex,
    StrategyStats,
    estimate_stats,
    no_info_objective,
    worst_case_objective,
    worst_case_response,
    worst_case_utility,
)
from congames.strategies import act
from congames.game import GameInstance, Partition
from congames.md import omega_sup_sq_mean
from congames.rng import OMEGA_STREAM, as_generator
from congames.worstcase import omega_max_mean, omega_maxima
from conftest import LAWS, exp_game, full_omega, random_simplex, random_strategy


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
    value, _ = worst_case_objective(np.array([1.0, 0.0]), g)
    assert value == pytest.approx(1.0)
    value, _ = worst_case_objective(np.zeros(2), g)
    assert value == pytest.approx(0.0)
    g3 = exp_game([1.0, 1.0, 1.0], (0, 0, 3, 0))
    value, _ = worst_case_objective(np.full(3, 1 / 3), g3)
    assert value == pytest.approx(5.0 / 6.0)


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
    ev = worst_case_utility(Simplex([0.2, 0.5, 0.3]), g, n_samples=20_000, rng=3)
    stats = estimate_stats(Simplex([0.2, 0.5, 0.3]), g, "A", 20_000, rng=3)
    base = float(np.dot(g.means, stats.p))
    assert ev.value == pytest.approx(base - 0.5 * ev.lambda_max_mean, abs=1e-12)
    assert ev.stderr > 0
    np.testing.assert_array_equal(ev.stats.p, stats.p)
    np.testing.assert_array_equal(ev.stats.q, stats.q)


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
        fx, _ = worst_case_objective(x, g)
        fy, _ = worst_case_objective(y, g)
        fmid, _ = worst_case_objective(lam * x + (1 - lam) * y, g)
        assert fmid >= lam * fx + (1 - lam) * fy - 1e-12
        hi = np.maximum(x, y)
        fhi, _ = worst_case_objective(hi, g)
        assert fhi >= fx - 1e-12
        lip = 1.5 * abs(x[0] - y[0]) + 1.5 * np.dot(means[1:], np.abs(x[1:] - y[1:]))
        assert abs(fx - fy) <= lip + 1e-12


def test_concavity_monotone_lipschitz_mc_b1(rng):
    g = exp_game([1.2, 0.9, 2.0], (1, 1, 1, 0))
    means = g.means
    weights = means.copy()
    weights[g.partition.set_a] = 1.0
    omegas = full_omega(g, 99, size=20_000)
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


def test_omega_max_mean_needs_two_samples_only_when_sampling():
    # one draw has no standard error; the exact b = 0 case draws nothing
    x = np.full(3, 1.0 / 3.0)
    with pytest.raises(ValueError, match="n_samples must be >= 2"):
        omega_max_mean(x, exp_game([1.0, 1.0, 1.0], (0, 1, 2, 0)), n_samples=1)
    exact = omega_max_mean(x, exp_game([1.0, 1.0, 1.0], (0, 0, 3, 0)), n_samples=1)
    assert exact == (1.0 / 3.0, 0.0)


def test_omega_max_mean_matches_exact_when_b0():
    g = exp_game([2.0, 1.0], (0, 0, 2, 0))
    mean, stderr = omega_max_mean(np.array([0.5, 0.5]), g)
    assert mean == pytest.approx(1.0) and stderr == 0.0


def reference_maxima(x, game, n_samples, seed):
    """max_k omega_k x_k as computed before omega_maxima: the full
    (n_samples, n) omega draw times x, reduced by numpy's row maximum."""
    omegas = full_omega(game, as_generator(seed, OMEGA_STREAM), size=n_samples)
    return np.max(omegas * x, axis=1)


def mean_and_stderr(a):
    return np.array([a.mean(), a.std(ddof=1) / np.sqrt(len(a))])


@st.composite
def max_term_cases(draw):
    """A game with b from 0 to 3 and any catalog laws, and an x whose few
    distinct values (signed zeros among them) make ties common; negative
    entries, outside g's domain, make a row maximum below zero possible."""
    a, b, c, d = (draw(st.integers(0, hi)) for hi in (2, 3, 2, 2))
    if a + b + c + d == 0:
        c = 1  # a game needs one resource
    n = a + b + c + d
    laws = draw(st.lists(st.sampled_from(sorted(LAWS)), min_size=n, max_size=n))
    means = draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n))
    z = draw(st.lists(st.floats(0.0, 3.0), min_size=d, max_size=d))
    game = GameInstance(Partition(a, b, c, d), tuple(LAWS[law](m) for law, m in zip(laws, means)), z=z)
    values = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(-2.0, 2.0))
    x = draw(hnp.arrays(float, n, elements=values))
    return x, game, draw(st.integers(2, 300)), draw(st.integers(0, 2**32))


@given(max_term_cases())
@example((np.array([0.5, 0.5, 0.5]), exp_game([1.0, 1.0, 1.0], (0, 1, 2, 0)), 200, 0))
@example((np.array([-0.0, 0.0, -0.0]), exp_game([1.0, 1.0, 1.0], (0, 2, 1, 0)), 50, 3))
@settings(max_examples=200, deadline=None)
def test_sampled_max_terms_keep_their_bytes(case):
    x, game, n_samples, seed = case
    expected = reference_maxima(x, game, n_samples, seed)
    assert omega_maxima(x, game, n_samples, seed).tobytes() == expected.tobytes()
    if game.partition.b >= 1:
        value = np.array(omega_max_mean(x, game, n_samples, seed))
        assert value.tobytes() == mean_and_stderr(expected).tobytes()
    if game.partition.b >= 2:
        sq = reference_maxima(np.ones(game.n), game, n_samples, seed) ** 2
        value = np.array(omega_sup_sq_mean(game, n_samples, seed))
        assert value.tobytes() == mean_and_stderr(sq).tobytes()


@pytest.mark.parametrize("law", sorted(LAWS))
def test_sampled_max_term_holds_one_vector(law):
    # the up-front budget of a sampled max term counts B's b n_samples
    # columns, one at b = 1: B's drawn column, which the column's product
    # with x and the running maximum are written into
    n_samples = 200_000
    game = GameInstance(Partition(0, 1, 2, 0), (LAWS[law](1.0), Exponential(1.0), Exponential(1.0)))
    x = np.array([0.5, 0.3, 0.2])
    omega_maxima(x, game, n_samples, 0)  # leave numpy's one-time allocations out
    tracemalloc.start()
    try:
        omega_maxima(x, game, n_samples, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 * n_samples * 8 + 64 * 1024


@pytest.mark.parametrize("seed", range(12))
def test_in_place_max_terms_keep_the_reference_bits(seed):
    # omega_maxima folds the products and the running maximum into B's
    # drawn columns, and the estimates take the mean and std in place: the
    # bits of the row maximum of the full omega times x, its mean() and
    # std(ddof=1), over 100 003 draws (past numpy's vector and pairwise-sum
    # blocks) on random partitions, with signed zeros in x, point masses and
    # discrete laws making ties common; every third case has two or more
    # columns of B's block last and an x of signed zeros only, ending in
    # +0.0, -0.0, where the order of maximum's arguments decides the sign of
    # every row (numpy's maximum returns its second argument on a tie)
    rng = np.random.default_rng(seed)
    zeros = seed % 3 == 0
    a, b, c = int(rng.integers(0, 3)), int(rng.integers(2 if zeros else 1, 4)), 0 if zeros else int(rng.integers(0, 3))
    n = a + b + c
    kinds = rng.choice(sorted(LAWS), n)
    game = GameInstance(Partition(a, b, c, 0), tuple(LAWS[k](m) for k, m in zip(kinds, rng.choice([0.5, 1.0, 2.0], n))))
    x = np.append(rng.choice([0.0, -0.0], n - 2), [0.0, -0.0]) if zeros else rng.choice([0.0, -0.0, 0.5, 1.0], n)
    n_samples = 100_003
    expected = reference_maxima(x, game, n_samples, seed)
    assert omega_maxima(x, game, n_samples, seed).tobytes() == expected.tobytes()
    value = np.array(omega_max_mean(x, game, n_samples, seed))
    assert value.tobytes() == mean_and_stderr(expected).tobytes()
    if b >= 2:
        sq = reference_maxima(np.ones(n), game, n_samples, seed) ** 2
        assert np.array(omega_sup_sq_mean(game, n_samples, seed)).tobytes() == mean_and_stderr(sq).tobytes()


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
        ev = worst_case_utility(sa, g, n_samples=150_000, rng=5)
        mean, stderr = simulate_payoff(sa, adversary, g, n_samples=150_000, rng=5)
        assert mean == pytest.approx(ev.value, abs=4 * (stderr + ev.stderr) + 2e-3)
