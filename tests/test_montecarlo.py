import math
import struct
import sys
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
from congames.montecarlo import _action_stream, _mean_and_stderr, _threshold_stats
from congames.rng import WORLD_STREAM, stream_generators
from congames.strategies import _least_clearing, batch_actions
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
    # the sampled max term holds B's b n_samples columns whatever n is: at
    # b = 2, 1000 samples need 16 000 bytes at n = 12, not 1000 x 12 draws
    # (96 000); the estimate refuses with the max term's one check
    g = exp_game([1.0] * 12, (0, 2, 10, 0))
    x = np.full(12, 1.0 / 12)
    monkeypatch.setattr(congames.game, "UPFRONT_BUDGET_BYTES", 16_000)
    assert omega_max_mean(x, g, n_samples=1000, rng=1)[1] > 0
    monkeypatch.setattr(congames.game, "UPFRONT_BUDGET_BYTES", 15_999)
    need = "run with n_samples=1000, n=12 needs 0 MiB up front"
    with pytest.raises(ValueError, match="omega_max_mean " + need):
        omega_max_mean(x, g, n_samples=1000, rng=1)

def test_oversized_estimates_fail_before_sampling(monkeypatch, capsys):
    def no_draws(*args, **kwargs):
        raise AssertionError("the estimate sampled before checking its budget")

    for module in (congames.montecarlo, congames.nash):
        monkeypatch.setattr(module, "sample_world", no_draws)
    monkeypatch.setattr(Exponential, "fill", no_draws)
    g = exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0))
    score = Mixture([[1.0, 0.5, 0.5]], private=[0])
    # a one-row mixture of A holds its one drawn column and its threshold
    # split: one product column and four masks
    with pytest.raises(ValueError, match="estimate_stats run with n_samples=200000000, n=3 needs 3815 MiB up front"):
        estimate_stats(score, g, "A", n_samples=2 * 10**8)
    # B's two-row mixture: two drawn columns, the component draws, the
    # 3 columns of scores and the actions
    mixture = Mixture([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5]], private=[1])
    with pytest.raises(ValueError, match="estimate_stats run with n_samples=100000000, n=3 needs 5341 MiB up front"):
        estimate_stats(mixture, g, "B", n_samples=10**8)
    # the n world columns, what each player's acting holds (A's threshold
    # split, B's uniform draws beside its actions) and the rewards
    with pytest.raises(ValueError, match="simulate_payoff run with n_samples=100000000, n=3 needs 5722 MiB up front"):
        simulate_payoff(score, Simplex([0.0, 1.0, 0.0]), g, n_samples=10**8)
    # B's omega column, which the product and the running maximum are
    # written into
    need = r"run with n_samples=200000000, n=3 needs 1526 MiB up front"
    with pytest.raises(ValueError, match="omega_max_mean " + need):
        omega_max_mean(np.full(3, 1.0 / 3.0), g, n_samples=2 * 10**8)
    # exact statistics and a deterministic max allocate nothing, so pass
    assert estimate_stats(Simplex([1.0, 0.0, 0.0]), g, "A", n_samples=10**8).p[0] == 1.0
    g0 = exp_game([1.0, 1.0, 1.0], (1, 0, 2, 0))
    assert omega_max_mean(np.full(3, 1.0 / 3.0), g0, n_samples=10**8) == (1.0 / 3.0, 0.0)
    # an A turn's estimate reads one column beside its threshold split
    # (954 MiB here), but the run's worlds hold both private columns, which
    # the run counts, with the split beside them, before it draws them
    code = main(["nash", "--scenario", "3", "--samples", "50000000"])
    assert code == 2
    assert "nash run with n_samples=50000000, n=3 needs 1335 MiB up front" in capsys.readouterr().err


def test_estimate_budget_counts_what_the_estimate_holds(monkeypatch):
    # 1000 rows of the drawn columns and either a one-row mixture's
    # threshold split (a product column and four masks of 1/8 column) or
    # what acting holds: a threshold's actions, mask and tail draws, a
    # mixture's component draws, scores and actions; not 1000 x n floats
    g = exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0))
    cases = [
        (Mixture([[1.0, 0.5, 0.5]], private=[0]), "A", 1 + 1.5),
        (Mixture([[1.0, 0.5, 0.5]], private=[1]), "B", 2 + 1.5),
        (QuantileThreshold(0.5, [0.5, 0.5]), "A", 1 + 3.125),
        (Mixture([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5]], private=[0]), "A", 6),
    ]
    for strategy, player, columns in cases:
        monkeypatch.setattr(congames.game, "UPFRONT_BUDGET_BYTES", 1000 * 8 * columns)
        estimate_stats(strategy, g, player, n_samples=1000)
        monkeypatch.setattr(congames.game, "UPFRONT_BUDGET_BYTES", 1000 * 8 * columns - 1)
        with pytest.raises(ValueError, match="^estimate_stats run with n_samples=1000, n=3 needs"):
            estimate_stats(strategy, g, player, n_samples=1000)


def test_simulation_budget_counts_what_the_simulation_holds(monkeypatch):
    # 1000 rows of the n world columns, what each player's acting holds (a
    # simplex's uniform draws and actions, a one-row mixture's threshold
    # split, a threshold's actions, mask and tail draws, a multi-row
    # mixture's component draws, scores and actions) and the rewards
    g = exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0))
    score_a = Mixture([[1.0, 0.5, 0.5]], private=[0])
    mixture_a = Mixture([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5]], private=[0])
    mixture_b = Mixture([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5]], private=[1])
    cases = [
        (Simplex([0.2, 0.3, 0.5]), Simplex([0.0, 1.0, 0.0]), 3 + 2 + 2 + 1),
        (score_a, Mixture([[1.0, 0.5, 0.5]], private=[1]), 3 + 1.5 + 1.5 + 1),
        (QuantileThreshold(0.5, [0.5, 0.5]), mixture_b, 3 + 3.125 + 5 + 1),
        (mixture_a, mixture_b, 3 + 5 + 5 + 1),
    ]
    for strategy_a, strategy_b, columns in cases:
        monkeypatch.setattr(congames.game, "UPFRONT_BUDGET_BYTES", 1000 * 8 * columns)
        simulate_payoff(strategy_a, strategy_b, g, n_samples=1000)
        monkeypatch.setattr(congames.game, "UPFRONT_BUDGET_BYTES", 1000 * 8 * columns - 1)
        with pytest.raises(ValueError, match="^simulate_payoff run with n_samples=1000, n=3 needs"):
            simulate_payoff(strategy_a, strategy_b, g, n_samples=1000)


def argmax_of_scores(strategy, obs):
    """A one-row mixture's picks from its full (rows, n) scores: each row's
    argmax, lowest index on ties, except that a row with a NaN score picks
    the best constant, as a NaN product clears no comparison."""
    private = strategy.private
    scores = np.repeat(strategy.values, len(obs), axis=0)
    scores[:, private] *= obs
    picks = np.argmax(scores, axis=1)
    const = strategy.values[0].copy()
    const[private] = -np.inf
    picks[np.isnan(scores).any(axis=1)] = np.argmax(const)
    return picks


def reference_stats(strategy, game, player, drawn, seed):
    """The action-array formula: act every row with ``batch_actions``, count
    the picks with ``np.bincount``, and average ``W_k * (actions == k)``."""
    private = game.partition.private_set(player)
    (act_gen,) = stream_generators(seed, (_action_stream(player),))
    obs = drawn[:, private]
    actions = batch_actions(strategy, obs, act_gen)
    if len(strategy) == 1:  # and check them against the full scores
        np.testing.assert_array_equal(actions, argmax_of_scores(strategy, obs))
    p = np.bincount(actions, minlength=game.n) / len(drawn)
    q = np.array([np.mean(drawn[:, k] * (actions == k)) for k in private])
    return p, q


def least_clearing_oracle(v, c, strict):
    """The least float x with ``x * v > c`` (``strict``) or ``>= c``, by
    bisection over every float64 in order, for v > 0; None if none does."""

    def clears(x):
        return x * v > c if strict else x * v >= c

    def value(key):  # keys order the floats: -inf < ... < -0.0 == 0.0 < ... < inf
        bits = key if key >= 0 else -key | 1 << 63
        return struct.unpack("<d", struct.pack("<Q", bits))[0]

    lo, hi = -0x7FF0000000000000, 0x7FF0000000000000  # -inf and inf
    if clears(value(lo)):
        return -math.inf
    if not clears(value(hi)):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if clears(value(mid)) else (mid, hi)
    return value(hi)


@given(
    v=st.floats(min_value=0.0, allow_infinity=False),
    c=st.floats(allow_nan=False),
    strict=st.booleans(),
)
@example(v=0.7, c=1.0, strict=False)
@example(v=0.7, c=1.0, strict=True)
@example(v=1.0, c=-math.inf, strict=False)  # every resource private
@example(v=0.0, c=1.0, strict=False)  # a zero score
@example(v=0.5, c=5e-324, strict=False)  # a subnormal quotient
@example(v=1e10, c=1e-300, strict=True)  # a subnormal quotient of normal floats
@example(v=1e-10, c=0.0, strict=False)  # negatives near -0.0 round to it
@example(v=1e-300, c=1e300, strict=True)  # the quotient overflows
@example(v=5e-324, c=-1.0, strict=False)
@settings(max_examples=500, deadline=None)
def test_least_clearing_float_is_the_least_whose_product_clears(v, c, strict):
    t = _least_clearing(v, c, strict)
    if v == 0.0 or math.isinf(c):
        assert t is None  # these take the products
        return
    if t is None:  # the search gives up only where c, v or c / v is not normal
        assert not all(sys.float_info.min <= abs(x) <= sys.float_info.max for x in (v, c, c / v))
        return
    assert t == least_clearing_oracle(v, c, strict)


# observations that a one-column threshold must treat as the products do:
# the least float whose product clears the best constant and the float
# below it, the infinities, NaN, and zero and the least subnormal below it
EDGES = ("t", "below t", "inf", "-inf", "nan", "-0.0", "-tiny")


def place_edges(worlds, values, private, edges):
    """Overwrite the first private column of successive rows of ``worlds``
    with the observations named by ``edges``; t is that of the mixture row
    ``values`` (any float, 1.0, where its score is 0)."""
    const = np.array(values, dtype=float)
    const[private] = -np.inf
    j = int(np.argmax(const))
    v = float(values[private[0]])
    t = least_clearing_oracle(v, float(const[j]), private[0] > j) if v > 0 else 1.0
    t = math.inf if t is None else t
    table = {
        "t": t,
        "below t": math.nextafter(t, -math.inf),
        "inf": math.inf,
        "-inf": -math.inf,
        "nan": math.nan,
        "-0.0": -0.0,
        "-tiny": -5e-324,
    }
    for i, edge in enumerate(edges):
        worlds[i % len(worlds), private[0]] = table[edge]


# scores and rewards on these atoms tie often: 0.5 * 2 == 1 * 1 == 1
ATOMS = (0.0, 0.5, 1.0, 2.0)

THRESHOLD_CASES = dict(
    sizes=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)).filter(
        lambda s: s[0] + s[1] > 0
    ),
    player_b=st.booleans(),
    rows=st.lists(st.lists(st.sampled_from(ATOMS), min_size=10, max_size=10), min_size=1, max_size=2),
    z=st.lists(st.sampled_from(ATOMS), min_size=2, max_size=2),
    n_samples=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32),
    edges=st.lists(st.sampled_from(EDGES), max_size=4),
)
THRESHOLD_EXAMPLES = [
    dict(sizes=(2, 0, 0, 0), player_b=False, rows=[[0.0] * 10], n_samples=50, seed=1),
    dict(sizes=(0, 3, 0, 0), player_b=True, rows=[[1.0, 0.5, 2.0] + [0.0] * 7], n_samples=80, seed=2),
    dict(sizes=(1, 0, 0, 0), player_b=False, rows=[[0.5] * 10], n_samples=40, seed=3),
    dict(sizes=(1, 1, 1, 0), player_b=False, rows=[[0.5, 1.0, 1.0] + [0.0] * 7], n_samples=60, seed=4),
    dict(sizes=(1, 2, 0, 1), player_b=True, rows=[[1.0, 0.5, 1.0, 1.0] + [0.0] * 6], z=[1.0, 0.0], n_samples=60, seed=5),
    # every resource private, so c = -inf
    dict(sizes=(1, 0, 0, 0), player_b=False, rows=[[1.0] * 10], n_samples=20, seed=6, edges=["t", "below t", "-inf"]),
    # a zero score on the private column: an infinite reward gives NaN
    dict(sizes=(1, 1, 1, 0), player_b=False, rows=[[0.0, 1.0, 0.5] + [0.0] * 7], n_samples=20, seed=7, edges=["inf", "-0.0"]),
    # observations at t and one ulp below it, private index below j (>= c)
    dict(sizes=(1, 1, 1, 0), player_b=False, rows=[[0.7, 1.0, 0.3] + [0.0] * 7], n_samples=20, seed=8, edges=["t", "below t"]),
    # and above j (> c)
    dict(sizes=(1, 1, 1, 0), player_b=True, rows=[[1.0, 0.7, 0.3] + [0.0] * 7], n_samples=20, seed=9, edges=["t", "below t"]),
    # a subnormal c / v
    dict(sizes=(1, 1, 1, 0), player_b=False, rows=[[0.5, 5e-324, 0.0] + [0.0] * 7], n_samples=20, seed=10, edges=["t", "below t", "-tiny"]),
    # infinite, NaN and signed-zero observations
    dict(sizes=(1, 1, 1, 0), player_b=False, rows=[[1.0, 0.5, 0.5] + [0.0] * 7], n_samples=20, seed=11, edges=["inf", "-inf", "nan", "-0.0"]),
    # c = 0: a small score rounds many negative subnormals to -0.0, which ties c
    dict(sizes=(1, 1, 1, 0), player_b=False, rows=[[1e-10, 0.0, 0.0] + [0.0] * 7], n_samples=20, seed=12, edges=["-tiny", "-0.0", "below t", "t"]),
    dict(sizes=(1, 1, 1, 0), player_b=True, rows=[[0.0, 1e-10, 0.0] + [0.0] * 7], n_samples=20, seed=13, edges=["-tiny", "-0.0", "below t", "t"]),
]


def threshold_cases(test):
    """Run ``test`` on random one-row and two-row mixtures and edge
    observations, and on every case of :data:`THRESHOLD_EXAMPLES`."""
    for case in THRESHOLD_EXAMPLES:
        test = example(**{"z": [0.0] * 2, "edges": [], **case})(test)
    return given(**THRESHOLD_CASES)(settings(max_examples=150, deadline=None)(test))


def threshold_game(sizes, player_b, rows, z, n_samples, seed, edges):
    """The game, player, mixture and n worlds of one threshold case."""
    a, b, c, d = sizes
    n = a + b + c + d
    player = "B" if (player_b and b) or not a else "A"
    law = Discrete(ATOMS, (0.25,) * 4)
    g = GameInstance(Partition(*sizes), (law,) * n, z=z[:d])
    private = g.partition.private_set(player)
    strategy = Mixture(np.array(rows)[:, :n], private)
    (world_gen,) = stream_generators(seed, (WORLD_STREAM,))
    full = sample_world(g, world_gen, size=n_samples)
    place_edges(full, strategy.values[0], private, edges)
    return g, player, strategy, full


@threshold_cases
def test_threshold_mask_stats_match_the_action_array_formula(sizes, player_b, rows, z, n_samples, seed, edges):
    g, player, strategy, full = threshold_game(sizes, player_b, rows, z, n_samples, seed, edges)
    private = strategy.private
    read = np.ascontiguousarray(full[:, : private[-1] + 1])
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN
        want_p, want_q = reference_stats(strategy, g, player, full, seed)
        if len(strategy) == 1:  # the masks' stats, NaN rates included
            p, q = _threshold_stats(strategy.values[0], private, full[:, private], g.n)
            assert (p.tobytes(), q.tobytes()) == (want_p.tobytes(), want_q.tobytes())
        # worlds holding exactly the columns read, all n, or drawn by the
        # estimate (which are the sampled ones only where no edge was placed)
        for worlds in (lambda: read, lambda: full) + (None,) * (not edges):
            if not (want_q >= 0).all():  # a negative or NaN reward, or inf * 0
                with pytest.raises(ValueError, match="^q entries must be non-negative$"):
                    estimate_stats(strategy, g, player, n_samples=n_samples, rng=seed, worlds=worlds)
                continue
            got = estimate_stats(strategy, g, player, n_samples=n_samples, rng=seed, worlds=worlds)
            assert got.p.tobytes() == want_p.tobytes()
            assert got.q.tobytes() == want_q.tobytes()


@threshold_cases
def test_threshold_actions_match_the_argmax_of_the_scores(sizes, player_b, rows, z, n_samples, seed, edges):
    _, _, strategy, full = threshold_game(sizes, player_b, rows[:1], z, n_samples, seed, edges)
    obs = full[:, strategy.private]
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN
        actions = batch_actions(strategy, obs)
        want = argmax_of_scores(strategy, obs)
    assert actions.dtype == want.dtype
    np.testing.assert_array_equal(actions, want)


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


def test_best_response_estimate_peaks_at_one_column_and_one_mask():
    # a one-column best response on given worlds holds one float column (the
    # mask q is summed on) and one boolean mask: no product column, no
    # action array, no copy of the private block and no cast buffer
    n_samples = 100_000
    g = exp_game([1.5, 1.0, 1.2], (1, 1, 1, 0))
    drawn = sample_world(g, 0, size=n_samples, columns=2)
    opponents = {"A": StrategyStats("B", [0.2, 0.5, 0.3], [0.3]), "B": StrategyStats("A", [0.3, 0.3, 0.4], [0.2])}
    for player, opp in opponents.items():
        score = congames.nash.best_response(player, opp, g)
        estimate_stats(score, g, player, n_samples=n_samples, worlds=lambda: drawn)  # warm caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            estimate_stats(score, g, player, n_samples=n_samples, worlds=lambda: drawn)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= n_samples * 9 + 32 * 2**10, f"player {player} peaked at {peak / 2**10:.0f} KiB"


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


@pytest.mark.parametrize("size", [2, 7, 8, 9, 127, 128, 129, 1000, 100_003])
def test_in_place_moments_are_numpys_bits(size):
    # the payoff simulation and the max-term estimates take the mean and
    # std(ddof=1) in place, with numpy's own steps: the bits of mean() and
    # std(ddof=1) / sqrt(N), across numpy's pairwise-sum block sizes, on
    # spread values, half-collided payoffs and a constant column with zeros
    rng = np.random.default_rng(size)
    cases = [
        rng.exponential(1.7, size),
        np.where(rng.random(size) < 0.3, 0.5, 1.0) * rng.uniform(0.0, 3.0, size),
        np.full(size, 0.3),
        np.where(rng.random(size) < 0.5, -0.0, 0.0),
    ]
    for values in cases:
        expected = np.array([values.mean(), values.std(ddof=1) / np.sqrt(size)])
        assert np.array(_mean_and_stderr(values.copy())).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "strategy, partition, player, message",
    [
        (Simplex([0.5, 0.5]), (1, 1, 1, 0), "A", "Simplex strategy has 2 entries, game has 3"),
        (
            QuantileThreshold(1.0, [0.5, 0.5]), (1, 1, 1, 0), "B",
            "QuantileThreshold requires player A with exactly one private resource",
        ),
        (
            QuantileThreshold(1.0, [0.5, 0.5]), (2, 0, 1, 0), "A",
            "QuantileThreshold requires player A with exactly one private resource",
        ),
        (QuantileThreshold(1.0, [1.0]), (1, 1, 1, 0), "A", "QuantileThreshold tail must cover resources 1..n-1"),
        (Mixture(np.ones((1, 2)), private=[0]), (1, 1, 1, 0), "A", "score vector length does not match the game"),
    ],
)
def test_montecarlo_refusals(strategy, partition, player, message):
    game = exp_game([1.0] * sum(partition), partition)
    with pytest.raises(ValueError) as caught:
        estimate_stats(strategy, game, player, n_samples=10)
    assert str(caught.value) == message
