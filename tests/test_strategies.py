import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from congames import Mixture, Partition, QuantileThreshold, Simplex, act
from congames.explicit import no_info_objective
from congames.montecarlo import StrategyStats
from congames.quantile import build_strategy_a1
from congames.strategies import batch_actions
from conftest import exp_game


def test_mixture_copies_writable_values_and_keeps_read_only_ones():
    source = np.array([[1.0, 2.0], [3.0, 4.0]])
    mixture = Mixture(source, private=[0])
    source[0, 0] = 9.0  # the mixture holds its own copy
    assert mixture.values[0, 0] == 1.0 and not mixture.values.flags.writeable
    assert not np.shares_memory(mixture.values, source)
    frozen = np.array([[1.0, 2.0], [3.0, 4.0]])
    frozen.setflags(write=False)
    assert np.shares_memory(Mixture(frozen, private=[0]).values, frozen)
    # a read-only view of writable memory is copied too: its source can write
    src = np.array([[1.0, 0.5, 0.5]])
    for view in (src.view(), src[:, :], src[0][np.newaxis]):
        view.setflags(write=False)
        mixture = Mixture(view, private=[0])
        src[0, 1] = 9.0
        assert mixture.values.tolist() == [[1.0, 0.5, 0.5]]
        src[0, 1] = 0.5


def test_score_constant_argmax():
    # one-row mixture, no private resources: pure constant argmax, no rng
    assert act(Mixture([[1.0, 2.0]], private=[]), []) == 1


def test_score_coefficient_and_tie():
    s = Mixture([[1.0, 2.0]], private=[0])
    assert act(s, [3.0]) == 0  # 3 > 2
    assert act(s, [2.0]) == 0  # tie at 2: lowest index wins
    assert act(s, [1.0]) == 1


def test_quantile_threshold_zero_always_first():
    s = QuantileThreshold(0.0, [1.0])
    for w in (0.0, 0.3, 10.0):
        assert act(s, [w], rng=0) == 0


def test_quantile_threshold_tail_draws():
    s = QuantileThreshold(5.0, [0.0, 1.0])
    # below threshold: always from the tail, here all mass on resource 2
    assert act(s, [1.0], rng=0) == 2


def test_simplex_needs_rng():
    with pytest.raises(ValueError):
        act(Simplex([0.5, 0.5]), [])


def test_observation_length_mismatch():
    s = Mixture([[1.0, 2.0]], private=[0])
    with pytest.raises(ValueError):
        act(s, [1.0, 2.0])
    with pytest.raises(ValueError):
        act(QuantileThreshold(1.0, [1.0]), [])


def test_act_refuses_observations_that_are_not_finite():
    # a NaN product splits the one-row threshold rule from a multi-row argmax
    for strategy in (Mixture([[0.0, 1.0]], private=[0]), Mixture([[1.0, 2.0], [2.0, 1.0]], private=[0])):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^observed rewards must be finite$"):
                act(strategy, [bad], rng=0)


def test_mixture_refuses_bool_private_indices():
    # True would read as resource 1, and a boolean mask is not an index list
    for private in ([True], [True, 2], np.array([False, True])):
        with pytest.raises(ValueError, match=r"^private indices must be integers$"):
            Mixture(np.ones((1, 3)), private)
    assert Mixture(np.ones((1, 3)), np.array([0.0, 2.0])).private.tolist() == [0, 2]


def test_mixture_checks_integer_arrays_by_the_list_rules():
    # an int array skips the per-entry check, but not the range and order
    # rules, which give the list's messages
    for bad, message in (
        (np.array([-1]), "private indices out of range"),
        (np.array([3], dtype=np.uint8), "private indices out of range"),
        (np.array([1, 0]), "private indices must be strictly increasing"),
        (np.array([[1, 1]]), "private indices must be strictly increasing"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Mixture(np.ones((1, 3)), bad)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Mixture(np.ones((1, 3)), bad.tolist())
    assert Mixture(np.ones((1, 3)), np.array([[0, 2]])).private.tolist() == [0, 2]
    # a read-only int array is kept as given, a writable one copied
    given = np.arange(1, 3)
    given.setflags(write=False)
    assert Mixture(np.ones((1, 3)), given).private is given
    writable = np.arange(1, 3)
    kept = Mixture(np.ones((1, 3)), writable).private
    writable[0] = 0
    assert kept.tolist() == [1, 2] and not kept.flags.writeable
    # a read-only view of writable memory is copied, so a later write to its
    # source cannot move the block past the range and order checks
    source = np.array([0, 1])
    view = source[:1]
    view.setflags(write=False)
    kept = Mixture(np.ones((1, 3)), view).private
    source[0] = 2
    assert kept.tolist() == [0] and not np.shares_memory(kept, source)
    small = np.array([0, 2], dtype=np.int32)
    small.setflags(write=False)
    assert Mixture(np.ones((1, 3)), small).private.dtype == np.dtype(int)


def test_simplex_validation():
    with pytest.raises(ValueError):
        Simplex([0.5, 0.6])
    with pytest.raises(ValueError):
        Simplex([1.5, -0.5])
    with pytest.raises(ValueError):
        Simplex([np.nan, 1.0])
    with pytest.raises(ValueError):
        Mixture([[1.0, -1.0]], private=[])
    with pytest.raises(ValueError):
        Mixture(np.zeros((0, 2)), private=[])
    with pytest.raises(ValueError):
        Mixture([1.0, 2.0], private=[])  # one row is a (1, n) array
    for bad in (-1, 5):
        with pytest.raises(ValueError, match="private indices"):
            Mixture([[1.0, 2.0]], private=[bad])
    for bad in ([1, 0], [0, 0]):  # a private block is ascending, without repeats
        with pytest.raises(ValueError, match="strictly increasing"):
            Mixture([[1.0, 2.0, 3.0]], private=bad)
    for bad in ([0.7], [np.nan]):  # not truncated to resource 0
        with pytest.raises(ValueError, match="private indices must be integers"):
            Mixture([[1.0, 2.0]], private=bad)
    assert Mixture([[1.0, 2.0]], private=[1.0]).private.tolist() == [1]
    assert Mixture([[1.0, 2.0]], private=[]).private.size == 0
    with pytest.raises(ValueError):
        QuantileThreshold(np.nan, [1.0])
    for tau in (-np.inf, np.inf):
        assert QuantileThreshold(tau, [1.0]).tau == tau



def test_every_simplex_check_refuses_nan():
    # one check serves the strategies, the statistics, the closed-form
    # objective and the threshold construction; a NaN fails it everywhere
    g = exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0))
    nan_p = [np.nan, 0.5, 0.5]
    for build, message in (
        (lambda: StrategyStats("A", nan_p, [0.1]), "^p must be a probability vector"),
        (lambda: no_info_objective(nan_p, [1.0, 1.0, 1.0]), "^p must be a probability vector"),
        (lambda: build_strategy_a1(nan_p, g), "^p must be a probability vector"),
        (lambda: StrategyStats("A", [1.0, 0.0], [np.nan]), "^q entries must be non-negative"),
    ):
        with pytest.raises(ValueError, match=message):
            build()
    # each site keeps its tolerance: 1e-6 either way for the statistics and
    # the objective, exact non-negativity and 1e-9 for the construction
    assert StrategyStats("A", [-1e-7, 0.5, 0.5 + 2e-7], [0.1]).p[0] == -1e-7
    assert no_info_objective([-1e-7, 0.5, 0.5 + 2e-7], [1.0, 1.0, 1.0]) == pytest.approx(0.75)
    with pytest.raises(ValueError, match="within 1e-09"):
        build_strategy_a1([0.2, 0.4, 0.4 + 1e-8], g)

def test_mixture_refuses_scores_that_are_not_finite_and_non_negative():
    for bad in (np.nan, np.inf, -np.inf, -1e-300):
        with pytest.raises(ValueError, match="^score values must be finite and non-negative$"):
            Mixture([[1.0, 0.5], [bad, 0.5]], private=[0])
    assert Mixture([[-0.0, 0.5]], private=[]).values[0, 0] == 0.0
    assert Mixture(np.empty((2, 0)), private=[]).values.shape == (2, 0)


def test_mixture_checks_a_long_history_without_a_mask():
    # a drift-plus-penalty history of 2**16 rows is kept uncopied, and its
    # checks hold no 2**16 x n mask (128 KiB at n = 2)
    values = np.ones((2**16, 2))
    values.setflags(write=False)
    Mixture(values, private=[0])
    tracemalloc.start()
    try:
        assert Mixture(values, private=[0]).values is values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**10


def test_mixture_components_and_uniform_choice():
    mix = Mixture([[1.0, 0.0], [0.0, 1.0]], private=[])
    assert act(Mixture(mix.values[1:], mix.private), []) == 1
    acts = batch_actions(mix, np.zeros((20_000, 0)), rng=4)
    assert abs(np.mean(acts == 0) - 0.5) < 0.02


def test_simplex_action_frequencies():
    p = np.array([0.2, 0.3, 0.5])
    acts = batch_actions(Simplex(p), np.zeros((100_000, 0)), rng=8)
    freq = np.bincount(acts, minlength=3) / acts.size
    np.testing.assert_allclose(freq, p, atol=0.01)


def test_batch_determinism():
    obs = np.linspace(0, 3, 50).reshape(-1, 1)
    mix = Mixture([[1.0, 1.5, 0.2], [0.5, 0.1, 1.0], [2.0, 0.0, 0.3]], private=[0])
    for s in (QuantileThreshold(1.0, [0.4, 0.6]), mix):
        np.testing.assert_array_equal(batch_actions(s, obs, rng=3), batch_actions(s, obs, rng=3))


@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
)
@settings(max_examples=200, deadline=None)
def test_tie_breaking_is_lowest_index(values, i, j):
    # force a duplicated maximum, then check the argmax set's minimum is chosen
    values = list(values)
    i, j = i % len(values), j % len(values)
    top = max(values)
    values[i] = top
    values[j] = top
    chosen = act(Mixture([values], private=[]), [])
    argmax_set = [k for k, v in enumerate(values) if v == top]
    assert chosen == min(argmax_set)


# reward and score values on a coarse grid, so that products tie each other
# and the constants often
GRID = [0.0, 0.5, 1.0, 2.0]


def argmax_oracle(values, private, obs):
    """A one-row mixture's actions from the full (rows, n) score matrix."""
    scores = np.repeat(np.asarray(values)[np.newaxis], obs.shape[0], axis=0)
    if private.size:
        scores[:, private] *= obs
    return np.argmax(scores, axis=1)


@st.composite
def one_row_cases(draw):
    """(values, player's private block, observations) on a random partition:
    A's block starts at 0, B's sits after it; either may be empty or all."""
    n = draw(st.integers(min_value=1, max_value=7))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=3, max_size=3)))
    partition = Partition(cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], n - cuts[2])
    private = partition.private_set(draw(st.sampled_from("AB")))
    values = draw(st.lists(st.sampled_from(GRID), min_size=n, max_size=n))
    rows = draw(st.integers(min_value=1, max_value=16))
    obs = draw(hnp.arrays(float, (rows, private.size), elements=st.sampled_from(GRID)))
    return values, private, obs


def _case(values, private, obs):
    return values, np.array(private, dtype=int), np.array(obs, dtype=float).reshape(len(obs), -1)


@given(one_row_cases())
@example(_case([1.0, 2.0], [0], [[2.0], [1.0], [4.0]]))  # product ties a higher constant
@example(_case([2.0, 1.0], [1], [[2.0], [4.0]]))  # product ties a lower constant
@example(_case([1.0, 1.0, 0.5], [0, 1], [[1.0, 1.0], [0.5, 2.0]]))  # two products tie
@example(_case([0.5, 1.0, 2.0], [1, 2], [[2.0, 0.5], [0.0, 0.0]]))  # B's block, all tie
@example(_case([0.5, 1.0], [0, 1], [[2.0, 1.0], [0.0, 0.0]]))  # every resource private
@example(_case([1.0, 1.0, 1.0], [], [[]]))  # no private block, constants tie
@settings(max_examples=300, deadline=None)
def test_one_row_threshold_rule_matches_argmax(case):
    values, private, obs = case
    actions = batch_actions(Mixture([values], private), obs)
    expected = argmax_oracle(values, private, obs)
    assert actions.dtype == expected.dtype
    np.testing.assert_array_equal(actions, expected)


@pytest.mark.parametrize(
    "strategy, obs, error, message",
    [
        (Simplex([1.0]), np.zeros(3), ValueError, r"obs must be 2-D \(samples, private block size\)"),
        (QuantileThreshold(1.0, []), np.zeros((2, 1)), ValueError, "threshold not met but the tail simplex is empty"),
        (object(), np.zeros((1, 1)), TypeError, "unknown strategy type object"),
    ],
)
def test_strategies_refusals(strategy, obs, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        batch_actions(strategy, obs, rng=0)
