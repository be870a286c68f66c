import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congames import Mixture, QuantileThreshold, Simplex, act
from congames.strategies import batch_actions


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
    with pytest.raises(ValueError):
        QuantileThreshold(np.nan, [1.0])
    for tau in (-np.inf, np.inf):
        assert QuantileThreshold(tau, [1.0]).tau == tau


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
