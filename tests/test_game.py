import numpy as np
import pytest

from congames import (
    Exponential,
    GameInstance,
    Partition,
    PointMass,
    sample_omega,
    sample_world,
)
from conftest import exp_game


def test_partition_layout_and_class_of():
    part = Partition(1, 2, 1, 1)
    assert part.n == 5
    np.testing.assert_array_equal(part.set_a, [0])
    np.testing.assert_array_equal(part.set_b, [1, 2])
    np.testing.assert_array_equal(part.set_c, [3])
    np.testing.assert_array_equal(part.set_ab, [4])
    np.testing.assert_array_equal(part.a_comp, [1, 2, 3, 4])
    np.testing.assert_array_equal(part.b_comp, [0, 3, 4])
    with pytest.raises(ValueError):
        Partition(-1, 0, 2, 0)
    with pytest.raises(ValueError):
        Partition(0, 0, 0, 0)


@pytest.mark.parametrize("sizes", [(1, 2, 1, 1), (0, 0, 3, 0), (1, 1, 0, 0), (0, 0, 0, 2)])
def test_shared_is_the_c_then_ab_block(sizes):
    part = Partition(*sizes)
    joined = np.concatenate([part.set_c, part.set_ab])
    assert part.shared.dtype == joined.dtype
    np.testing.assert_array_equal(part.shared, joined)


def test_sampling_requires_a_row_count():
    g = exp_game([1.0, 1.0], (0, 1, 1, 0))
    for sample in (sample_world, sample_omega):
        with pytest.raises(TypeError):
            sample(g, 0)
        assert sample(g, 0, size=1).shape == (1, 2)


def test_conditional_means_examples():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    np.testing.assert_allclose(g.means, [1.0, 1.0])

    g = GameInstance(Partition(0, 0, 0, 1), (Exponential(1.0),), z=[3.7])
    np.testing.assert_allclose(g.means, [3.7])

    g = GameInstance(
        Partition(0, 0, 3, 0),
        (Exponential(0.5), Exponential(1.0), Exponential(1.0)),
    )
    np.testing.assert_allclose(g.means, [2.0, 1.0, 1.0])


def test_game_validation():
    with pytest.raises(ValueError):
        GameInstance(Partition(0, 0, 2, 0), (Exponential(1.0),))
    with pytest.raises(ValueError):
        GameInstance(Partition(0, 0, 1, 1), (Exponential(1.0), Exponential(1.0)), z=[-1.0])
    with pytest.raises(ValueError):
        GameInstance(Partition(0, 0, 1, 1), (Exponential(1.0), Exponential(1.0)))  # z missing


def test_sample_world_point_mass_and_conditioning():
    g = GameInstance(Partition(0, 0, 2, 0), (PointMass(1.0), PointMass(2.0)))
    w = sample_world(g, 0, size=10)
    np.testing.assert_array_equal(w, np.tile([1.0, 2.0], (10, 1)))

    g = GameInstance(Partition(0, 0, 1, 1), (Exponential(1.0), Exponential(1.0)), z=[5.0])
    w = sample_world(g, 3, size=1000)
    np.testing.assert_array_equal(w[:, 1], np.full(1000, 5.0))
    assert w[:, 0].std() > 0


def test_sample_world_seed_replay():
    g = exp_game([1.0, 2.0, 0.5], (1, 1, 1, 0))
    np.testing.assert_array_equal(sample_world(g, 42, size=64), sample_world(g, 42, size=64))
    assert not np.array_equal(sample_world(g, 42, size=64), sample_world(g, 43, size=64))


def test_sample_omega_all_private_to_a():
    g = exp_game([1.5, 2.5], (2, 0, 0, 0))
    np.testing.assert_array_equal(sample_omega(g, 0, size=5), np.ones((5, 2)))


def test_sample_omega_deterministic_when_b_zero():
    g = GameInstance(Partition(1, 0, 1, 1), (Exponential(1.0), Exponential(0.5), Exponential(1.0)), z=[0.7])
    om = sample_omega(g, 11, size=8)
    np.testing.assert_array_equal(om, np.tile([1.0, 2.0, 0.7], (8, 1)))


def test_sample_omega_b_entry_varies_others_fixed():
    # middle resource observed by B only: fresh draw each time
    g = exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0))
    om = sample_omega(g, 7, size=200)
    np.testing.assert_array_equal(om[:, 0], np.ones(200))
    np.testing.assert_array_equal(om[:, 2], np.ones(200))
    assert np.unique(om[:, 1]).size > 100


def test_means_are_read_only():
    g = exp_game([1.0, 2.0], (0, 0, 2, 0))
    with pytest.raises(ValueError):
        g.means[0] = 9.0


def test_weights_are_one_on_a_and_the_mean_elsewhere():
    g = GameInstance(
        Partition(1, 1, 1, 1),
        (Exponential(0.5), Exponential(0.25), Exponential(2.0), Exponential(1.0)),
        z=[3.0],
    )
    np.testing.assert_array_equal(g.weights, [1.0, 4.0, 0.5, 3.0])
    with pytest.raises(ValueError):
        g.weights[0] = 2.0
    # omega is the weight vector with fresh draws on the B block
    omegas = sample_omega(g, 5, size=100)
    np.testing.assert_array_equal(omegas[:, [0, 2, 3]], np.tile([1.0, 0.5, 3.0], (100, 1)))
    assert np.all(omegas[:, 1] >= 0) and len(set(omegas[:, 1])) > 1
