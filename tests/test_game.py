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
    assert [part.class_of(k) for k in range(5)] == ["A", "B", "B", "C", "AB"]
    with pytest.raises(IndexError):
        part.class_of(5)
    with pytest.raises(ValueError):
        Partition(-1, 0, 2, 0)
    with pytest.raises(ValueError):
        Partition(0, 0, 0, 0)


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
