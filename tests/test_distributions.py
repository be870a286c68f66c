import math

import numpy as np
import pytest

from congames.distributions import Discrete, Exponential, PointMass, Uniform

ALL_KINDS = [
    Exponential(1.0),
    Exponential(0.5),
    Uniform(0.0, 2.0),
    Uniform(0.5, 1.5),
    PointMass(1.3),
    Discrete((0.5, 1.0, 3.0), (0.2, 0.5, 0.3)),
]
# the kinds that answer quantile and tail-mean queries
CONTINUOUS_KINDS = [dist for dist in ALL_KINDS if dist.is_continuous]


def test_exponential_moments():
    d = Exponential(0.5)
    assert d.mean == 2.0
    assert d.second_moment == 8.0


def test_exponential_quantile_and_tail():
    d = Exponential(1.0)
    assert d.quantile(0.5) == pytest.approx(math.log(2))
    # memoryless: conditional mean above any threshold is threshold + mean
    assert d.tail_mean(math.exp(-1)) == pytest.approx(2.0)
    assert d.tail_mean(1.0) == pytest.approx(d.mean)


def test_uniform_moments_and_tail():
    d = Uniform(0.0, 2.0)
    assert d.mean == 1.0
    assert d.second_moment == pytest.approx(4.0 / 3.0)
    assert d.tail_mean(0.5) == pytest.approx(1.5)
    assert d.tail_mean(1.0) == pytest.approx(d.mean)


def test_point_mass_and_discrete_basics():
    pm = PointMass(2.5)
    assert pm.mean == 2.5 and pm.second_moment == 6.25
    assert not pm.is_continuous

    d = Discrete((1.0, 3.0), (0.75, 0.25))
    assert d.mean == pytest.approx(1.5)
    assert d.second_moment == pytest.approx(0.75 + 0.25 * 9)
    assert not d.is_continuous
    # a zero-probability atom is never drawn
    zero_top = Discrete((1.0, 2.0), (1.0, 0.0))
    assert np.all(zero_top.sample(np.random.default_rng(1), size=1000) == 1.0)


@pytest.mark.parametrize("dist", CONTINUOUS_KINDS, ids=lambda d: type(d).__name__)
def test_quantile_non_decreasing(dist):
    us = np.linspace(0.0, 0.999, 200)
    qs = [dist.quantile(float(u)) for u in us]
    assert all(a <= b + 1e-12 for a, b in zip(qs, qs[1:]))


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: type(d).__name__)
def test_moments_match_samples(dist):
    gen = np.random.default_rng(5)
    x = np.asarray(dist.sample(gen, size=200_000), dtype=float)
    assert np.all(x >= 0)
    stderr = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - dist.mean) <= 5 * stderr + 1e-12
    sq = x**2
    stderr2 = sq.std(ddof=1) / math.sqrt(x.size)
    assert abs(sq.mean() - dist.second_moment) <= 5 * stderr2 + 1e-12


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: type(d).__name__)
@pytest.mark.parametrize("m", [0.0, 0.7, 2.5])
def test_expected_sq_max_with_matches_samples(dist, m):
    gen = np.random.default_rng(9)
    x = np.asarray(dist.sample(gen, size=200_000), dtype=float)
    sq = np.maximum(x, m) ** 2
    stderr = sq.std(ddof=1) / math.sqrt(x.size)
    assert dist.expected_sq_max_with(m) == pytest.approx(sq.mean(), abs=5 * stderr + 1e-12)


def test_sampler_determinism():
    for dist in ALL_KINDS:
        a = np.asarray(dist.sample(np.random.default_rng(123), size=50))
        b = np.asarray(dist.sample(np.random.default_rng(123), size=50))
        np.testing.assert_array_equal(a, b)


def test_validation_errors():
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        Uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        Uniform(-1.0, 1.0)
    with pytest.raises(ValueError):
        Uniform(0.0, math.inf)
    with pytest.raises(ValueError):
        PointMass(-0.1)
    with pytest.raises(ValueError):
        PointMass(float("nan"))
    with pytest.raises(ValueError):
        PointMass(math.inf)
    with pytest.raises(ValueError):
        Discrete((1.0, 2.0), (0.6, 0.6))
    with pytest.raises(ValueError):
        Discrete((-1.0, 2.0), (0.5, 0.5))
    for bad_atom in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Discrete((bad_atom, 2.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        Discrete((1.0, 2.0), (math.nan, 1.0))
    with pytest.raises(ValueError):
        Exponential(1.0).quantile(1.5)
