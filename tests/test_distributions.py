import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject
from hypothesis import strategies as st

from congames import DppConfig, GameInstance, MdConfig, Partition, bound_constants, md_error_bound
from congames.distributions import Discrete, Exponential, PointMass, Uniform
from congames.rng import DRAW_CHUNK
from conftest import FRONTIER_LAWS, LAWS, over_tail_fractions

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


def quantile_tail_mean(dist, p):
    """``tail_mean`` as it was written on ``quantile``: the oracle of the
    inline form."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"tail fraction must be in [0,1], got {p}")
    if isinstance(dist, Exponential):
        return math.inf if p == 0.0 else dist.quantile(1.0 - p) + 1.0 / dist.rate
    return dist.hi if p == 0.0 else 0.5 * (dist.quantile(1.0 - p) + dist.hi)


@pytest.mark.parametrize("dist", FRONTIER_LAWS, ids=repr)
@over_tail_fractions
def test_tail_mean_is_the_quantile_formula(dist, p):
    assert dist.tail_mean(p).hex() == quantile_tail_mean(dist, p).hex()


@pytest.mark.parametrize("dist", FRONTIER_LAWS, ids=repr)
@pytest.mark.parametrize("bad", [1.5, -0.1, 1.0 + 2**-52, -(2**-1074), math.nan, math.inf])
def test_tail_mean_refuses_fractions_outside_0_1(dist, bad):
    with pytest.raises(ValueError, match=rf"^tail fraction must be in \[0,1\], got {bad}$"):
        dist.tail_mean(bad)


def test_uniform_moments_and_tail():
    d = Uniform(0.0, 2.0)
    assert d.mean == 1.0
    assert d.second_moment == pytest.approx(4.0 / 3.0)
    assert d.tail_mean(0.5) == pytest.approx(1.5)
    assert d.tail_mean(1.0) == pytest.approx(d.mean)


@st.composite
def uniform_laws(draw):
    """Uniform laws from a point up to ten times max(lo, 1) wide, most of
    them narrow: a few ulps, or 1e-16 to 1 times max(lo, 1)."""
    lo = draw(st.one_of(st.just(0.0), st.floats(1e-6, 1e8)))
    scale = max(lo, 1.0)
    if draw(st.booleans()):
        return Uniform(lo, lo + draw(st.integers(0, 4)) * math.ulp(scale))
    return Uniform(lo, lo + draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-16, 0)) * scale)


def relative_error(value, exact):
    return abs(Fraction(value) - exact) / exact if exact else abs(value)


@given(law=uniform_laws(), at=st.floats(-0.5, 1.5))
@example(law=Uniform(1e8, 1e8 + 1e-6), at=0.5)
@example(law=Uniform(3.0, 3.0), at=0.0)
def test_uniform_moments_hold_on_narrow_supports(law, at):
    # the closed forms against exact rational arithmetic, and the bounds a
    # second moment and a squared max obey: a narrow support must not
    # cancel its digits away
    lo, hi = Fraction(law.lo), Fraction(law.hi)
    m = max(0.0, law.lo + at * (law.hi - law.lo))  # in, below or above the support
    M = Fraction(m)
    second = (hi**3 - lo**3) / (3 * (hi - lo)) if hi > lo else lo**2
    if M <= lo:
        sq_max = second
    elif M >= hi:
        sq_max = M**2
    else:
        sq_max = (M**2 * (M - lo) + (hi**3 - M**3) / 3) / (hi - lo)
    assert relative_error(law.second_moment, second) <= 1e-12
    assert relative_error(law.expected_sq_max_with(m), sq_max) <= 1e-12
    assert law.mean**2 <= law.second_moment <= law.hi**2
    assert max(m, law.lo) ** 2 <= law.expected_sq_max_with(m) <= max(m, law.hi) ** 2
    if law.lo == law.hi:
        assert law.second_moment == law.lo**2


def test_point_mass_and_discrete_basics():
    pm = PointMass(2.5)
    assert pm.mean == 2.5 and pm.second_moment == 6.25
    assert not pm.is_continuous

    d = Discrete((1.0, 3.0), (0.75, 0.25))
    assert d.mean == pytest.approx(1.5)
    assert d.second_moment == pytest.approx(0.75 + 0.25 * 9)
    assert not d.is_continuous
    # integer atoms are squared as floats: 2**32 squared does not wrap to 0
    assert Discrete((2**32, 1), (0.5, 0.5)).second_moment == 2.0**63 + 0.5
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


@pytest.mark.parametrize("size", [1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 2 * DRAW_CHUNK, 5000, (3, 700)])
def test_discrete_draws_in_chunks_are_the_one_call_draws(size):
    # a discrete law fills its output DRAW_CHUNK uniforms at a time, which
    # takes the generator's stream of one call: the atoms are those of all
    # the uniforms drawn at once, bit for bit, at and around the chunk
    # boundaries (5000 = 4 x 1024 + 904) and for a 2-D size
    dist = Discrete((3.0, 0.5, 1.0, 0.0), (0.3, 0.2, 0.4, 0.1))
    uniforms = np.random.default_rng(7).random(size)
    atoms = dist._sorted_values.take(np.searchsorted(dist._cum_probs, uniforms, side="left"), mode="clip")
    drawn = dist.sample(np.random.default_rng(7), size=size)
    assert drawn.shape == atoms.shape and drawn.tobytes() == atoms.tobytes()
    # one draw without a size is a float, the first of the stream's atoms
    first = dist.sample(np.random.default_rng(7))
    assert type(first) is float and first == atoms.flat[0]


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


def one_call_draw(law, rng, size):
    """The draw of one numpy call that defines each law's stream."""
    if isinstance(law, Exponential):
        return rng.exponential(1.0 / law.rate, size=size)
    if isinstance(law, Uniform):
        return rng.uniform(law.lo, law.hi, size=size)
    if isinstance(law, PointMass):
        return np.full(size, float(law.value))
    return law._sorted_values.take(np.searchsorted(law._cum_probs, rng.random(size)), mode="clip")


# catalog laws near the ends of what each kind accepts, narrow and
# degenerate supports among them
EXTREME_LAWS = [
    Exponential(1.0),
    Exponential(3.7e-7),
    Exponential(1e-150),
    Exponential(1e150),
    Uniform(0.0, 1.0),
    Uniform(0.0, 1e150),
    Uniform(1e8, 1e8 + 1e-6),
    Uniform(2.5, 2.5),
    Uniform(1e-300, 3e-300),
    PointMass(0.0),
    PointMass(1e150),
    Discrete((0.0, 1e150, 1e-300), (0.25, 0.5, 0.25)),
    Discrete((2.0,), (1.0,)),
]


@pytest.mark.parametrize("law", EXTREME_LAWS, ids=repr)
@pytest.mark.parametrize("size", [0, 1, DRAW_CHUNK - 1, DRAW_CHUNK + 1, 100_003])
def test_fill_writes_the_one_call_draw_into_a_column(law, size):
    # fill into a (strided-array) column of a column-major array writes the
    # bits of the one numpy call that defines the law's stream, and leaves
    # the generator where that call does; sample, built on fill, too
    gen, sample_gen, whole_gen = (np.random.default_rng(11) for _ in range(3))
    columns = np.empty((3, size)).T
    law.fill(gen, columns[:, 1])
    expected = one_call_draw(law, whole_gen, size)
    assert columns[:, 1].tobytes() == expected.tobytes()
    assert law.sample(sample_gen, size).tobytes() == expected.tobytes()
    assert gen.bit_generator.state == whole_gen.bit_generator.state == sample_gen.bit_generator.state
    # one draw without a size is the float of the stream's first draw
    first = law.sample(np.random.default_rng(11))
    assert type(first) is float and first == one_call_draw(law, np.random.default_rng(11), 1)[0]


@pytest.mark.parametrize(
    "law, args",
    [
        (Exponential, (1e-200,)),  # 2 / rate**2 passes the float range
        (Uniform, (0.0, 1e200)),  # hi**2 overflows
        (Uniform, (1e160, 1e160)),
        (PointMass, (1e200,)),
        (Discrete, ((1.0, 1e200), (0.5, 0.5))),
        (Discrete, ((1e200, 1.0), (0.0, 1.0))),  # inf * 0 is NaN, refused with no warning
    ],
)
def test_laws_without_a_finite_second_moment_are_refused(law, args):
    # the guarantee constants are built from the second moments, so a law
    # whose second moment is not a finite float is refused where it is made
    message = rf"^{law.__name__}\(.*\) is out of range: its second moment is not a finite float$"
    with pytest.raises(ValueError, match=message):
        law(*args)


def test_an_exponential_whose_rate_squared_passes_the_float_range_is_accepted():
    # rate**2 overflows, but 2 / rate**2 underflows toward 0: every moment
    # and tail query is a float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        law = Exponential(1e200)
        assert law.mean == 1e-200 and law.second_moment == 0.0 and law.is_continuous
        assert law.expected_sq_max_with(1e-200) == 0.0  # about 2.5e-400
        assert law.quantile(0.5) == pytest.approx(math.log(2.0) * 1e-200)
        assert law.tail_mean(0.5) == pytest.approx((1.0 + math.log(2.0)) * 1e-200)
        assert law.tail_mean(1.0) == law.mean and law.tail_mean(0.0) == math.inf
        # just past the square's range end, the second moment is subnormal
        edge = Exponential(1.3407807929942597e154)
        assert edge.second_moment == pytest.approx(1.1125369292536007e-308, abs=5e-324)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("m", [1e200, math.inf])
def test_expected_sq_max_with_past_the_float_range_is_inf_without_warning(law, m):
    # E[max(W, m)^2] is at least m^2, which passes the float range; a
    # discrete atom of probability 0 adds no NaN there
    laws = [LAWS[law](1.0)] + ([Discrete((1.0, 2.0), (1.0, 0.0))] if law == "discrete" else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [dist.expected_sq_max_with(m) for dist in laws] == [math.inf] * len(laws)


# every positive float, subnormals and the largest included
WIDE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


@st.composite
def accepted_laws(draw):
    """A catalog law with parameters drawn from the whole float range and
    both signed zeros, of those its kind accepts: degenerate uniforms and
    discrete atoms of probability 0 among them."""
    kind = draw(st.sampled_from(["exponential", "uniform", "pointmass", "discrete"]))
    x, y = (draw(st.one_of(st.sampled_from([0.0, -0.0]), WIDE)) for _ in range(2))
    try:
        if kind == "exponential":
            return Exponential(x)
        if kind == "uniform":
            return Uniform(x, x) if draw(st.booleans()) else Uniform(min(x, y), max(x, y))
        if kind == "pointmass":
            return PointMass(x)
        return Discrete((x, y), draw(st.sampled_from([(0.5, 0.5), (1.0, 0.0), (0.25, 0.75)])))
    except ValueError:
        reject()


def per_law_second_moment(law):
    """Each kind's second moment as the kind once stated it in its own
    body: the oracle of the one derived in the catalog's base class."""
    if isinstance(law, Exponential):
        try:
            return 2.0 / law.rate**2
        except OverflowError:  # such rates were refused then; two divisions
            return 2.0 / law.rate / law.rate
    if isinstance(law, Uniform):
        lo, hi = law.lo, law.hi
        return law.mean**2 + (hi - lo) ** 2 / 12.0 if hi > lo else lo**2
    if isinstance(law, PointMass):
        return law.value**2
    return float(np.dot(np.square(law.values), law.probs))


def per_law_is_continuous(law):
    """Each kind's continuity as the kind once stated it in its own body."""
    return isinstance(law, Exponential) or (isinstance(law, Uniform) and law.hi > law.lo)


@given(law=accepted_laws())
@example(law=Uniform(-0.0, -0.0))
@example(law=Uniform(-0.0, 5e-324))
@example(law=Uniform(0.0, 1.3407807929942596e154))
@example(law=Uniform(1e154, 1e154))
@example(law=Exponential(1.06e-154))
@example(law=Exponential(1.3407807929942596e154))
@example(law=Exponential(1.055e-154))
@example(law=PointMass(-0.0))
@example(law=PointMass(1.3407807929942596e154))
@example(law=Discrete((-0.0, 1.3407807929942596e154), (0.5, 0.5)))
@example(law=Discrete((1e154, 1.0), (0.0, 1.0)))
def test_derived_moment_and_continuity_keep_the_per_law_bits(law):
    # the base class's second moment, expected_sq_max_with(0), and its
    # continuity, a quantile function over more than one point, give each
    # kind's own formulas to the bit, and raise no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert law.second_moment.hex() == per_law_second_moment(law).hex()
        assert law.is_continuous is per_law_is_continuous(law)


@pytest.mark.parametrize("rate", [0.0, -1.0, -0.0, math.nan, math.inf, -math.inf])
def test_exponential_refuses_a_rate_that_is_not_positive_and_finite(rate):
    # an infinite rate would be a point mass at 0 passing for a continuous law
    with pytest.raises(ValueError, match=rf"^rate must be positive and finite, got {rate}$"):
        Exponential(rate)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Uniform(0.0, 1.0).quantile(1.5), r"quantile argument must be in \[0,1\], got 1.5"),
        (lambda: Uniform(0.0, 1.0).quantile(math.nan), r"quantile argument must be in \[0,1\], got nan"),
        (lambda: Discrete((), ()), "values and probs must be equal-length and non-empty"),
        (lambda: Discrete((1.0,), (0.5, 0.5)), "values and probs must be equal-length and non-empty"),
    ],
)
def test_distribution_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@given(law=accepted_laws(), position=st.integers(0, 2))
@example(law=Exponential(1e-150), position=1)
@example(law=Uniform(0.0, 1e150), position=1)
def test_guarantee_constants_of_accepted_laws_are_finite(law, position):
    # the law on A's, B's or the shared resource of a three-resource game,
    # beside unit-mean exponentials: both guarantee constants are floats,
    # finite while the second moment leaves room for the constants' sums
    # of a few squared means and second moments (below 1e300); past it,
    # they may overflow to inf but never raise or give NaN
    laws = [Exponential(1.0)] * 3
    laws[position] = law
    game = GameInstance(Partition(1, 1, 1, 0), tuple(laws))
    with np.errstate(over="ignore" if law.second_moment > 1e300 else "raise"):
        bounds = [md_error_bound(game, MdConfig()), bound_constants(game, DppConfig()).error_bound]
    assert all(type(bound) is float and not math.isnan(bound) for bound in bounds)
    if law.second_moment <= 1e300:
        assert all(math.isfinite(bound) for bound in bounds)
