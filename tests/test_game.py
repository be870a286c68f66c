import builtins
import dis
import types

import numpy as np
import pytest

import congames.dpp
import congames.md
import congames.quantile
from congames import (
    Exponential,
    GameInstance,
    Partition,
    PointMass,
    Uniform,
    sample_omega,
    sample_world,
)
from congames.experiments import ScenarioSpec, scenario_game
from conftest import LAWS, exp_game, full_omega


def test_partition_layout_and_class_of():
    part = Partition(1, 2, 1, 1)
    assert part.n == 5
    np.testing.assert_array_equal(part.set_a, [0])
    np.testing.assert_array_equal(part.set_b, [1, 2])
    np.testing.assert_array_equal(part.shared, [3, 4])
    np.testing.assert_array_equal(part.set_ab, [4])
    np.testing.assert_array_equal(part.a_comp, [1, 2, 3, 4])
    np.testing.assert_array_equal(part.b_comp, [0, 3, 4])
    with pytest.raises(ValueError):
        Partition(-1, 0, 2, 0)
    with pytest.raises(ValueError):
        Partition(0, 0, 0, 0)


def test_partition_refuses_bool_sizes():
    # True and False are Python integers, but not partition sizes
    with pytest.raises(ValueError, match=r"^partition size a must be a non-negative integer, got True$"):
        Partition(True, True, True, False)
    with pytest.raises(ValueError, match=r"^partition size d must be a non-negative integer, got False$"):
        Partition(1, 1, 1, np.False_)
    assert Partition(np.int64(1), 1, 1, 0).n == 3


@pytest.mark.parametrize("sizes", [(1, 2, 1, 1), (0, 0, 3, 0), (1, 1, 0, 0), (0, 0, 0, 2)])
def test_shared_is_the_c_then_ab_block(sizes):
    part = Partition(*sizes)
    c_block = np.arange(part.a + part.b, part.a + part.b + part.c)
    joined = np.concatenate([c_block, part.set_ab])
    assert part.shared.dtype == joined.dtype
    np.testing.assert_array_equal(part.shared, joined)


def test_sampling_requires_a_row_count():
    g = exp_game([1.0, 1.0], (0, 1, 1, 0))
    # a world row has n entries, an omega row B's b
    for sample, width in ((sample_world, 2), (sample_omega, 1)):
        with pytest.raises(TypeError):
            sample(g, 0)
        assert sample(g, 0, size=1).shape == (1, width)


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


def test_sample_world_leading_columns_keep_their_bits():
    laws = (Exponential(1.0), Uniform(0.0, 2.0), Exponential(0.5), PointMass(1.0))
    g = GameInstance(Partition(1, 1, 1, 1), laws, z=[3.0])
    full = sample_world(g, 42, size=64)
    for columns in range(g.n + 1):
        assert sample_world(g, 42, size=64, columns=columns).tobytes() == full[:, :columns].tobytes()


@pytest.mark.parametrize("columns", [4, 5, -1, 2.0, 1.5, "2"])
def test_sample_world_refuses_column_counts_outside_0_to_n(columns):
    g = exp_game([1.0, 2.0, 0.5], (1, 1, 1, 0))
    with pytest.raises(ValueError, match=rf"^columns must be an integer in 0\.\.n=3, got {columns!r}$"):
        sample_world(g, 0, size=2, columns=columns)
    assert sample_world(g, 0, size=2, columns=np.int64(3)).shape == (2, 3)


def test_sample_world_refuses_bool_columns():
    # a bool is an int to Python; the sampler refuses it, not numpy's shape
    g = exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0))
    for columns in (True, np.True_):
        with pytest.raises(ValueError, match=rf"^columns must be an integer in 0\.\.n=3, got {columns!r}$"):
            sample_world(g, 0, size=2, columns=columns)


def test_sample_omega_all_private_to_a():
    # nothing is random: no column is drawn, and omega is the weights, all 1
    g = exp_game([1.5, 2.5], (2, 0, 0, 0))
    assert sample_omega(g, 0, size=5).shape == (5, 0)
    np.testing.assert_array_equal(full_omega(g, 0, size=5), np.ones((5, 2)))


def test_sample_omega_deterministic_when_b_zero():
    g = GameInstance(Partition(1, 0, 1, 1), (Exponential(1.0), Exponential(0.5), Exponential(1.0)), z=[0.7])
    assert sample_omega(g, 11, size=8).shape == (8, 0)
    np.testing.assert_array_equal(full_omega(g, 11, size=8), np.tile([1.0, 2.0, 0.7], (8, 1)))


def test_sample_omega_b_entry_varies_others_fixed():
    # middle resource observed by B only: fresh draw each time, and the
    # only column drawn
    g = exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0))
    drawn = sample_omega(g, 7, size=200)
    assert drawn.shape == (200, 1)
    assert np.unique(drawn).size > 100
    om = full_omega(g, 7, size=200)
    np.testing.assert_array_equal(om[:, 0], np.ones(200))
    np.testing.assert_array_equal(om[:, 2], np.ones(200))
    np.testing.assert_array_equal(om[:, 1], drawn[:, 0])


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("size", [1, 1023, 1024, 5000, 100_000])
def test_sample_omega_draws_in_chunks_the_bits_of_whole_columns(law, size):
    # column j holds the bits of one whole draw of resource a + j's law,
    # the columns drawn in order from one generator, which ends where
    # those draws leave it
    game = GameInstance(Partition(1, 2, 0, 0), (Exponential(1.0), LAWS[law](0.8), LAWS[law](1.7)))
    gen, whole_gen = np.random.default_rng(3), np.random.default_rng(3)
    drawn = sample_omega(game, gen, size=size)
    assert drawn.shape == (size, 2)
    for j, k in enumerate(game.partition.set_b):
        whole = game.distributions[k].sample(whole_gen, size=size)
        assert drawn[:, j].tobytes() == whole.tobytes()
    assert gen.random() == whole_gen.random()


@pytest.mark.parametrize("columns", [None, 0, 3])
def test_every_sampled_column_is_contiguous(columns):
    # the samplers fill a column-major array, one law's draw into each
    # column in place, so every column they return is contiguous
    game = GameInstance(
        Partition(1, 2, 1, 1),
        (Exponential(1.0), Uniform(0.0, 2.0), LAWS["discrete"](1.0), PointMass(0.5), Exponential(2.0)),
        z=[0.7],
    )
    for drawn in (sample_world(game, 3, 1000, columns), sample_omega(game, 3, 1000)):
        assert all(drawn[:, k].flags.c_contiguous for k in range(drawn.shape[1]))


def test_partition_index_sets_are_built_once_and_read_only():
    part = Partition(1, 2, 1, 1)
    for name in ("set_a", "set_b", "set_ab", "shared", "a_comp", "b_comp"):
        first = getattr(part, name)
        assert getattr(part, name) is first and not first.flags.writeable
    assert part == Partition(1, 2, 1, 1) and hash(part) == hash(Partition(1, 2, 1, 1))


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_the_points_of_a_sweep_share_their_preset_partition(scenario):
    # so a sweep builds each index set once, not once a point
    spec = ScenarioSpec(scenario, "nash", [0.5, 2.0])
    first, second = (scenario_game(spec, e1) for e1 in spec.e1_values)
    assert first.partition is second.partition is spec.partition
    assert first.partition.shared is second.partition.shared
    assert spec.partition is ScenarioSpec(scenario, "nash", [1.0]).partition


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
    omegas = full_omega(g, 5, size=100)
    np.testing.assert_array_equal(omegas[:, [0, 2, 3]], np.tile([1.0, 0.5, 3.0], (100, 1)))
    assert np.all(omegas[:, 1] >= 0) and len(set(omegas[:, 1])) > 1


def loaded_globals(code) -> set:
    """The names ``code`` and the code nested in it load as globals."""
    names = {ins.argval for ins in dis.get_instructions(code) if ins.opname == "LOAD_GLOBAL"}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= loaded_globals(const)
    return names


# (round kernel builder, shape): b = 0, n = 1, and n >= 8, where a sum is
# numpy's (game._sum)
KERNEL_SHAPES = [
    *((congames.dpp._round_kernel, shape) for shape in [
        (1, 0, 0), (1, 1, 0), (1, 0, 1), (3, 1, 1), (8, 0, 0), (9, 2, 3)
    ]),
    *((congames.md._round_kernel, shape) for shape in [(1, 0), (1, 1), (3, 0), (3, 1), (8, 0), (9, 4)]),
    *((congames.quantile._round_kernel, shape) for shape in [(1, 0), (2, 1), (3, 0), (3, 1), (8, 0), (9, 3)]),
]


@pytest.mark.parametrize("build, shape", KERNEL_SHAPES, ids=lambda x: getattr(x, "__module__", str(x)))
def test_generated_rounds_find_every_global_they_load(build, shape):
    # compile_kernel's namespace supplies every name a generated round
    # loads, those only a rare branch reaches (the all-underflow
    # require_positive, numpy's sum of 8 terms) among them
    kernel = build(*shape)
    loaded = loaded_globals(kernel.__code__)
    assert loaded - set(kernel.__globals__) - set(vars(builtins)) == set()
    if build is not congames.dpp._round_kernel:
        assert "require_positive" in loaded
        # numpy's sum of 8 terms, and the drawn exponentials an MD chunk takes
        drawn_exponents = build is congames.md._round_kernel and shape[1] > 0
        assert ("np" in loaded) == (shape[0] >= 8 or drawn_exponents)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Partition(1, 1, 0, 0).private_set("C"), "player must be 'A' or 'B', got 'C'"),
        (
            lambda: GameInstance(Partition(0, 0, 0, 1), (Exponential(1.0),), z=[np.inf]),
            "conditional means must be finite and non-negative",
        ),
        (
            lambda: GameInstance(Partition(0, 0, 0, 1), (Exponential(1.0),), z=[np.nan]),
            "conditional means must be finite and non-negative",
        ),
    ],
)
def test_game_refusals(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message
