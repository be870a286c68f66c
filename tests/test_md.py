import math
import traceback
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import congames.game
import congames.md
import congames.quantile
from congames import (
    Discrete,
    Exponential,
    GameInstance,
    MdConfig,
    Partition,
    PointMass,
    ScenarioSpec,
    TailFrontier,
    Uniform,
    explicit_solution,
    md_error_bound,
    run_md,
    run_scenario,
    scenario_game,
    solve_a1,
    worst_case_objective,
)
from congames.game import DRAW_CHUNK, require_positive
from congames.md import omega_sup_sq_bound
from congames.quantile import DEFAULT_DELTA, FD_WIDTH
from congames.rng import OMEGA_STREAM, as_generator
from conftest import LAWS, exp_game, full_omega, kernel_calls, md_preset_optimum


def test_two_rounds_hand_value():
    # weights (1, 3): the first round's argmax is resource 1, whose exponent
    # loses half its weight, 1.5 / alpha against 1 / alpha; at
    # alpha = 1 / (2 ln 2) the second iterate is (1/3, 2/3), and the average
    # of the two is (5/12, 7/12)
    game = exp_game([1.0, 3.0], (0, 0, 2, 0))
    p = run_md(game, MdConfig(alpha=0.5 / math.log(2.0), T=2))
    np.testing.assert_allclose(p, [5 / 12, 7 / 12], atol=1e-12)
    # equal exponents leave the iterate where it is: weights (1, 2) give the
    # argmax the exponent 1 / alpha, the other resource's
    p = run_md(exp_game([1.0, 2.0], (0, 0, 2, 0)), MdConfig(alpha=0.3, T=5))
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-15)
    # vanishing step size
    p = run_md(game, MdConfig(alpha=1e12, T=50))
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-9)


def test_step_rejects_boundary():
    # the loops check their iterates once, with require_positive, and alpha
    # where MdConfig is built
    for bad in ([1.0, 0.0], [0.5, np.nan]):
        with pytest.raises(ValueError, match="strictly positive"):
            require_positive(np.array(bad))
    require_positive(np.array([0.5, 0.5]))
    for alpha in (0.0, -1.0, np.nan, math.inf):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            MdConfig(alpha=alpha, T=10)


def numpy_a1(game, config, seed):
    """solve_a1's rounds as a loop of the array formulas: the gradient of g
    at x = (q(p0), p[1:]), its first entry scaled by the frontier slope, the
    1-D update, with ``math.exp`` taken on each entry as the kernel takes
    it, and the projection onto p0 >= DEFAULT_DELTA.  Returns the
    average iterate, or the error the loop raises, and which of the
    projection, a zero normalizer and the slope's clamp at 1 some round
    reached."""
    frontier = TailFrontier(game.distributions[0])
    n, w = game.n, game.weights
    omegas = full_omega(game, as_generator(seed, OMEGA_STREAM), size=config.T)
    p, total, hits = np.full(n, 1.0 / n), np.zeros(n), set()
    try:
        for omega in omegas:
            total += p
            x = p.copy()
            x[0] = frontier.q(p[0])
            top = int(np.argmax(x * omega))
            if p[0] + FD_WIDTH > 1.0:
                hits.add("slope clamp")
            grad = w.copy()
            grad[top] -= 0.5 * omega[top]
            grad[0] *= frontier.slope(p[0])
            expo = grad / config.alpha
            expo -= expo.max()
            weights = p * np.array([math.exp(v) for v in expo])
            if weights.sum() == 0.0:
                hits.add("zero normalizer")
            with np.errstate(invalid="ignore"):
                p = weights / weights.sum()
            if not p[0] >= DEFAULT_DELTA:
                hits.add("projection")
                require_positive(p[1:])
                p = np.concatenate([[DEFAULT_DELTA], p[1:] * ((1.0 - DEFAULT_DELTA) / p[1:].sum())])
        require_positive(p)
    except ValueError as error:
        return str(error), hits
    return (total / config.T).tobytes(), hits


def a1_outcome(game, config, seed):
    try:
        return solve_a1(game, config, seed, n_samples=2)[0].tobytes()
    except ValueError as error:
        return str(error)


# the law of A's observed resource 0: exponential or uniform, from its mean
FRONTIER_LAWS = {"exponential": LAWS["exponential"], "uniform": LAWS["uniform"]}


@st.composite
def a1_runs(draw):
    """a = 1 games with n from 2 to 9, each law on the rest, and step sizes
    down to those that pin p0 at DEFAULT_DELTA within a few rounds."""
    n = draw(st.integers(2, 9))
    b = draw(st.integers(0, n - 1))
    d = draw(st.integers(0, n - 1 - b))
    first = draw(st.sampled_from(sorted(FRONTIER_LAWS)))
    laws = draw(st.lists(st.sampled_from(sorted(LAWS)), min_size=n - 1, max_size=n - 1))
    means = draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n))
    z = draw(st.lists(st.floats(0.0, 3.0), min_size=d, max_size=d))
    dists = (FRONTIER_LAWS[first](means[0]),) + tuple(LAWS[law](m) for law, m in zip(laws, means[1:]))
    game = GameInstance(Partition(1, b, n - 1 - b - d, d), dists, z=np.array(z))
    alpha = draw(st.one_of(st.floats(0.005, 0.5), st.floats(0.5, 200.0)))
    return game, MdConfig(alpha=alpha, T=draw(st.integers(1, 80))), draw(st.integers(0, 2**32))


# p0 is pinned at DEFAULT_DELTA, so the projection branch runs
PINNED_A1 = (exp_game([0.3, 1.0, 1.0], (1, 1, 1, 0)), MdConfig(alpha=0.05, T=60), 3)
# the same at n = 9, where the normalizer's 9 entries and the projection's 8
# are past numpy's left-to-right range
WIDE_A1 = (
    GameInstance(
        Partition(1, 3, 4, 1),
        (Exponential(1.0 / 0.3),) + tuple(
            LAWS[law](m) for law, m in zip(
                ["uniform", "discrete", "pointmass", "exponential", "uniform", "exponential", "discrete", "exponential"],
                [1.0, 1.4, 0.8, 1.2, 0.9, 1.1, 1.3, 0.7],
            )
        ),
        z=np.array([0.7]),
    ),
    MdConfig(alpha=0.05, T=60),
    3,
)


# p0 climbs past 1 - FD_WIDTH, so the slope's difference is clamped at 1
CLAMPED_A1 = (exp_game([3.0, 0.2], (1, 0, 1, 0)), MdConfig(alpha=0.05, T=40), 1)


# B observes no resource, or two, so the kernel reads no omega column, or a
# row of two; the first runs past one DRAW_CHUNK with nothing to draw
NO_OMEGA_A1 = (exp_game([0.6, 1.2, 1.0], (1, 0, 2, 0)), MdConfig(alpha=2.0, T=1500), 2)
TWO_OMEGA_A1 = (exp_game([1.1, 0.9, 1.4, 1.0], (1, 2, 1, 0)), MdConfig(alpha=2.0, T=200), 5)


@given(a1_runs())
@example(PINNED_A1)
@example(WIDE_A1)
@example(CLAMPED_A1)
@example(NO_OMEGA_A1)
@example(TWO_OMEGA_A1)
@example((GameInstance(Partition(1, 0, 4, 0), (Uniform(0.0, 0.4),) + (Exponential(1.0),) * 4), MdConfig(alpha=0.02, T=40), 1))
@settings(max_examples=150, deadline=None)
def test_list_step_matches_the_array_update(run):
    # the A1 round on Python floats keeps the bits of the array formulas
    game, config, seed = run
    expected, _ = numpy_a1(game, config, seed)
    assert a1_outcome(game, config, seed) == expected


def test_clamped_run_reaches_the_slope_clamp():
    # the twin test's CLAMPED_A1 example covers the round where p0 + FD_WIDTH
    # passes 1 and the kernel's upper difference end is clamped, without
    # the projection
    expected, hits = numpy_a1(*CLAMPED_A1)
    assert hits == {"slope clamp"} and a1_outcome(*CLAMPED_A1) == expected


def test_list_step_raises_where_the_array_update_gives_nan():
    # a zero iterate entry gets the largest exponent and every other weight
    # underflows, so the array update divides 0 by 0; the round refuses it
    # before the frontier sees a NaN
    game, config, seed = exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0)), MdConfig(alpha=1e-3, T=2000), 0
    expected, hits = numpy_a1(game, config, seed)
    assert "zero normalizer" in hits
    assert expected == a1_outcome(game, config, seed) == "mirror-descent iterates must be strictly positive"
    # and the pinned runs reach the projection, and the slope's clamp on
    # their swings back up, without failing
    for run in (PINNED_A1, WIDE_A1):
        expected, hits = numpy_a1(*run)
        assert hits == {"projection", "slope clamp"} and a1_outcome(*run) == expected
    # the error comes from a line of the generated round kernel, which
    # tracebacks show
    with pytest.raises(ValueError) as caught:
        solve_a1(game, config, seed, n_samples=2)
    lines = [frame.line for frame in traceback.extract_tb(caught.tb) if frame.filename == "<a1 round kernel n=3 b=1>"]
    assert lines == ["require_positive([e0, e1, e2])"]


@given(hnp.arrays(float, st.integers(0, 300), elements=st.floats(-1e6, 1e6)))
@example(np.full(9, -0.0))
@settings(max_examples=300, deadline=None)
def test_kernel_sums_add_in_numpys_order(xs):
    # the MD and A1 kernels' sums are the source game._sum writes: a chain
    # from 0.0 below 8 terms, numpy's own sum of the list from 8 on
    names = [f"x{k}" for k in range(xs.size)]
    total = eval(congames.game._sum(names), {"np": np, **dict(zip(names, xs.tolist()))})
    assert np.float64(total).tobytes() == xs.sum().tobytes()


def test_error_bound_example():
    g = exp_game([1.0, 1.0, 1.0], (0, 0, 3, 0))
    bound = md_error_bound(g, MdConfig(alpha=50.0, T=10_000))
    assert bound == pytest.approx(2.5 / 100.0 + 50.0 * math.log(3.0) / 10_000.0, rel=1e-12)
    # T -> infinity leaves only the step-size term
    assert md_error_bound(g, MdConfig(alpha=50.0, T=10**9)) == pytest.approx(2.5 / 100.0, abs=1e-6)
    assert md_error_bound(g, MdConfig(alpha=100.0, T=10**9)) == pytest.approx(2.5 / 200.0, abs=1e-6)


def test_the_scenario_two_oracle_meets_the_closed_forms():
    # g* = 3/4 at p = (0, 1/2, 1/2) for e1 <= 3/4 and g* = e1/2 at
    # p = (1, 0, 0) for e1 >= 2, where the best directional derivatives are
    # e1 - 3/4 and 1 - e1/2; between the plateaus the search alone gives it
    for e1 in (0.1, 0.5, 0.75):
        assert md_preset_optimum(e1) == pytest.approx(0.75, abs=1e-12)
    for e1 in (2.0, 2.4):
        assert md_preset_optimum(e1) == pytest.approx(e1 / 2, abs=1e-12)
    assert md_preset_optimum(1.0) == pytest.approx(0.786508, abs=1e-6)
    assert md_preset_optimum(1.5) == pytest.approx(0.871815, abs=1e-6)


@pytest.mark.parametrize("seed", [0, 1])
def test_sweep_reaches_the_closed_form_optima_of_scenario_two(seed):
    # at every point of the default grid: a run's expected gap to the exact
    # optimum g* (md_preset_optimum) is at most md_error_bound, and its
    # value is estimated with stderr
    spec = ScenarioSpec(2, "worst-md", [0.1 + k * 0.1 for k in range(24)], seed=seed)
    rows = run_scenario(spec).rows
    assert len(rows) == 24
    for e1, value, stderr in rows[:, :3]:
        g_star = md_preset_optimum(e1)
        bound = md_error_bound(scenario_game(spec, e1), spec.config)
        assert g_star - bound - 3 * stderr <= value <= g_star + 3 * stderr + 1e-12, e1


def test_error_bound_rejects_bad_alpha_and_rounds():
    # md_error_bound reads alpha and T from an MdConfig, which refuses these
    for bad in (math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(ValueError, match=f"^alpha must be positive and finite, got {bad!r}$"):
            MdConfig(alpha=bad, T=10)
    # T is checked as a setting first, with the CLI's message, then as a count
    with pytest.raises(ValueError, match="^T must be positive and finite, got 0$"):
        MdConfig(alpha=50.0, T=0)


def test_omega_sup_sq_exact_b1_matches_samples():
    g = exp_game([1.0, 1.5, 1.0], (0, 1, 2, 0))
    exact = omega_sup_sq_bound(g)
    om = full_omega(g, 5, size=400_000)
    sq = np.max(om, axis=1) ** 2
    assert exact == pytest.approx(sq.mean(), abs=5 * sq.std() / math.sqrt(sq.size))


@pytest.mark.parametrize("law", sorted(LAWS))
def test_sup_sq_bound_is_exact_where_at_most_one_entry_is_drawn(law):
    # b = 0: the constant maximum's square; b = 1: the law's closed form at
    # the largest constant weight m (0 when B holds the only resource), the
    # bits of both
    for weights in ([0.7, 1.3, 1.1], [2.0]):
        g = GameInstance(Partition(1, 0, len(weights) - 1, 0), tuple(LAWS[law](w) for w in weights))
        assert omega_sup_sq_bound(g) == max(g.weights) ** 2
    for laws, m in (((LAWS[law](1.3), Exponential(1 / 0.7), Uniform(0.0, 2.2)), 1.1), ((LAWS[law](1.3),), 0.0)):
        g = GameInstance(Partition(0, 1, len(laws) - 1, 0), laws)
        assert omega_sup_sq_bound(g) == LAWS[law](1.3).expected_sq_max_with(m)


@pytest.mark.parametrize("b", [2, 3])
@pytest.mark.parametrize("law", sorted(LAWS))
def test_sup_sq_bound_holds_where_two_or_more_entries_are_drawn(law, b):
    # the bound is at least a 200 000-draw estimate of E[max_k omega_k^2],
    # less three standard errors, beside a constant weight of 1
    laws = tuple(LAWS[law](mean) for mean in (1.0, 0.6, 1.5)[:b]) + (Exponential(1.0),)
    g = GameInstance(Partition(0, b, 1, 0), laws)
    sq = np.max(full_omega(g, 7, size=200_000), axis=1) ** 2
    assert omega_sup_sq_bound(g) >= sq.mean() - 3 * sq.std(ddof=1) / math.sqrt(sq.size)


def test_sup_sq_bound_past_the_float_range_is_inf_without_warning():
    # two drawn columns: the sum of the squares overflows (point masses of
    # square 1.44e308, or exponentials of second moment 1.65e308); the
    # bound is inf and numpy says nothing
    big, wide = PointMass(1.2e154), Exponential(1.1e-154)
    for laws in ((big, big, Exponential(1.0)), (wide, wide, Exponential(1.0))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = omega_sup_sq_bound(GameInstance(Partition(0, 2, 1, 0), laws))
        assert bound == math.inf


@pytest.mark.parametrize("law", sorted(LAWS))
def test_bounds_past_the_float_range_of_a_constant_weight_are_inf_without_error(law):
    # a realized shared reward of 1e200 is a constant weight whose square
    # passes the float range: both bounds are inf, with no error or warning
    g = GameInstance(Partition(0, 1, 0, 1), (LAWS[law](1.0), Exponential(1.0)), z=[1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert omega_sup_sq_bound(g) == md_error_bound(g, MdConfig()) == math.inf


def test_bounds_near_the_float_range_end_are_finite_or_inf_never_nan():
    m = math.sqrt(1.7976931348623157e308)  # its square is the largest below the range's end
    # with no drawn column the error bound's 2 max(E)^2 overflows
    games = [GameInstance(Partition(0, 0, 1, 1), (Exponential(1.0), Exponential(1.0)), z=[1e200])]
    # a tail whose decay underflows to 0 adds 0, though its bracket overflows
    games.append(GameInstance(Partition(0, 1, 0, 1), (Exponential(1e-145), Exponential(1.0)), z=[m]))
    # a discrete law's dot product of probabilities summing past 1 overflows
    wide = Discrete((1.3e154, 1.3e154), (0.5, 0.5 + 1e-10))
    games.append(GameInstance(Partition(0, 2, 0, 1), (wide, wide, Exponential(1.0)), z=[m]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sup_sq = [omega_sup_sq_bound(g) for g in games]
        errors = [md_error_bound(g, MdConfig()) for g in games]
    assert sup_sq == [math.inf, m**2, math.inf]
    assert errors == [math.inf] * 3


def test_error_bound_draws_nothing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("the bound drew rewards")

    for law in {type(make(1.0)) for make in LAWS.values()}:
        monkeypatch.setattr(law, "fill", no_draws)
    for law in sorted(LAWS):
        g = GameInstance(Partition(0, 2, 1, 0), (LAWS[law](1.0), LAWS[law](0.5), Exponential(1.0)))
        assert math.isfinite(md_error_bound(g, MdConfig()))
    g = exp_game([1.0, 1.0, 1.0], (0, 2, 1, 0))
    assert md_error_bound(g, MdConfig()) == pytest.approx(0.0452, abs=1e-4)


def test_run_single_resource():
    g = exp_game([1.0], (0, 0, 1, 0))
    np.testing.assert_allclose(run_md(g, MdConfig(alpha=10.0, T=50)), [1.0])


def test_run_requires_a_zero():
    g = exp_game([1.0, 1.0], (1, 0, 1, 0))
    with pytest.raises(ValueError):
        run_md(g, MdConfig(alpha=10.0, T=10))


def test_run_two_resources_near_optimum():
    g = exp_game([2.0, 1.0], (0, 0, 2, 0))
    p = run_md(g, MdConfig(alpha=50.0, T=10_000), seed=1)
    value, _ = worst_case_objective(p, g)
    assert value >= 1.0 - 0.05


def test_run_symmetric_meets_guarantee():
    g = exp_game([1.0, 1.0, 1.0], (0, 0, 3, 0))
    cfg = MdConfig(alpha=50.0, T=10_000)
    p = run_md(g, cfg, seed=0)
    assert abs(p.sum() - 1.0) <= 1e-9
    value, _ = worst_case_objective(p, g)  # exact, b = 0
    assert value >= 5.0 / 6.0 - md_error_bound(g, cfg)


def test_run_with_random_omega_meets_guarantee():
    # b = 1: stochastic rounds; compare against a grid-search reference
    from conftest import simplex_grid

    g = exp_game([1.2, 1.0, 0.8], (0, 1, 2, 0))
    cfg = MdConfig(alpha=40.0, T=20_000)
    p = run_md(g, cfg, seed=4)
    omegas = full_omega(g, 777, size=50_000)

    def value(x):
        return float(np.dot(g.means, x) - 0.5 * np.max(omegas * x, axis=1).mean())

    grid = simplex_grid(3, 50)
    f_opt = max(value(x) for x in grid)
    stderr = 0.5 * np.max(omegas, axis=1).std(ddof=1) / math.sqrt(omegas.shape[0])
    assert value(p) >= f_opt - md_error_bound(g, cfg) - 3 * stderr


@pytest.mark.parametrize("scenario, solver", [(2, "worst-md"), (3, "worst-a1")])
def test_tiny_alpha_fails_with_md_error(scenario, solver):
    # the step size underflows an iterate entry to zero within a few rounds;
    # both generated rounds raise, with the same error
    from congames import solve_a1
    from congames.experiments import ScenarioSpec, scenario_game

    game = scenario_game(ScenarioSpec(scenario, solver, [1.0]), 1.0)
    solve = run_md if solver == "worst-md" else solve_a1
    with pytest.raises(ValueError, match="iterates must be strictly positive"):
        solve(game, MdConfig(alpha=1e-3, T=2000))


# -- the generated round ---------------------------------------------------

def lone_md(game, config, seed):
    """The mirror-descent loop as array formulas: the gradient, a max shift
    and a 1-D update a round, on the full omega.  Returns the average
    iterate, or the error the loop raises (a last iterate with a zero or
    NaN entry), and whether some round's weights all underflowed."""
    n = game.n
    omegas = full_omega(game, as_generator(seed, OMEGA_STREAM), size=config.T)
    p = np.full(n, 1.0 / n)
    total = np.zeros(n)
    underflowed = False
    with np.errstate(invalid="ignore", over="ignore"):
        for omega in omegas:
            total += p
            grad = game.means.copy()
            top = int(np.argmax(p * omega))
            grad[top] -= 0.5 * omega[top]
            expo = grad / config.alpha
            expo -= expo.max()
            w = p * np.exp(expo)
            underflowed |= w.sum() == 0.0
            p = w / w.sum()
    try:
        require_positive(p)
    except ValueError as error:
        return str(error), underflowed
    return (total / config.T).tobytes(), underflowed


def md_outcome(game, config, seed):
    try:
        return run_md(game, config, seed).tobytes()
    except ValueError as error:
        return str(error)


@st.composite
def md_runs(draw):
    """a = 0 games with n from 1 to 10, each law, ties among the weights,
    and step sizes down to those that underflow an iterate entry."""
    n = draw(st.integers(1, 10))
    b = draw(st.integers(0, n))
    d = draw(st.integers(0, n - b))
    laws = draw(st.lists(st.sampled_from(sorted(LAWS)), min_size=n, max_size=n))
    mean = st.one_of(st.floats(0.2, 3.0), st.sampled_from([0.5, 1.0, 2.0]))
    means = draw(st.lists(mean, min_size=n, max_size=n))
    z = draw(st.lists(st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.0, 1.0])), min_size=d, max_size=d))
    dists = tuple(LAWS[law](m) for law, m in zip(laws, means))
    game = GameInstance(Partition(0, b, n - b - d, d), dists, z=np.array(z))
    alpha = draw(st.one_of(st.floats(0.001, 0.05), st.floats(1.0, 100.0)))
    return game, MdConfig(alpha=alpha, T=draw(st.integers(1, 80))), draw(st.integers(0, 2**32))


# weights (1, 2, 1): resource 1, constant, has the unique largest weight, so
# a round whose argmax it is takes the exponentials of the shift path
UNIQUE_CONSTANT_MD = (exp_game([1.0, 2.0, 1.0], (0, 1, 2, 0)), MdConfig(alpha=5.0, T=300), 2)
# all weights tied: every round is shifted by the same largest exponent
TIED_MD = (exp_game([1.0, 1.0, 1.0], (0, 1, 2, 0)), MdConfig(alpha=5.0, T=300), 3)
# B observes nothing (the kernel reads no omega column, past one DRAW_CHUNK
# of rounds), or everything
NO_OMEGA_MD = (exp_game([0.6, 1.2, 1.0], (0, 0, 3, 0)), MdConfig(alpha=2.0, T=DRAW_CHUNK + 476), 2)
ALL_OMEGA_MD = (exp_game([1.1, 0.9, 1.4], (0, 3, 0, 0)), MdConfig(alpha=2.0, T=2 * DRAW_CHUNK + 1), 5)
# n = 9, where the normalizer's 9 entries are past numpy's left-to-right range
WIDE_MD = (
    GameInstance(
        Partition(0, 4, 3, 2),
        tuple(
            LAWS[law](m) for law, m in zip(
                ["uniform", "discrete", "pointmass", "exponential", "uniform", "exponential", "discrete", "exponential", "pointmass"],
                [1.0, 1.4, 0.8, 1.2, 0.9, 1.1, 1.3, 0.7, 1.0],
            )
        ),
        z=np.array([0.7, 1.4]),
    ),
    MdConfig(alpha=3.0, T=200),
    3,
)
# one round; and a step size that underflows every weight of some round
ONE_ROUND_MD = (exp_game([1.3, 0.7, 1.0], (0, 1, 2, 0)), MdConfig(alpha=50.0, T=1), 1)
UNDERFLOW_MD = (exp_game([0.5, 0.5, 1.0], (0, 3, 0, 0)), MdConfig(alpha=1e-3, T=200), 0)
# weights (2, 1, 1): resource 0, B's drawn column, has the unique largest
# weight, so a round at it takes the factors each row's shift gives
UNIQUE_DRAWN_MD = (exp_game([2.0, 1.0, 1.0], (0, 1, 2, 0)), MdConfig(alpha=5.0, T=300), 2)
# the same on B's second drawn column, past two DRAW_CHUNKs
SECOND_DRAWN_MD = (exp_game([1.0, 2.0, 1.0], (0, 2, 1, 0)), MdConfig(alpha=5.0, T=2 * DRAW_CHUNK + 300), 4)
# an alpha so small that 2 / alpha overflows to inf and 1 / alpha does not:
# the unique largest s is inf, on B's drawn column, and inf - inf is NaN
OVERFLOW_MD = (exp_game([2.0, 1.0, 1.0], (0, 1, 2, 0)), MdConfig(alpha=8e-309, T=50), 1)


@given(md_runs())
@example(UNIQUE_CONSTANT_MD)
@example(TIED_MD)
@example(NO_OMEGA_MD)
@example(ALL_OMEGA_MD)
@example(WIDE_MD)
@example(ONE_ROUND_MD)
@example(UNDERFLOW_MD)
@example(UNIQUE_DRAWN_MD)
@example(SECOND_DRAWN_MD)
@example(OVERFLOW_MD)
@settings(max_examples=200, deadline=None)
def test_kernel_matches_the_array_loop(run):
    # the generated round keeps the bits of the array formulas, and raises
    # the error the array loop ends in
    game, config, seed = run
    expected, _ = lone_md(game, config, seed)
    assert md_outcome(game, config, seed) == expected


def test_kernel_raises_where_every_weight_underflows():
    # the array loop divides 0 by 0 in some round and ends on NaN; the
    # kernel raises in that round, from a line of its generated source,
    # rather than dividing by a zero normalizer
    expected, underflowed = lone_md(*UNDERFLOW_MD)
    assert underflowed and expected == "mirror-descent iterates must be strictly positive"
    with pytest.raises(ValueError) as caught:
        run_md(*UNDERFLOW_MD)
    lines = [frame.line for frame in traceback.extract_tb(caught.tb) if frame.filename == "<md round kernel n=3 b=3>"]
    assert lines == ["require_positive([e0, e1, e2])"]


def test_no_round_calls_anything():
    # every call the kernel makes comes before its loop or once a draw
    # chunk: runs of as many chunks make the same calls, however many of
    # their rounds there are or put their argmax in B's block, and each
    # further chunk adds its fixed share (a chunk's exponentials are one
    # exp call, and one more for the factors at a unique in B's block,
    # under one np.errstate; at b = 1 that unique is B's only column, so
    # no round reads the first call's factors and the chunk takes only the
    # second)
    chunk = {"exp": 1, "__init__": 1, "__enter__": 1, "__exit__": 1}
    for game, per_chunk in (
        # no random omega and tied weights: nothing to draw
        (exp_game([1.0, 1.0, 1.0, 1.0], (0, 0, 4, 0)), ({}, {})),
        # B's column drawn, with a mean so small that it wins no argmax
        (exp_game([0.1, 1.0, 1.0], (0, 1, 2, 0)), (chunk, {"tolist": 2})),
        # a constant unique largest weight
        (exp_game([1.0, 2.0, 1.0], (0, 1, 2, 0)), (chunk, {"tolist": 2})),
        # the unique largest weight on B's column, the argmax of most rounds
        (UNIQUE_DRAWN_MD[0], (chunk, {"tolist": 2, "outer": 1})),
        (SECOND_DRAWN_MD[0], ({**chunk, "exp": 2}, {"tolist": 3, "outer": 1})),
    ):
        kernel = congames.md._round_kernel(game.n, game.partition.b)
        calls = {
            T: kernel_calls(kernel, lambda: run_md(game, MdConfig(T=T)))
            for T in (1, DRAW_CHUNK, DRAW_CHUNK + 1, 2 * DRAW_CHUNK, 2 * DRAW_CHUNK + 1)
        }
        assert calls[1] == calls[DRAW_CHUNK] and calls[DRAW_CHUNK + 1] == calls[2 * DRAW_CHUNK]
        for more, fewer in ((DRAW_CHUNK + 1, DRAW_CHUNK), (2 * DRAW_CHUNK + 1, 2 * DRAW_CHUNK)):
            assert tuple(calls[more][i] - calls[fewer][i] for i in (0, 1)) == per_chunk
        # before the loop: exp for F and G and for the constant factors at unique
        assert calls[1][0]["exp"] == 2 + per_chunk[0].get("exp", 0)


def test_kernel_raises_no_warning_where_an_exponent_is_infinite():
    # the chunk's numpy takes inf - inf as the rounds' float arithmetic
    # does, without a warning, and ends in the array loop's error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert md_outcome(*OVERFLOW_MD) == lone_md(*OVERFLOW_MD)[0] == "mirror-descent iterates must be strictly positive"


def test_the_kernel_reads_only_the_drawn_omega_columns(monkeypatch):
    # a run draws only B's T x b block of omega, b = 0 included
    shapes = []

    def spy(game, rng, size):
        omegas = congames.game.sample_omega(game, rng, size)
        shapes.append(omegas.shape)
        return omegas

    monkeypatch.setattr(congames.md, "sample_omega", spy)
    for run in (TIED_MD, NO_OMEGA_MD, ALL_OMEGA_MD, WIDE_MD):
        game, config, seed = run
        assert md_outcome(game, config, seed) == lone_md(game, config, seed)[0]
        assert shapes.pop() == (config.T, game.partition.b)


def test_oversized_runs_fail_before_sampling(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("the run sampled before checking its budget")

    # both solvers draw in mirror descent's shared run
    monkeypatch.setattr(congames.md, "sample_omega", no_draws)
    config = MdConfig(alpha=50.0, T=2 * 10**8)
    # MD holds B's one omega column, filled in place
    with pytest.raises(ValueError, match=r"md run with T=200000000, n=3 needs 1526 MiB"):
        run_md(exp_game([1.0, 1.0, 1.0], (0, 1, 2, 0)), config)
    # A1 holds B's one omega column, filled in place
    with pytest.raises(ValueError, match=r"a1 run with T=200000000, n=3 needs 1526 MiB"):
        solve_a1(exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0)), config)
