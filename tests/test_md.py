import math
import traceback
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import congames.game
import congames.md
import congames.quantile
from congames import (
    Exponential,
    GameInstance,
    MdConfig,
    Partition,
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
from congames.game import sample_omega
from congames.md import mw_update, omega_sup_sq_mean, require_positive, run_md_batch
from congames.quantile import DEFAULT_DELTA, FD_WIDTH
from congames.rng import OMEGA_STREAM, as_generator
from conftest import LAWS, exp_game


def test_step_shift_invariance_and_hand_value():
    # the update takes the exponents, the gradient over alpha, and steps in place
    p = np.array([0.3, 0.7])
    expo = np.array([-5.0, -5.0]) / 2.0
    out = mw_update(p, expo)
    assert out is expo
    np.testing.assert_allclose(out, p)
    out = mw_update(np.array([0.5, 0.5]), np.array([0.0, math.log(2.0)]))
    np.testing.assert_allclose(out, [1 / 3, 2 / 3], atol=1e-12)
    # vanishing step size
    out = mw_update(np.array([0.5, 0.5]), np.array([-0.3, 1.0]) / 1e12)
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-9)


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
    1-D update and the projection onto p0 >= DEFAULT_DELTA.  Returns the
    average iterate, or the error the loop raises, and which of the
    projection, a zero normalizer and the slope's clamp at 1 some round
    reached."""
    frontier = TailFrontier(game.distributions[0])
    n, w = game.n, game.weights
    omegas = sample_omega(game, as_generator(seed, OMEGA_STREAM), size=config.T)
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
            weights = p * np.exp(expo)
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


@given(a1_runs())
@example(PINNED_A1)
@example(WIDE_A1)
@example(CLAMPED_A1)
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
    lines = [frame.line for frame in traceback.extract_tb(caught.tb) if frame.filename == "<a1 round kernel n=3>"]
    assert lines == ["require_positive([e0, e1, e2])"]


@given(hnp.arrays(float, st.integers(0, 300), elements=st.floats(-1e6, 1e6)))
@example(np.full(9, -0.0))
@settings(max_examples=300, deadline=None)
def test_kernel_sums_add_in_numpys_order(xs):
    # the A1 kernel's sums are the source quantile._sum writes: a chain from
    # 0.0 below 8 terms, numpy's own sum of the list from 8 on
    names = [f"x{k}" for k in range(xs.size)]
    total = eval(congames.quantile._sum(names), {"np": np, **dict(zip(names, xs.tolist()))})
    assert np.float64(total).tobytes() == xs.sum().tobytes()


def test_step_preserves_simplex(rng):
    p = np.full(4, 0.25)
    for _ in range(200):
        p = mw_update(p, -rng.normal(size=4) / 5.0)
        require_positive(p)
        assert abs(p.sum() - 1.0) <= 1e-12


def test_error_bound_example():
    g = exp_game([1.0, 1.0, 1.0], (0, 0, 3, 0))
    bound = md_error_bound(g, MdConfig(alpha=50.0, T=10_000))
    assert bound == pytest.approx(2.5 / 100.0 + 50.0 * math.log(3.0) / 10_000.0, rel=1e-12)
    # T -> infinity leaves only the step-size term
    assert md_error_bound(g, MdConfig(alpha=50.0, T=10**9)) == pytest.approx(2.5 / 100.0, abs=1e-6)
    assert md_error_bound(g, MdConfig(alpha=100.0, T=10**9)) == pytest.approx(2.5 / 200.0, abs=1e-6)


@pytest.mark.parametrize("seed", [0, 1])
def test_sweep_reaches_the_closed_form_optima_of_scenario_two(seed):
    # in scenario 2 g is concave, with g* = 3/4 at p = (0, 1/2, 1/2) for
    # e1 <= 3/4 and g* = e1/2 at p = (1, 0, 0) for e1 >= 2: there the best
    # directional derivatives are e1 - 3/4 and 1 - e1/2.  A run's expected
    # gap is at most md_error_bound, and its value is estimated with stderr
    spec = ScenarioSpec(2, "worst-md", [0.1 + k * 0.1 for k in range(24)], seed=seed)
    plateau = 0
    for e1, value, stderr in run_scenario(spec).rows[:, :3]:
        if 0.75 < e1 < 2.0:
            continue
        g_star = 0.75 if e1 <= 0.75 else e1 / 2
        bound = md_error_bound(scenario_game(spec, e1), spec.config)
        assert g_star - bound - 3 * stderr <= value <= g_star + 3 * stderr + 1e-12, e1
        plateau += 1
    assert plateau == 12


def test_error_bound_rejects_bad_alpha_and_rounds():
    # md_error_bound reads alpha and T from an MdConfig, which refuses these
    for bad in (math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(ValueError, match=f"^alpha must be positive and finite, got {bad!r}$"):
            MdConfig(alpha=bad, T=10)
    # T is checked as a setting first, with the CLI's message, then as a count
    with pytest.raises(ValueError, match="^T must be positive and finite, got 0$"):
        MdConfig(alpha=50.0, T=0)


def test_omega_sup_sq_exact_b1_matches_samples():
    from congames.game import sample_omega

    g = exp_game([1.0, 1.5, 1.0], (0, 1, 2, 0))
    exact, err = omega_sup_sq_mean(g)
    assert err == 0.0
    om = sample_omega(g, 5, size=400_000)
    sq = np.max(om, axis=1) ** 2
    assert exact == pytest.approx(sq.mean(), abs=5 * sq.std() / math.sqrt(sq.size))


def test_omega_sup_sq_mc_b2():
    g = exp_game([1.0, 1.0, 1.0, 1.0], (0, 2, 2, 0))
    value, err = omega_sup_sq_mean(g, n_samples=200_000, rng=1)
    assert err > 0
    # crude sanity: between the b=0 floor and the sum of second moments
    assert 1.0 < value < 2.0 + 2.0 + 1.0 + 1.0


def test_oversized_sup_sq_estimate_fails_before_sampling(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("the estimate sampled before checking its budget")

    monkeypatch.setattr(Exponential, "sample", no_draws)
    g = exp_game([1.0, 1.0, 1.0], (0, 2, 1, 0))
    need = r"omega_sup_sq_mean run with n_samples=100000000, n=3 needs 2289 MiB up front"
    with pytest.raises(ValueError, match=need):
        omega_sup_sq_mean(g, n_samples=10**8)
    with pytest.raises(ValueError, match="n_samples must be >= 2"):
        omega_sup_sq_mean(g, n_samples=1)
    # at most one random coordinate: exact, so nothing is drawn
    for partition in ((0, 0, 3, 0), (0, 1, 2, 0)):
        _, err = omega_sup_sq_mean(exp_game([1.0, 1.0, 1.0], partition), n_samples=10**8)
        assert err == 0.0


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
    from congames.game import sample_omega
    from conftest import simplex_grid

    g = exp_game([1.2, 1.0, 0.8], (0, 1, 2, 0))
    cfg = MdConfig(alpha=40.0, T=20_000)
    p = run_md(g, cfg, seed=4)
    omegas = sample_omega(g, 777, size=50_000)

    def value(x):
        return float(np.dot(g.means, x) - 0.5 * np.max(omegas * x, axis=1).mean())

    grid = simplex_grid(3, 50)
    f_opt = max(value(x) for x in grid)
    stderr = 0.5 * np.max(omegas, axis=1).std(ddof=1) / math.sqrt(omegas.shape[0])
    assert value(p) >= f_opt - md_error_bound(g, cfg) - 3 * stderr


@pytest.mark.parametrize("scenario, solver", [(2, "worst-md"), (3, "worst-a1")])
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_tiny_alpha_fails_with_md_error(scenario, solver):
    # the step size underflows an iterate entry to zero within a few rounds;
    # the array update of mirror descent turns the zeros into NaN (numpy
    # warns), the list update of A1 raises, and both report the same error
    from congames import solve_a1
    from congames.experiments import ScenarioSpec, scenario_game

    game = scenario_game(ScenarioSpec(scenario, solver, [1.0]), 1.0)
    solve = run_md if solver == "worst-md" else solve_a1
    with pytest.raises(ValueError, match="iterates must be strictly positive"):
        solve(game, MdConfig(alpha=1e-3, T=2000))


# -- the batched loop ------------------------------------------------------

def lone_md(game, config, seed):
    """The one-run loop as it stood before batching: the array gradient and
    a 1-D update, the oracle the batch must match bit for bit."""
    n = game.n
    omegas = sample_omega(game, as_generator(seed, OMEGA_STREAM), size=config.T)
    p = np.full(n, 1.0 / n)
    total = np.zeros(n)
    for omega in omegas:
        total += p
        grad = game.means.copy()
        top = int(np.argmax(p * omega))
        grad[top] -= 0.5 * omega[top]
        expo = grad / config.alpha
        expo -= expo.max()
        w = p * np.exp(expo)
        p = w / w.sum()
    return total / config.T


@st.composite
def md_batches(draw):
    """Games sharing n in [2, 10], each with its own a = 0 partition, laws
    and distinct seed; the first game has a non-empty AB block."""
    n = draw(st.integers(min_value=2, max_value=10))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=5, unique=True))
    games = []
    for r in range(len(seeds)):
        b = draw(st.integers(0, n - 1 if r == 0 else n))
        d = draw(st.integers(1 if r == 0 else 0, n - b))
        laws = draw(st.lists(st.sampled_from(sorted(LAWS)), min_size=n, max_size=n))
        means = draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n))
        z = draw(st.lists(st.floats(0.0, 3.0), min_size=d, max_size=d))
        dists = tuple(LAWS[law](m) for law, m in zip(laws, means))
        games.append(GameInstance(Partition(0, b, n - b - d, d), dists, z=np.array(z)))
    alpha = draw(st.floats(1.0, 100.0))
    T = draw(st.integers(1, 60))
    return games, MdConfig(alpha=alpha, T=T), seeds


@given(md_batches())
@settings(max_examples=60, deadline=None)
def test_batch_matches_each_run_alone(batch):
    games, config, seeds = batch
    ps = run_md_batch(games, config, seeds)
    assert ps.shape == (len(games), games[0].n)
    for row, game, seed in zip(ps, games, seeds):
        assert row.tobytes() == run_md(game, config, seed).tobytes()
        assert row.tobytes() == lone_md(game, config, seed).tobytes()


def _sweep_like_batch():
    games = [exp_game([e1, 1.0, 1.0], (0, 1, 2, 0)) for e1 in (0.4, 0.9, 1.5, 2.2, 1.0)]
    return games, MdConfig(alpha=50.0, T=300), [3, 1, 4, 15, 9]


@pytest.mark.parametrize("runs_per_chunk, chunks", [(1, [1, 1, 1, 1, 1]), (2, [2, 2, 1]), (0.5, [1, 1, 1, 1, 1])])
def test_chunked_batch_matches_unchunked(monkeypatch, runs_per_chunk, chunks):
    # a chunk holds at least one run, even one whose draws exceed the chunk size
    games, config, seeds = _sweep_like_batch()
    whole = run_md_batch(games, config, seeds)
    monkeypatch.setattr(congames.md, "BATCH_DRAW_BYTES", int(runs_per_chunk * 300 * 3 * 8))
    sizes = []
    run_chunk = congames.md._run_chunk

    def counted(chunk_games, *args):
        sizes.append(len(chunk_games))
        return run_chunk(chunk_games, *args)

    monkeypatch.setattr(congames.md, "_run_chunk", counted)
    assert run_md_batch(games, config, seeds).tobytes() == whole.tobytes()
    assert sizes == chunks


def test_batch_holds_its_draws_and_one_block():
    # the batch holds its T x R x n draws; besides them, first one run's
    # sampled omegas with their drawn column, then one block of exponents at
    # the argmax (and numpy's 64 KiB broadcast buffer), never a second
    # draw-sized array
    R, T, n = 24, 10_000, 3
    games = [exp_game([0.3 + 0.1 * r, 1.0, 1.0], (0, 1, 2, 0)) for r in range(R)]
    run_md_batch(games, MdConfig(alpha=50.0, T=10), list(range(R)))  # leave numpy's one-time allocations out
    tracemalloc.start()
    try:
        run_md_batch(games, MdConfig(alpha=50.0, T=T), list(range(R)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    extra = max(T * (n + 1) * 8, congames.md.ROUND_BLOCK_BYTES + 64 * 1024)
    assert peak <= T * R * n * 8 + extra + 32 * 1024


def test_batch_rejects_mixed_runs():
    # one config serves the whole batch, so only n can differ between runs
    games, config, seeds = _sweep_like_batch()
    with pytest.raises(ValueError, match="must share n"):
        run_md_batch(games[:-1] + [exp_game([1.0, 1.0], (0, 1, 1, 0))], config, seeds)
    with pytest.raises(ValueError, match="no private block"):
        run_md_batch(games[:-1] + [exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0))], config, seeds)
    with pytest.raises(ValueError, match="one seed per game"):
        run_md_batch(games, config, seeds[:-1])
    with pytest.raises(ValueError, match="at least one run"):
        run_md_batch([], config, [])


@given(md_batches(), st.integers(1, 70), st.integers(1, 5))
@example(_sweep_like_batch(), 7, 2)  # the chunk split above, 300 rounds in blocks of 3 and 7
@example(_sweep_like_batch(), 2000, 5)  # T below one block
@example((_sweep_like_batch()[0], MdConfig(alpha=50.0, T=1), [3, 1, 4, 15, 9]), 1, 1)
@settings(max_examples=60, deadline=None)
def test_row_subgradients_match_the_list_kernel(batch, block_rounds, chunk_runs):
    # the batched round reads its exponents at the argmax from a per-block
    # precompute; every row keeps the bits of the list-kernel loop, with T = 1,
    # T below one block and T not a multiple of it, whatever the chunk split
    games, config, seeds = batch
    n = games[0].n
    with (
        mock.patch.object(congames.md, "ROUND_BLOCK_BYTES", block_rounds * n * 8),
        mock.patch.object(congames.md, "BATCH_DRAW_BYTES", chunk_runs * config.T * n * 8),
    ):
        ps = run_md_batch(games, config, seeds)
    for row, game, seed in zip(ps, games, seeds):
        assert row.tobytes() == lone_md(game, config, seed).tobytes()


def test_oversized_runs_fail_before_sampling(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("the run sampled before checking its budget")

    monkeypatch.setattr(congames.md, "sample_omega", no_draws)
    monkeypatch.setattr(congames.quantile, "sample_omega", no_draws)
    config = MdConfig(alpha=50.0, T=10**8)
    with pytest.raises(ValueError, match=r"md run with T=100000000, n=3 needs 2289 MiB"):
        run_md(exp_game([1.0, 1.0, 1.0], (0, 1, 2, 0)), config)
    with pytest.raises(ValueError, match=r"a1 run with T=100000000, n=3 needs 2289 MiB"):
        solve_a1(exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0)), config)
