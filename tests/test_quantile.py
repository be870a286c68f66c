import contextlib
import io
import linecache
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    build_strategy_a1,
    estimate_stats,
    explicit_solution,
    run_scenario,
    solve_a1,
    worst_case_objective,
)
from congames.cli import main
from congames.game import DRAW_CHUNK, sample_omega
from congames.quantile import FD_WIDTH
from conftest import (
    FRONTIER_LAWS,
    a1_preset_objective,
    a1_preset_optimum,
    exp_game,
    kernel_calls,
    over_tail_fractions,
    random_strategy,
)


def test_tail_weighted_mean_exponential():
    q = TailFrontier(Exponential(1.0)).q
    assert q(1.0) == pytest.approx(1.0)
    assert q(math.exp(-1)) == pytest.approx(2 * math.exp(-1))
    assert q(0.0) == 0.0
    # closed form p (1 - ln p) for the unit-rate exponential
    for p in (0.1, 0.25, 0.5, 0.75, 0.9):
        assert q(p) == pytest.approx(p * (1 - math.log(p)), rel=1e-12)


def test_tail_weighted_mean_uniform():
    q = TailFrontier(Uniform(0.0, 2.0)).q
    assert q(0.5) == pytest.approx(0.5 * 1.5)
    assert q(1.0) == pytest.approx(1.0)


def test_rejects_discontinuous():
    for dist in (PointMass(1.0), Discrete((1.0, 2.0), (0.5, 0.5)), Uniform(1.0, 1.0)):
        with pytest.raises(ValueError, match="continuous"):
            TailFrontier(dist)
        # the threshold construction refuses them before asking for a quantile
        game = GameInstance(Partition(1, 0, 1, 0), (dist, Exponential(1.0)))
        with pytest.raises(ValueError, match="continuous"):
            build_strategy_a1([0.5, 0.5], game)


def test_frontier_shape():
    for dist in (Exponential(0.7), Uniform(0.2, 3.0)):
        frontier = TailFrontier(dist)
        grid = np.linspace(0.0, 1.0, 101)
        qs = np.array([frontier.q(float(p)) for p in grid])
        assert qs[0] == 0.0
        assert qs[-1] == pytest.approx(dist.mean)
        assert np.all(qs <= dist.mean + 1e-12)
        assert np.all(np.diff(qs) >= -1e-12)  # non-decreasing
        mid = 0.5 * (qs[:-2] + qs[2:])
        assert np.all(qs[1:-1] >= mid - 1e-9)  # concave on the grid


def test_frontier_q_is_the_checked_tail_weighted_mean():
    # q is p1 * tail_mean(p1) bit for bit, and p1 is range-checked, by
    # slope too, even where both clamped ends of its difference are valid
    for dist in FRONTIER_LAWS:
        frontier = TailFrontier(dist)
        for p1 in [0.0, 1e-12, 1e-4, 0.3, 0.5, 1.0 - 1e-9, 1.0, *np.linspace(0.0, 1.0, 97).tolist()]:
            expected = p1 * dist.tail_mean(p1) if p1 > 0 else 0.0
            assert frontier.q(p1) == expected
        for bad in (1.5, -0.1, 1.0 + FD_WIDTH / 2, -FD_WIDTH / 2, float("nan")):
            for method in (frontier.q, frontier.slope):
                with pytest.raises(ValueError, match="^tail fraction must be in"):
                    method(bad)


@pytest.mark.parametrize("dist", FRONTIER_LAWS, ids=repr)
@over_tail_fractions
def test_frontier_slope_is_the_central_difference_of_q(dist, p):
    # the difference of p * tail_mean(p) across [p - FD_WIDTH, p + FD_WIDTH],
    # clamped to [0, 1] with ternaries as the A1 round kernel clamps, bit
    # for bit
    hi, lo = p + FD_WIDTH, p - FD_WIDTH
    hi, lo = hi if hi < 1.0 else 1.0, lo if lo > 0.0 else 0.0
    q_lo = lo * dist.tail_mean(lo) if lo != 0.0 else 0.0
    difference = (hi * dist.tail_mean(hi) - q_lo) / (hi - lo)
    assert TailFrontier(dist).slope(p).hex() == difference.hex()


def test_build_strategy_examples():
    g = exp_game([1.0, 1.0, 1.0], (1, 0, 2, 0))
    s = build_strategy_a1([0.5, 0.3, 0.2], g)
    assert s.tau == pytest.approx(math.log(2.0))
    np.testing.assert_allclose(s.tail, [0.6, 0.4])

    s_all = build_strategy_a1([1.0, 0.0, 0.0], g)
    assert s_all.tau == 0.0  # threshold below the support: always resource 0
    stats = estimate_stats(s_all, g, "A", n_samples=50_000, rng=1)
    np.testing.assert_allclose(stats.p, [1.0, 0.0, 0.0])
    assert stats.q[0] == pytest.approx(1.0, abs=0.02)


def test_build_strategy_requires_a1():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    with pytest.raises(ValueError):
        build_strategy_a1([0.5, 0.5], g)


def test_built_strategy_meets_frontier():
    g = exp_game([1.0, 1.0, 1.0], (1, 0, 2, 0))
    frontier = TailFrontier(g.distributions[0])
    for p0 in (0.25, 0.5, 0.75):
        target = np.array([p0, 0.6 * (1 - p0), 0.4 * (1 - p0)])
        s = build_strategy_a1(target, g)
        stats = estimate_stats(s, g, "A", n_samples=1_000_000, rng=17)
        p_err = 3.0 / math.sqrt(1_000_000)
        np.testing.assert_allclose(stats.p, target, atol=4 * p_err)
        stderr_q = math.sqrt(frontier.dist.second_moment / 1_000_000)
        assert stats.q[0] == pytest.approx(frontier.q(p0), abs=3 * stderr_q)


def test_frontier_dominates_random_strategies(rng):
    g = exp_game([1.0, 1.0, 1.0], (1, 0, 2, 0))
    frontier = TailFrontier(g.distributions[0])
    n_samples = 40_000
    for _ in range(60):
        s = random_strategy(g, "A", rng, kinds=("simplex", "score", "mixture", "quantile"))
        stats = estimate_stats(s, g, "A", n_samples=n_samples, rng=int(rng.integers(2**31)))
        stderr = math.sqrt(frontier.dist.second_moment / n_samples)
        assert stats.q[0] <= frontier.q(stats.p[0]) + 4 * stderr


def test_solve_a1_symmetric_beats_uninformed():
    g = exp_game([1.0, 1.0, 1.0], (1, 0, 2, 0))
    p, value, stderr = solve_a1(g, MdConfig(alpha=50.0, T=10_000), seed=2)
    assert abs(p.sum() - 1.0) <= 1e-9
    assert value >= 5.0 / 6.0 - 0.03  # observing resource 0 cannot hurt
    assert stderr == 0.0  # b == 0: the worst-case value is exact


def test_solve_a1_large_first_mean():
    g = GameInstance(
        Partition(1, 0, 2, 0),
        (Exponential(0.01), Exponential(1.0), Exponential(1.0)),
    )
    p, value, _ = solve_a1(g, MdConfig(alpha=13_000.0, T=20_000), seed=2)
    assert p[0] > 0.8  # nearly always take the observed high-mean resource
    oracle = explicit_solution([100.0, 1.0, 1.0]).value
    # subgradient steps leave a small optimization gap; allow 1 percent
    assert value >= oracle * (1.0 - 0.01)


def test_solve_a1_degenerate_matches_uninformed():
    g = GameInstance(
        Partition(1, 0, 2, 0),
        (Uniform(2.0 - 1e-6, 2.0 + 1e-6), Exponential(1.0), Exponential(1.0)),
    )
    p, value, _ = solve_a1(g, MdConfig(alpha=80.0, T=20_000), seed=2)
    oracle = explicit_solution([2.0, 1.0, 1.0]).value
    assert value == pytest.approx(oracle, abs=0.02)


def test_solve_a1_requires_a1():
    g = exp_game([1.0, 1.0], (0, 0, 2, 0))
    with pytest.raises(ValueError):
        solve_a1(g, MdConfig(alpha=10.0, T=10))


def test_solve_a1_refuses_games_too_wide_for_its_restriction():
    # p0 >= DEFAULT_DELTA = 1e-3 needs n < 1000; the refusal comes before any draw
    for n, ok in ((999, True), (1000, False)):
        g = exp_game([1.0] * n, (1, 0, n - 1, 0))
        if ok:
            p, _, _ = solve_a1(g, MdConfig(alpha=50.0, T=1))
            assert p.shape == (n,)
        else:
            with pytest.raises(ValueError, match="needs n < 1000"):
                solve_a1(g, MdConfig(alpha=50.0, T=1))


def test_solve_a1_stderr_matches_its_evaluation():
    # b == 1: the returned value and stderr are one Monte Carlo evaluation of
    # the frontier point of the returned p, with the run's seed
    g = exp_game([1.5, 1.0, 1.0], (1, 1, 1, 0))
    p, value, stderr = solve_a1(g, MdConfig(alpha=50.0, T=500), seed=4, n_samples=3000)
    x = p.copy()
    x[0] = TailFrontier(g.distributions[0]).q(p[0])
    assert (value, stderr) == worst_case_objective(x, g, n_samples=3000, rng=4)
    assert stderr > 0


def test_solve_a1_holds_no_round_history():
    # beside B's T x b omega draws, filled in place, the run
    # holds one DRAW_CHUNK of them as Python floats (about 32 KiB at b = 1,
    # under 256 KiB), and never a T x n record of its iterates; the bound
    # allows T x n draws
    T, n = 60_000, 3
    game = exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0))
    solve_a1(game, MdConfig(alpha=50.0, T=10), n_samples=2000)  # leave numpy's one-time allocations out
    tracemalloc.start()
    try:
        solve_a1(game, MdConfig(alpha=50.0, T=T), seed=1, n_samples=2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= T * n * 8 + 2**18 + 2**14


def test_solve_a1_calls_tail_mean_three_times_a_round(monkeypatch):
    # each round reads the frontier at p0 and at both ends of its
    # difference, through the law's class, where the benchmark's trace
    # counts the calls
    calls = []
    original = Exponential.tail_mean

    def spy(self, p):
        calls.append(p)
        return original(self, p)

    monkeypatch.setattr(Exponential, "tail_mean", spy)
    T = 200
    p, _, _ = solve_a1(exp_game([1.0, 1.5, 1.0], (1, 1, 1, 0)), MdConfig(T=T), n_samples=2000)
    # and once more after the rounds, for the value at the average iterate
    assert len(calls) == 3 * T + 1
    assert calls[-1] == p[0]


def test_a1_kernel_calls_only_tail_mean():
    # a round's only Python-level calls are the three tail_mean calls; its
    # C calls are at most n - 1 math.exp calls, as the shift's own exponent
    # is 0: on this seed no other exponent is 0, so every round makes n - 1;
    # the kernel reads B's omega column DRAW_CHUNK rows at a time with one
    # tolist
    T = 2500
    game = exp_game([1.0, 1.5, 1.0], (1, 1, 1, 0))
    kernel = congames.quantile._round_kernel(3, 1)
    assert kernel.__globals__["exp"] is math.exp
    python, c = kernel_calls(kernel, lambda: solve_a1(game, MdConfig(T=T), n_samples=2000))
    assert python == {"tail_mean": 3 * T}
    assert c == {"exp": 2 * T, "tolist": -(-T // DRAW_CHUNK)}


def test_a1_kernel_reads_only_the_drawn_omega_columns(monkeypatch):
    # a run draws only B's T x b block of omega, and the kernel takes every
    # other entry, resource 0's among them, the constant weight, from the
    # game: the iterate has the bits of the array formulas on the full omega
    from test_md import numpy_a1

    shapes = []

    def spy(game, rng, size):
        omegas = sample_omega(game, rng, size)
        shapes.append(omegas.shape)
        return omegas

    # a small mean on resource 0, so B's draws often win the argmax
    config = MdConfig(alpha=50.0, T=2500)
    for game in (
        exp_game([0.3, 1.5, 1.0], (1, 1, 1, 0)),
        exp_game([0.3, 1.2, 1.4, 1.0], (1, 2, 1, 0)),
        exp_game([0.9, 1.3, 1.0], (1, 0, 2, 0)),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(congames.md, "sample_omega", spy)
            p, _, _ = solve_a1(game, config, seed=5, n_samples=3000)
        assert shapes.pop() == (config.T, game.partition.b)
        expected, _ = numpy_a1(game, config, seed=5)
        assert p.tobytes() == expected


def test_each_kernel_shape_has_its_own_source():
    # every (n, b) compiles its own source under its own linecache name
    shapes = [(n, b) for n in range(1, 6) for b in range(n)]
    names = {congames.quantile._round_kernel(*shape).__code__.co_filename for shape in shapes}
    assert len(names) == len(shapes)
    assert all(linecache.getlines(name) for name in names)
    assert "<a1 round kernel n=3 b=1>" in names


def test_preset_optimum_bounds_a_grid_of_the_objective():
    # the nested search finds at least the best point of a 0.01 grid, and
    # at e1 = 2 the optimum 1 + 1/e
    for e1 in (0.5, 1.0, 2.0):
        grid = max(a1_preset_objective(e1, i / 100, j / 100) for i in range(101) for j in range(101 - i))
        assert grid <= a1_preset_optimum(e1) <= grid + 1e-3
    assert a1_preset_optimum(2.0) == pytest.approx(1.0 + math.exp(-1.0), abs=1e-12)


@pytest.mark.parametrize("e1", [0.3, 0.6, 0.9, 1.2, 1.5, 1.8, 2.1, 2.4])
def test_sweep_value_lies_near_the_preset_optimum(e1):
    # `worst a1 --scenario 3 --e1-min e1 --e1-max e1` at the benchmark's
    # eight grid points, default T and seed 0: the printed value, an
    # estimate of g at the returned p, lies at most 3 stderr above g* and at
    # most 1e-3 below it.  Measured at seed 0: every value lies below g*, by
    # 5.4e-4 at most (e1 = 0.9), 4.4e-4 at e1 = 1.2 and under 2.1e-4
    # elsewhere; the ceiling leaves 4.6e-4 of margin.  Seeds 0-19 gave gaps
    # up to 1.0e-3 (seed 5, e1 = 0.3, where the stderr is 4.8e-4).
    (row,) = run_scenario(ScenarioSpec(3, "worst-a1", [e1], seed=0)).rows
    value, stderr = row[1], row[2]
    g_star = a1_preset_optimum(e1)
    assert value <= g_star + 3 * stderr + 1e-12
    assert g_star - value <= 1e-3


def test_default_sweep_builds_one_kernel():
    # every point of a sweep shares one game shape, so one generated kernel
    congames.quantile._round_kernel.cache_clear()
    argv = ["worst", "a1", "--scenario", "3", "--T", "500", "--samples", "2000"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    info = congames.quantile._round_kernel.cache_info()
    assert (info.misses, info.hits) == (1, 23)  # the default grid's 24 points


@given(st.lists(st.floats(-745.0, 0.0), min_size=3, max_size=3))
@example([0.0, -math.inf, -745.0])
@example([-math.inf, -1e-300, 0.0])
@example([-0.0, -1.0, 0.0])
@settings(max_examples=300)
def test_scalar_exp_is_the_array_exp(xs):
    # mirror descent takes a chunk's exponentials with one np.exp call over
    # DRAW_CHUNK rows (fewer in the last chunk, and b rows of them where B
    # observes b resources), where the array update makes one call on the n
    # exponents of a round: each entry must get the same bits whatever the
    # array's length, shape or the entry's position in it
    whole = [v.hex() for v in np.exp(np.array(xs)).tolist()]
    for size in (DRAW_CHUNK, DRAW_CHUNK - 1):
        for offset in range(3):
            chunk = np.resize(np.roll(xs, offset), size)
            got = np.exp(chunk).tolist()
            assert [v.hex() for v in got] == [whole[(i - offset) % 3] for i in range(size)]
    rows = np.exp(np.resize(xs, (3, DRAW_CHUNK))).tolist()
    assert [[v.hex() for v in row] for row in rows] == [
        [whole[(r * DRAW_CHUNK + i) % 3] for i in range(DRAW_CHUNK)] for r in range(3)
    ]
    # exp(+-0) is exactly 1 and exp(-inf) exactly 0 in numpy, which mirror
    # descent's rounds write in place of the call, and in libm, where the
    # A1 round skips the call at the shift's own exponent and its reference
    # takes math.exp at every entry
    for x, v in zip(xs, np.exp(np.array(xs)).tolist()):
        if x == 0.0:
            assert v == 1.0 and math.exp(x) == 1.0
        if x == -math.inf:
            assert v == 0.0 and math.exp(x) == 0.0


@pytest.mark.parametrize(
    "n_samples, message",
    [
        (1, "^n_samples must be >= 2 when player B observes a resource$"),
        (0, "^n_samples must be >= 2 when player B observes a resource$"),
        (2.5, "^n_samples must be an integer, got 2.5$"),
        (10**10, "^omega_max_mean run with n_samples=10000000000, n=3 needs 76294 MiB up front"),
    ],
)
def test_solve_a1_refuses_a_bad_sample_count_before_sampling(monkeypatch, n_samples, message):
    # the evaluation's own checks, with its messages, run before any round
    def no_draws(*args, **kwargs):
        raise AssertionError("solve_a1 sampled before checking its evaluation's sample count")

    monkeypatch.setattr(congames.md, "sample_omega", no_draws)
    with pytest.raises(ValueError, match=message):
        solve_a1(exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0)), MdConfig(alpha=50.0, T=50_000), n_samples=n_samples)


@pytest.mark.parametrize("p", [[0.5, 0.5], [0.25, 0.25, 0.25, 0.25]])
def test_quantile_refusals(p):
    game = GameInstance(Partition(1, 1, 1, 0), (Exponential(1.0),) * 3)
    with pytest.raises(ValueError, match=r"^p must have length 3$"):
        build_strategy_a1(p, game)
