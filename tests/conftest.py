import gc
import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import congames.game
import congames.montecarlo
import congames.nash
from congames.quantile import DEFAULT_DELTA, FD_WIDTH

from congames import (
    Discrete,
    Exponential,
    GameInstance,
    Partition,
    Mixture,
    PointMass,
    QuantileThreshold,
    Simplex,
    StrategyStats,
    Uniform,
)


def load_benchmark():
    """``perfbench/run.py`` as a module: its ``WORKLOADS`` table holds each
    benchmark sweep and its seed-0 sha256 pins, and ``sweep_argv`` builds
    the sweep's command line."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[ACCEPTANCE] {name}: {status} ({report.duration:.1f}s)")


# the four catalog laws, each built from its mean
LAWS = {
    "exponential": lambda m: Exponential(1.0 / m),
    "uniform": lambda m: Uniform(0.0, 2.0 * m),
    "pointmass": PointMass,
    "discrete": lambda m: Discrete((0.5 * m, 1.5 * m), (0.5, 0.5)),
}

# the continuous laws the tail-frontier tests are run on
FRONTIER_LAWS = [Exponential(0.7), Exponential(2.0), Uniform(0.2, 3.0), Uniform(0.0, 1.0)]


def over_tail_fractions(test):
    """Run ``test`` on hypothesis tail fractions ``p`` in [0, 1], and on the
    points where the frontier's central difference changes regime: both
    ends, half the difference width on either side (where one end is
    clamped) and the A1 solver's floor on p0; and where the exponential
    tail mean's fast path starts and ends: at -0.0, 5e-324 and 2**-54,
    where 1 - p rounds to 1 (an infinite tail mean), and at 2**-53 and
    1 - 2**-53, the nearest fractions to 0 and 1 that 1 - p tells apart."""
    edges = (-0.0, 5e-324, 2**-54, 2**-53, 1.0 - 2**-53)
    for p in (0.0, FD_WIDTH / 2, DEFAULT_DELTA, 1.0 - FD_WIDTH / 2, 1.0, *edges):
        test = example(p=p)(test)
    return given(p=st.floats(0.0, 1.0))(test)


def kernel_calls(kernel, run):
    """Run ``run()`` under :func:`sys.setprofile` and count, by name, the
    Python functions and the C functions called straight from frames of the
    generated ``kernel``.  Where the kernel's ``exp`` is ``np.exp``, a
    ufunc, whose calls the profiler does not report, it is swapped in the
    kernel's globals meanwhile for a Python function ``exp`` that calls it,
    which counts it; the A1 kernel's ``math.exp`` is counted as a C call.
    The garbage collector is paused meanwhile, as its callbacks would run
    from whichever frame allocates."""
    filename = kernel.__code__.co_filename
    namespace = kernel.__globals__
    python, c = Counter(), Counter()

    def exp(x):
        return np.exp(x)

    def profile(frame, event, arg):
        if event == "call" and frame.f_back is not None and frame.f_back.f_code.co_filename == filename:
            python[frame.f_code.co_name] += 1
        elif event == "c_call" and frame.f_code.co_filename == filename:
            c[arg.__name__] += 1

    collecting = gc.isenabled()
    saved = namespace["exp"]
    if saved is np.exp:
        namespace["exp"] = exp
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        namespace["exp"] = saved
        if collecting:
            gc.enable()
    return python, c


def exp_game(means, partition) -> GameInstance:
    """Game with exponential rewards of the given means."""
    return GameInstance(
        Partition(*partition), tuple(Exponential(1.0 / m) for m in means)
    )


def full_omega(game, rng, size):
    """The full (size, n) adversary weight vectors: the game's weights,
    with the draws of ``sample_omega(game, rng, size)`` in B's columns."""
    omegas = np.tile(game.weights, (size, 1))
    omegas[:, game.partition.set_b] = congames.game.sample_omega(game, rng, size)
    return omegas


def random_simplex(n, rng):
    return rng.dirichlet(np.ones(n))


def random_stats(game, player, rng) -> StrategyStats:
    """A valid (p, q) pair: p on the simplex, 0 <= q_k <= E_k."""
    private = game.partition.private_set(player)
    p = random_simplex(game.n, rng)
    q = rng.uniform(0.0, game.means[private] * p[private])
    return StrategyStats(player, p, q)


def random_strategy(game, player, rng, kinds=("simplex", "score", "mixture")):
    """Random strategy of a random kind valid for ``player``."""
    private = game.partition.private_set(player)
    kind = kinds[rng.integers(len(kinds))]
    if kind == "simplex":
        return Simplex(random_simplex(game.n, rng))
    if kind == "score":  # one-row mixture: deterministic given the observation
        return Mixture(rng.uniform(0.05, 2.0, (1, game.n)), private)
    if kind == "mixture":
        rows = rng.integers(2, 5)
        return Mixture(rng.uniform(0.05, 2.0, (rows, game.n)), private)
    if kind == "quantile":
        dist = game.distributions[0]
        tau = dist.quantile(float(rng.uniform(0.05, 0.95)))
        return QuantileThreshold(tau, random_simplex(game.n - 1, rng))
    raise ValueError(kind)


def golden_max(f, lo, hi, rounds=80):
    """The largest value of ``f`` found by golden-section search on
    [lo, hi]: the maximum of a concave ``f``, ends included, to within
    rounding after 80 rounds."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo + (1.0 - ratio) * (hi - lo), lo + ratio * (hi - lo)
    fa, fb = f(a), f(b)
    best = max(f(lo), f(hi), fa, fb)
    for _ in range(rounds):
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + ratio * (hi - lo)
            fb = f(b)
            best = max(best, fb)
        else:
            hi, b, fb = b, a, fa
            a = lo + (1.0 - ratio) * (hi - lo)
            fa = f(a)
            best = max(best, fa)
    return best


def a1_preset_objective(e1, p0, p1):
    """g at A's pick probabilities (p0, p1, 1 - p0 - p1) in scenario 3, where
    A observes resource 0 (exponential, mean e1), B resource 1 (exponential,
    mean 1) and resource 2 has mean 1, with A on its threshold frontier:
    x0 = q(p0) = e1 p0 (1 - ln p0), and with c = max(x0, p2),
    g = x0 + p1 + p2 - (c + p1 exp(-c / p1)) / 2, as omega = (1, W1, 1) and
    E[max(c, p1 W1)] = c + p1 exp(-c / p1)."""
    p2 = max(1.0 - p0 - p1, 0.0)
    x0 = e1 * p0 * (1.0 - math.log(p0)) if p0 > 0.0 else 0.0
    c = max(x0, p2)
    tail = p1 * math.exp(-c / p1) if p1 > 0.0 else 0.0
    return x0 + p1 + p2 - 0.5 * (c + tail)


def a1_preset_optimum(e1):
    """g* of scenario 3, the largest worst-case utility of A's threshold
    strategies, by nested golden-section search: g is concave in p (a
    concave, increasing function of the concave frontier), and so is its
    maximum over p1 at fixed p0."""
    return golden_max(
        lambda p0: golden_max(lambda p1: a1_preset_objective(e1, p0, p1), 0.0, 1.0 - p0), 0.0, 1.0
    )


def md_preset_objective(e1, p0, p1):
    """g at A's pick probabilities (p0, p1, 1 - p0 - p1) in scenario 2, where
    B observes resource 0 (exponential, mean e1) and resources 1 and 2 have
    mean 1: with c = max(p1, p2),
    g = e1 p0 + p1 + p2 - (c + p0 e1 exp(-c / (p0 e1))) / 2, as
    omega = (W0, 1, 1) and E[max(c, p0 W0)] = c + p0 e1 exp(-c / (p0 e1))."""
    p2 = max(1.0 - p0 - p1, 0.0)
    c = max(p1, p2)
    tail = p0 * e1 * math.exp(-c / (p0 * e1)) if p0 > 0.0 else 0.0
    return e1 * p0 + p1 + p2 - 0.5 * (c + tail)


def md_preset_optimum(e1):
    """g* of scenario 2, the largest worst-case utility of A's simplex
    strategies, by nested golden-section search: g is concave on the
    simplex, and so is its maximum over p1 at fixed p0."""
    return golden_max(
        lambda p0: golden_max(lambda p1: md_preset_objective(e1, p0, p1), 0.0, 1.0 - p0), 0.0, 1.0
    )


_GRID_CACHE = {}


def simplex_grid(n, steps=100):
    """All simplex points with coordinates that are multiples of 1/steps."""
    key = (n, steps)
    if key not in _GRID_CACHE:
        if n == 1:
            grid = np.ones((1, 1))
        else:
            axes = [np.arange(steps + 1)] * (n - 1)
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n - 1)
            mesh = mesh[mesh.sum(axis=1) <= steps]
            last = steps - mesh.sum(axis=1)
            grid = np.column_stack([mesh, last]) / steps
        _GRID_CACHE[key] = grid
    return _GRID_CACHE[key]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def spy_on_sample_world(monkeypatch):
    """Record the (size, columns) of each call of ``congames.game.sample_world``
    made from nash or montecarlo, the two modules that draw worlds for a run."""
    calls = []
    original = congames.game.sample_world

    def spy(*args, **kwargs):
        calls.append((kwargs.get("size"), kwargs.get("columns")))
        return original(*args, **kwargs)

    for module in (congames.nash, congames.montecarlo):
        monkeypatch.setattr(module, "sample_world", spy)
    return calls
