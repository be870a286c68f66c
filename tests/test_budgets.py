"""One guard over every up-front budget: each budgeted entry point holds no
more than its budget checks count.

Each case runs one entry point under :mod:`tracemalloc` and compares the
peak of what it allocates with the largest count that a budget check made
during the call, read by a spy on ``check_upfront_budget``.  A call's
checks guard phases that follow one another (a solver's rounds, then its
evaluation), or count what the phases within them hold (a best-response
run's worlds, with the threshold split an estimate builds beside them), so
the largest of them bounds the call.  The games have exponential rewards,
a and b in {0, 1, 2} and one shared resource, and the strategies are
one-row and multi-row mixtures, with simplex and threshold strategies where
their player can play them.  A discrete law on B's block, whose draw
searches chunks of uniforms, runs through the solvers that draw B's omega
and a one-row estimate of B's stats.
"""

import tracemalloc

import numpy as np
import pytest

import congames.dpp
import congames.game
import congames.md
import congames.montecarlo
import congames.nash
import congames.worstcase
from congames import (
    Discrete,
    DppConfig,
    Exponential,
    GameInstance,
    MdConfig,
    Mixture,
    NashConfig,
    Partition,
    QuantileThreshold,
    Simplex,
    estimate_stats,
    iterate_best_response,
    simulate_payoff,
    solve_a1,
)
from congames.dpp import run as run_dpp
from congames.md import omega_sup_sq_mean, run_md
from congames.worstcase import omega_max_mean
from conftest import exp_game

# the rows (T or n_samples) of every measured call: one float64 column of
# them is 512 KiB
ROWS = 2**16
# what no budget counts and what does not grow with the rows: vectors of
# length n, numpy's 64 KiB buffers and a round kernel's lists of one
# DRAW_CHUNK of rows (up to about 400 KiB at n = 5,
# which DPP's count of one column's room for its rounds leaves room for at
# these rows).  Half a column, so one uncounted column of
# the rows fails.
SLACK = 256 * 2**10

BUDGETED_MODULES = (
    congames.dpp,
    congames.md,
    congames.montecarlo,
    congames.nash,
    congames.worstcase,
)


def game(a, b):
    return exp_game([1.5] * a + [1.0] * b + [1.2], (a, b, 1, 0))


def discrete_game(a, b):
    """:func:`game` with a three-atom discrete law on each of B's resources."""
    laws = [Exponential(1.0 / 1.5)] * a + [Discrete((0.5, 1.0, 2.0), (0.3, 0.4, 0.3))] * b + [Exponential(1.0 / 1.2)]
    return GameInstance(Partition(a, b, 1, 0), tuple(laws))


def strategy(g, player, kind):
    private = g.partition.private_set(player)
    if kind == "simplex":
        return Simplex(np.full(g.n, 1.0 / g.n))
    if kind == "threshold":
        return QuantileThreshold(1.0, np.full(g.n - 1, 1.0 / (g.n - 1)))
    rows = [np.linspace(0.6, 1.0, g.n), np.linspace(1.0, 0.6, g.n), np.full(g.n, 0.8)]
    return Mixture(rows[:1] if kind == "one-row" else rows, private)


def budgeted_calls():
    """(id, call) for every budgeted entry point on every game it takes;
    ``call(rows)`` runs it with ``rows`` rounds or samples."""
    calls = {}
    for a in (0, 1, 2):
        for b in (0, 1, 2):
            g, ab = game(a, b), f"a{a}b{b}"
            calls[f"dpp.run-{ab}"] = lambda r, g=g: run_dpp(g, DppConfig(T=r), 0)
            if a == 1:
                calls[f"solve_a1-{ab}"] = lambda r, g=g: solve_a1(g, MdConfig(T=r), 0, r)
            if a == 0:
                calls[f"run_md-{ab}"] = lambda r, g=g: run_md(g, MdConfig(T=r), 0)
            if b:  # the max term is exact, and counts nothing, when b == 0
                calls[f"omega_max_mean-{ab}"] = lambda r, g=g: omega_max_mean(np.full(g.n, 1.0 / g.n), g, r, 0)
            if b == 2:  # and omega_sup_sq_mean's is exact when b <= 1
                calls[f"omega_sup_sq_mean-{ab}"] = lambda r, g=g: omega_sup_sq_mean(g, r, 0)
            if a + b:
                calls[f"iterate_best_response-{ab}"] = lambda r, g=g: iterate_best_response(g, NashConfig(), r, 0)
            for player, size in (("A", a), ("B", b)):
                kinds = ("one-row", "multi-row") + (("threshold",) if player == "A" and a == 1 else ())
                for kind in kinds if size else ():  # a player with no private block is exact
                    s = strategy(g, player, kind)
                    calls[f"estimate_stats-{player}-{kind}-{ab}"] = lambda r, g=g, s=s, p=player: estimate_stats(
                        s, g, p, r, 0
                    )
            pairs = [("simplex",) * 2, ("one-row",) * 2, ("multi-row",) * 2] + [("threshold", "multi-row")] * (a == 1)
            for kind_a, kind_b in pairs:
                sa, sb = strategy(g, "A", kind_a), strategy(g, "B", kind_b)
                calls[f"simulate_payoff-{kind_a}-{kind_b}-{ab}"] = lambda r, g=g, sa=sa, sb=sb: simulate_payoff(
                    sa, sb, g, r, 0
                )
    for a in (0, 1):
        for b in (1, 2):
            g, ab = discrete_game(a, b), f"a{a}b{b}-discrete"
            calls[f"{'run_md' if a == 0 else 'solve_a1'}-{ab}"] = lambda r, g=g, a=a: (
                run_md(g, MdConfig(T=r), 0) if a == 0 else solve_a1(g, MdConfig(T=r), 0, r)
            )
            s = strategy(g, "B", "one-row")
            calls[f"estimate_stats-B-one-row-{ab}"] = lambda r, g=g, s=s: estimate_stats(s, g, "B", r, 0)
    return calls


CALLS = budgeted_calls()


@pytest.mark.parametrize("case", sorted(CALLS))
def test_every_budget_counts_what_its_entry_point_holds(monkeypatch, case):
    counts = []
    check = congames.game.check_upfront_budget

    def spy(solver, T, n, arrays=1, rows="T"):
        counts.append(T * n * 8 * arrays)
        check(solver, T, n, arrays, rows)

    for module in BUDGETED_MODULES:
        monkeypatch.setattr(module, "check_upfront_budget", spy)
    call = CALLS[case]
    call(16)  # compile the round kernels and leave numpy's one-time allocations out
    counts.clear()
    tracemalloc.start()
    try:
        call(ROWS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    counted = max(counts)
    assert peak <= counted + SLACK, f"peak {peak / 2**10:.0f} KiB, counted {counted / 2**10:.0f} KiB"
