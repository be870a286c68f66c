"""
Exploiting one observed resource with quantile thresholds
==========================================================

Player A observes the realization of resource 1 only.  For a target pick
probability p1, the best use of the observation is an upper-tail rule:
take resource 1 exactly when its reward clears the (1 - p1)-quantile.
That traces the whole frontier of achievable (reward-weighted rate, pick
probability) pairs, and reduces the worst-case problem to an optimization
over the simplex, solved by restricted mirror descent.
"""

import math

import numpy as np

from congames import (
    Exponential,
    GameInstance,
    MdConfig,
    Partition,
    TailFrontier,
    build_strategy_a1,
    estimate_stats,
    explicit_solution,
    solve_a1,
)

game = GameInstance(Partition(1, 0, 2, 0), tuple(Exponential(1.0) for _ in range(3)))
frontier = TailFrontier(game.distributions[0])

print("frontier of the unit-rate exponential, q(p) = p (1 - ln p):")
for p0 in (0.25, 0.5, 0.75, 1.0):
    print(f"  p1={p0:4.2f}: threshold {frontier.tau(p0):6.3f},  q = {frontier.q(p0):.4f}")

# build the threshold strategy for p = (0.5, 0.3, 0.2) and verify by sampling
target = np.array([0.5, 0.3, 0.2])
strategy = build_strategy_a1(target, game)
stats = estimate_stats(strategy, game, "A", n_samples=500_000, rng=1)
print(f"\nbuilt strategy: threshold {strategy.tau:.4f} (= ln 2), tail {strategy.tail}")
print(f"sampled picks   : {np.round(stats.p, 4)}  (target {target})")
print(f"sampled q1      : {stats.q[0]:.4f}  (frontier {frontier.q(0.5):.4f})")

# solve the worst-case problem over threshold strategies
# returns the average iterate, its worst-case value, and that value's standard
# error (0 here: nobody else observes anything, so the value is exact)
p_best, value, _ = solve_a1(game, MdConfig(alpha=50.0, T=10_000), seed=0)
blind = explicit_solution(game.means).value
print(f"\noptimized p     : {np.round(p_best, 4)}")
print(f"worst-case value: {value:.4f}  vs {blind:.4f} without the observation")
print(f"seeing one reward lifts the guarantee by {value - blind:.4f}")
