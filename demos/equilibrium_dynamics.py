"""
Iterative best response on a shared-information game
=====================================================

Three resources with exponential rewards, nobody observes any realization.
Starting from uniform play, each player in turn adopts the score strategy
that is optimal against the opponent's current pick statistics.  The
potential function rises with every adoption and certifies convergence.
The run stops once neither player gains more than ``NashConfig.epsilon``.
"""

import numpy as np

from congames import (
    Exponential,
    GameInstance,
    NashConfig,
    Partition,
    iterate_best_response,
)

means = (3.0, 1.0, 1.0)
game = GameInstance(
    Partition(0, 0, 3, 0), tuple(Exponential(1.0 / m) for m in means)
)

report = iterate_best_response(game, NashConfig(epsilon=1e-3))

print(f"mean rewards             : {means}")
print(f"converged                : {report.converged} in {report.iterations} turns")
print(f"player A picks           : {report.stats_a.p}")
print(f"player B picks           : {report.stats_b.p}")
print(f"utilities (A, B)         : "
      f"({report.trace[-1].utility_a:.4f}, {report.trace[-1].utility_b:.4f})")
print("\npotential ascent:")
for i, point in enumerate(report.trace, start=1):
    print(f"  turn {i}: H = {point.potential:.6f}  (gain {point.improvement:+.6f})")

# With a dominant first resource (mean at least twice the others), both
# players end up on resource 1 and split it -- a crowded equilibrium.
crowded = GameInstance(Partition(0, 0, 3, 0), tuple(Exponential(1.0 / m) for m in (2.0, 1.0, 1.0)))
rep2 = iterate_best_response(crowded, NashConfig(epsilon=1e-3))
print("\nmeans (2, 1, 1):")
print(f"  A -> {rep2.stats_a.p}, B -> {rep2.stats_b.p}, "
      f"utilities ({rep2.trace[-1].utility_a:.3f}, {rep2.trace[-1].utility_b:.3f})")
print("  both earn 1.0; sending B to resource 2 would pay it 1.0 as well")
print("  while A kept 2.0 -- the equilibrium is not socially optimal.")
