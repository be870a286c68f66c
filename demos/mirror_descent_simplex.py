"""
Mirror descent when player A is uninformed
===========================================

With no private block, A's achievable statistics are exactly the simplex,
and multiplicative-weights updates solve the worst-case problem directly.
The expected gap after T rounds is at most C/(2 alpha) + alpha ln(n)/T.
Works for any opponent information (here B observes resource 1).
"""

import numpy as np

from congames import (
    Exponential,
    GameInstance,
    MdConfig,
    Partition,
    explicit_solution,
    md_error_bound,
    run_md,
    worst_case_objective,
)

# no information at all: compare against the exact closed form
game = GameInstance(Partition(0, 0, 3, 0), tuple(Exponential(1.0) for _ in range(3)))
config = MdConfig(alpha=50.0, T=10_000)
p = run_md(game, config, seed=0)
value, _ = worst_case_objective(p, game)  # exact when omega is deterministic

print(f"average iterate      : {np.round(p, 5)}")
print(f"achieved value       : {value:.6f}")
print(f"exact optimum        : {explicit_solution(game.means).value:.6f}")
print(f"guaranteed gap bound : {md_error_bound(game, config):.4f}")

# B observes resource 1: the adversary weight on it is random, so each round
# samples a fresh draw; the guarantee is unchanged
asym = GameInstance(
    Partition(0, 1, 2, 0),
    (Exponential(1.0 / 1.5), Exponential(1.0), Exponential(1.0)),
)
longer = MdConfig(alpha=50.0, T=20_000)
p = run_md(asym, longer, seed=0)
value, stderr = worst_case_objective(p, asym, n_samples=200_000, rng=3)
print("\nB observes resource 1 (mean 1.5):")
print(f"  p = {np.round(p, 4)}, worst-case value {value:.4f} +- {stderr:.4f}")
print(f"  bound: {md_error_bound(asym, longer):.4f}")
