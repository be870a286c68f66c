"""
Reproducible sweep tables over the first resource's mean
=========================================================

The experiments module sweeps the mean of resource 1 while resources 2 and 3
stay at mean 1, running a chosen solver at every point.  Tables are plain
CSV and byte-identical for identical spec and seed.  The same tables are
available from the command line, e.g.::

    congames nash --scenario 1 --e1-min 0.3 --e1-max 2.4 --e1-step 0.3
    congames worst dpp --scenario 2 --reps 10 --T 20000 --out sweep.csv
"""

from congames import DppConfig, ScenarioSpec, run_scenario

# equilibrium sweep on the no-information scenario
nash = run_scenario(ScenarioSpec(1, "nash", [0.3, 0.9, 1.5, 2.1]))
print(nash.to_csv())

# worst-case closed form on the same grid
explicit = run_scenario(ScenarioSpec(1, "worst-explicit", [0.3, 0.9, 1.5, 2.1]))
print(explicit.to_csv())

# the general solver on the scenario where B observes resource 1,
# with a min/max band over 5 repetitions
dpp = run_scenario(
    ScenarioSpec(
        2, "worst-dpp", [0.5, 1.0, 1.5], DppConfig(V=200.0, alpha=4.0e4, T=20_000),
        n_samples=20_000, repetitions=5,
    )
)
print(dpp.to_csv())
