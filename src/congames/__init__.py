"""Two-player stochastic resource-sharing games with asymmetric information.

Players pick one resource each; a resource's random reward is halved when
both pick it, and each player observes the realized rewards of only part of
the resources.  The package computes approximate Nash equilibria by
iterative best response and maximizes player A's worst-case expected
utility four ways: an exact closed form (no private information), a
drift-plus-penalty mixture of threshold strategies (general case), mirror
descent on the simplex (A uninformed), and a quantile-threshold
construction (A observes one resource).
"""

from .distributions import Discrete, Exponential, PointMass, RewardDistribution, Uniform
from .dpp import (
    BoundConstants,
    DppConfig,
    DppDiagnostics,
    bound_constants,
    queue_bound,
)
from .dpp import run as run_dpp
from .explicit import ExplicitSolution, explicit_solution, no_info_objective
from .game import GameInstance, Partition, sample_omega, sample_world
from .gamefile import GameFileError, load_game, load_strategy, parse_game, parse_strategy
from .md import MdConfig, md_error_bound, run_md
from .montecarlo import StrategyStats, estimate_stats, expected_utility, simulate_payoff
from .nash import EquilibriumReport, NashConfig, best_response, iterate_best_response, potential
from .quantile import TailFrontier, build_strategy_a1, solve_a1
from .strategies import Mixture, QuantileThreshold, Simplex, Strategy, act
from .worstcase import (
    WorstCaseEval,
    worst_case_objective,
    worst_case_response,
    worst_case_utility,
)
from .experiments import ScenarioSpec, SweepTable, run_scenario, scenario_game

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "GameInstance",
    "sample_world",
    "sample_omega",
    "Exponential",
    "Uniform",
    "PointMass",
    "Discrete",
    "RewardDistribution",
    "Simplex",
    "QuantileThreshold",
    "Mixture",
    "Strategy",
    "act",
    "StrategyStats",
    "estimate_stats",
    "expected_utility",
    "simulate_payoff",
    "EquilibriumReport",
    "NashConfig",
    "best_response",
    "potential",
    "iterate_best_response",
    "WorstCaseEval",
    "worst_case_response",
    "worst_case_objective",
    "worst_case_utility",
    "ExplicitSolution",
    "explicit_solution",
    "no_info_objective",
    "DppConfig",
    "DppDiagnostics",
    "BoundConstants",
    "run_dpp",
    "bound_constants",
    "queue_bound",
    "MdConfig",
    "run_md",
    "md_error_bound",
    "TailFrontier",
    "build_strategy_a1",
    "solve_a1",
    "GameFileError",
    "load_game",
    "load_strategy",
    "parse_game",
    "parse_strategy",
    "ScenarioSpec",
    "SweepTable",
    "run_scenario",
    "scenario_game",
]
