import importlib
import inspect
from pathlib import Path

import pytest

import congames
from congames import (
    Discrete,
    PointMass,
    ScenarioSpec,
    SweepTable,
    TailFrontier,
    iterate_best_response,
    solve_a1,
    worst_case_utility,
)
from congames.experiments import evaluate_report

SUBMODULES = sorted(
    path.stem for path in Path(congames.__file__).parent.glob("*.py") if path.stem != "__init__"
)

# names deleted because no caller reached them
REMOVED = {
    "congames": ["preset_spec", "tail_weighted_mean", "McConfig", "config_for_epsilon"],
    "congames.experiments": ["preset_spec", "_with_mean", "SOLVERS", "STEP_DEFAULTS"],
    "congames.quantile": ["tail_weighted_mean", "_require_continuous"],
    "congames.game": ["deterministic_omega"],
    "congames.dpp": ["_base_weights", "gamma_step", "queue_step", "config_for_epsilon"],
    "congames.montecarlo": ["McConfig"],
    "congames.worstcase": ["row_max"],
    "congames.md": ["row_max"],
}


def test_submodules_found():
    assert {"experiments", "quantile", "distributions", "game"} <= set(SUBMODULES)


@pytest.mark.parametrize("module_name", ["congames"] + [f"congames.{m}" for m in SUBMODULES])
def test_all_names_resolve_once(module_name):
    module = importlib.import_module(module_name)
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names)), "a name is listed twice"
    for name in names:
        assert hasattr(module, name), f"{module_name}.{name} is listed but missing"


@pytest.mark.parametrize("module_name", sorted(REMOVED))
def test_removed_names_are_gone(module_name):
    module = importlib.import_module(module_name)
    for name in REMOVED[module_name]:
        assert not hasattr(module, name)
        assert name not in getattr(module, "__all__", [])


def test_removed_methods_and_parameters_are_gone():
    for cls in (PointMass, Discrete):
        assert not hasattr(cls, "quantile") and not hasattr(cls, "tail_mean")
    assert not hasattr(SweepTable, "write")
    assert list(inspect.signature(solve_a1).parameters) == ["game", "config", "n_eval_samples"]
    # the sample count and seed are plain parameters, not a config object
    assert list(inspect.signature(iterate_best_response).parameters) == [
        "game", "epsilon", "n_samples", "seed",
    ]
    assert list(inspect.signature(worst_case_utility).parameters) == [
        "strategy_a", "game", "n_samples", "rng",
    ]
    assert list(inspect.signature(evaluate_report).parameters) == [
        "strategy", "game", "mode", "n_samples", "seed", "opponent", "player",
    ]
    assert list(inspect.signature(TailFrontier.slope).parameters) == ["self", "p1"]
    fields = list(inspect.signature(ScenarioSpec).parameters)
    assert fields == [
        "scenario", "solver", "e1_values", "epsilon", "V", "alpha", "T", "n_samples", "seed", "repetitions",
    ]
