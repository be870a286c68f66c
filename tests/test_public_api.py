import importlib
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

import congames
from congames import (
    Discrete,
    DppConfig,
    ExplicitSolution,
    MdConfig,
    NashConfig,
    PointMass,
    ScenarioSpec,
    SweepTable,
    TailFrontier,
    iterate_best_response,
    md_error_bound,
    run_dpp,
    run_md,
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
    "congames.experiments": ["preset_spec", "_with_mean", "SOLVERS", "STEP_DEFAULTS", "SOLVER_SETTINGS"],
    "congames.quantile": ["tail_weighted_mean", "_require_continuous"],
    "congames.game": ["deterministic_omega", "draw_rows"],
    "congames.dpp": ["_base_weights", "gamma_step", "queue_step", "config_for_epsilon"],
    "congames.montecarlo": ["McConfig"],
    "congames.worstcase": ["row_max", "sampled_subgradients", "sampled_subgradient"],
    "congames.md": [
        "row_max", "mw_step", "pairwise_sum", "run_md_batch", "mw_update", "BATCH_DRAW_BYTES", "ROUND_BLOCK_BYTES",
    ],
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
    # the sample count and seed are plain parameters beside the config
    assert list(inspect.signature(iterate_best_response).parameters) == [
        "game", "config", "n_samples", "seed",
    ]
    assert inspect.signature(iterate_best_response).parameters["config"].default == NashConfig()
    assert list(inspect.signature(worst_case_utility).parameters) == [
        "strategy_a", "game", "n_samples", "rng",
    ]
    assert list(inspect.signature(evaluate_report).parameters) == [
        "strategy", "game", "mode", "n_samples", "seed", "opponent", "player",
    ]
    assert list(inspect.signature(TailFrontier.slope).parameters) == ["self", "p1"]
    assert [field.name for field in fields(ExplicitSolution)] == ["p", "support_size", "inv_mean_sum", "value"]
    assert not hasattr(TailFrontier, "point")
    # the spec holds one config in place of its settings
    spec_fields = list(inspect.signature(ScenarioSpec).parameters)
    assert spec_fields == ["scenario", "solver", "e1_values", "config", "n_samples", "seed", "repetitions"]
    assert not {"epsilon", "V", "alpha", "T"} & set(spec_fields)


def test_solver_configs_hold_settings_only():
    # a config holds a solver's settings; the seed and the sample count are
    # arguments of the run
    # each config declares its settings and their defaults, once
    defaults = {
        config_type: [(field.name, field.default) for field in fields(config_type)]
        for config_type in (NashConfig, DppConfig, MdConfig)
    }
    assert defaults == {
        NashConfig: [("epsilon", 1e-3)],
        DppConfig: [("V", 200.0), ("alpha", 4.0e4), ("T", 100_000)],
        MdConfig: [("alpha", 50.0), ("T", 10_000)],
    }
    assert list(inspect.signature(run_dpp).parameters) == ["game", "config", "seed"]
    assert list(inspect.signature(run_md).parameters) == ["game", "config", "seed"]
    assert list(inspect.signature(solve_a1).parameters) == ["game", "config", "seed", "n_samples"]
    assert list(inspect.signature(md_error_bound).parameters) == ["game", "config"]
    for config in (NashConfig(), DppConfig(V=1.0, alpha=1.0, T=1), MdConfig(alpha=1.0, T=1)):
        assert not hasattr(config, "seed")
