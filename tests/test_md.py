import math

import numpy as np
import pytest

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
from congames.md import md_step, omega_sup_sq_mean
from conftest import exp_game


def test_step_shift_invariance_and_hand_value():
    p = np.array([0.3, 0.7])
    np.testing.assert_allclose(md_step(p, [-5.0, -5.0], 2.0), p)
    out = md_step([0.5, 0.5], [0.0, math.log(2.0)], 1.0)
    np.testing.assert_allclose(out, [1 / 3, 2 / 3], atol=1e-12)
    # vanishing step size
    out = md_step([0.5, 0.5], [-0.3, 1.0], 1e12)
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-9)


def test_step_rejects_boundary():
    with pytest.raises(ValueError):
        md_step([1.0, 0.0], [0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        md_step([0.5, 0.5], [0.0, 0.0], 0.0)


def test_step_preserves_simplex(rng):
    p = np.full(4, 0.25)
    for _ in range(200):
        p = md_step(p, -rng.normal(size=4), 5.0)
        assert np.all(p > 0)
        assert abs(p.sum() - 1.0) <= 1e-12


def test_error_bound_example():
    g = exp_game([1.0, 1.0, 1.0], (0, 0, 3, 0))
    bound = md_error_bound(g, 50.0, 10_000)
    assert bound == pytest.approx(2.5 / 100.0 + 50.0 * math.log(3.0) / 10_000.0, rel=1e-12)
    # T -> infinity leaves only the step-size term
    assert md_error_bound(g, 50.0, 10**9) == pytest.approx(2.5 / 100.0, abs=1e-6)
    assert md_error_bound(g, 100.0, 10**9) == pytest.approx(2.5 / 200.0, abs=1e-6)


def test_omega_sup_sq_exact_b1_matches_samples():
    from congames.game import sample_omega

    g = exp_game([1.0, 1.5, 1.0], (0, 1, 2, 0))
    exact, err = omega_sup_sq_mean(g)
    assert err == 0.0
    om = sample_omega(g, 5, size=400_000)
    sq = np.max(om, axis=1) ** 2
    assert exact == pytest.approx(sq.mean(), abs=5 * sq.std() / math.sqrt(sq.size))


def test_omega_sup_sq_mc_b2():
    g = exp_game([1.0, 1.0, 1.0, 1.0], (0, 2, 2, 0))
    value, err = omega_sup_sq_mean(g, n_samples=200_000, rng=1)
    assert err > 0
    # crude sanity: between the b=0 floor and the sum of second moments
    assert 1.0 < value < 2.0 + 2.0 + 1.0 + 1.0


def test_run_single_resource():
    g = exp_game([1.0], (0, 0, 1, 0))
    np.testing.assert_allclose(run_md(g, MdConfig(alpha=10.0, T=50)), [1.0])


def test_run_requires_a_zero():
    g = exp_game([1.0, 1.0], (1, 0, 1, 0))
    with pytest.raises(ValueError):
        run_md(g, MdConfig(alpha=10.0, T=10))


def test_run_two_resources_near_optimum():
    g = exp_game([2.0, 1.0], (0, 0, 2, 0))
    p = run_md(g, MdConfig(alpha=50.0, T=10_000, seed=1))
    assert worst_case_objective(p, g) >= 1.0 - 0.05


def test_run_symmetric_meets_guarantee():
    g = exp_game([1.0, 1.0, 1.0], (0, 0, 3, 0))
    cfg = MdConfig(alpha=50.0, T=10_000, seed=0)
    p = run_md(g, cfg)
    assert abs(p.sum() - 1.0) <= 1e-9
    value = worst_case_objective(p, g)  # exact, b = 0
    assert value >= 5.0 / 6.0 - md_error_bound(g, cfg.alpha, cfg.T)


def test_run_with_random_omega_meets_guarantee():
    # b = 1: stochastic rounds; compare against a grid-search reference
    from congames.game import sample_omega
    from conftest import simplex_grid

    g = exp_game([1.2, 1.0, 0.8], (0, 1, 2, 0))
    cfg = MdConfig(alpha=40.0, T=20_000, seed=4)
    p = run_md(g, cfg)
    omegas = sample_omega(g, 777, size=50_000)

    def value(x):
        return float(np.dot(g.means, x) - 0.5 * np.max(omegas * x, axis=1).mean())

    grid = simplex_grid(3, 50)
    f_opt = max(value(x) for x in grid)
    stderr = 0.5 * np.max(omegas, axis=1).std(ddof=1) / math.sqrt(omegas.shape[0])
    assert value(p) >= f_opt - md_error_bound(g, cfg.alpha, cfg.T) - 3 * stderr


@pytest.mark.parametrize("scenario, solver", [(2, "worst-md"), (3, "worst-a1")])
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_tiny_alpha_fails_with_md_error(scenario, solver):
    # the step size underflows an iterate entry to zero within a few rounds
    # (numpy warns once the zeros turn into NaN); both loops share the update
    # and report it with the same error
    from congames import solve_a1
    from congames.experiments import preset_spec, scenario_game

    game = scenario_game(preset_spec(scenario, solver, [1.0]), 1.0)
    solve = run_md if solver == "worst-md" else solve_a1
    with pytest.raises(ValueError, match="iterates must be strictly positive"):
        solve(game, MdConfig(alpha=1e-3, T=2000))
