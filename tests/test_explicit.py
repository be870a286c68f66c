import numpy as np
import pytest

from congames import explicit_solution, no_info_objective
from conftest import simplex_grid


def test_two_resource_point_check():
    sol = explicit_solution([2.0, 1.0])
    np.testing.assert_allclose(sol.p, [1.0, 0.0], atol=1e-12)
    assert sol.support_size == 1
    assert sol.value == pytest.approx(1.0, abs=1e-12)
    # a different optimum attains the same value
    assert no_info_objective([1 / 3, 2 / 3], [2.0, 1.0]) == pytest.approx(1.0, abs=1e-12)


def test_equal_means_uniform_solution():
    sol = explicit_solution([1.0, 1.0, 1.0])
    np.testing.assert_allclose(sol.p, np.full(3, 1 / 3), atol=1e-12)
    assert sol.support_size == 3
    assert sol.value == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_permutation_invariance():
    sol = explicit_solution([1.0, 2.0])
    np.testing.assert_allclose(sol.p, [0.0, 1.0], atol=1e-12)


def test_objective_examples():
    assert no_info_objective([1.0, 0.0], [2.0, 1.0]) == pytest.approx(1.0)
    assert no_info_objective(np.full(3, 1 / 3), np.ones(3)) == pytest.approx(5.0 / 6.0)


def test_objective_rejects_non_simplex():
    with pytest.raises(ValueError):
        no_info_objective([0.5, 0.6], [1.0, 1.0])
    with pytest.raises(ValueError):
        no_info_objective([0.5, 0.5], [-1.0, 1.0])


def test_non_finite_means_are_refused():
    # NaN compares false with 0, so a plain sign check would let it through
    for call in (
        lambda: explicit_solution([np.nan, 1.0]),
        lambda: explicit_solution([np.inf, 1.0]),
        lambda: no_info_objective([0.5, 0.5], [np.nan, 1.0]),
    ):
        with pytest.raises(ValueError, match="^means must be non-negative and finite$"):
            call()


def test_zero_mean_resources_dropped():
    sol = explicit_solution([0.0, 1.0, 1.0])
    assert sol.p[0] == 0.0
    np.testing.assert_allclose(sol.p[1:], [0.5, 0.5], atol=1e-12)
    with pytest.raises(ValueError):
        explicit_solution([0.0, 0.0])


def test_support_equalizes_weighted_probability():
    gen = np.random.default_rng(3)
    for _ in range(50):
        n = int(gen.integers(2, 6))
        means = gen.uniform(0.1, 5.0, n)
        sol = explicit_solution(means)
        loads = sol.p * means
        support = sol.p > 0
        assert np.count_nonzero(support) == sol.support_size
        np.testing.assert_allclose(
            loads[support], 1.0 / sol.inv_mean_sum, atol=1e-12, rtol=1e-12
        )
        # within the support, larger means get smaller probabilities
        sup_means = means[support]
        sup_p = sol.p[support]
        order = np.argsort(sup_means)
        assert np.all(np.diff(sup_p[order]) <= 1e-12)


def test_scale_covariance():
    gen = np.random.default_rng(4)
    for _ in range(20):
        means = gen.uniform(0.1, 5.0, 4)
        c = float(gen.uniform(0.2, 9.0))
        a = explicit_solution(means)
        b = explicit_solution(c * means)
        np.testing.assert_allclose(a.p, b.p, atol=1e-12)
        assert b.value == pytest.approx(c * a.value, rel=1e-12)


def test_grid_oracle_small():
    # module-level spot check; the full 200-instance oracle lives in acceptance
    gen = np.random.default_rng(11)
    for _ in range(40):
        n = int(gen.integers(2, 5))
        means = gen.uniform(0.1, 5.0, n)
        sol = explicit_solution(means)
        grid = simplex_grid(n, 100)
        loads = grid * means
        grid_best = float(np.max(loads.sum(axis=1) - 0.5 * loads.max(axis=1)))
        assert sol.value >= grid_best - 2e-2


@pytest.mark.parametrize("means", [[], [[1.0, 2.0]], 1.0])
def test_explicit_refusals(means):
    with pytest.raises(ValueError, match=r"^means must be a non-empty 1-D vector$"):
        explicit_solution(means)
