"""Closed-form solution when nobody has private information.

With no privately observed resources the worst-case problem reduces to
maximizing, over the probability simplex,

    sum_k p_k E_k - 1/2 * max_k p_k E_k.

The optimum supports the ``r`` resources with the highest means, where ``r``
maximizes ``(k - 1/2) / sum_{j<=k} 1/E_(j)`` over prefixes of the means
sorted in descending order (lowest index on ties), and equalizes
``p_k E_k = 1 / S_r`` on the support -- so higher-mean resources are picked
with *lower* probability.  The same construction applies whenever both
players see the same information, using the conditional means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .strategies import _check_simplex

__all__ = ["ExplicitSolution", "explicit_solution", "no_info_objective"]


def no_info_objective(p, means) -> float:
    """Exact objective sum(p*E) - max(p*E)/2 for a simplex vector p."""
    p = np.asarray(p, dtype=float)
    means = np.asarray(means, dtype=float)
    if not np.all((means >= 0) & np.isfinite(means)):  # NaN fails both
        raise ValueError("means must be non-negative and finite")
    _check_simplex(p, "p", 1e-6, -1e-6)
    loads = p * means
    return float(loads.sum() - 0.5 * loads.max())


@dataclass(frozen=True)
class ExplicitSolution:
    """Optimal simplex vector plus the support data behind it.

    ``support_size`` is r; ``inv_mean_sum`` is S_r, the summed reciprocal
    means of the r best resources; ``order`` maps sorted positions back to
    the caller's indexing (p == sorted-p[order-inverse] already applied).
    """

    p: np.ndarray
    support_size: int
    inv_mean_sum: float
    value: float
    order: np.ndarray


def explicit_solution(means) -> ExplicitSolution:
    """Maximize the no-information objective over the simplex, exactly.

    Zero-mean resources are dropped (probability 0) before solving.  Ties in
    the sort keep the original index order; ties in the support-size rule
    take the smallest prefix.
    """
    means = np.asarray(means, dtype=float)
    if means.ndim != 1 or means.size == 0:
        raise ValueError("means must be a non-empty 1-D vector")
    if not np.all((means >= 0) & np.isfinite(means)):  # NaN fails both
        raise ValueError("means must be non-negative and finite")
    if not np.any(means > 0):
        raise ValueError("at least one mean must be positive")

    positive = np.flatnonzero(means > 0)
    # stable sort descending among positive-mean resources
    order = positive[np.argsort(-means[positive], kind="stable")]
    sorted_means = means[order]
    inv_sums = np.cumsum(1.0 / sorted_means)
    k = np.arange(1, order.size + 1)
    ratios = (k - 0.5) / inv_sums
    r = int(np.argmax(ratios)) + 1
    s_r = float(inv_sums[r - 1])

    p = np.zeros(means.size)
    p[order[:r]] = 1.0 / (sorted_means[:r] * s_r)
    return ExplicitSolution(
        p=p,
        support_size=r,
        inv_mean_sum=s_r,
        value=no_info_objective(p, means),
        order=order,
    )
