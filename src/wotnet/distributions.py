"""Empirical discrete distributions (pmf + complementary cumulative)."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Distribution(NamedTuple):
    """pmf and inclusive CCDF over the sorted distinct observed values.

    ccdf[i] is P(X >= support[i]); the ccdf at the smallest support value
    is 1 and the sequence is non-increasing.
    """

    support: np.ndarray
    pmf: np.ndarray
    ccdf: np.ndarray


def from_values(values) -> Distribution:
    """Empirical distribution of a sample; empty columns for an empty sample."""
    arr = np.asarray(values)
    support, counts = np.unique(arr, return_counts=True)
    pmf = counts / arr.size
    ccdf = np.cumsum(pmf[::-1])[::-1]
    for a in (support, pmf, ccdf):
        a.setflags(write=False)
    return Distribution(support, pmf, ccdf)


def log_binned_ccdf(dist: Distribution, n_points: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """CCDF sampled at log-spaced points over the positive support.

    Non-positive support values keep their probability mass (the ccdf is
    still inclusive) but cannot appear as sample points.  Returns the
    points and the ccdf at each, empty when no support value is positive.
    """
    positive = dist.support[dist.support > 0]
    if positive.size == 0:
        return np.array([]), np.array([])
    lo, hi = float(positive[0]), float(positive[-1])
    points = np.array([lo]) if lo == hi else np.geomspace(lo, hi, n_points)
    # P(X >= x) = ccdf at the first support value >= x, 0 past the last
    return points, np.append(dist.ccdf, 0.0)[np.searchsorted(dist.support, points, side="left")]
