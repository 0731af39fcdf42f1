"""Empirical discrete distributions (pmf + complementary cumulative)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Distribution:
    """pmf and inclusive CCDF over the sorted distinct observed values.

    ccdf[i] is P(X >= support[i]); the ccdf at the smallest support value
    is 1 and the sequence is non-increasing.
    """

    support: np.ndarray
    pmf: np.ndarray
    ccdf: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.support, self.pmf, self.ccdf):
            a.setflags(write=False)

    def mode(self) -> int | float:
        """Support value with the highest probability (smallest wins ties)."""
        return self.support[int(np.argmax(self.pmf))].item()

    def mass_where(self, mask: np.ndarray) -> float:
        """Total probability of the support values selected by `mask`."""
        return float(self.pmf[mask].sum())


def from_values(values) -> Distribution:
    """Empirical distribution of a sample; raises ValueError when empty."""
    arr = np.asarray(values)
    if arr.size == 0:
        raise ValueError("cannot build a distribution from an empty sample")
    support, counts = np.unique(arr, return_counts=True)
    pmf = counts / arr.size
    ccdf = np.cumsum(pmf[::-1])[::-1]
    return Distribution(support=support, pmf=pmf, ccdf=ccdf)


def log_binned_ccdf(dist: Distribution, n_points: int = 50) -> list[tuple[float, float]]:
    """CCDF sampled at log-spaced points over the positive support.

    Non-positive support values keep their probability mass (the ccdf is
    still inclusive) but cannot appear as sample points.  Returns
    (value, ccdf) pairs.
    """
    positive = dist.support[dist.support > 0]
    if positive.size == 0:
        return []
    lo, hi = float(positive[0]), float(positive[-1])
    if lo == hi:
        points = np.array([lo])
    else:
        points = np.geomspace(lo, hi, n_points)
    # P(X >= x) = ccdf at the first support value >= x
    idx = np.searchsorted(dist.support, points, side="left")
    out = []
    for x, i in zip(points, idx):
        value = float(dist.ccdf[i]) if i < len(dist.support) else 0.0
        out.append((float(x), value))
    return out
