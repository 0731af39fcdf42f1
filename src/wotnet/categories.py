"""Categorization of users by the sign mix of their received reputation.

Users are placed by the fraction of negative reputation in their total
reputation: mostly-positive users are trustworthy, mostly-negative ones
untrusted, and the middle band is controversial.  Users with no received
reputation at all stay uncategorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .model import MetricColumns, NodeMetrics, metric_columns


class CategoryLabel(Enum):
    TRUSTWORTHY = "trustworthy"
    UNTRUSTED = "untrusted"
    CONTROVERSIAL = "controversial"
    UNCATEGORIZED = "uncategorized"


LABELED_CATEGORIES = (
    CategoryLabel.TRUSTWORTHY,
    CategoryLabel.UNTRUSTED,
    CategoryLabel.CONTROVERSIAL,
)


@dataclass(frozen=True)
class CategoryThresholds:
    """Cut points on the negative-reputation fraction r = rho- / (rho+ + rho-)."""

    low: float = 0.25
    high: float = 0.75

    def __post_init__(self) -> None:
        if not 0.0 < self.low < 0.5:
            raise ValueError(f"low must be in (0, 0.5), got {self.low}")
        if not 0.5 < self.high < 1.0:
            raise ValueError(f"high must be in (0.5, 1), got {self.high}")


def negative_fraction(m: NodeMetrics) -> float | None:
    """rho- / (rho+ + rho-); None when the user has no received reputation."""
    total = m.rho_plus + m.rho_minus
    if total == 0:
        return None
    return m.rho_minus / total


def negative_fractions(rho_plus: np.ndarray, rho_minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`negative_fraction` of columns of received reputations: r, reading 0
    where a user has none, and the mask of the users that have some."""
    total = rho_plus + rho_minus
    received = total > 0
    return np.divide(rho_minus, total, out=np.zeros(len(total)), where=received), received


def categorize(
    metrics: Mapping[int, NodeMetrics],
    thresholds: CategoryThresholds = CategoryThresholds(),
) -> dict[int, CategoryLabel]:
    """Label every user by their negative-reputation fraction r.

    r < low: trustworthy; low <= r <= high: controversial; r > high:
    untrusted; no received reputation: uncategorized.  Comparisons are done
    in exact rational arithmetic, so labels are invariant under scaling all
    reputations by a common positive factor.
    """
    # r < p / q exactly when rho- * q < p * (rho+ + rho-), on Python ints
    low_p, low_q = thresholds.low.as_integer_ratio()
    high_p, high_q = thresholds.high.as_integer_ratio()
    labels: dict[int, CategoryLabel] = {}
    for user, m in metrics.items():
        total = m.rho_plus + m.rho_minus
        if total == 0:
            labels[user] = CategoryLabel.UNCATEGORIZED
        elif m.rho_minus * low_q < low_p * total:
            labels[user] = CategoryLabel.TRUSTWORTHY
        elif m.rho_minus * high_q > high_p * total:
            labels[user] = CategoryLabel.UNTRUSTED
        else:
            labels[user] = CategoryLabel.CONTROVERSIAL
    return labels


@dataclass(frozen=True, eq=False)
class ValueSummary:
    """Quantile summary of one per-user quantity, with the raw values kept
    for violin-style plotting."""

    values: np.ndarray
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @classmethod
    def of(cls, values) -> "ValueSummary":
        arr = np.asarray(values, dtype=float)
        arr.setflags(write=False)
        if arr.size == 0:
            nan = math.nan
            return cls(arr, nan, nan, nan, nan, nan)
        q1, med, q3 = np.percentile(arr, [25, 50, 75])
        return cls(arr, float(arr.min()), float(q1), float(med), float(q3), float(arr.max()))

    @property
    def count(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class CategoryStats:
    label: CategoryLabel
    count: int
    rho: ValueSummary
    activity_plus: ValueSummary  # ratings given on the rewarding layer
    activity_minus: ValueSummary  # ratings given on the punitive layer
    activity_total: ValueSummary


def category_summary(
    metrics: Mapping[int, NodeMetrics], labels: Mapping[int, CategoryLabel]
) -> dict[CategoryLabel, CategoryStats]:
    """Reputation and activity summaries for the three labeled categories.

    Empty categories are emitted with zero counts and NaN quantiles.
    """
    stats: dict[CategoryLabel, CategoryStats] = {}
    for category in LABELED_CATEGORIES:
        users = sorted(u for u, lab in labels.items() if lab is category)
        ms = [metrics[u] for u in users]
        stats[category] = CategoryStats(
            label=category,
            count=len(users),
            rho=ValueSummary.of([m.rho for m in ms]),
            activity_plus=ValueSummary.of([m.k_out_plus for m in ms]),
            activity_minus=ValueSummary.of([m.k_out_minus for m in ms]),
            activity_total=ValueSummary.of(
                [m.k_out_plus + m.k_out_minus for m in ms]
            ),
        )
    return stats


# Limit growth scenarios for reputation vs. aggregate in-degree: every
# received rating contributes at most +10, at least -10, and the suggested
# first-meeting score is +1.
LIMIT_SLOPES = (10, 1, -10)


@dataclass(frozen=True, eq=False)
class ScatterResult:
    """Per-user columns in ascending user order: aggregate in-degree, global
    reputation and category label."""

    users: np.ndarray
    k_in_total: np.ndarray
    rho: np.ndarray
    labels: tuple[CategoryLabel, ...]
    limit_slopes: tuple[int, ...] = LIMIT_SLOPES


def reputation_vs_indegree_scatter(
    metrics: Mapping[int, NodeMetrics] | MetricColumns, labels: Mapping[int, CategoryLabel]
) -> ScatterResult:
    """Per-user (aggregate in-degree, global reputation) points with category
    labels; reference slopes mark the +10/+1/-10-per-rating growth limits."""
    users, (k_in_plus, k_in_minus, _, _, rho_plus, rho_minus) = metric_columns(metrics)
    return ScatterResult(
        users=users,
        k_in_total=k_in_plus + k_in_minus,
        rho=rho_plus - rho_minus,
        labels=tuple(labels.get(u, CategoryLabel.UNCATEGORIZED) for u in users.tolist()),
    )
