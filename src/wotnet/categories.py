"""Categorization of users by the sign mix of their received reputation.

Users are placed by the fraction of negative reputation in their total
reputation: mostly-positive users are trustworthy, mostly-negative ones
untrusted, and the middle band is controversial.  Users with no received
reputation at all stay uncategorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .model import MetricColumns


class CategoryLabel(Enum):
    TRUSTWORTHY = "trustworthy"
    UNTRUSTED = "untrusted"
    CONTROVERSIAL = "controversial"
    UNCATEGORIZED = "uncategorized"


# A label column holds each user's label as its int8 position in
# `CategoryLabel`; `LABEL_TEXTS[labels]` are the labels' texts.
LABEL_TEXTS = np.array([label._value_ for label in CategoryLabel])
LABEL_TEXTS.setflags(write=False)
LABELED_CATEGORIES = tuple(CategoryLabel)[:3]  # every label but the last, UNCATEGORIZED


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


def negative_fractions(rho_plus: np.ndarray, rho_minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The negative fraction r = rho- / (rho+ + rho-) of columns of received
    reputations, reading 0 where a user has none, and the mask of the users
    that have some."""
    total = rho_plus + rho_minus
    received = total > 0
    return np.divide(rho_minus, total, out=np.zeros(len(total)), where=received), received


def categorize(columns: MetricColumns, thresholds: CategoryThresholds = CategoryThresholds()) -> np.ndarray:
    """The label column of the users of `columns`, by their negative-reputation fraction r.

    r < low: trustworthy; low <= r <= high: controversial; r > high:
    untrusted; no received reputation: uncategorized.  Comparisons are done
    in exact rational arithmetic, so labels are invariant under scaling all
    reputations by a common positive factor.
    """
    trustworthy, untrusted, controversial, uncategorized = range(len(CategoryLabel))
    # r < p / q exactly when rho- * q < p * (rho+ + rho-), on Python ints: a
    # threshold's q can be near 2**54, and the products overflow int64
    low_p, low_q = thresholds.low.as_integer_ratio()
    high_p, high_q = thresholds.high.as_integer_ratio()
    rho_plus, rho_minus = columns.fields[4:].astype(object)
    total = rho_plus + rho_minus
    labels = np.full(len(total), controversial, dtype=np.int8)
    labels[rho_minus * high_q > high_p * total] = untrusted
    labels[rho_minus * low_q < low_p * total] = trustworthy
    labels[total == 0] = uncategorized
    return labels


def _aligned(columns: MetricColumns, labels: np.ndarray) -> MetricColumns:
    if len(labels) != len(columns.users):
        raise ValueError(f"labels must hold one label per user: {len(labels)} for {len(columns.users)} users")
    return columns


QUANTITIES = ("rho", "activity_plus", "activity_minus", "activity_total")


class CategorySummary(NamedTuple):
    """Reputation and activity summaries of the three labeled categories, as
    columns with a row per category and quantity (`QUANTITIES`; activity
    counts the ratings given on the rewarding layer, the punitive layer and
    both): the `count` of the category's users and, in a rows x 5 float
    array, the `quantiles` min, q1, median, q3 and max of their values."""

    category: list[CategoryLabel]
    quantity: list[str]
    count: np.ndarray
    quantiles: np.ndarray


_QUARTILES = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def _quartiles(values: np.ndarray) -> np.ndarray:
    """The min, q1, median, q3 and max of each row of `values` (no NaN, at
    least one column) as `np.percentile`'s default linear method gives
    them, from one sort and without the `numpy.ma` it loads."""
    ordered = np.sort(values, axis=-1)
    at = (ordered.shape[-1] - 1) * _QUARTILES
    low = np.floor(at).astype(np.intp)
    t = at - low
    a, b = ordered[..., low], ordered[..., np.minimum(low + 1, ordered.shape[-1] - 1)]
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def category_summary(columns: MetricColumns, labels: np.ndarray) -> CategorySummary:
    """Reputation and activity summaries for the three labeled categories of
    the label column `labels` of `columns`' users.

    Empty categories are emitted with zero counts and NaN quantiles.
    """
    _, (_, _, k_out_plus, k_out_minus, rho_plus, rho_minus) = _aligned(columns, labels)
    values = np.stack((rho_plus - rho_minus, k_out_plus, k_out_minus, k_out_plus + k_out_minus)).astype(float)
    counts = np.bincount(labels, minlength=len(CategoryLabel))[: len(LABELED_CATEGORIES)]
    quantiles = np.full((len(LABELED_CATEGORIES), len(QUANTITIES), 5), np.nan)
    for i in np.flatnonzero(counts):
        quantiles[i] = _quartiles(values[:, labels == i])
    return CategorySummary(
        [category for category in LABELED_CATEGORIES for _ in QUANTITIES],
        list(QUANTITIES) * len(LABELED_CATEGORIES),
        np.repeat(counts, len(QUANTITIES)),
        quantiles.reshape(-1, 5),
    )


# Limit growth scenarios for reputation vs. aggregate in-degree: every
# received rating contributes at most +10, at least -10, and the suggested
# first-meeting score is +1.
LIMIT_SLOPES = (10, 1, -10)


class ScatterResult(NamedTuple):
    """Per-user columns in ascending user order: aggregate in-degree, global
    reputation and the label column."""

    users: np.ndarray
    k_in_total: np.ndarray
    rho: np.ndarray
    labels: np.ndarray
    limit_slopes: tuple[int, ...] = LIMIT_SLOPES


def reputation_vs_indegree_scatter(columns: MetricColumns, labels: np.ndarray) -> ScatterResult:
    """Per-user (aggregate in-degree, global reputation) points with the label
    column `labels`; reference slopes mark the +10/+1/-10-per-rating growth limits."""
    users, (k_in_plus, k_in_minus, _, _, rho_plus, rho_minus) = _aligned(columns, labels)
    return ScatterResult(users=users, k_in_total=k_in_plus + k_in_minus, rho=rho_plus - rho_minus, labels=labels)
