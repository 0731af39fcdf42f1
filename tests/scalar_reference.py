"""The scalar definitions of the paper's measures, one sample or one pair
of lists at a time: the Gini index, the extended Jaccard index of two
ranked lists, Kendall's tau-b of two attributes and the burstiness B of a
gap sample.

The kernels that write `gini_series.csv`, `topk_stability.csv`,
`tau_matrix.csv` and `burstiness.csv` compute these over whole columns;
the tests compare them with these definitions.  `kendall_tau` alone is not
independent of its kernel: it hands its two mappings to
`wotnet.static._tau_b_of_ranks`, and the tests compare both with their own
pair-counting tau and with scipy's.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

import numpy as np

from wotnet.static import _tau_b_of_ranks, _ties


def gini(values) -> float:
    """Gini inequality index of a non-negative sample.

    0 when all values are equal; approaches 1 as the total concentrates on
    a single holder.  Requires at least one value and a positive sum.
    """
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError("gini of an empty sample is undefined")
    if arr[0] < 0:
        raise ValueError("gini requires non-negative values")
    total = arr.sum()
    if total <= 0:
        raise ValueError("gini requires a positive sum")
    n = arr.size
    i = np.arange(1, n + 1)
    return float(((2 * i - n - 1) * arr).sum() / (n * total))


def extended_jaccard(list_a, list_b, k: int | None = None) -> float:
    """Order-sensitive similarity of two ranked lists.

    Averages the Jaccard overlap of the depth-d prefixes for d = 1..k;
    1 exactly when the lists are identical in order and content, 0 when
    they share nothing.  Lists shorter than k are compared as-is at the
    missing depths, so two empty lists give 1.
    """
    a, b = list(list_a), list(list_b)
    if len(set(a)) != len(a) or len(set(b)) != len(b):
        raise ValueError("ranked lists must not contain duplicates")
    if k is None:
        k = max(len(a), len(b))
    if k <= 0:
        raise ValueError("k must be >= 1")
    if len(a) > k or len(b) > k:
        raise ValueError("lists longer than k")
    # an entry at position i of a and j of b is in both prefixes from depth
    # max(i, j) + 1 on
    at_b = {x: j for j, x in enumerate(b)}
    joins = Counter(max(i, at_b[x]) for i, x in enumerate(a) if x in at_b)
    total, inter = 0.0, 0
    for d in range(k):
        inter += joins[d]
        union = min(d + 1, len(a)) + min(d + 1, len(b)) - inter
        total += inter / union if union else 1.0
    return total / k


def kendall_tau(values_a: Mapping[int, float], values_b: Mapping[int, float]) -> float:
    """Tie-aware rank correlation (tau-b) of two attributes over one user set.

    Works on the raw attribute values, so equal values count as ties; any
    strictly monotone transform of either side leaves the result unchanged.
    Fewer than two users give NaN, as `ranking_report` gives it.
    """
    if set(values_a) != set(values_b):
        raise ValueError("rankings must cover the same user set")
    x = np.array(list(values_a.values()), dtype=float)
    y = np.array([values_b[u] for u in values_a], dtype=float)
    return _tau_b(x, y)


def _tau_b(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall's tau-b of the pairs (x[i], y[i]); NaN if a side holds a NaN."""
    if np.isnan([x, y]).any():
        return float("nan")
    return _tau_b_of_ranks(_ties(x), _ties(y))


def burstiness(deltas) -> float:
    """Burstiness coefficient (sigma - mean) / (sigma + mean) of gap samples.

    Uses the population standard deviation so perfectly regular gaps give
    exactly -1; Poissonian gaps give ~0 and heavy-tailed ones approach 1.
    """
    arr = np.asarray(deltas, dtype=float)
    if arr.size < 2:
        raise ValueError("burstiness needs at least two interevent samples")
    m = arr.mean()
    s = arr.std()
    if m == 0.0 and s == 0.0:
        raise ValueError("degenerate interevent samples (all zero)")
    return float((s - m) / (s + m))
