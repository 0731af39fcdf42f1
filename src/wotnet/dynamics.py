"""Daily snapshot engine and the measures built on it: Gini-index series,
top-k ranking stability, and per-user reputation trajectories.

Snapshots are cumulative: each day's state folds in that day's events on top
of everything before, so the final snapshot agrees with the aggregate
per-user metrics of the whole log.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import date, timedelta
from enum import Enum
from typing import Iterable, Iterator, Mapping

import numpy as np

from .categories import CategoryLabel, CategoryThresholds, categorize
from .model import EventLog, NodeMetrics, node_metrics

_EPOCH = date(1970, 1, 1)
SECONDS_PER_DAY = 86_400
_FIELDS = tuple(f.name for f in fields(NodeMetrics))


class Snapshot:
    """Cumulative per-user state at the end of one day.

    Field arrays are aligned with `user_ids`; `seen` marks the users that
    have appeared (as rater or ratee) by this day.  `metrics` materializes
    the mapping lazily for the seen users.
    """

    __slots__ = ("day", "user_ids", "seen", *_FIELDS, "_metrics")

    def __init__(self, day: date, user_ids: np.ndarray, seen: np.ndarray, **cols):
        self.day = day
        self.user_ids = user_ids
        self.seen = seen
        for name in _FIELDS:
            setattr(self, name, cols[name])
        self._metrics: dict[int, NodeMetrics] | None = None

    @property
    def rho(self) -> np.ndarray:
        return self.rho_plus - self.rho_minus

    @property
    def metrics(self) -> dict[int, NodeMetrics]:
        if self._metrics is None:
            idx = np.flatnonzero(self.seen)
            columns = (getattr(self, name)[idx].tolist() for name in _FIELDS)
            self._metrics = dict(zip(self.user_ids[idx].tolist(), map(NodeMetrics, *columns)))
        return self._metrics


def snapshot_series(log: EventLog) -> Iterator[Snapshot]:
    """Yield one cumulative snapshot per day, first to last event day.

    Days without events repeat the previous state.  The engine folds events
    forward and never recomputes from scratch.
    """
    if len(log) == 0:
        raise ValueError("snapshot series of an empty log is undefined")
    user_ids, (rater_idx, ratee_idx) = log.user_codes()
    n = len(user_ids)
    cols = {name: np.zeros(n, dtype=np.int64) for name in _FIELDS}
    seen = np.zeros(n, dtype=bool)
    days = log.timestamps // SECONDS_PER_DAY
    first_day, last_day = int(days[0]), int(days[-1])
    pos = 0
    n_events = len(log)
    scores = log.scores
    for day_no in range(first_day, last_day + 1):
        while pos < n_events and days[pos] == day_no:
            r, e, s = rater_idx[pos], ratee_idx[pos], int(scores[pos])
            seen[r] = True
            seen[e] = True
            if s > 0:
                cols["k_in_plus"][e] += 1
                cols["k_out_plus"][r] += 1
                cols["rho_plus"][e] += s
            else:
                cols["k_in_minus"][e] += 1
                cols["k_out_minus"][r] += 1
                cols["rho_minus"][e] += -s
            pos += 1
        yield Snapshot(
            _EPOCH + timedelta(days=day_no),
            user_ids,
            seen.copy(),
            **{name: col.copy() for name, col in cols.items()},
        )


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


@dataclass(frozen=True)
class GiniPoint:
    day: date
    gini_plus: float | None
    gini_minus: float | None


def gini_point(snap: Snapshot, positive_only: bool = True) -> GiniPoint | None:
    """Gini of the day's positive and negative reputation, or None.

    By default each side is measured over the users with a strictly
    positive value there (a user never rated on a layer does not dilute
    it); `positive_only=False` measures over every user seen so far.  A
    side with fewer than two qualifying users (or a zero total) is left
    empty; None when both sides are.
    """
    g_plus = g_minus = None
    for side in ("plus", "minus"):
        values = getattr(snap, f"rho_{side}")
        values = values[values > 0] if positive_only else values[snap.seen]
        if values.size >= 2 and values.sum() > 0:
            if side == "plus":
                g_plus = gini(values)
            else:
                g_minus = gini(values)
    if g_plus is None and g_minus is None:
        return None
    return GiniPoint(snap.day, g_plus, g_minus)


def gini_series(
    snapshots: Iterable[Snapshot], positive_only: bool = True
) -> list[GiniPoint]:
    """Daily Gini of positive and negative reputation; empty days omitted."""
    points = (gini_point(snap, positive_only) for snap in snapshots)
    return [p for p in points if p is not None]


def extended_jaccard(list_a, list_b, k: int | None = None) -> float:
    """Order-sensitive similarity of two ranked lists.

    Averages the Jaccard overlap of the depth-d prefixes for d = 1..k;
    1 exactly when the lists are identical in order and content, 0 when
    they share nothing.  Lists shorter than k are compared as-is at the
    missing depths.
    """
    a = list(list_a)
    b = list(list_b)
    if len(set(a)) != len(a) or len(set(b)) != len(b):
        raise ValueError("ranked lists must not contain duplicates")
    if k is None:
        k = max(len(a), len(b))
    if k <= 0:
        raise ValueError("k must be >= 1")
    if len(a) > k or len(b) > k:
        raise ValueError("lists longer than k")
    total = 0.0
    set_a: set = set()
    set_b: set = set()
    inter = 0
    for d in range(1, k + 1):
        if d <= len(a):
            x = a[d - 1]
            if x in set_b:
                inter += 1
            set_a.add(x)
        if d <= len(b):
            y = b[d - 1]
            if y in set_a:
                inter += 1
            set_b.add(y)
        union = len(set_a) + len(set_b) - inter
        total += inter / union if union else 1.0
    return total / k


def plain_jaccard(list_a, list_b) -> float:
    """Set overlap of two lists, ignoring order; 1 when both are empty."""
    sa, sb = set(list_a), set(list_b)
    union = sa | sb
    return len(sa & sb) / len(union) if union else 1.0


def _top_k(values: np.ndarray, ids: np.ndarray, k: int) -> list[int]:
    order = np.lexsort((ids, -values))
    return ids[order[:k]].tolist()


def top_k_lists(snap: Snapshot, k: int) -> dict[str, list[int]]:
    """Top-k user lists for positive, negative and global reputation.

    The positive (negative) list ranks the users with a strictly positive
    value on that side; the global list ranks every user seen so far.
    Ties break by ascending user id.
    """
    out: dict[str, list[int]] = {}
    mask_p = snap.rho_plus > 0
    out["rho_plus"] = _top_k(snap.rho_plus[mask_p], snap.user_ids[mask_p], k)
    mask_m = snap.rho_minus > 0
    out["rho_minus"] = _top_k(snap.rho_minus[mask_m], snap.user_ids[mask_m], k)
    out["rho"] = _top_k(snap.rho[snap.seen], snap.user_ids[snap.seen], k)
    return out


@dataclass(frozen=True)
class StabilityPoint:
    """Similarity of the top-k lists between one day and the next.

    `day` is the earlier day of the pair; a side is None when both days
    had empty lists.  `truncated` marks pairs where some list was shorter
    than k.
    """

    day: date
    j_plus: float | None
    j_minus: float | None
    j_global: float | None
    truncated: bool


def stability_step(
    day: date, prev: Mapping[str, list[int]], current: Mapping[str, list[int]], k: int
) -> StabilityPoint:
    """Stability point comparing one day's top-k lists to the next day's."""
    values: dict[str, float | None] = {}
    truncated = False
    for key in ("rho_plus", "rho_minus", "rho"):
        a, b = prev[key], current[key]
        if len(a) < k or len(b) < k:
            truncated = True
        values[key] = None if not a and not b else extended_jaccard(a, b, k)
    return StabilityPoint(
        day, values["rho_plus"], values["rho_minus"], values["rho"], truncated
    )


def topk_stability_series(
    snapshots: Iterable[Snapshot], k: int = 10
) -> list[StabilityPoint]:
    """Day-over-day extended-Jaccard similarity of the three top-k lists."""
    if k < 1:
        raise ValueError("k must be >= 1")
    points: list[StabilityPoint] = []
    prev_day: date | None = None
    prev: dict[str, list[int]] | None = None
    for snap in snapshots:
        current = top_k_lists(snap, k)
        if prev is not None:
            points.append(stability_step(prev_day, prev, current, k))
        prev = current
        prev_day = snap.day
    return points


class TrajectorySelection(Enum):
    TOP_ENTRANTS_POSITIVE = "top-positive"
    TOP_ENTRANTS_NEGATIVE = "top-negative"
    BY_CATEGORY = "by-category"


@dataclass(frozen=True)
class Trajectory:
    """Reputation of one user after each incoming rating, in event order."""

    user: int
    values: tuple[int, ...]
    category: CategoryLabel


def _flattened_values(log: EventLog) -> dict[int, list[int]]:
    values: dict[int, list[int]] = {}
    running: dict[int, int] = {}
    for ratee, score in zip(log.ratees.tolist(), log.scores.tolist()):
        new = running.get(ratee, 0) + score
        running[ratee] = new
        values.setdefault(ratee, []).append(new)
    return values


def top_entrants(log: EventLog, key: str, k: int = 10) -> set[int]:
    """Users that appear in the day-level top-k of `key` on at least one day."""
    if key not in ("rho_plus", "rho_minus"):
        raise ValueError("key must be 'rho_plus' or 'rho_minus'")
    entrants: set[int] = set()
    for snap in snapshot_series(log):
        entrants.update(top_k_lists(snap, k)[key])
    return entrants


def trajectories(
    log: EventLog,
    selection: TrajectorySelection,
    k: int = 10,
    thresholds: CategoryThresholds = CategoryThresholds(),
) -> list[Trajectory]:
    """Flattened reputation trajectories for a selection of users.

    Selections: users that ever entered the day-level top-k by positive
    (negative) reputation, or all users with at least one incoming rating.
    The category label is taken at the end of the log.
    """
    if len(log) == 0:
        return []
    flattened = _flattened_values(log)
    labels = categorize(node_metrics(log), thresholds)
    if selection is TrajectorySelection.TOP_ENTRANTS_POSITIVE:
        chosen = top_entrants(log, "rho_plus", k)
    elif selection is TrajectorySelection.TOP_ENTRANTS_NEGATIVE:
        chosen = top_entrants(log, "rho_minus", k)
    else:
        chosen = set(flattened)
    return [
        Trajectory(user, tuple(flattened[user]), labels[user])
        for user in sorted(chosen)
        if user in flattened
    ]
