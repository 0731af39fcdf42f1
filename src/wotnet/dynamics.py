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
from .model import EventLog, NodeMetrics, _by_user, _fold, node_metrics
from .temporal import _EPOCH, SECONDS_PER_DAY


class Snapshot:
    """Cumulative per-user state at the end of one day.

    `state` is a 6 x n int64 array with one row per `NodeMetrics` field, in
    field order, and one column per entry of `user_ids`.  `seen` marks the
    users that have appeared (as rater or ratee) by this day.  `metrics`
    materializes the mapping lazily for the seen users.
    """

    __slots__ = ("day", "user_ids", "state", "_metrics")

    def __init__(self, day: date, user_ids: np.ndarray, state: np.ndarray):
        self.day = day
        self.user_ids = user_ids
        self.state = state
        self._metrics: dict[int, NodeMetrics] | None = None

    @property
    def seen(self) -> np.ndarray:
        return self.state[:4].any(axis=0)

    @property
    def rho_plus(self) -> np.ndarray:
        return self.state[4]

    @property
    def rho_minus(self) -> np.ndarray:
        return self.state[5]

    @property
    def rho(self) -> np.ndarray:
        return self.rho_plus - self.rho_minus

    @property
    def metrics(self) -> dict[int, NodeMetrics]:
        if self._metrics is None:
            self._metrics = _by_user(self.state, self.user_ids)
        return self._metrics


def snapshot_series(log: EventLog) -> Iterator[Snapshot]:
    """Yield one cumulative snapshot per day, first to last event day, and
    none for an empty log.

    Days without events repeat the previous state.  Each day's events are
    folded onto the day before; one `searchsorted` finds where every day
    ends.
    """
    if len(log) == 0:
        return
    user_ids, (raters, ratees) = log.user_codes()
    state = np.zeros((len(fields(NodeMetrics)), len(user_ids)), dtype=np.int64)
    days = log.timestamps // SECONDS_PER_DAY
    day_numbers = np.arange(days[0], days[-1] + 1)
    ends = np.searchsorted(days, day_numbers, side="right")
    start = 0
    for day_no, end in zip(day_numbers.tolist(), ends.tolist()):
        _fold(state, raters[start:end], ratees[start:end], log.scores[start:end])
        start = end
        yield Snapshot(_EPOCH + timedelta(days=day_no), user_ids, state.copy())


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


def gini_point(snap: Snapshot) -> GiniPoint | None:
    """Gini of the day's positive and negative reputation, or None.

    Each side is measured over the users with a strictly positive value
    there, so a user never rated on a layer does not dilute it.  A side
    with fewer than two such users is left empty; None when both sides are.
    """
    sides = [values[values > 0] for values in (snap.rho_plus, snap.rho_minus)]
    g_plus, g_minus = (gini(v) if v.size >= 2 else None for v in sides)
    if g_plus is None and g_minus is None:
        return None
    return GiniPoint(snap.day, g_plus, g_minus)


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

    `day` is the earlier day of the pair.  `j_*` are the extended Jaccard
    indices of the positive, negative and global lists, `sj_*` their plain
    set overlaps; a side is None when both days had empty lists.
    `truncated` marks pairs where some list was shorter than k.
    """

    day: date
    j_plus: float | None
    j_minus: float | None
    j_global: float | None
    sj_plus: float | None
    sj_minus: float | None
    sj_global: float | None
    truncated: bool


def stability_step(
    day: date, prev: Mapping[str, list[int]], current: Mapping[str, list[int]], k: int
) -> StabilityPoint:
    """Stability point comparing one day's top-k lists to the next day's."""
    pairs = [(prev[key], current[key]) for key in ("rho_plus", "rho_minus", "rho")]
    values: list[float | None] = []
    for similarity in (lambda a, b: extended_jaccard(a, b, k), plain_jaccard):
        values.extend(None if not a and not b else similarity(a, b) for a, b in pairs)
    truncated = any(len(a) < k or len(b) < k for a, b in pairs)
    return StabilityPoint(day, *values, truncated)


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


_ENTRANT_KEYS = {
    TrajectorySelection.TOP_ENTRANTS_POSITIVE: "rho_plus",
    TrajectorySelection.TOP_ENTRANTS_NEGATIVE: "rho_minus",
}


@dataclass(frozen=True)
class DailyFold:
    """The daily measures of one pass over the snapshot series.

    `entrants` maps each top-entrant selection to the users that were in
    its day-level top-k on at least one day; `metrics` are the per-user
    metrics of the final snapshot.  Everything is empty for an empty log.
    """

    gini: list[GiniPoint]
    stability: list[StabilityPoint]
    entrants: dict[TrajectorySelection, set[int]]
    metrics: dict[int, NodeMetrics]


def daily_fold(log: EventLog, k: int = 10) -> DailyFold:
    """Gini series, top-k stability and top-k entrants from one pass over
    `snapshot_series`; only the previous day's lists are kept."""
    if k < 1:
        raise ValueError("k must be >= 1")
    gini_points, stability = [], []
    entrants: dict[TrajectorySelection, set[int]] = {s: set() for s in _ENTRANT_KEYS}
    prev = prev_lists = None
    for snap in snapshot_series(log):
        point = gini_point(snap)
        if point is not None:
            gini_points.append(point)
        lists = top_k_lists(snap, k)
        if prev is not None:
            stability.append(stability_step(prev.day, prev_lists, lists, k))
        for selection, key in _ENTRANT_KEYS.items():
            entrants[selection].update(lists[key])
        prev, prev_lists = snap, lists
    return DailyFold(gini_points, stability, entrants, prev.metrics if prev else {})


def follow(
    log: EventLog, users: Iterable[int] | None, labels: Mapping[int, CategoryLabel]
) -> list[Trajectory]:
    """Trajectories of `users` (every rated user when None) that received
    at least one rating, in ascending id order, labelled from `labels`."""
    order = np.argsort(log.ratees, kind="stable")  # time order within a ratee
    ids, starts, counts = np.unique(log.ratees[order], return_index=True, return_counts=True)
    scores = log.scores[order]
    running = np.cumsum(scores)
    running -= np.repeat(running[starts] - scores[starts], counts)  # rebase per ratee
    if users is not None:
        chosen = np.sort(np.fromiter(users, dtype=np.int64))
        pick = np.searchsorted(ids, chosen[np.isin(chosen, ids)])
        ids, starts, counts = ids[pick], starts[pick], counts[pick]
    values = running.tolist()
    return [
        Trajectory(u, tuple(values[s : s + c]), labels[u])
        for u, s, c in zip(ids.tolist(), starts.tolist(), counts.tolist())
    ]


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
    labels = categorize(node_metrics(log), thresholds)
    if selection is TrajectorySelection.BY_CATEGORY:
        return follow(log, None, labels)
    return follow(log, daily_fold(log, k).entrants[selection], labels)
