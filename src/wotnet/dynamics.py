"""Daily snapshot engine and the measures built on it: Gini-index series,
top-k ranking stability, and per-user reputation trajectories.

Snapshots are cumulative: each day's state folds in that day's events on top
of everything before, so the final snapshot agrees with the aggregate
per-user metrics of the whole log.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .categories import CategoryLabel, CategoryThresholds, categorize
from .model import EventLog, NodeMetrics, _by_user, _fold, node_metrics
from .temporal import _EPOCH, SECONDS_PER_DAY, _days


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
    state = np.zeros((len(NodeMetrics._fields), len(user_ids)), dtype=np.int64)
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


class Trajectories(NamedTuple):
    """Reputation trajectories as columns: the followed `users`, ascending,
    their `categories` and the `counts` of ratings each received; `rho` holds
    each user's reputation after each of them, in event order, run after run."""

    users: np.ndarray
    categories: tuple[CategoryLabel, ...]
    counts: np.ndarray
    rho: np.ndarray


_ENTRANT_KEYS = {
    TrajectorySelection.TOP_ENTRANTS_POSITIVE: "rho_plus",
    TrajectorySelection.TOP_ENTRANTS_NEGATIVE: "rho_minus",
}


class GiniSeries(NamedTuple):
    """The `gini_point`s of the days that have one (datetime64[D]), as columns;
    `measured[s]` is false, and side s (0: plus, 1: minus) reads 0, where it is None."""

    day: np.ndarray
    gini_plus: np.ndarray
    gini_minus: np.ndarray
    measured: np.ndarray


class StabilitySeries(NamedTuple):
    """The `stability_step`s of a series of day pairs, as columns; `measured[s]` is
    false, and side s (0: plus, 1: minus, 2: global) reads 0, where it is None."""

    day: np.ndarray
    j_plus: np.ndarray
    j_minus: np.ndarray
    j_global: np.ndarray
    sj_plus: np.ndarray
    sj_minus: np.ndarray
    sj_global: np.ndarray
    measured: np.ndarray
    truncated: np.ndarray


@dataclass(frozen=True, eq=False)
class DailyFold:
    """The daily measures of one pass over the snapshot series.

    `entrants` maps each top-entrant selection to the users that were in
    its day-level top-k on at least one day; `metrics` are the per-user
    metrics of the final snapshot.  Everything is empty for an empty log.
    """

    gini: GiniSeries
    stability: StabilitySeries
    entrants: dict[TrajectorySelection, set[int]]
    metrics: dict[int, NodeMetrics]


# days x users cells of one block of `daily_fold`: bounds the fold's working
# memory on any log
_BLOCK_CELLS = 1 << 14
_ABSENT = np.iinfo(np.int64).min  # the top-k key of a user no list may hold


def daily_fold(log: EventLog, k: int = 10) -> DailyFold:
    """Gini series, top-k stability and top-k entrants of every day, with
    the values `gini_point`, `top_k_lists` and `stability_step` give on
    each of `snapshot_series`.

    The days are folded in blocks of at most `_BLOCK_CELLS` days x users;
    only the state and the lists of a block's last day carry over.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    user_ids, (raters, ratees) = log.user_codes()
    n = len(user_ids)
    # every counter up to the last folded day; rows 4 and 5 are rho+ and rho-
    state = np.zeros((len(NodeMetrics._fields), n), dtype=np.int64)
    days = log.timestamps // SECONDS_PER_DAY
    first_day = int(days[0]) if len(days) else 0
    days -= first_day
    n_days = int(days[-1]) + 1 if len(days) else 0
    calendar = _days(first_day, n_days)
    gini = np.zeros((2, n_days))
    gini_measured = np.zeros((2, n_days), dtype=bool)
    # day pair p compares day p with day p + 1
    stability = np.zeros((6, max(n_days - 1, 0)))
    stability_measured = np.zeros((3, max(n_days - 1, 0)), dtype=bool)
    truncated = np.zeros(max(n_days - 1, 0), dtype=bool)
    appears = np.full(n, n_days)  # the first day of each user's first event
    np.minimum.at(appears, raters, days)
    np.minimum.at(appears, ratees, days)
    tie = np.arange(n - 1, -1, -1)
    entrant = np.zeros((2, n), dtype=bool)
    last_lists = None
    block = max(1, _BLOCK_CELLS // max(n, k))
    for lo in range(0, n_days, block):
        hi = min(lo + block, n_days)
        start, end = np.searchsorted(days, (lo, hi))
        scores = log.scores[start:end]
        rho = np.zeros((2, hi - lo, n), dtype=np.int64)
        layer = (scores < 0).astype(np.intp)
        np.add.at(rho, (layer, days[start:end] - lo, ratees[start:end]), np.abs(scores))
        rho[:, 0] += state[4:]
        for d in range(1, hi - lo):  # row by row: faster than cumsum over axis 1
            rho[:, d] += rho[:, d - 1]
        _fold(state, raters[start:end], ratees[start:end], scores)

        # a side at a time, so that one side's rows are sorted at once
        for side in range(2):
            gini[side, lo:hi], gini_measured[side, lo:hi] = _gini_rows(rho[side])

        # the global keys first: the side keys are packed into rho itself
        unseen = appears > np.arange(lo, hi)[:, None]
        global_keys = _packed(rho[0] - rho[1], unseen, tie)[None]
        side_keys = _packed(rho, rho == 0, tie)
        lists = np.concatenate((_top_k_rows(side_keys, k), _top_k_rows(global_keys, k)))
        del rho, side_keys, global_keys  # the stability below needs only the lists
        for s in range(2):
            entrant[s, lists[s][lists[s] >= 0]] = True

        if last_lists is not None:
            lists = np.concatenate((last_lists, lists), axis=1)
        last_lists = lists[:, -1:]
        pairs = slice(hi - lists.shape[1], hi - 1)
        stability[:, pairs], stability_measured[:, pairs], truncated[pairs] = _stability_rows(
            lists[:, :-1], lists[:, 1:], n, k
        )

    entrants = {s: set(user_ids[mask].tolist()) for s, mask in zip(_ENTRANT_KEYS, entrant)}
    on = gini_measured.any(axis=0)
    return DailyFold(
        GiniSeries(calendar[on], *gini[:, on], gini_measured[:, on]),
        StabilitySeries(calendar[:-1], *stability, stability_measured, truncated),
        entrants,
        _by_user(state, user_ids),
    )


def _gini_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`gini` of the positive entries of each row of a non-negative integer
    array, 0 for a row with fewer than two, and whether each row has two.

    The numerator sum((2i - n_s - 1) x_i) over the n_s holders is summed as
    an exact integer: zeros sort first, so holder rank i sits at position
    i - 1 + n - n_s of the sorted row of n.
    """
    n = rows.shape[-1]
    holders = np.count_nonzero(rows, axis=-1)
    total = rows.sum(axis=-1)
    numerator = np.sort(rows, axis=-1) @ np.arange(1, 2 * n, 2) - (2 * n - holders) * total
    measured = holders >= 2
    return np.divide(numerator, holders * total, out=np.zeros(len(rows)), where=measured), measured


def _packed(values: np.ndarray, absent: np.ndarray, tie: np.ndarray) -> np.ndarray:
    """`values` turned in place into top-k keys, `_ABSENT` where `absent`.

    The key of code c among n is value * n + n - 1 - c (`tie[c]`): user
    codes follow id order, so the larger key holds the larger value or, on
    a tie, the lower id.  The keys fit in int64 while 10 x events x users
    stays below 2**63, as a reputation gains at most 10 per event.
    """
    values *= len(tie)
    values += tie
    values[absent] = _ABSENT
    return values


def _top_k_rows(keys: np.ndarray, k: int) -> np.ndarray:
    """The codes of the (at most) k largest `_packed` keys of every row,
    largest first, with -1 past the end of a row's present keys; `keys` is
    partitioned in place."""
    n = keys.shape[-1]
    width = min(k, n)
    keys.partition(n - width, axis=-1)
    top = np.sort(keys[..., n - width :], axis=-1)[..., ::-1]
    return np.where(top == _ABSENT, -1, n - 1 - top % n)


def _stability_rows(
    before: np.ndarray, after: np.ndarray, n: int, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`stability_step` of every day pair, as the rows of `StabilitySeries`:
    its six similarities, `measured` and `truncated`.  `before[s, p]` and
    `after[s, p]` are the lists of side s on the two days of pair p, as codes
    below n in rank order with -1 past each list's end."""
    sides, pairs, width = before.shape
    a, b = before.reshape(-1, width), after.reshape(-1, width)
    rows = np.arange(len(a))[:, None]
    # where each entry of a stands in the same row of b: one sorted search
    # over all rows, each offset into a range of its own
    b_keys = rows * (n + 1) + np.where(b < 0, n, b)
    b_order = np.argsort(b_keys, axis=-1)
    b_sorted = np.take_along_axis(b_keys, b_order, axis=-1).ravel()
    a_keys = (rows * (n + 1) + a).ravel()
    at = np.minimum(np.searchsorted(b_sorted, a_keys), b_sorted.size - 1)
    shared = (b_sorted[at] == a_keys) & (a.ravel() >= 0)
    # an entry at position i of a and j of b is in both prefixes from depth
    # max(i, j) + 1 on; depth index k stands for never
    since = np.where(shared, np.maximum(np.arange(a.size) % width, b_order.ravel()[at]), k)
    inter = np.bincount(
        (rows * (k + 1)).repeat(width) + since, minlength=len(a) * (k + 1)
    ).reshape(-1, k + 1)[:, :k]
    np.cumsum(inter, axis=1, out=inter)
    len_a, len_b = (a >= 0).sum(axis=1), (b >= 0).sum(axis=1)
    depth = np.arange(1, k + 1)
    union = np.minimum(depth, len_a[:, None]) + np.minimum(depth, len_b[:, None]) - inter
    # a running sum adds the depths in order, as `extended_jaccard` does;
    # a union of 0 means two empty lists, which read None
    extended = np.cumsum(inter / np.maximum(union, 1), axis=1)[:, -1] / k
    overlap = inter[:, -1] / np.maximum(len_a + len_b - inter[:, -1], 1)
    measured = ((len_a > 0) | (len_b > 0)).reshape(sides, pairs)
    truncated = ((len_a < k) | (len_b < k)).reshape(sides, pairs).any(axis=0)
    return np.concatenate((extended, overlap)).reshape(2 * sides, pairs), measured, truncated


def follow(
    log: EventLog, users: Iterable[int] | None, labels: Mapping[int, CategoryLabel]
) -> Trajectories:
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
        # each chosen run, moved up behind the runs before it
        running = running[np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)]
    return Trajectories(ids, tuple(map(labels.__getitem__, ids.tolist())), counts, running)


def trajectories(
    log: EventLog,
    selection: TrajectorySelection,
    k: int = 10,
    thresholds: CategoryThresholds = CategoryThresholds(),
) -> Trajectories:
    """Reputation trajectories for a selection of users.

    Selections: users that ever entered the day-level top-k by positive
    (negative) reputation, or all users with at least one incoming rating.
    The category label is taken at the end of the log.
    """
    labels = categorize(node_metrics(log), thresholds)
    if selection is TrajectorySelection.BY_CATEGORY:
        return follow(log, None, labels)
    return follow(log, daily_fold(log, k).entrants[selection], labels)
