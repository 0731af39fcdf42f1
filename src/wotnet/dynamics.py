"""Daily measures of a rating log: the Gini-index series, top-k ranking
stability, and per-user reputation trajectories.

Each day's state is cumulative: it folds in that day's events on top of
everything before, so the last day's state agrees with the aggregate
per-user metrics of the whole log.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .categories import CategoryLabel, CategoryThresholds, categorize
from .model import EventLog, MetricColumns, NodeMetrics, _fold, node_metrics
from .static import _distinct, _run_starts
from .temporal import SECONDS_PER_DAY, _days


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
    missing depths.
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


class GiniSeries(NamedTuple):
    """The Gini index of each side's positive values (0: plus, 1: minus) on the
    days where a side has two holders (datetime64[D]), as columns; `measured[s]`
    is false, and side s reads 0, where it has fewer."""

    day: np.ndarray
    gini_plus: np.ndarray
    gini_minus: np.ndarray
    measured: np.ndarray


class StabilitySeries(NamedTuple):
    """The extended and plain Jaccard indices of the top-k lists of each pair of
    consecutive days (`day` is the earlier), as columns; `measured[s]` is false,
    and side s (0: plus, 1: minus, 2: global) reads 0, where both days' lists are
    empty; `truncated` marks the pairs where some list is shorter than k."""

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
    """The daily measures of one pass over the days of a log: `entrants` maps
    each top-entrant selection to the users in its day-level top-k on some
    day, `metrics` are the last day's counters.  All are empty for an empty log."""

    gini: GiniSeries
    stability: StabilitySeries
    entrants: dict[TrajectorySelection, set[int]]
    metrics: MetricColumns


# the cells of one block of `daily_fold`: bound its working memory on any log
_BLOCK_CELLS = 1 << 14
_ABSENT = np.iinfo(np.int64).min  # the least top-k key: see `_top_k_blocks`


def daily_fold(log: EventLog, k: int = 10) -> DailyFold:
    """Gini series, top-k stability and top-k entrants of every day from the
    first event day to the last.

    A side's Gini is taken over the users with a positive value there, on
    the days where it has two.  The positive (negative) top-k list ranks
    those users, the global list every user seen so far, ties by ascending
    id; a day pair's stability compares its two days' lists.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    user_ids, codes = log.user_codes()
    n = len(user_ids)
    days = log.timestamps // SECONDS_PER_DAY
    first_day = int(days[0]) if len(days) else 0
    days -= first_day
    n_days = int(days[-1]) + 1 if len(days) else 0
    layer = log.scores < 0  # each event's side: 0 plus, 1 minus
    gained = np.abs(log.scores)
    gini, gini_measured = np.zeros((2, n_days)), np.zeros((2, n_days), dtype=bool)
    for side in range(2):
        on = layer == side
        _gini_side(days[on], codes[1][on], gained[on], gini[side], gini_measured[side])

    entrant = np.zeros((2, n), dtype=bool)
    # the stability rows of the day pairs, in order, from an empty start
    measures = [(np.zeros((6, 0)), np.zeros((3, 0), dtype=bool), np.zeros(0, dtype=bool))]
    chunk = max(1, _BLOCK_CELLS // (16 * k))  # day pairs per `_stability_rows` call: ~12 arrays of 3k each
    pending = []  # the lists of the days whose pairs are still to measure
    for hi, lists in _top_k_blocks(days, n_days, n, codes, layer, gained, min(k, n)):
        for s in range(2):
            entrant[s, lists[s][lists[s] >= 0]] = True
        pending.append(lists)
        pairs = sum(part.shape[1] for part in pending) - 1
        if pairs < chunk and hi < n_days:
            continue
        lists = np.concatenate(pending, axis=1)
        for p in range(0, pairs, chunk):
            q = min(p + chunk, pairs)
            measures.append(_stability_rows(lists[:, p:q], lists[:, p + 1 : q + 1], n, k))
        pending = [lists[:, -1:]]

    state = np.zeros((len(NodeMetrics._fields), n), dtype=np.int64)
    _fold(state, *codes, log.scores)
    entrants = (TrajectorySelection.TOP_ENTRANTS_POSITIVE, TrajectorySelection.TOP_ENTRANTS_NEGATIVE)
    calendar = _days(first_day, n_days)
    stability, stability_measured, truncated = (np.concatenate(m, axis=-1) for m in zip(*measures))
    on = gini_measured.any(axis=0)
    return DailyFold(
        GiniSeries(calendar[on], *gini[:, on], gini_measured[:, on]),
        StabilitySeries(calendar[:-1], *stability, stability_measured, truncated),
        {s: set(user_ids[mask].tolist()) for s, mask in zip(entrants, entrant)},
        MetricColumns(user_ids, state),
    )


def _running_sums(groups: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """The stable order that sorts `groups`, the start and the length of each
    group's run in that order, and the running sums of `values` in that
    order, each run summed from its start."""
    order = np.argsort(groups, kind="stable")
    starts = np.flatnonzero(_run_starts(groups[order]))
    counts = np.diff(starts, append=len(order))
    values = values[order]
    running = np.cumsum(values)
    running -= np.repeat(running[starts] - values[starts], counts)
    return order, starts, counts, running


def _gini_side(
    days: np.ndarray, ratees: np.ndarray, gained: np.ndarray, gini: np.ndarray, measured: np.ndarray
) -> None:
    """Fill `gini` with the Gini index of one side's positive values on each
    day (0 with fewer than two holders) and `measured` with whether the day
    has two, from the side's events in time order.

    `held[d, v]` counts the holders of the v-th distinct value on day d: an
    event moves its ratee from its value before to its value after.  With
    `ranks` a row's running sum, the holders of value v take ranks
    ranks - held + 1 .. ranks, so the numerator sum((2i - holders - 1) x_i)
    is the exact integer ((2 ranks - held - holders) held) @ values, summed
    here term by term to spare the day x value temporaries."""
    order, _, _, running = _running_sums(ratees, gained)
    after = np.empty_like(running)
    after[order] = running  # each ratee's value after each event, in time order
    values = _distinct(after)
    width = len(values)
    to, since = np.searchsorted(values, after), np.searchsorted(values, after - gained)
    was_held = after > gained
    row = np.zeros(width, dtype=np.int64)  # holders per value at the last block's end
    step = max(1, _BLOCK_CELLS // max(width, 1))
    for lo in range(0, len(gini) if width else 0, step):
        hi = min(lo + step, len(gini))
        start, end = np.searchsorted(days, (lo, hi))
        cells, size = (days[start:end] - lo) * width, (hi - lo) * width
        held = np.bincount(cells + to[start:end], minlength=size)
        held -= np.bincount((cells + since[start:end])[was_held[start:end]], minlength=size)
        held = held.reshape(hi - lo, width)
        held[0] += row
        row = np.cumsum(held, axis=0, out=held)[-1]
        ranks = np.cumsum(held, axis=1)
        holders, total = ranks[:, -1], held @ values
        numerator = 2 * ((held * ranks) @ values) - (held * held) @ values - holders * total
        on = measured[lo:hi] = holders >= 2
        np.divide(numerator, holders * total, out=gini[lo:hi], where=on)


def _top_k_blocks(
    days: np.ndarray, n_days: int, n: int, codes: np.ndarray, layer: np.ndarray, gained: np.ndarray, width: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield the end `hi` of each block of days and its lists: `lists[s, d]`
    holds the codes of the `width` first users of list s (0: plus, 1: minus,
    2: global) on the block's day d, -1 past the list's end.

    A user not rated in a block and not first seen in it keeps its key, so
    each list's top on any day of the block lies among the changed users
    and the top `width` of the others at its start: the days are ranked over
    those columns only, as many days as keep days x (events + first
    appearances + 3 x width) within `_BLOCK_CELLS`, and at least one.

    The key of code c among n is value * n + n - 1 - c (`tie[c]`): codes
    follow id order, so the larger key holds the larger value or, on a tie,
    the lower id.  A user a list does not hold gets `_ABSENT` + n - 1 - c,
    below every held key and still distinct, as `np.partition` slows down
    many times over runs of equal keys.  The keys fit in int64 while
    10 x events x users < 2**63: a reputation gains at most 10 per event."""
    tie = np.arange(n - 1, -1, -1)
    appears = np.full(n, n_days)  # the first day of each user's first event
    for users in codes:  # raters, then ratees
        np.minimum.at(appears, users, days)
    starts = np.searchsorted(days, np.arange(n_days + 1))  # each day's first event
    changes = starts + np.searchsorted(np.sort(appears), np.arange(n_days + 1))
    values = np.zeros((2, n), dtype=np.int64)  # rho+ and rho- at the block's start
    keys = np.tile(_ABSENT + tie, (3, 1))  # every list's keys at the block's start
    lo = 0
    while lo < n_days:
        sizes = np.arange(1, n_days - lo + 1) * np.minimum(n, changes[lo + 1 :] - changes[lo] + 3 * width)
        hi = lo + max(1, int(np.searchsorted(sizes, _BLOCK_CELLS, side="right")))
        block = slice(starts[lo], starts[hi])
        by, rated = codes[:, block]
        changed = np.concatenate((rated, by[appears[by] >= lo]))
        keys[:, changed] = _ABSENT + tie[changed]  # until the block's end, below
        held = np.argpartition(keys, n - width, axis=1)[:, n - width :]
        columns = _distinct(np.concatenate((changed, held.ravel())))
        # the candidates' rho+, rho- and rho on each day of the block, as keys
        span, count = hi - lo, len(columns)
        cube = np.zeros((3, span, count), dtype=np.int64)
        cells = (layer[block] * span + days[block] - lo) * count + np.searchsorted(columns, rated)
        np.add.at(cube.reshape(-1), cells, gained[block])
        cube[:2, 0] += values[:, columns]
        np.cumsum(cube[:2], axis=1, out=cube[:2])
        values[:, columns] = cube[:2, -1]
        np.subtract(cube[0], cube[1], out=cube[2])
        cube *= n
        cube += tie[columns]
        np.copyto(cube[:2], _ABSENT + tie[columns], where=cube[:2] < n)  # a side value of 0
        np.copyto(cube[2], _ABSENT + tie[columns], where=appears[columns] > np.arange(lo, hi)[:, None])
        keys[:, columns] = cube[:, -1]
        cube.partition(count - width, axis=-1)
        top = np.sort(cube[..., count - width :], axis=-1)[..., ::-1]
        del cube  # not held over the yield
        yield hi, np.where(top < _ABSENT + n, -1, n - 1 - top % n)
        lo = hi


def _stability_rows(before: np.ndarray, after: np.ndarray, n: int, k: int) -> tuple[np.ndarray, ...]:
    """The stability of every day pair, as the rows of `StabilitySeries`: its
    six similarities, `measured` and `truncated`.  `before[s, p]` and
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
    cells = (rows * (k + 1)).repeat(width) + since
    inter = np.bincount(cells, minlength=len(a) * (k + 1)).reshape(-1, k + 1)[:, :k]
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
    order, starts, counts, running = _running_sums(log.ratees, log.scores)
    ids = log.ratees[order[starts]]
    if users is not None:
        chosen = _distinct(np.fromiter(users, dtype=np.int64))
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
