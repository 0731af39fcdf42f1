"""The per-day reference for `wotnet.dynamics.daily_fold`.

One cumulative snapshot per day, and the Gini point, the top-k lists and
the stability step of one snapshot or one pair of days, each measured on
its own.  The fold's tests compare it with these day by day.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from typing import Iterator, Mapping

import numpy as np

from wotnet import EventLog, NodeMetrics, extended_jaccard, gini
from wotnet.model import _by_user, _fold
from wotnet.temporal import _EPOCH, SECONDS_PER_DAY


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
