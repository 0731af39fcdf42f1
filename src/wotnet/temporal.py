"""Temporal activity patterns: daily event series, active-day calendars,
interevent-time statistics, burstiness, and circadian/weekly profiles.

Timestamps stay in UTC seconds everywhere; calendar bucketing takes an
explicit timezone shift in whole hours.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .model import EventLog, Layer
from .static import _bucket_spectrum

_EPOCH = date(1970, 1, 1)
SECONDS_PER_DAY = 86_400
MIN_TZ_SHIFT = -12
MAX_TZ_SHIFT = 14


def _check_shift(tz_shift_hours: int) -> int:
    if not MIN_TZ_SHIFT <= tz_shift_hours <= MAX_TZ_SHIFT:
        raise ValueError(
            f"tz_shift_hours must be in [{MIN_TZ_SHIFT}, {MAX_TZ_SHIFT}]"
        )
    return tz_shift_hours * 3600


# the epoch days of `datetime.date.min` and `datetime.date.max`
_FIRST_DAY, _LAST_DAY = date.min.toordinal() - _EPOCH.toordinal(), date.max.toordinal() - _EPOCH.toordinal()


def _calendar(days: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The offset of each of the sorted epoch `days` from the first, and the
    calendar from the first to the last, as datetime64[D]; an OverflowError
    past the range of `datetime.date`, as date arithmetic raises."""
    first, last = (int(days[0]), int(days[-1])) if len(days) else (0, -1)
    if first < _FIRST_DAY or last > _LAST_DAY:
        raise OverflowError("date value out of range")
    return days - first, np.arange(first, last + 1).astype("datetime64[D]")


def _layer_counts(log: EventLog, bins: np.ndarray, n_bins: int) -> np.ndarray:
    """Events per bin on each layer, 2 x `n_bins`, from one `bincount` keyed by layer row."""
    return np.bincount((log.scores < 0) * n_bins + bins, minlength=2 * n_bins).reshape(2, n_bins)


class DailySeries(NamedTuple):
    """Events per calendar day on each layer, a day per entry (datetime64[D])."""

    day: np.ndarray
    count_plus: np.ndarray
    count_minus: np.ndarray


def daily_series(log: EventLog, tz_shift_hours: int = 0) -> DailySeries:
    """Events per calendar day on each layer, zero-filled over the full range."""
    shift = _check_shift(tz_shift_hours)
    days, calendar = _calendar((log.timestamps + shift) // SECONDS_PER_DAY)
    return DailySeries(calendar, *_layer_counts(log, days, len(calendar)))


def _user_gaps(log: EventLog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaps between consecutive events received by the same user on the
    same layer, from one sort keyed by layer row and ratee: each gap's layer
    row (a bool, as `score < 0` is), its length and the timestamp of its
    later event, the rewarding gaps first."""
    users, codes = log.user_codes()
    keys = (log.scores < 0) * len(users) + codes[1]
    order = np.argsort(keys, kind="stable")  # events already time-sorted
    keys, ts = keys[order], log.timestamps[order]
    same_user = keys[1:] == keys[:-1]
    return keys[1:][same_user] >= len(users), np.diff(ts)[same_user], ts[1:][same_user]


def interevent_times(log: EventLog) -> dict[Layer, np.ndarray]:
    """Pooled gaps between consecutive events received by the same user, per layer.

    Each user's incoming events on a layer are taken in time order; users
    with fewer than two incoming events on it contribute nothing.
    """
    rows, gaps, _ = _user_gaps(log)
    return dict(zip(Layer, np.split(gaps, [np.searchsorted(rows, True)])))


class BurstinessTable(NamedTuple):
    """Burstiness per layer over the whole log (`year` None), then per calendar
    year and layer, as columns, by year and then layer (rewarding first): the
    `value` of B over the `n_samples` gaps."""

    year: list[int | None]
    layer: list[Layer]
    value: np.ndarray
    n_samples: np.ndarray


def _utc_years(timestamps: np.ndarray) -> np.ndarray:
    return timestamps.astype("datetime64[s]").astype("datetime64[Y]").astype(int) + 1970


def _slice_burstiness(keys: np.ndarray, deltas: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct keys, each one's burstiness B and its gap count; a key
    with fewer than two gaps, or with only zero gaps, is omitted."""
    # each slice's mean and std summed as `ndarray.mean` and `.std` sum them
    slices = _bucket_spectrum(keys, deltas)
    kept = (slices.n_nodes >= 2) & (slices.mean_value > 0)
    m, s = slices.mean_value[kept], slices.std_value[kept]
    return slices.degree[kept], (s - m) / (s + m), slices.n_nodes[kept]


# the key of each layer's whole-log slice, below the key `2 * year + row` of any year
_WHOLE_LOG = np.iinfo(np.int64).min


def burstiness_table(log: EventLog) -> BurstinessTable:
    """Burstiness of each layer's gaps over the whole log, then per calendar year.

    A year pools the gaps within it (per-user consecutive incoming events
    falling in the same year); slices with fewer than two gap samples, or
    with only zero gaps, are omitted.
    """
    rows, gaps, later = _user_gaps(log)
    years = _utc_years(later)
    same_year = years == _utc_years(later - gaps)
    # each layer's whole-log slice, then its slices by year
    keys = np.concatenate((rows + _WHOLE_LOG, (years * 2 + rows)[same_year]))
    key, value, n_samples = _slice_burstiness(keys, np.concatenate((gaps, gaps[same_year])))
    years, rows = np.divmod(key, 2)
    whole = int(np.searchsorted(key, _WHOLE_LOG + 2))  # the whole-log rows come first
    year = [None] * whole + years[whole:].tolist()
    return BurstinessTable(year, np.array(list(Layer))[rows].tolist(), value, n_samples)


def _profile(log: EventLog, n_bins: int, bin_of: np.ndarray) -> dict[Layer, np.ndarray]:
    counts = _layer_counts(log, bin_of, n_bins).astype(float)
    totals = counts.sum(axis=1, keepdims=True)
    return dict(zip(Layer, np.divide(counts, totals, out=counts, where=totals > 0)))


def circadian_profile(
    log: EventLog, tz_shift_hours: int = 0
) -> dict[Layer, np.ndarray]:
    """Fraction of each layer's events per hour of the (shifted) day.

    Each 24-vector sums to 1; an empty layer yields an all-zero vector.
    """
    shift = _check_shift(tz_shift_hours)
    hours = ((log.timestamps + shift) % SECONDS_PER_DAY) // 3600
    return _profile(log, 24, hours)


def weekly_profile(
    log: EventLog, tz_shift_hours: int = 0
) -> dict[Layer, np.ndarray]:
    """Fraction of each layer's events per weekday (0=Monday .. 6=Sunday)."""
    shift = _check_shift(tz_shift_hours)
    # epoch day 0 was a Thursday
    weekdays = ((log.timestamps + shift) // SECONDS_PER_DAY + 3) % 7
    return _profile(log, 7, weekdays)


@dataclass(frozen=True)
class AnnotationWindow:
    """A labeled date window joined onto daily exports (e.g. market bubbles)."""

    label: str
    start: date
    end: date

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"window {self.label!r}: start after end")

    def contains(self, day: date) -> bool:
        return self.start <= day <= self.end


def _iso_date(text: str) -> date | None:
    try:
        return date.fromisoformat(text)
    except ValueError:
        return None


def load_annotations(path: str | Path) -> list[AnnotationWindow]:
    """Read a `label,start_date,end_date` CSV of ISO-8601 date windows.

    The first non-blank line is a header when neither of its date fields
    is a date; a line with one valid date is a window.  A label may
    not hold a comma, a semicolon, a double quote or a line break: the daily
    output writes labels into unquoted cells, joined by semicolons.
    """
    windows: list[AnnotationWindow] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = ((i, row) for i, row in enumerate(csv.reader(fh), start=1) if "".join(row).strip())
        for n, (i, row) in enumerate(rows):
            if len(row) != 3:
                raise ValueError(f"{path}: line {i}: expected 3 fields")
            label, start, end = (f.strip() for f in row)
            start, end = _iso_date(start), _iso_date(end)
            if start is None or end is None:
                if n == 0 and start is None and end is None:
                    continue  # a header line: neither date field parses
                raise ValueError(f"{path}: line {i}: invalid ISO date")
            if set(label) & set(',;"\r\n'):
                raise ValueError(f"{path}: line {i}: label {label!r} holds a comma, semicolon, quote or line break")
            try:
                windows.append(AnnotationWindow(label, start, end))
            except ValueError as exc:  # a window whose start is after its end
                raise ValueError(f"{path}: line {i}: {exc}") from exc
    return windows


def annotations_for(
    day: date, windows: Iterable[AnnotationWindow]
) -> str:
    """Semicolon-joined labels of the windows containing a day."""
    return ";".join(w.label for w in windows if w.contains(day))
