"""Temporal activity patterns: daily event series, active-day calendars,
interevent-time statistics, burstiness, and circadian/weekly profiles.

Timestamps stay in UTC seconds everywhere; calendar bucketing takes an
explicit timezone shift in whole hours.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Iterable

import numpy as np

from .distributions import Distribution, from_values
from .model import EventLog, Layer
from .static import _distinct

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


@dataclass(frozen=True)
class DailyCount:
    day: date
    count_plus: int
    count_minus: int


def daily_series(log: EventLog, tz_shift_hours: int = 0) -> list[DailyCount]:
    """Events per calendar day on each layer, zero-filled over the full range."""
    shift = _check_shift(tz_shift_hours)
    if len(log) == 0:
        return []
    days = (log.timestamps + shift) // SECONDS_PER_DAY
    first, last = int(days[0]), int(days[-1])
    n = last - first + 1
    plus = np.bincount(days[log.scores > 0] - first, minlength=n)
    minus = np.bincount(days[log.scores < 0] - first, minlength=n)
    return [
        DailyCount(_EPOCH + timedelta(days=first + i), int(plus[i]), int(minus[i]))
        for i in range(n)
    ]


def _user_gaps(log: EventLog, layer: Layer) -> tuple[np.ndarray, np.ndarray]:
    """Gaps between consecutive events received by the same user on a layer,
    and the timestamp of each gap's later event."""
    mask = log.scores > 0 if layer is Layer.REWARDING else log.scores < 0
    ratees = log.ratees[mask]
    ts = log.timestamps[mask]
    order = np.argsort(ratees, kind="stable")  # events already time-sorted
    ratees = ratees[order]
    ts = ts[order]
    same_user = ratees[1:] == ratees[:-1]
    return np.diff(ts)[same_user], ts[1:][same_user]


def interevent_times(log: EventLog, layer: Layer) -> np.ndarray:
    """Pooled gaps between consecutive events received by the same user.

    Each user's incoming events on the layer are taken in time order; users
    with fewer than two incoming events contribute nothing.
    """
    return _user_gaps(log, layer)[0]


def interevent_distribution(log: EventLog, layer: Layer) -> Distribution:
    """Distribution of the pooled per-user interevent times, in seconds."""
    deltas = interevent_times(log, layer)
    if deltas.size == 0:
        raise ValueError("no interevent samples on this layer")
    return from_values(deltas)


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


@dataclass(frozen=True)
class YearlyBurstiness:
    year: int
    layer: Layer
    value: float
    n_samples: int


def _utc_years(timestamps: np.ndarray) -> np.ndarray:
    return timestamps.astype("datetime64[s]").astype("datetime64[Y]").astype(int) + 1970


def yearly_burstiness(log: EventLog) -> list[YearlyBurstiness]:
    """Burstiness per calendar year and layer.

    Gaps are pooled within each year (per-user consecutive incoming events
    falling in the same year); year/layer slices with fewer than two gap
    samples are omitted.
    """
    rows: list[YearlyBurstiness] = []
    for layer in (Layer.REWARDING, Layer.PUNITIVE):
        gaps, later = _user_gaps(log, layer)
        years = _utc_years(later)
        same_year = years == _utc_years(later - gaps)
        deltas = gaps[same_year]
        delta_years = years[same_year]
        for year in _distinct(delta_years):
            sample = deltas[delta_years == year]
            if sample.size < 2:
                continue
            rows.append(
                YearlyBurstiness(int(year), layer, burstiness(sample), int(sample.size))
            )
    rows.sort(key=lambda r: (r.year, r.layer is Layer.PUNITIVE))
    return rows


def _profile(
    log: EventLog, n_bins: int, bin_of: np.ndarray
) -> dict[Layer, np.ndarray]:
    out: dict[Layer, np.ndarray] = {}
    for layer, mask in (
        (Layer.REWARDING, log.scores > 0),
        (Layer.PUNITIVE, log.scores < 0),
    ):
        counts = np.bincount(bin_of[mask], minlength=n_bins).astype(float)
        total = counts.sum()
        out[layer] = counts / total if total > 0 else counts
    return out


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


def load_annotations(path: str | Path) -> list[AnnotationWindow]:
    """Read a `label,start_date,end_date` CSV of ISO-8601 date windows."""
    windows: list[AnnotationWindow] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for i, row in enumerate(csv.reader(fh), start=1):
            if not row or not "".join(row).strip():
                continue
            if len(row) != 3:
                raise ValueError(f"{path}: line {i}: expected 3 fields")
            label, start_s, end_s = (f.strip() for f in row)
            try:
                start, end = date.fromisoformat(start_s), date.fromisoformat(end_s)
            except ValueError:
                if i == 1:
                    continue  # header line
                raise ValueError(f"{path}: line {i}: invalid ISO date") from None
            windows.append(AnnotationWindow(label, start, end))
    return windows


def annotations_for(
    day: date, windows: Iterable[AnnotationWindow]
) -> str:
    """Semicolon-joined labels of the windows containing a day."""
    return ";".join(w.label for w in windows if w.contains(day))
