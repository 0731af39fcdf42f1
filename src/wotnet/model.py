"""Event/network data model for signed peer-rating logs.

A rating log is a time-ordered sequence of directed integer scores between
users.  Positive and negative scores form two separate layers (rewarding /
punitive) of a weighted directed multigraph, each a log of its own; every
rating event is its own edge.
"""

from __future__ import annotations

import gzip
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

MIN_SCORE = -10
MAX_SCORE = 10


class IngestError(ValueError):
    """Raised on fatally malformed input (strict mode, or empty input)."""


class Layer(Enum):
    REWARDING = "rewarding"
    PUNITIVE = "punitive"

    @property
    def short(self) -> str:
        """Suffix used in file names and CSV columns: 'plus' or 'minus'."""
        return "plus" if self is Layer.REWARDING else "minus"


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _check_event(rater: int, ratee: int, score: int, timestamp: int) -> None:
    """Raise ValueError unless the fields make one legal rating event."""
    if score == 0 or not MIN_SCORE <= score <= MAX_SCORE:
        raise ValueError(f"score must be in [-10,-1] or [1,10], got {score}")
    if rater == ratee:
        raise ValueError(f"self-rating rejected (user {rater})")
    for name, value in (("rater", rater), ("ratee", ratee), ("timestamp", timestamp)):
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise ValueError(f"{name} {value} is outside the int64 range")


class EventLog:
    """Immutable, time-ordered rating log, stored as int64 columns.

    The log keeps four read-only columns (`raters`, `ratees`, `scores`,
    `timestamps`) sorted by timestamp, ties in input order, plus dense user
    codes: each rater and ratee as its position in the sorted user ids.
    `EventLog(rows)` checks each `(rater, ratee, score, timestamp)` row and
    raises ValueError on the first illegal one.  `truncated(cutoff)` is a
    prefix view sharing the columns and codes, so a query at a cutoff costs
    a scan of the prefix, not a copy of the log; `where(mask)` keeps the
    masked events, and `split_layers` builds the two layers with it.
    The log is the source of truth for every downstream measurement.
    """

    def __init__(self, rows: Iterable[tuple[int, int, int, int]]):
        rows = list(rows)
        for row in rows:
            _check_event(*row)
        self._build(np.array(rows, dtype=np.int64).reshape(-1, 4).T)

    @classmethod
    def _from_columns(cls, columns: np.ndarray) -> "EventLog":
        """Log from a 4 x n int64 array of legal (rater, ratee, score,
        timestamp) rows in input order."""
        log = cls.__new__(cls)
        log._build(columns)
        return log

    def _build(self, columns: np.ndarray) -> None:
        columns = columns.take(np.argsort(columns[3], kind="stable"), axis=1)
        ids, codes = np.unique(columns[:2].ravel(), return_inverse=True)
        self._init_view(columns, ids, codes.reshape(2, -1))
        self._own = (self._universe, self._codes)

    def _init_view(self, columns: np.ndarray, universe: np.ndarray, codes: np.ndarray) -> None:
        # `codes` index `universe`, the user ids of the log this one is a
        # prefix of; `_own` holds the ids and codes of this log's own users
        for a in (columns, universe, codes):
            a.setflags(write=False)
        self._columns, self._universe, self._codes = columns, universe, codes
        self._own: tuple[np.ndarray, np.ndarray] | None = None
        self._users: frozenset[int] | None = None

    def user_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted ids of the users in the log, and a 2 x n array of each
        event's rater and ratee as positions in those ids."""
        if self._own is None:
            seen = np.zeros(len(self._universe), dtype=bool)
            seen[self._codes] = True
            ids, codes = self._universe[seen], (np.cumsum(seen) - 1)[self._codes]
            for a in (ids, codes):
                a.setflags(write=False)
            self._own = (ids, codes)
        return self._own

    @property
    def users(self) -> frozenset[int]:
        if self._users is None:
            self._users = frozenset(self.user_codes()[0].tolist())
        return self._users

    def __len__(self) -> int:
        return self._columns.shape[1]

    @property
    def raters(self) -> np.ndarray:
        return self._columns[0]

    @property
    def ratees(self) -> np.ndarray:
        return self._columns[1]

    @property
    def scores(self) -> np.ndarray:
        return self._columns[2]

    @property
    def timestamps(self) -> np.ndarray:
        return self._columns[3]

    def truncated(self, cutoff: int | None) -> "EventLog":
        """Log of the events with timestamp <= cutoff: a prefix view."""
        if cutoff is None:
            return self
        return self._view(slice(int(np.searchsorted(self.timestamps, cutoff, side="right"))))

    def where(self, keep: np.ndarray) -> "EventLog":
        """Log of the events that the boolean mask `keep` selects, in time
        order; it shares this log's user ids and codes and copies the kept
        columns.  Raises ValueError unless `keep` is a boolean array of
        length len(self): an index array could reorder the events."""
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != (len(self),):
            raise ValueError(f"keep must be a boolean mask of length {len(self)}")
        return self._view(keep)

    def _view(self, index: slice | np.ndarray) -> "EventLog":
        view = EventLog.__new__(EventLog)
        view._init_view(self._columns[:, index], self._universe, self._codes[:, index])
        return view


@dataclass(frozen=True)
class NodeMetrics:
    """Per-user counters at some cutoff: event-count degrees and reputations.

    Degrees count rating events (multigraph semantics), reputations sum
    absolute incoming weights.  Everything is exact integer arithmetic.
    """

    k_in_plus: int
    k_in_minus: int
    k_out_plus: int
    k_out_minus: int
    rho_plus: int
    rho_minus: int

    @property
    def rho(self) -> int:
        """Global reputation: positive minus negative reputation."""
        return self.rho_plus - self.rho_minus


@dataclass(frozen=True)
class RejectedLine:
    line_no: int
    reason: str
    text: str


@dataclass(frozen=True)
class IngestReport:
    """Summary of one ingest run: volumes kept/rejected plus diagnostics."""

    events_kept: int
    events_rejected: int
    n_users: int
    rejections: tuple[RejectedLine, ...] = field(default=(), repr=False)


@contextmanager
def _open_source(source: str | Path | IO[bytes]) -> Iterator[IO[str]]:
    # closing `buffered` closes the file opened here or the caller's stream;
    # a GzipFile leaves its fileobj open, hence the outer `with`
    raw: IO[bytes] = open(source, "rb") if isinstance(source, (str, Path)) else source
    buffered = raw if isinstance(raw, io.BufferedReader) else io.BufferedReader(raw)
    with buffered:
        gzipped = buffered.peek(2)[:2] == b"\x1f\x8b"
        binary = gzip.GzipFile(fileobj=buffered) if gzipped else buffered
        with io.TextIOWrapper(binary, encoding="utf-8") as text:
            yield text


def _parse_timestamp(text: str) -> int:
    # mirrors of the public dump carry fractional epoch seconds; floor them
    try:
        return int(text)
    except ValueError:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"non-finite timestamp {text!r}")
        return math.floor(value)


def _parse_line(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 4 fields, got {len(parts)}")
    rater = int(parts[0])
    ratee = int(parts[1])
    score = int(parts[2])
    timestamp = _parse_timestamp(parts[3])
    _check_event(rater, ratee, score, timestamp)
    return rater, ratee, score, timestamp


def ingest(
    source: str | Path | IO[bytes], mode: str = "lenient"
) -> tuple[EventLog, IngestReport]:
    """Parse a `rater,ratee,score,epoch_seconds` CSV (plain or gzip).

    A header line is tolerated and skipped when its first field is not
    numeric.  In lenient mode invalid records are collected as per-line
    diagnostics and skipped; in strict mode the first invalid record raises
    IngestError.  Input with no content at all is an error in both modes;
    a header with zero data rows is a valid empty log.
    """
    if mode not in ("lenient", "strict"):
        raise ValueError(f"mode must be 'lenient' or 'strict', got {mode!r}")
    fields: list[int] = []  # four per kept record
    rejections: list[RejectedLine] = []
    first_record = True
    saw_content = False
    with _open_source(source) as stream:
        for line_no, line in enumerate(stream, start=1):
            text = line.strip()
            if not text:
                continue
            saw_content = True
            if first_record:
                first_record = False
                head = text.split(",")[0]
                try:
                    float(head)
                except ValueError:
                    continue  # header line
            try:
                fields.extend(_parse_line(text))
            except ValueError as exc:
                if mode == "strict":
                    raise IngestError(f"line {line_no}: {exc}") from exc
                rejections.append(RejectedLine(line_no, str(exc), text))
    if not saw_content:
        raise IngestError("empty input: no records found")
    log = EventLog._from_columns(np.array(fields, dtype=np.int64).reshape(-1, 4).T)
    report = IngestReport(
        events_kept=len(log),
        events_rejected=len(rejections),
        n_users=len(log.users),
        rejections=tuple(rejections),
    )
    return log, report


def split_layers(
    log: EventLog, cutoff: int | None = None
) -> tuple[EventLog, EventLog]:
    """The rewarding and punitive layers of the log at a cutoff: the logs of
    its positive and of its negative events with timestamp <= cutoff.

    Every event lands on exactly one layer.  cutoff=None means the whole log.
    """
    sub = log.truncated(cutoff)
    return sub.where(sub.scores > 0), sub.where(sub.scores < 0)


def _fold(state: np.ndarray, raters: np.ndarray, ratees: np.ndarray, scores: np.ndarray) -> None:
    """Add a slice of events to `state`, the 6 x n int64 counters of n user
    codes with one row per `NodeMetrics` field, in field order.

    Each event adds one to its ratee's in-degree and its rater's out-degree
    on the layer of its sign, and its absolute score to the ratee's
    reputation there.  `state` must be C-contiguous, as `np.zeros` makes it,
    so that the flat view below writes through.
    """
    n = state.shape[1]
    flat = state.reshape(-1)
    row = (scores < 0) * n  # each minus row follows its plus row
    np.add.at(flat, row + ratees, 1)
    np.add.at(flat, row + 2 * n + raters, 1)
    np.add.at(flat, row + 4 * n + ratees, np.abs(scores))


def _by_user(state: np.ndarray, ids: np.ndarray) -> dict[int, NodeMetrics]:
    """`NodeMetrics` of the users with an event in `state` (any degree > 0),
    keyed by id in ascending code order; `ids` maps codes to user ids."""
    seen = np.flatnonzero(state[:4].any(axis=0))
    return dict(zip(ids[seen].tolist(), map(NodeMetrics, *state[:, seen].tolist())))


def node_metrics(
    log: EventLog, cutoff: int | None = None
) -> dict[int, NodeMetrics]:
    """Degrees and reputations for every user seen at or before the cutoff."""
    sub = log.truncated(cutoff)
    state = np.zeros((len(fields(NodeMetrics)), len(sub._universe)), dtype=np.int64)
    _fold(state, *sub._codes, sub.scores)
    return _by_user(state, sub._universe)


def latest_ratings(
    log: EventLog, cutoff: int | None = None
) -> dict[tuple[int, int], int]:
    """Latest score for each ordered (rater, ratee) pair at the cutoff."""
    sub = log.truncated(cutoff)
    pairs = zip(sub.raters.tolist(), sub.ratees.tolist())
    return dict(zip(pairs, sub.scores.tolist()))


def gettrust(
    log: EventLog, viewer: int, target: int, cutoff: int | None = None
) -> int:
    """Trust in `target` as seen by `viewer` through directly trusted users.

    Takes the viewer's latest direct rating of the target, plus, for every
    intermediary the viewer currently rates positively, that intermediary's
    latest rating of the target capped in magnitude by how much the viewer
    trusts the intermediary.
    """
    if viewer == target:
        raise ValueError("viewer and target must differ")
    if viewer not in log.users or target not in log.users:
        missing = viewer if viewer not in log.users else target
        raise ValueError(f"unknown user {missing}")
    sub = log.truncated(cutoff)
    raters, ratees, scores = sub.raters, sub.ratees, sub.scores
    by_viewer = raters == viewer
    by_target = ratees == target
    # latest rating wins: later events overwrite earlier keys
    of_viewer = dict(zip(ratees[by_viewer].tolist(), scores[by_viewer].tolist()))
    of_target = dict(zip(raters[by_target].tolist(), scores[by_target].tolist()))
    total = of_viewer.get(target, 0)
    for j, r_vj in of_viewer.items():
        if j == target or r_vj <= 0:
            continue
        r_jt = of_target.get(j)
        if not r_jt:
            continue
        capped = min(r_vj, abs(r_jt))
        total += capped if r_jt > 0 else -capped
    return total


# Preset score-magnitude weights for the synthetic generator: 'flat' draws
# magnitudes uniformly; 'skewed' mimics marketplace habits (positive scores
# piled on 1, negative scores piled on 10).
_SKEWED_POSITIVE = (0.55, 0.14, 0.08, 0.06, 0.05, 0.035, 0.03, 0.02, 0.02, 0.015)
_SKEWED_NEGATIVE = tuple(reversed(_SKEWED_POSITIVE))


@dataclass(frozen=True)
class SynthConfig:
    """Parameters for the synthetic log generator (deterministic per seed)."""

    n_users: int
    n_events: int
    seed: int
    positive_fraction: float = 0.9
    score_distribution: str = "flat"  # 'flat' | 'skewed'
    time_model: str = "uniform"  # 'uniform' | 'poisson'
    t_start: int = 1_300_000_000
    t_span: int = 4 * 365 * 86_400  # uniform model: window length in seconds
    rate: float = 0.01  # poisson model: events per second

    def __post_init__(self) -> None:
        if self.n_users < 2:
            raise ValueError("n_users must be >= 2")
        if self.n_events < 0:
            raise ValueError("n_events must be >= 0")
        if not 0.0 <= self.positive_fraction <= 1.0:
            raise ValueError("positive_fraction must be in [0, 1]")
        if self.score_distribution not in ("flat", "skewed"):
            raise ValueError(f"unknown score_distribution {self.score_distribution!r}")
        if self.time_model not in ("uniform", "poisson"):
            raise ValueError(f"unknown time_model {self.time_model!r}")
        if self.time_model == "uniform" and self.t_span <= 0:
            raise ValueError("t_span must be positive")
        if self.time_model == "poisson" and not self.rate > 0:
            raise ValueError("rate must be positive")


def synth_log(config: SynthConfig) -> EventLog:
    """Generate a random rating log; identical seeds give identical logs."""
    rng = np.random.default_rng(config.seed)
    n = config.n_events
    raters = rng.integers(0, config.n_users, n)
    ratees = (raters + rng.integers(1, config.n_users, n)) % config.n_users
    positive = rng.random(n) < config.positive_fraction
    if config.score_distribution == "flat":
        magnitude = rng.integers(1, MAX_SCORE + 1, n)
    else:
        magnitude = np.empty(n, dtype=np.int64)
        support = np.arange(1, MAX_SCORE + 1)
        magnitude[positive] = rng.choice(
            support, size=int(positive.sum()), p=_SKEWED_POSITIVE
        )
        magnitude[~positive] = rng.choice(
            support, size=int((~positive).sum()), p=_SKEWED_NEGATIVE
        )
    scores = np.where(positive, magnitude, -magnitude)
    if config.time_model == "uniform":
        times = np.sort(rng.integers(config.t_start, config.t_start + config.t_span, n))
    else:
        gaps = rng.exponential(1.0 / config.rate, n)
        times = (config.t_start + np.floor(np.cumsum(gaps))).astype(np.int64)
    return EventLog._from_columns(np.array([raters, ratees, scores, times], dtype=np.int64))


def write_log_csv(log: EventLog, path: str | Path) -> None:
    """Write a log back out in the ingestible CSV format (headered)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rater,ratee,score,timestamp\n")
        for r, e, s, t in zip(*log._columns.tolist()):
            fh.write(f"{r},{e},{s},{t}\n")
