import codecs
import gzip
import io
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rows, write_log_csv
from daily_reference import columns_of
from wotnet import model
from wotnet.model import IngestReport
from wotnet import (
    EventLog,
    IngestError,
    NodeMetrics,
    SynthConfig,
    gettrust,
    ingest,
    latest_ratings,
    metric_columns,
    node_metrics,
    split_layers,
    synth_log,
)


def _stream(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode())


# ---------------------------------------------------------------------------
# ingest


def test_parses_basic_record():
    log, report = ingest(_stream("6,2,4,1289241911\n"))
    assert rows(log) == [(6, 2, 4, 1289241911)]
    assert report.events_kept == 1
    assert report.n_users == 2


def test_rejects_self_rating_line():
    log, report = ingest(_stream("3,3,5,1289241911\n1,2,1,5\n"))
    assert len(log) == 1
    assert report.events_rejected == 1
    assert report.rejections[0].line_no == 1
    assert "self-rating" in report.rejections[0].reason


@pytest.mark.parametrize(
    "bad",
    [
        "1,2,0,10",
        "1,2,11,10",
        "1,2,-11,10",
        "1,2,x,10",
        "1,2,3",
        "9223372036854775808,2,3,10",
        "1,-9223372036854775809,3,10",
        "1,2,3,1e30",
    ],
)
def test_invalid_records_skipped_lenient_fatal_strict(bad):
    text = f"{bad}\n1,2,1,50\n"
    log, report = ingest(_stream(text))
    assert len(log) == 1, bad
    assert report.events_rejected == 1
    with pytest.raises(IngestError):
        ingest(_stream(text), mode="strict")


def test_header_line_skipped():
    log, _ = ingest(_stream("rater,ratee,score,timestamp\n1,2,3,10\n"))
    assert len(log) == 1


def test_header_only_file_is_valid_empty_log():
    log, report = ingest(_stream("rater,ratee,score,timestamp\n"))
    assert len(log) == 0
    assert report.events_kept == 0


def test_no_content_at_all_is_an_error():
    with pytest.raises(IngestError):
        ingest(_stream(""))
    with pytest.raises(IngestError):
        ingest(_stream("\n\n  \n"))


def test_gzip_input(tmp_path):
    path = tmp_path / "log.csv.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("1,2,3,10\n2,1,-4,20\n")
    log, _ = ingest(path)
    assert log.scores.tolist() == [3, -4]


@pytest.mark.parametrize("gzipped", [False, True])
@pytest.mark.parametrize("mode", ["lenient", "strict"])
def test_ingest_closes_the_file_it_opens(tmp_path, monkeypatch, gzipped, mode):
    data = b"1,2,3,10\n4,4,5,20\n"
    path = tmp_path / "log.csv"
    path.write_bytes(gzip.compress(data) if gzipped else data)
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(model, "open", recording_open, raising=False)
    if mode == "strict":
        with pytest.raises(IngestError, match="line 2"):
            ingest(path, mode=mode)
    else:
        assert ingest(path, mode=mode)[1].events_rejected == 1
    assert len(opened) == 1 and opened[0].closed


def test_fractional_timestamps_floored():
    log, _ = ingest(_stream("1,2,3,100.75\n"))
    assert log.timestamps.tolist() == [100]


def test_events_sorted_by_timestamp_stable():
    log, _ = ingest(_stream("1,2,3,300\n2,3,4,100\n3,1,5,100\n"))
    assert log.timestamps.tolist() == [100, 100, 300]
    # equal timestamps keep input order
    assert log.raters.tolist()[:2] == [2, 3]


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        ingest(_stream("1,2,3,10\n"), mode="casual")


# ---------------------------------------------------------------------------
# the `np.loadtxt` ingest against the line loop


def _by_line_loop(data: bytes, mode: str):
    """What `ingest` gives when every line goes through `_parse_line`: the
    log's rows and the report, or the type and text of the error."""
    try:
        columns, rejections = model._ingest_lines(data, mode)
    except Exception as exc:
        return type(exc), str(exc)
    log = EventLog._from_columns(columns)
    return rows(log), IngestReport(len(log), len(rejections), len(log.users), tuple(rejections))


def _by_ingest(data: bytes, mode: str):
    try:
        log, report = ingest(io.BytesIO(data), mode)
    except Exception as exc:
        return type(exc), str(exc)
    return rows(log), report


_ids = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["1_0", "5.0", "+4", "0012", "-0", str(2**63 - 1), str(2**63), str(-(2**63) - 1), "x", ""]),
)
_scores = st.one_of(st.integers(-12, 12).map(str), st.sampled_from(["5.0", "1e1", "+3", "#2", "1_0"]))
_timestamps = st.one_of(
    st.integers(-(10**10), 10**10).map(str),
    st.tuples(st.integers(-(10**10), 10**10), st.integers(0, 999_999)).map(lambda p: f"{p[0]}.{p[1]:06d}"),
    st.sampled_from(
        ["1e3", "-1.5e2", "1E3", ".5", "5.", "-0.5", "nan", "inf", "-inf", "1_0", "1e20", "1e400",
         str(2**53 - 1), str(2**53), "9007199254740993", str(-(2**53) - 1)]
    ),
)  # fmt: skip
_records = st.tuples(_ids, _ids, _scores, _timestamps).map(",".join)
# legal records in the plain form that `np.loadtxt` reads
_plain_records = st.tuples(
    st.one_of(st.integers(0, 30), st.sampled_from([2**63 - 1, -(2**63)])),
    st.integers(1, 30),
    st.sampled_from([s for s in range(-10, 11) if s]),
    st.one_of(
        st.integers(-(10**10), 10**10).map(str),
        st.tuples(st.integers(-(10**10), 10**10), st.integers(0, 999_999)).map(lambda p: f"{p[0]}.{p[1]:06d}"),
        st.sampled_from(["1e3", "-1.5e2", "1E3", ".5", "5.", "-0.5", str(2**53 - 1), str(1 - 2**53)]),
    ),
).map(lambda r: f"{r[0]},{r[0] + r[1]},{r[2]},{r[3]}")
# not a record; "\udcff" stands for a byte that is not UTF-8
_junk = st.sampled_from(["", "   ", "garbage", "1,2,3", "1,2,3,4,5", "1,2,3,4,", "#1,2,3,4", "\t", "\udcff"])


@st.composite
def _log_bytes(draw):
    """A log of plain legal records with at most two flaws: a line that is
    no plain legal record, or one with surrounding whitespace."""
    lines = draw(st.lists(_plain_records, max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        if draw(st.booleans()):
            lines.insert(at, draw(st.one_of(_records, _junk)))
        elif lines:
            lines[at % len(lines)] = draw(st.sampled_from([" ", "\t"])) + lines[at % len(lines)]
    if draw(st.booleans()):
        lines.insert(0, "rater,ratee,score,timestamp")
    lines[:0] = [""] * draw(st.integers(0, 2))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data = (newline.join(lines) + draw(st.sampled_from(["", newline]))).encode("utf-8", "surrogateescape")
    return gzip.compress(data) if draw(st.booleans()) else data


def _flipped(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1 :]


_GZIPPED = gzip.compress(b"1,2,3,4\n" * 50, mtime=0)


@given(_log_bytes(), st.sampled_from(["lenient", "strict"]))
@example(b"rater,ratee,score,timestamp\n1,2,3,1.5\n2,1,-4,-20\n", "strict")
@example(b"\n\nrater,ratee,score,timestamp\r\n1,2,3,1e3\r\n", "lenient")
@example(b"1,2,3,4\n2,1,-4,nan\n", "lenient")
@example(gzip.compress(b"1,2,3,4\n2,2,3,5\n"), "strict")
@example(b"rater,ratee,score,timestamp\n", "strict")
@example(_GZIPPED[:-9], "lenient")  # truncated
@example(_flipped(_GZIPPED, 10), "lenient")  # corrupt deflate data
@example(_flipped(_GZIPPED, 11), "strict")  # a bad checksum
@settings(max_examples=300, deadline=None)
def test_ingest_equals_the_line_loop(data, mode):
    assert _by_ingest(data, mode) == _by_line_loop(data, mode)


@pytest.mark.parametrize(
    "tail",
    [
        lambda member: member[:-9],  # truncated: EOFError
        lambda member: _flipped(member, len(member) - 20),  # a bad checksum: OSError
        lambda member: _flipped(member, 10),  # corrupt deflate data: zlib.error
    ],
)
def test_a_corrupt_gzip_tail_does_not_hide_an_earlier_bad_line(tail):
    # the line loop meets the self-rating on line 1 before it decompresses the
    # corrupt second member; the loadtxt path, which reads all first, must too
    data = gzip.compress(b"1,1,3,4\n" + b"1,2,3,4\n" * 5000, mtime=0) + tail(_GZIPPED)
    assert _by_ingest(data, "strict") == (IngestError, "line 1: self-rating rejected (user 1)")
    assert _by_ingest(data, "lenient") == _by_line_loop(data, "lenient")


_HEADER = "rater,ratee,score,timestamp\n"


@pytest.mark.parametrize(
    "text",
    [
        "1,2,3,10\n2,1,-4,20\n",
        _HEADER + "1,2,3,10\n",
        "\n\n" + _HEADER + "1,2,3,10\n\n2,3,1,11",
        _HEADER.replace("\n", "\r\n") + "1,2,3,10\r\n2,1,1,11\r\n",
        _HEADER + "1,2,3,1300000000.75\n2,1,-4,1e3\n3,1,10,-86400.5\n",
        "rater;ratee #\n1,2,3,10\n",  # anything goes on the header line
    ],
)
@pytest.mark.parametrize("gzipped", [False, True])
def test_plain_logs_take_the_loadtxt_path(text, gzipped):
    data = gzip.compress(text.encode()) if gzipped else text.encode()
    assert model._ingest_columns(data) is not None
    assert _by_ingest(data, "strict") == _by_line_loop(data, "strict")


@pytest.mark.parametrize("header", ["", _HEADER])
@pytest.mark.parametrize("gzipped", [False, True])
@pytest.mark.parametrize("mode", ["lenient", "strict"])
def test_a_byte_order_mark_is_not_part_of_the_first_line(header, gzipped, mode):
    text = (header + "1,2,5,1300000000\n3,2,4,1300086400\n2,3,-1,1300172800\n").encode()
    pack = gzip.compress if gzipped else bytes
    without = _by_ingest(pack(text), mode)
    assert without[1].events_kept == 3
    # on the `loadtxt` path and on the line loop
    assert _by_ingest(pack(codecs.BOM_UTF8 + text), mode) == _by_line_loop(pack(codecs.BOM_UTF8 + text), mode) == without


@pytest.mark.parametrize(
    "body",
    [
        "",  # header only
        " 1,2,3,10\n",  # surrounding spaces
        "1,2,3,nan\n",
        "1_0,2,3,10\n",
        "5.0,2,3,10\n",
        f"{2**63},2,3,10\n",
        "1,2,11,10\n",
        "1,2,0,10\n",
        "1,1,3,10\n",  # self-rating
        "1,2,#3,10\n",
        "1,2,3,4,5\n",
        f"1,2,3,{2**53}\n",  # floors exactly only below 2**53
        "1,2,3,10\r2,1,3,11\n",  # a lone carriage return ends a line
    ],
)
def test_other_logs_fall_back_to_the_line_loop(body):
    data = (_HEADER + body).encode()
    assert model._ingest_columns(data) is None
    for mode in ("lenient", "strict"):
        assert _by_ingest(data, mode) == _by_line_loop(data, mode)


# ---------------------------------------------------------------------------
# event and log invariants


@pytest.mark.parametrize("score", [0, 11, -11, 100])
def test_event_score_bounds(score):
    with pytest.raises(ValueError, match="score"):
        EventLog([(3, 4, 5, 0), (1, 2, score, 10)])


def test_event_self_rating_rejected():
    with pytest.raises(ValueError, match="self-rating"):
        EventLog([(7, 7, 3, 10)])


def test_event_fields_must_fit_int64():
    extremes = (2**63 - 1, -(2**63), 3, 2**63 - 1)
    assert rows(EventLog([extremes])) == [extremes]
    for fields in [(2**63, 1, 3, 10), (1, -(2**63) - 1, 3, 10), (1, 2, 3, 2**63)]:
        with pytest.raises(ValueError, match="int64"):
            EventLog([fields])


_INT64_EDGES = [-(2**63) - 1, -(2**63), 2**63 - 1, 2**63]


@given(
    st.lists(
        st.tuples(
            st.sampled_from([0, 1, 2, *_INT64_EDGES]),
            st.sampled_from([0, 1, 2, *_INT64_EDGES]),
            st.integers(-12, 12),
            st.one_of(st.integers(-50, 50), st.sampled_from(_INT64_EDGES)),
        ),
        max_size=6,
    )
)
@settings(max_examples=200, deadline=None)
def test_constructor_and_strict_ingest_accept_the_same_rows(candidates):
    text = "rater,ratee,score,timestamp\n" + "".join(
        f"{a},{b},{s},{t}\n" for a, b, s, t in candidates
    )
    try:
        built = EventLog(candidates)
    except ValueError:
        built = None
    try:
        ingested = ingest(_stream(text), mode="strict")[0]
    except IngestError:
        ingested = None
    assert (built is None) == (ingested is None)
    if built is not None:
        assert rows(built) == rows(ingested)
        assert [c.tolist() for c in built.user_codes()] == [
            c.tolist() for c in ingested.user_codes()
        ]


def _build_by_unique(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns, user ids and codes of a log built from 4 x n columns by
    a stable argsort of the timestamps and `np.unique` of both id rows."""
    columns = columns.take(np.argsort(columns[3], kind="stable"), axis=1)
    ids, codes = np.unique(columns[:2].ravel(), return_inverse=True)
    return columns, ids, codes.reshape(2, -1)


def _assert_built_as_the_oracle_builds(make) -> None:
    """`make()` builds a log whose arrays equal those the oracle builds from
    the columns handed to `EventLog._build`, and are read-only and
    C-contiguous."""
    handed = []
    build = EventLog._build

    def spy(log, columns):
        handed.append(np.array(columns))
        build(log, columns)

    with mock.patch.object(EventLog, "_build", spy):
        log = make()
    assert len(handed) == 1
    for got, expected in zip((log._columns, *log.user_codes()), _build_by_unique(handed[0])):
        assert got.dtype == np.int64 and np.array_equal(got, expected)
        assert got.flags.c_contiguous and not got.flags.writeable


_IDS = st.one_of(st.integers(-3, 3), st.sampled_from([-(2**63), 1 - 2**63, 2**63 - 2, 2**63 - 1]))


@st.composite
def _ordered_rows(draw):
    """Legal rows whose timestamps are in time order, reversed, all tied or
    in any order; small time ranges tie some of them too."""
    pairs = draw(st.lists(st.tuples(_IDS, _IDS).filter(lambda p: p[0] != p[1]), max_size=10))
    scores = draw(st.lists(st.sampled_from([s for s in range(-10, 11) if s]), min_size=len(pairs), max_size=len(pairs)))
    times = draw(
        st.lists(
            st.one_of(st.integers(-2, 2), st.integers(-(10**12), 10**12), st.sampled_from([-(2**63), 2**63 - 1])),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    order = draw(st.sampled_from(["ordered", "reversed", "tied", "any"]))
    if order == "tied":
        times = times[:1] * len(times)
    elif order != "any":
        times.sort(reverse=order == "reversed")
    return [(a, b, s, t) for (a, b), s, t in zip(pairs, scores, times)]


@given(_ordered_rows(), st.sampled_from(["rows", "ingest"]))
@example([(2**63 - 1, -(2**63), 3, 5), (-(2**63), 2**63 - 1, -2, 5), (0, -1, 1, 4)], "ingest")
@example([(1, 2, 3, 2), (2, 1, -4, 1), (1, 3, 1, 0)], "rows")  # reversed
@settings(max_examples=200, deadline=None)
def test_the_build_equals_the_unique_oracle(candidates, route):
    # ingest reads timestamps below 2**53 with `np.loadtxt`, the others with the line loop
    text = _HEADER + "".join(f"{a},{b},{s},{t}\n" for a, b, s, t in candidates)
    make = {"rows": lambda: EventLog(candidates), "ingest": lambda: ingest(_stream(text), mode="strict")[0]}[route]
    _assert_built_as_the_oracle_builds(make)


@given(
    st.builds(
        SynthConfig,
        n_users=st.integers(2, 30),
        n_events=st.integers(0, 80),
        seed=st.integers(0, 2**32),
        time_model=st.sampled_from(["uniform", "poisson"]),
        t_span=st.integers(1, 100),  # ties
        rate=st.sampled_from([0.01, 10.0]),  # 10 a second: ties
    )
)
@settings(max_examples=60, deadline=None)
def test_synthetic_logs_build_as_the_unique_oracle_builds(config):
    _assert_built_as_the_oracle_builds(lambda: synth_log(config))


def test_log_columns_read_only():
    log = EventLog([(1, 2, 3, 10)])
    with pytest.raises(ValueError):
        log.scores[0] = 5


def test_truncated_keeps_boundary_event():
    log = EventLog([(1, 2, 1, 10), (2, 1, 1, 20), (1, 3, 1, 30)])
    assert len(log.truncated(20)) == 2
    assert len(log.truncated(5)) == 0
    assert log.truncated(None) is log


# ---------------------------------------------------------------------------
# split_layers


def test_single_positive_event_split():
    plus, minus = split_layers(EventLog([(1, 2, 5, 10)]))
    assert len(plus) == 1
    assert plus.scores[0] == 5
    assert len(minus) == 0


def test_split_respects_cutoff():
    log = EventLog([(1, 2, 1, 10), (2, 1, -10, 20)])
    plus, minus = split_layers(log, cutoff=15)
    assert (len(plus), len(minus)) == (1, 0)


def test_split_partitions_events(small_log):
    plus, minus = split_layers(small_log)
    assert len(plus) + len(minus) == len(small_log)
    assert (np.abs(plus.scores) >= 1).all() and (np.abs(plus.scores) <= 10).all()
    assert (np.abs(minus.scores) >= 1).all() and (np.abs(minus.scores) <= 10).all()


def test_where_selects_weight_sublayers():
    log = EventLog([(1, 2, 1, 10), (1, 3, 5, 20), (2, 3, 10, 30)])
    plus, _ = split_layers(log)
    assert len(plus.where(plus.scores == 1)) == 1
    assert len(plus.where(plus.scores >= 2)) == 2
    with pytest.raises(ValueError):
        plus.scores[0] = 5


@pytest.mark.parametrize(
    "keep",
    [
        np.array([2, 0, 1]),  # an index array would reorder the events
        np.array([1, 0, 1]),
        [0, 2],
        np.array([True, False]),
        np.array([True, False, True, False]),
        np.ones((1, 3), dtype=bool),
    ],
)
def test_where_takes_only_a_boolean_mask_over_every_event(keep):
    log = EventLog([(1, 2, 1, 10), (1, 3, -5, 20), (2, 3, 10, 30)])
    with pytest.raises(ValueError, match="boolean mask of length 3"):
        log.where(keep)


# ---------------------------------------------------------------------------
# node_metrics


def test_metrics_mixed_incoming_scores():
    log = EventLog([(1, 9, 1, 10), (2, 9, 1, 20), (3, 9, -10, 30)])
    m = node_metrics(log)[9]
    assert (m.k_in_plus, m.k_in_minus) == (2, 1)
    assert (m.rho_plus, m.rho_minus, m.rho) == (2, 10, -8)


def test_metrics_user_with_no_incoming():
    log = EventLog([(5, 6, 3, 10)])
    m = node_metrics(log)[5]
    assert (m.rho_plus, m.rho_minus, m.rho) == (0, 0, 0)
    assert m.k_out_plus == 1


def _accumulate_naively(events) -> dict[int, NodeMetrics]:
    """Oracle: each user's counters, added up event by event by field name."""
    counters: dict[int, dict[str, int]] = {}
    for rater, ratee, score, _ in events:
        r, t = (counters.setdefault(user, dict.fromkeys(NodeMetrics._fields, 0)) for user in (rater, ratee))
        side = "plus" if score > 0 else "minus"
        r[f"k_out_{side}"] += 1
        t[f"k_in_{side}"] += 1
        t[f"rho_{side}"] += abs(score)
    return {user: NodeMetrics(**c) for user, c in counters.items()}


_SCORES = [s for s in range(-10, 11) if s != 0]


def _random_events(rng, n_events, n_users, scores=_SCORES, max_step=9):
    """Events between two distinct users of range(n_users), each with a score
    from `scores`, 1 to `max_step` seconds after the one before."""
    events, t = [], 0
    for _ in range(n_events):
        a, b = rng.sample(range(n_users), 2)
        score = rng.choice(scores)
        t += rng.randint(1, max_step)
        events.append((a, b, score, t))
    return events


def test_metrics_match_naive_accumulation_oracle():
    log = EventLog(_random_events(random.Random(11), 20, 6, max_step=50))
    assert node_metrics(log) == _accumulate_naively(rows(log))


@st.composite
def _log_and_cutoff(draw):
    """A small log and a cutoff from before its first event to after its last
    one; the timestamps are multiples of 10, so cutoffs land on tied times."""
    events = draw(_small_logs())
    times = [e[3] for e in events]
    return events, draw(st.integers(min(times) - 15, max(times) + 15))


@given(_log_and_cutoff())
@example(([(1, 2, 3, 0), (2, 1, -4, 0), (3, 1, 1, 10)], -1))  # before the first event
@example(([(1, 2, 3, 0), (2, 1, -4, 0), (3, 1, 1, 10)], 0))  # on a tied timestamp
@example(([(1, 2, 3, 0), (2, 1, -4, 0), (3, 1, 1, 10)], 11))  # after the last event
@settings(max_examples=200, deadline=None)
def test_metrics_at_cutoff_match_naive_accumulation_of_the_prefix(case):
    events, cutoff = case
    metrics = node_metrics(EventLog(events), cutoff)
    assert metrics == _accumulate_naively([e for e in events if e[3] <= cutoff])
    assert all(type(m) is NodeMetrics for m in metrics.values())
    if cutoff < min(e[3] for e in events):
        assert metrics == {}


@given(_log_and_cutoff(), st.sampled_from(["log", "plus", "minus"]))
@example(([(1, 2, 3, 0), (2, 1, -4, 0), (3, 1, 1, 10)], -1), "log")  # before the first event
@example(([(1, 2, 3, 0), (2, 1, -4, 0), (3, 1, 1, 10)], -1), "minus")
@example(([(1, 2, 3, 0), (2, 1, -4, 0), (3, 1, 1, 10)], 0), "minus")  # a layer: the parent's universe
@example(([(1, 2, 3, 0), (2, 1, -4, 0), (3, 1, 1, 10)], 11), "plus")
@settings(max_examples=200, deadline=None)
def test_metric_columns_equal_the_columns_of_the_dict_path(case, view):
    events, cutoff = case
    log = EventLog(events)
    plus, minus = split_layers(log)
    log = {"log": log, "plus": plus, "minus": minus}[view]
    kept = [e for e in events if e[3] <= cutoff and (view == "log" or (e[2] > 0) == (view == "plus"))]
    columns = metric_columns(log, cutoff)
    users, fields = columns_of(_accumulate_naively(kept))
    assert columns.users.dtype == columns.fields.dtype == np.int64
    assert columns.fields.shape == (len(NodeMetrics._fields), len(columns.users))
    np.testing.assert_array_equal(columns.users, users)
    np.testing.assert_array_equal(columns.fields, fields)
    assert node_metrics(log, cutoff) == _accumulate_naively(kept)


def test_metrics_degree_sums_equal_layer_edge_counts(small_log):
    for cutoff in (None, int(np.median(small_log.timestamps))):
        metrics = node_metrics(small_log, cutoff)
        plus, minus = split_layers(small_log, cutoff)
        assert sum(m.k_in_plus for m in metrics.values()) == len(plus)
        assert sum(m.k_out_plus for m in metrics.values()) == len(plus)
        assert sum(m.k_in_minus for m in metrics.values()) == len(minus)
        assert sum(m.k_out_minus for m in metrics.values()) == len(minus)


def test_metrics_at_cutoff_equal_truncated_log(small_log):
    cutoff = int(np.percentile(small_log.timestamps, 40))
    streamed = node_metrics(small_log, cutoff)
    batch = node_metrics(small_log.truncated(cutoff))
    assert streamed == batch


def test_metrics_reputation_bounds(small_log):
    for m in node_metrics(small_log).values():
        assert m.k_in_plus <= m.rho_plus <= 10 * m.k_in_plus
        assert m.k_in_minus <= m.rho_minus <= 10 * m.k_in_minus
        assert m.rho == m.rho_plus - m.rho_minus


def test_node_metrics_is_an_immutable_named_tuple():
    m = node_metrics(EventLog([(1, 2, 3, 10), (3, 2, -4, 20), (2, 1, 5, 30)]))[2]
    assert type(m) is NodeMetrics
    assert repr(m) == (
        "NodeMetrics(k_in_plus=1, k_in_minus=1, k_out_plus=1, k_out_minus=0, "
        "rho_plus=3, rho_minus=4)"
    )
    assert m == (1, 1, 1, 0, 3, 4) and hash(m) == hash(tuple(m))
    assert m.rho == -1
    with pytest.raises(AttributeError):
        m.rho_plus = 0
    with pytest.raises(AttributeError):
        m.other = 0


@pytest.mark.parametrize(
    "score, rows_by_field",
    [
        (3, {"k_in_plus": [0, 1], "k_out_plus": [1, 0], "rho_plus": [0, 3]}),
        (-4, {"k_in_minus": [0, 1], "k_out_minus": [1, 0], "rho_minus": [0, 4]}),
    ],
)
def test_fields_follow_the_rows_of_the_fold(score, rows_by_field):
    # one event, user code 0 rating user code 1: each row is named by its field
    state = np.zeros((len(NodeMetrics._fields), 2), dtype=np.int64)
    model._fold(state, np.array([0]), np.array([1]), np.array([score]))
    expected = {name: rows_by_field.get(name, [0, 0]) for name in NodeMetrics._fields}
    assert dict(zip(NodeMetrics._fields, state.tolist())) == expected


def test_metrics_excludes_users_not_yet_seen():
    log = EventLog([(1, 2, 1, 10), (3, 4, 1, 100)])
    assert set(node_metrics(log, cutoff=50)) == {1, 2}


# ---------------------------------------------------------------------------
# gettrust


def test_trust_through_single_intermediary():
    log = EventLog([(1, 2, 5, 10), (2, 3, 3, 20)])
    assert gettrust(log, 1, 3) == 3


def test_trust_negative_intermediary_rating():
    log = EventLog([(1, 2, 5, 10), (2, 3, -10, 20)])
    assert gettrust(log, 1, 3) == -5


def test_trust_two_intermediaries_cancel_mostly():
    log = EventLog([(1, 2, 2, 10), (2, 4, 8, 20), (1, 3, 10, 30), (3, 4, -1, 40)])
    assert gettrust(log, 1, 4) == min(2, 8) - min(10, 1)


def test_trust_direct_plus_indirect():
    log = EventLog([(1, 3, 2, 10), (1, 2, 5, 20), (2, 3, 4, 30)])
    assert gettrust(log, 1, 3) == 2 + 4


def test_trust_uses_latest_rating_per_pair():
    log = EventLog([(1, 2, 10, 10), (2, 3, 5, 20), (1, 2, -1, 30)])
    # viewer's trust in the intermediary flipped negative, so no flow-through
    assert gettrust(log, 1, 3) == 0
    assert gettrust(log, 1, 3, cutoff=25) == 5


def test_trust_ignores_negatively_rated_intermediaries():
    log = EventLog([(1, 2, -5, 10), (2, 3, 10, 20)])
    assert gettrust(log, 1, 3) == 0


def test_trust_errors():
    log = EventLog([(1, 2, 5, 10)])
    with pytest.raises(ValueError):
        gettrust(log, 1, 1)
    with pytest.raises(ValueError):
        gettrust(log, 1, 99)
    with pytest.raises(ValueError):
        gettrust(log, 99, 1)


@pytest.mark.parametrize("layer", ["log", "punitive"])
def test_trust_knows_exactly_the_sorted_user_ids(layer):
    log = EventLog([(10, 20, 5, 1), (20, 40, 3, 2), (40, 10, -2, 3), (10, 40, 1, 4), (60, 40, -1, 5)])
    sub = log if layer == "log" else log.where(log.scores < 0)
    known = sub.user_codes()[0].tolist()
    assert known == ([10, 20, 40, 60] if layer == "log" else [10, 40, 60])
    # below the smallest id, above the largest (`searchsorted` gives the
    # length), in a gap, outside int64; on the layer, 20 is in the gap too
    unknown = [5, 70, 30, 2**63, -(2**63) - 1] + ([20] if layer == "punitive" else [])
    for user in unknown:
        for viewer, target in ((user, known[0]), (known[-1], user), (user, 2**64)):
            with pytest.raises(ValueError, match=f"^unknown user {user}$"):
                gettrust(sub, viewer, target)
    for viewer in known:
        for target in set(known) - {viewer}:
            assert type(gettrust(sub, viewer, target)) is int
    assert sub._users is None  # no set of the users was built
    with pytest.raises(ValueError, match="^unknown user 1$"):
        gettrust(EventLog([]), 1, 2)
    # next to the int64 extremes, which a float64 reads as the same numbers
    edges = EventLog([(2**63 - 1, -(2**63), 1, 0)])
    for user in (2**63, -(2**63) - 1):
        for viewer, target in ((user, 2**63 - 1), (-(2**63), user)):
            with pytest.raises(ValueError, match=f"^unknown user {user}$"):
                gettrust(edges, viewer, target)


def _latest_ratings_by_loop(events):
    """Oracle: the last score of each (rater, ratee) pair over time-sorted rows."""
    last = {}
    for rater, ratee, score, _ in events:
        last[(rater, ratee)] = score
    return last


def _trust_from_all_pairs(last, viewer, target):
    """Oracle: the direct rating plus every 2-hop path through an
    intermediary the viewer rates positively, from the latest ratings `last`."""
    total = last.get((viewer, target), 0)
    for (a, j), r_vj in last.items():
        if a != viewer or j == target or r_vj <= 0:
            continue
        r_jt = last.get((j, target))
        if not r_jt:
            continue
        capped = min(r_vj, abs(r_jt))
        total += capped if r_jt > 0 else -capped
    return total


def test_trust_matches_path_enumeration_on_random_logs():
    rng = random.Random(99)
    for trial in range(25):
        events = _random_events(rng, rng.randint(5, 40), 7)
        log = EventLog(events)
        last = _latest_ratings_by_loop(events)  # the times rise
        for viewer in log.users:
            for target in log.users - {viewer}:
                assert gettrust(log, viewer, target) == _trust_from_all_pairs(last, viewer, target), (trial, viewer, target)


def test_trust_never_rises_when_contributing_edge_removed():
    rng = random.Random(5)
    for _ in range(20):
        log = EventLog(_random_events(rng, rng.randint(6, 30), 6, scores=range(1, 11)))  # all-positive world
        users = sorted(log.users)
        viewer, target = users[0], users[-1]
        baseline = gettrust(log, viewer, target)
        last = latest_ratings(log)
        for (a, j), r in last.items():
            if a != viewer or r <= 0 or j == target:
                continue
            if last.get((j, target), 0) == 0:
                continue  # intermediary contributed nothing
            pruned = EventLog(row for row in rows(log) if row[:2] != (viewer, j))
            if viewer not in pruned.users or target not in pruned.users:
                continue
            assert gettrust(pruned, viewer, target) <= baseline


# ---------------------------------------------------------------------------
# the columnar store's queries against the row oracles


@st.composite
def _small_logs(draw):
    """Small logs with tied timestamps (multiples of 10, some before 1970),
    sparse and negative user ids, and one of four shapes: mixed signs, the
    rewarding or the punitive layer only, or a single pair of users."""
    shape = draw(st.sampled_from(["mixed", "rewarding", "punitive", "pair"]))
    pool = [3, 17] if shape == "pair" else [-5, 0, 3, 17, 2**40]
    scores = {
        "rewarding": st.integers(1, 10),
        "punitive": st.integers(-10, -1),
    }.get(shape, st.integers(-10, 10).filter(bool))
    events = []
    for _ in range(draw(st.integers(1, 25))):
        rater = draw(st.sampled_from(pool))
        ratee = draw(st.sampled_from([u for u in pool if u != rater]))
        timestamp = 10 * draw(st.integers(-2, 5))
        events.append((rater, ratee, draw(scores), timestamp))
    return events


@given(_small_logs())
@settings(max_examples=150, deadline=None)
def test_columnar_queries_match_row_oracles(events):
    log = EventLog(events)
    ordered = sorted(events, key=lambda e: e[3])  # stable: tied events keep their order
    users = {u for e in events for u in e[:2]}
    times = sorted({e[3] for e in events})
    # before the first event, on every (possibly tied) timestamp, between
    # events, and the whole log
    for cutoff in [times[0] - 1, *times, *(t + 5 for t in times), None]:
        expected = [e for e in ordered if cutoff is None or e[3] <= cutoff]
        _assert_log_of(log.truncated(cutoff), expected)
        assert node_metrics(log, cutoff) == _accumulate_naively(expected)
        last = _latest_ratings_by_loop(expected)
        assert list(latest_ratings(log, cutoff).items()) == list(last.items())
        for viewer in users:
            for target in users - {viewer}:
                assert gettrust(log, viewer, target, cutoff) == _trust_from_all_pairs(
                    last, viewer, target
                ), (viewer, target, cutoff)


def _assert_log_of(sub: EventLog, expected: list[tuple[int, int, int, int]]) -> None:
    """`sub` holds exactly the `expected` rows, in that order, and its user
    codes name its own raters and ratees."""
    assert rows(sub) == expected
    ids, codes = sub.user_codes()
    assert ids.tolist() == sorted({u for r in expected for u in r[:2]})
    assert ids[codes[0]].tolist() == [r[0] for r in expected]
    assert ids[codes[1]].tolist() == [r[1] for r in expected]
    assert sub.users == set(ids.tolist())


def _plus_fields(m: NodeMetrics) -> tuple[int, int, int]:
    return m.k_in_plus, m.k_out_plus, m.rho_plus


@given(_small_logs())
@settings(max_examples=150, deadline=None)
def test_layers_are_the_logs_of_each_sign(events):
    log = EventLog(events)
    times = sorted({e[3] for e in events})
    for cutoff in [times[0] - 1, *times, None]:
        sub = log.truncated(cutoff)
        kept = rows(sub)
        plus, minus = split_layers(log, cutoff)
        _assert_log_of(plus, [r for r in kept if r[2] > 0])
        _assert_log_of(minus, [r for r in kept if r[2] < 0])
        assert len(plus) + len(minus) == len(sub)
        assert (plus.scores > 0).all() and (minus.scores < 0).all()
        assert plus.users | minus.users == sub.users
        for layer, of_prefix in zip((plus, minus), split_layers(sub)):
            assert rows(layer) == rows(of_prefix)
        on_plus = node_metrics(plus)
        assert all(m.k_in_minus == m.k_out_minus == m.rho_minus == 0 for m in on_plus.values())
        assert {u: _plus_fields(m) for u, m in on_plus.items()} == {
            u: _plus_fields(m)
            for u, m in node_metrics(log, cutoff).items()
            if m.k_in_plus or m.k_out_plus
        }
        # a mask over a prefix view, and over a layer
        _assert_log_of(sub.where(sub.scores % 2 == 0), [r for r in kept if r[2] % 2 == 0])
        _assert_log_of(plus.where(plus.scores >= 2), [r for r in kept if r[2] >= 2])


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_zero_events():
    log = synth_log(SynthConfig(n_users=5, n_events=0, seed=1))
    assert len(log) == 0
    assert len(log.users) == 0


def test_synth_same_seed_identical(tmp_path):
    cfg = SynthConfig(n_users=30, n_events=500, seed=77)
    a, b = synth_log(cfg), synth_log(cfg)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_log_csv(a, pa)
    write_log_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_synth_different_seeds_differ():
    a = synth_log(SynthConfig(n_users=30, n_events=500, seed=1))
    b = synth_log(SynthConfig(n_users=30, n_events=500, seed=2))
    assert a.raters.tolist() != b.raters.tolist()


def test_synth_positive_fraction_within_three_sigma():
    log = synth_log(SynthConfig(n_users=100, n_events=10_000, seed=3, positive_fraction=0.9))
    positives = int((log.scores > 0).sum())
    assert 8_910 <= positives <= 9_090


def test_synth_respects_event_invariants():
    for time_model in ("uniform", "poisson"):
        for dist in ("flat", "skewed"):
            log = synth_log(
                SynthConfig(
                    n_users=12,
                    n_events=400,
                    seed=9,
                    score_distribution=dist,
                    time_model=time_model,
                )
            )
            assert len(log) == 400
            for rater, ratee, score, _ in rows(log):
                assert rater != ratee
                assert 1 <= abs(score) <= 10
            ts = log.timestamps
            assert (np.diff(ts) >= 0).all()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_users=1, n_events=5, seed=1),
        dict(n_users=5, n_events=-1, seed=1),
        dict(n_users=5, n_events=5, seed=1, positive_fraction=1.5),
        dict(n_users=5, n_events=5, seed=1, score_distribution="normal"),
        dict(n_users=5, n_events=5, seed=1, time_model="brownian"),
        dict(n_users=5, n_events=5, seed=1, rate=0.0, time_model="poisson"),
    ],
)
def test_synth_config_validation(kwargs):
    with pytest.raises(ValueError):
        SynthConfig(**kwargs)


def test_synth_roundtrips_through_ingest(tmp_path):
    log = synth_log(SynthConfig(n_users=10, n_events=50, seed=4))
    path = tmp_path / "round.csv"
    write_log_csv(log, path)
    back, report = ingest(path)
    assert rows(back) == rows(log)
    assert report.events_rejected == 0


# ---------------------------------------------------------------------------
# property checks


@given(
    st.lists(
        st.tuples(
            st.integers(0, 5),
            st.integers(0, 5),
            st.integers(-10, 10),
            st.integers(0, 10_000),
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_layer_split_partition_property(candidates):
    legal = [(a, b, s, t) for a, b, s, t in candidates if a != b and s != 0]
    if not legal:
        return
    log = EventLog(legal)
    plus, minus = split_layers(log)
    assert len(plus) + len(minus) == len(log)
    metrics = node_metrics(log)
    assert sum(m.k_in_plus for m in metrics.values()) == len(plus)
    assert sum(m.k_in_minus for m in metrics.values()) == len(minus)
    for m in metrics.values():
        assert m.rho == m.rho_plus - m.rho_minus
