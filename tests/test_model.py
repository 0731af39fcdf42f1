import gzip
import io
import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rows
from wotnet import model
from wotnet import (
    EventLog,
    IngestError,
    NodeMetrics,
    SynthConfig,
    gettrust,
    ingest,
    latest_ratings,
    node_metrics,
    split_layers,
    synth_log,
    write_log_csv,
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
    counters: dict[int, dict[str, int]] = {}

    def bucket(user):
        return counters.setdefault(
            user, dict(kip=0, kim=0, kop=0, kom=0, rp=0, rm=0)
        )

    for rater, ratee, score, _ in events:
        r, t = bucket(rater), bucket(ratee)
        if score > 0:
            r["kop"] += 1
            t["kip"] += 1
            t["rp"] += score
        else:
            r["kom"] += 1
            t["kim"] += 1
            t["rm"] += -score
    return {
        u: NodeMetrics(c["kip"], c["kim"], c["kop"], c["kom"], c["rp"], c["rm"])
        for u, c in counters.items()
    }


def test_metrics_match_naive_accumulation_oracle():
    rng = random.Random(11)
    events = []
    t = 0
    for _ in range(20):
        a, b = rng.sample(range(6), 2)
        s = rng.choice([s for s in range(-10, 11) if s != 0])
        t += rng.randint(1, 50)
        events.append((a, b, s, t))
    log = EventLog(events)
    assert node_metrics(log) == _accumulate_naively(rows(log))


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


def _trust_by_path_enumeration(log, viewer, target, cutoff=None):
    """Independent oracle: direct rating plus every 2-hop path, from the
    latest-rating map, written as an explicit loop over intermediaries."""
    last = latest_ratings(log, cutoff)
    users = {u for pair in last for u in pair}
    total = last.get((viewer, target), 0)
    for j in users:
        if j in (viewer, target):
            continue
        first = last.get((viewer, j), 0)
        second = last.get((j, target), 0)
        if first > 0 and second != 0:
            total += (1 if second > 0 else -1) * min(first, abs(second))
    return total


def test_trust_matches_path_enumeration_on_random_logs():
    rng = random.Random(99)
    for trial in range(25):
        events = []
        t = 0
        for _ in range(rng.randint(5, 40)):
            a, b = rng.sample(range(7), 2)
            s = rng.choice([s for s in range(-10, 11) if s != 0])
            t += rng.randint(1, 9)
            events.append((a, b, s, t))
        log = EventLog(events)
        users = sorted(log.users)
        for viewer in users:
            for target in users:
                if viewer == target:
                    continue
                assert gettrust(log, viewer, target) == _trust_by_path_enumeration(
                    log, viewer, target
                ), (trial, viewer, target)


def test_trust_never_rises_when_contributing_edge_removed():
    rng = random.Random(5)
    for _ in range(20):
        events = []
        t = 0
        for _ in range(rng.randint(6, 30)):
            a, b = rng.sample(range(6), 2)
            s = rng.choice([s for s in range(1, 11)])  # all-positive world
            t += rng.randint(1, 9)
            events.append((a, b, s, t))
        log = EventLog(events)
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
# columnar store against the event-object implementation it replaced


class _Event(NamedTuple):
    rater: int
    ratee: int
    score: int
    timestamp: int


class _ObjectLog:
    """The event-object log used before the columnar store: a sorted tuple
    of events, with its users and dense index built from that tuple."""

    def __init__(self, events):
        self.events = tuple(sorted(map(_Event._make, events), key=lambda e: e.timestamp))
        self.users = frozenset(e.rater for e in self.events) | frozenset(
            e.ratee for e in self.events
        )

    def dense_index(self):
        return {u: i for i, u in enumerate(sorted(self.users))}

    def truncated(self, cutoff):
        if cutoff is None:
            return self
        timestamps = np.array([e.timestamp for e in self.events], dtype=np.int64)
        hi = int(np.searchsorted(timestamps, cutoff, side="right"))
        return _ObjectLog(self.events[:hi])


def _node_metrics_by_dict_lookup(log, cutoff=None):
    sub = log.truncated(cutoff)
    index = log.dense_index()
    names = ("kin_p", "kin_m", "kout_p", "kout_m", "rho_p", "rho_m")
    cols = {name: np.zeros(len(index), dtype=np.int64) for name in names}
    rater_idx = np.array([index[e.rater] for e in sub.events], dtype=np.int64)
    ratee_idx = np.array([index[e.ratee] for e in sub.events], dtype=np.int64)
    scores = np.array([e.score for e in sub.events], dtype=np.int64)
    pos = scores > 0
    np.add.at(cols["kin_p"], ratee_idx[pos], 1)
    np.add.at(cols["kin_m"], ratee_idx[~pos], 1)
    np.add.at(cols["kout_p"], rater_idx[pos], 1)
    np.add.at(cols["kout_m"], rater_idx[~pos], 1)
    np.add.at(cols["rho_p"], ratee_idx[pos], scores[pos])
    np.add.at(cols["rho_m"], ratee_idx[~pos], -scores[~pos])
    return {
        user: NodeMetrics(*(int(cols[name][index[user]]) for name in names))
        for user in sub.users
    }


def _latest_ratings_by_loop(log, cutoff=None):
    last = {}
    for e in log.truncated(cutoff).events:
        last[(e.rater, e.ratee)] = e.score
    return last


def _trust_from_all_pairs(log, viewer, target, cutoff=None):
    last = _latest_ratings_by_loop(log, cutoff)
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
def test_columnar_queries_match_event_object_oracles(events):
    log, oracle = EventLog(events), _ObjectLog(events)
    times = sorted({e.timestamp for e in oracle.events})
    # before the first event, on every (possibly tied) timestamp, between
    # events, and the whole log
    cutoffs = [times[0] - 1, *times, *(t + 5 for t in times), None]
    for cutoff in cutoffs:
        sub, expected = log.truncated(cutoff), oracle.truncated(cutoff)
        assert len(sub) == len(expected.events)
        assert rows(sub) == list(expected.events)
        assert sub.users == expected.users
        ids, codes = sub.user_codes()
        assert ids.tolist() == sorted(expected.users)
        assert ids[codes[0]].tolist() == [e.rater for e in expected.events]
        assert ids[codes[1]].tolist() == [e.ratee for e in expected.events]
        assert node_metrics(log, cutoff) == _node_metrics_by_dict_lookup(oracle, cutoff)
        latest = latest_ratings(log, cutoff)
        assert list(latest.items()) == list(_latest_ratings_by_loop(oracle, cutoff).items())
        for viewer in oracle.users:
            for target in oracle.users - {viewer}:
                assert gettrust(log, viewer, target, cutoff) == _trust_from_all_pairs(
                    oracle, viewer, target, cutoff
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
