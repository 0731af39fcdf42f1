import random
from datetime import date, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wotnet.dynamics as dynamics
from conftest import _fmt_by_isinstance_chain, rows
from daily_reference import gini_point, plain_jaccard, snapshot_series, stability_step, top_k_lists
from wotnet import (
    CategoryLabel,
    EventLog,
    NodeMetrics,
    TrajectorySelection,
    categorize,
    daily_fold,
    extended_jaccard,
    follow,
    gini,
    metric_columns,
    node_metrics,
    trajectories,
    write_log_csv,
)
from wotnet.cli import main

DAY = 86_400


def _truncated_log(log: EventLog, cutoff: int) -> EventLog:
    return EventLog(row for row in rows(log) if row[3] <= cutoff)


def _same_metrics(columns, metrics) -> bool:
    """Whether `MetricColumns` hold the counters of a `node_metrics` mapping."""
    return all(map(np.array_equal, columns, metric_columns(metrics)))


# ---------------------------------------------------------------------------
# snapshot engine


def test_single_event_log_yields_one_snapshot():
    log = EventLog([(1, 2, 5, 100)])
    snaps = list(snapshot_series(log))
    assert len(snaps) == 1
    snap = snaps[0]
    assert snap.day == date(1970, 1, 1)
    assert snap.metrics == node_metrics(log)


def test_empty_log_has_no_snapshots_and_an_empty_fold():
    log = EventLog([])
    assert list(snapshot_series(log)) == []
    fold = daily_fold(log)
    assert (_gini_rows_of(fold), _stability_rows_of(fold)) == ([], [])
    assert _same_metrics(fold.metrics, {})
    assert fold.entrants == {
        TrajectorySelection.TOP_ENTRANTS_POSITIVE: set(),
        TrajectorySelection.TOP_ENTRANTS_NEGATIVE: set(),
    }


def test_snapshot_days_are_contiguous():
    log = EventLog([(1, 2, 5, 0), (2, 3, 5, 3 * DAY + 10)])
    snaps = list(snapshot_series(log))
    assert [s.day for s in snaps] == [
        date(1970, 1, 1) + timedelta(days=i) for i in range(4)
    ]
    # the quiet middle days repeat the running state
    assert snaps[1].metrics == snaps[0].metrics
    assert snaps[2].metrics == snaps[0].metrics


def test_final_snapshot_matches_aggregate_metrics(small_log):
    last = None
    for last in snapshot_series(small_log):
        pass
    assert last.metrics == node_metrics(small_log)


def test_every_query_returns_node_metrics_records(small_log):
    # a NamedTuple equals the plain tuple of its values, so `==` alone would
    # not tell records from bare tuples
    snapshots = list(snapshot_series(small_log))
    for metrics in (
        node_metrics(small_log),
        node_metrics(small_log, int(np.median(small_log.timestamps))),
        snapshots[0].metrics,
        snapshots[-1].metrics,
    ):
        assert metrics and all(type(m) is NodeMetrics for m in metrics.values())
    # the fold hands on its last day's counters as columns
    fold_metrics = daily_fold(small_log).metrics
    assert fold_metrics.fields.dtype == np.int64
    assert _same_metrics(fold_metrics, node_metrics(small_log))


def test_snapshots_match_truncated_aggregates():
    rng = random.Random(23)
    events = []
    t = 0
    for _ in range(50):
        t += rng.randint(1, DAY)
        a, b = rng.sample(range(1, 9), 2)
        events.append((a, b, rng.choice([-10, -2, 1, 3, 10]), t))
    log = EventLog(events)
    for snap in snapshot_series(log):
        cutoff = (
            (snap.day - date(1970, 1, 1)).days + 1
        ) * DAY - 1
        expected = node_metrics(_truncated_log(log, cutoff))
        assert snap.metrics == expected


def test_snapshot_columns_grow_monotonically(small_log):
    prev = None
    for snap in snapshot_series(small_log):
        assert snap.state.shape == (6, len(snap.user_ids))
        if prev is not None:
            # every row: k_in_plus, k_in_minus, k_out_plus, k_out_minus,
            # rho_plus, rho_minus
            assert (snap.state >= prev.state).all()
            assert (snap.seen | prev.seen == snap.seen).all()
        prev = snap


# ---------------------------------------------------------------------------
# gini


def test_gini_equal_values_is_zero():
    assert gini([1, 1, 1, 1]) == pytest.approx(0.0)


def test_gini_single_holder():
    assert gini([0, 0, 0, 1]) == pytest.approx(0.75)


def test_gini_is_sort_invariant():
    assert gini([3, 1, 2]) == pytest.approx(gini([1, 2, 3]))


@pytest.mark.parametrize("bad", [[], [-1, 2], [0, 0]])
def test_gini_rejects_bad_samples(bad):
    with pytest.raises(ValueError):
        gini(bad)


@given(
    st.lists(st.integers(0, 1000), min_size=1, max_size=60).filter(
        lambda xs: sum(xs) > 0
    )
)
@settings(max_examples=200, deadline=None)
def test_gini_bounds_and_scale_invariance(values):
    g = gini(values)
    n = len(values)
    assert 0.0 <= g <= (n - 1) / n + 1e-12
    assert gini([v * 7 for v in values]) == pytest.approx(g)
    if g == pytest.approx(0.0, abs=1e-12):
        assert len(set(values)) == 1


def test_gini_series_equal_reputations():
    log = EventLog([(1, 3, 5, 0), (2, 4, 5, 10)])
    points = _gini_rows_of(daily_fold(log))
    assert len(points) == 1
    _, gini_plus, gini_minus = points[0]
    assert gini_plus == pytest.approx(0.0)
    assert gini_minus is None


def test_gini_series_single_owner_bound():
    # n users share the positive side, one holds everything... the limit
    # case is approximated by giving one user all the mass
    log = EventLog(
        [(1, 9, 10, 0), (2, 9, 10, 5), (3, 9, 10, 9), (4, 8, 1, 20), (5, 7, 1, 30)]
    )
    last = list(snapshot_series(log))[-1]
    point = gini_point(last)
    # holders: 9 -> 30, 8 -> 1, 7 -> 1; heavy concentration but not 1
    assert 0.5 < point.gini_plus < (3 - 1) / 3 + 1e-12


def test_gini_point_counts_holders_only():
    log = EventLog([(1, 2, 5, 0), (3, 4, 5, 10)])
    last = list(snapshot_series(log))[-1]
    # holders 2 and 4 are equal -> 0; the raters 1 and 3 hold nothing and
    # are left out
    assert gini_point(last).gini_plus == pytest.approx(0.0)


def test_gini_point_none_before_any_qualifying_day():
    log = EventLog([(1, 2, 5, 0)])
    only = list(snapshot_series(log))[0]
    assert gini_point(only) is None  # one positive holder, no negative side


def test_gini_series_skips_unmeasurable_days():
    log = EventLog([(1, 2, 5, 0), (3, 4, 5, 2 * DAY)])
    assert daily_fold(log).gini.day.tolist() == [date(1970, 1, 3)]


# ---------------------------------------------------------------------------
# ranked-list similarity


def _extended_jaccard_by_prefix_loop(a, b, k):
    """Oracle: build every depth's prefix sets from scratch."""
    total = 0.0
    for d in range(1, k + 1):
        sa, sb = set(a[:d]), set(b[:d])
        union = sa | sb
        total += len(sa & sb) / len(union) if union else 1.0
    return total / k


def test_extended_jaccard_identical_lists():
    assert extended_jaccard([4, 2, 9], [4, 2, 9]) == pytest.approx(1.0)


def test_extended_jaccard_disjoint_lists():
    assert extended_jaccard([1, 2], [3, 4]) == pytest.approx(0.0)


def test_extended_jaccard_swapped_head():
    # depth 1: 0/2, depth 2: 2/2, depth 3: 3/3
    assert extended_jaccard(["a", "b", "c"], ["b", "a", "c"]) == pytest.approx(2 / 3)


def test_extended_jaccard_prefix_weighting_is_order_sensitive():
    # same sets, different order: strictly less similar than identical
    assert extended_jaccard([1, 2, 3], [3, 2, 1]) < 1.0
    assert plain_jaccard([1, 2, 3], [3, 2, 1]) == 1.0


def test_extended_jaccard_short_lists_pad_with_empty_terms():
    # both-empty prefixes at the missing depths count as fully similar
    assert extended_jaccard([1], [1], k=3) == pytest.approx(1.0)
    assert extended_jaccard([], [], k=2) == pytest.approx(1.0)
    # one-sided shortfall keeps hurting at deeper depths
    assert extended_jaccard([1, 2], [1], k=2) == pytest.approx(0.75)


def test_extended_jaccard_validation():
    with pytest.raises(ValueError):
        extended_jaccard([1, 1], [2, 3])
    with pytest.raises(ValueError):
        extended_jaccard([1], [2], k=0)
    with pytest.raises(ValueError):
        extended_jaccard([1, 2, 3], [1], k=2)


def test_extended_jaccard_matches_prefix_loop_oracle():
    rng = random.Random(17)
    for _ in range(200):
        k = rng.randint(1, 8)
        pool = list(range(12))
        a = rng.sample(pool, rng.randint(0, k))
        b = rng.sample(pool, rng.randint(0, k))
        expected = _extended_jaccard_by_prefix_loop(a, b, k)
        assert extended_jaccard(a, b, k) == pytest.approx(expected, abs=1e-12)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_extended_jaccard_symmetry_and_bounds(data):
    k = data.draw(st.integers(1, 8))
    pool = list(range(15))
    a = data.draw(st.permutations(pool)).copy()[: data.draw(st.integers(0, k))]
    b = data.draw(st.permutations(pool)).copy()[: data.draw(st.integers(0, k))]
    j = extended_jaccard(a, b, k)
    assert 0.0 <= j <= 1.0
    assert extended_jaccard(b, a, k) == pytest.approx(j)
    assert extended_jaccard(a, a, k) == pytest.approx(1.0)


def test_plain_jaccard_cases():
    assert plain_jaccard([], []) == 1.0
    assert plain_jaccard([1, 2], [2, 3]) == pytest.approx(1 / 3)
    assert plain_jaccard([1], [2]) == 0.0


# ---------------------------------------------------------------------------
# top-k lists and stability


def test_top_k_lists_rank_and_eligibility():
    log = EventLog(
        [
            (1, 5, 10, 0),
            (2, 5, 10, 10),  # user 5: rho+ 20
            (1, 6, 10, 20),  # user 6: rho+ 10
            (2, 7, -10, 30),  # user 7: rho- 10, rho -10
        ]
    )
    last = list(snapshot_series(log))[-1]
    lists = top_k_lists(last, k=2)
    assert lists["rho_plus"] == [5, 6]
    assert lists["rho_minus"] == [7]
    # global list covers raters too (rho 0), ties break by ascending id
    assert lists["rho"] == [5, 6]


def test_top_k_ties_break_by_ascending_id():
    log = EventLog([(1, 20, 5, 0), (2, 10, 5, 10), (3, 30, 5, 20)])
    last = list(snapshot_series(log))[-1]
    assert top_k_lists(last, k=3)["rho_plus"] == [10, 20, 30]


def test_stability_identical_snapshots_give_unity():
    # two days, all events on day one: day two repeats the state
    log = EventLog([(1, 5, 9, 0), (2, 6, 4, 50), (3, 7, -8, DAY + 10)])
    points = daily_fold(log, k=3).stability
    assert points.day.tolist() == [date(1970, 1, 1)]  # labeled by the earlier day
    assert points.j_plus.tolist() == [pytest.approx(1.0)]
    assert points.truncated.tolist() == [True]  # fewer than 3 quali users on both days


def test_stability_day_labels_cover_all_but_last(small_log):
    snaps = list(snapshot_series(small_log))
    points = daily_fold(small_log, k=5).stability
    assert points.day.tolist() == [s.day for s in snaps[:-1]]
    for row in _stability_rows_of(daily_fold(small_log, k=5)):
        for value in row[1:7]:
            if value is not None:
                assert 0.0 <= value <= 1.0


def test_stability_k_validation(small_log):
    with pytest.raises(ValueError):
        daily_fold(small_log, k=0)


def test_stability_step_empty_sides_are_none():
    lists_a = {"rho_plus": [1], "rho_minus": [], "rho": [1]}
    lists_b = {"rho_plus": [1], "rho_minus": [], "rho": [1]}
    point = stability_step(date(1970, 1, 1), lists_a, lists_b, k=2)
    assert point.j_minus is None and point.sj_minus is None
    assert point.j_plus == pytest.approx(1.0)
    assert point.sj_plus == 1.0
    assert point.truncated


def test_stability_full_lists_not_truncated():
    lists = {"rho_plus": [1, 2], "rho_minus": [3, 4], "rho": [1, 2]}
    point = stability_step(date(1970, 1, 2), lists, lists, k=2)
    assert not point.truncated
    assert point.j_global == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# one fold against the earlier multi-pass code


def top_entrants(log: EventLog, key: str, k: int = 10) -> set[int]:
    """Users in the day-level top-k of `key` on at least one day, from a
    pass of their own over the snapshots."""
    if key not in ("rho_plus", "rho_minus"):
        raise ValueError("key must be 'rho_plus' or 'rho_minus'")
    entrants: set[int] = set()
    for snap in snapshot_series(log):
        entrants.update(top_k_lists(snap, k)[key])
    return entrants


def _dynamics_rows_by_loop(log: EventLog, k: int):
    """The Gini and top-k stability CSV rows as `wotnet dynamics` built
    them in a pass of its own."""
    gini_rows = []
    stability_rows = []
    prev_day = prev_lists = None
    for snap in snapshot_series(log):
        point = gini_point(snap)
        if point is not None:
            gini_rows.append((point.day, point.gini_plus, point.gini_minus))
        lists = top_k_lists(snap, k)
        if prev_lists is not None:
            p = stability_step(prev_day, prev_lists, lists, k)
            sj = {
                key: None
                if not prev_lists[key] and not lists[key]
                else plain_jaccard(prev_lists[key], lists[key])
                for key in ("rho_plus", "rho_minus", "rho")
            }
            stability_rows.append(
                (p.day, p.j_plus, p.j_minus, p.j_global, sj["rho_plus"], sj["rho_minus"], sj["rho"], p.truncated)
            )
        prev_day, prev_lists = snap.day, lists
    return gini_rows, stability_rows


def _unmasked(values, measured):
    return [value if ok else None for value, ok in zip(values.tolist(), measured.tolist())]


def _gini_rows_of(fold):
    """The fold's Gini series as rows, None where a side has no value."""
    gini = fold.gini
    sides = map(_unmasked, (gini.gini_plus, gini.gini_minus), gini.measured)
    return list(zip(gini.day.tolist(), *sides))


def _stability_rows_of(fold):
    """The fold's stability series as rows, None where a side has no value."""
    stability = fold.stability
    sides = map(_unmasked, stability[1:7], [*stability.measured] * 2)
    return list(zip(stability.day.tolist(), *sides, stability.truncated.tolist()))


@st.composite
def _multi_day_logs(draw):
    """Small logs over a few days, some before 1970, with tied timestamps
    on a grid of thirds of a day (so some fall on midnight), in one of four
    shapes: mixed signs, the rewarding or the punitive layer only, or a
    single pair of users."""
    shape = draw(st.sampled_from(["mixed", "rewarding", "punitive", "pair"]))
    pool = [3, 17] if shape == "pair" else [-5, 0, 3, 17, 2**40, 8, 9]
    scores = {
        "rewarding": st.integers(1, 10),
        "punitive": st.integers(-10, -1),
    }.get(shape, st.integers(-10, 10).filter(bool))
    events = []
    for _ in range(draw(st.integers(1, 30))):
        rater = draw(st.sampled_from(pool))
        ratee = draw(st.sampled_from([u for u in pool if u != rater]))
        timestamp = DAY // 3 * draw(st.integers(-7, 12))
        events.append((rater, ratee, draw(scores), timestamp))
    return EventLog(events)


def _assert_fold_matches_separate_passes(log: EventLog, k: int) -> None:
    fold = daily_fold(log, k)
    gini_rows, stability_rows = _dynamics_rows_by_loop(log, k)
    assert _gini_rows_of(fold) == gini_rows
    assert _stability_rows_of(fold) == stability_rows
    assert fold.entrants == {
        TrajectorySelection.TOP_ENTRANTS_POSITIVE: top_entrants(log, "rho_plus", k),
        TrajectorySelection.TOP_ENTRANTS_NEGATIVE: top_entrants(log, "rho_minus", k),
    }
    assert _same_metrics(fold.metrics, node_metrics(log))


def _fold_examples(test):
    """Logs that the fold's packed keys and day blocks must get right."""
    cases = [
        # -5, 17 and 2**40 tie on day one; 3 ties the k-th value on day two
        (EventLog([(9, -5, 5, 0), (9, 17, 5, 0), (9, 2**40, 5, 0), (0, 3, 5, DAY)]), 2),
        # the global leader 17 falls below 9 and then below the raters at 0
        (EventLog([(3, 17, 10, -DAY), (8, 9, 4, -DAY), (3, 17, -10, 0), (8, 17, -10, DAY)]), 1),
        # three quiet days on both sides of 1970, more ranks than users
        (EventLog([(3, 17, 4, -2 * DAY), (17, 3, -2, -1), (8, 9, 1, 2 * DAY)]), 12),
    ]
    for log, k in reversed(cases):
        test = example(log, k)(test)
    return test


@_fold_examples
@given(_multi_day_logs(), st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_daily_fold_matches_separate_passes(log, k):
    _assert_fold_matches_separate_passes(log, k)


@pytest.mark.parametrize("cells", [1, 7])
@_fold_examples
@given(log=_multi_day_logs(), k=st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_daily_fold_matches_separate_passes_in_small_blocks(cells, log, k):
    # a budget of 1 cell folds one day per block; 7 cells fold one or a
    # few days, so the reputations and lists carry between blocks
    with mock.patch.object(dynamics, "_BLOCK_CELLS", cells):
        _assert_fold_matches_separate_passes(log, k)


@st.composite
def _sparse_logs(draw):
    """Logs of a pool of 40 users with up to three events a day over a few
    days, the first day never quiet: most users keep their values through a
    block of days, so the fold ranks its candidate columns, not every user."""
    pool = list(range(-3, 37))
    events = []
    for day in range(draw(st.integers(1, 15))):
        for _ in range(draw(st.integers(0 if day else 1, 3))):
            rater, ratee = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True))
            score = draw(st.integers(-10, 10).filter(bool))
            events.append((rater, ratee, score, day * DAY + draw(st.integers(0, DAY - 1))))
    return EventLog(events)


def _candidate_examples(test):
    """Logs on which the top-k of a block must come from its candidates."""
    cases = [
        # 11, never rated again, holds the second place while others gain
        (EventLog([(1, 10, 10, 0), (1, 11, 5, 0), (2, 12, 1, DAY), (3, 13, 1, 2 * DAY), (4, 14, 2, 3 * DAY)]), 2),
        # the global leader 10 falls below the unchanged 11 and 12 and the raters
        (EventLog([(1, 10, 10, 0), (2, 11, 5, 0), (3, 12, 4, 0), (4, 10, -10, DAY), (5, 10, -10, DAY)]), 2),
        # 3, first seen as a rater, enters the global list at rho = 0
        (EventLog([(1, 10, -5, 0), (2, 11, -3, 0), (3, 10, -1, DAY)]), 3),
    ]
    for log, k in reversed(cases):
        test = example(log, k)(test)
    return test


@pytest.mark.parametrize("cells", [1, 7, dynamics._BLOCK_CELLS])
@_candidate_examples
@given(log=_sparse_logs(), k=st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_daily_fold_over_candidate_columns_matches_separate_passes(cells, log, k):
    # with 1 or 7 cells each block is a day or a few, and few of the 40
    # users change in it; the default budget folds a small log in one block
    with mock.patch.object(dynamics, "_BLOCK_CELLS", cells):
        _assert_fold_matches_separate_passes(log, k)


def test_dynamics_with_k_above_the_user_count_gives_the_oracle_rows(small_log, tmp_path):
    k = len(small_log.users) + 5
    write_log_csv(small_log, tmp_path / "log.csv")
    out = tmp_path / "out"
    argv = ["dynamics", "--input", str(tmp_path / "log.csv"), "--out", str(out), "--topk", str(k)]
    assert main(argv) == 0
    for name, rows in zip(("gini_series.csv", "topk_stability.csv"), _dynamics_rows_by_loop(small_log, k)):
        lines = (out / name).read_text().splitlines()[1:]
        assert lines == [",".join(map(_fmt_by_isinstance_chain, row)) for row in rows]


def _snapshots_by_event_loop(log: EventLog):
    """(day, metrics, seen) of every day from the per-event loop that
    `snapshot_series` ran before it folded whole days at once."""
    user_ids, (rater_idx, ratee_idx) = log.user_codes()
    names = ("k_in_plus", "k_in_minus", "k_out_plus", "k_out_minus", "rho_plus", "rho_minus")
    cols = {name: np.zeros(len(user_ids), dtype=np.int64) for name in names}
    seen = np.zeros(len(user_ids), dtype=bool)
    days = log.timestamps // DAY
    out = []
    pos = 0
    for day_no in range(int(days[0]), int(days[-1]) + 1) if len(log) else ():
        while pos < len(log) and days[pos] == day_no:
            r, e, s = rater_idx[pos], ratee_idx[pos], int(log.scores[pos])
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
        idx = np.flatnonzero(seen)
        metrics = {
            int(user_ids[i]): NodeMetrics(*(int(cols[name][i]) for name in names)) for i in idx
        }
        out.append((date(1970, 1, 1) + timedelta(days=day_no), metrics, seen.copy()))
    return out


@given(_multi_day_logs())
@example(EventLog([]))
# events on midnight boundaries on both sides of 1970 and two quiet days
@example(
    EventLog(
        [
            (3, 17, 4, -DAY),
            (17, 3, -2, -1),
            (3, 17, 1, 0),
            (17, 8, 7, 0),
            (8, 3, -9, 3 * DAY),
        ]
    )
)
@settings(max_examples=150, deadline=None)
def test_snapshot_series_matches_event_loop(log):
    expected = _snapshots_by_event_loop(log)
    snaps = list(snapshot_series(log))
    assert [snap.day for snap in snaps] == [day for day, _, _ in expected]
    for snap, (_, metrics, seen) in zip(snaps, expected):
        assert snap.metrics == metrics
        assert snap.seen.tolist() == seen.tolist()


# ---------------------------------------------------------------------------
# trajectories


def _records(trajs):
    """(user, reputation after each rating, label) of each followed user."""
    assert len(trajs.users) == len(trajs.categories) == len(trajs.counts)
    assert trajs.counts.sum() == len(trajs.rho)
    runs = np.split(trajs.rho, np.cumsum(trajs.counts)[:-1])
    return [(u, tuple(run.tolist()), c) for u, run, c in zip(trajs.users.tolist(), runs, trajs.categories)]


def test_trajectory_accumulates_incoming_scores():
    log = EventLog([(1, 9, 1, 0), (2, 9, 5, 10)])
    trajs = _records(trajectories(log, TrajectorySelection.BY_CATEGORY))
    by_user = {user: values for user, values, _ in trajs}
    assert by_user[9] == (1, 6)


def test_trajectory_negative_spiral():
    log = EventLog([(1, 9, -10, 0), (2, 9, -10, 10), (3, 9, -10, 20)])
    trajs = _records(trajectories(log, TrajectorySelection.TOP_ENTRANTS_NEGATIVE, k=3))
    assert trajs == [(9, (-10, -20, -30), CategoryLabel.UNTRUSTED)]
    assert trajs[0][2] is CategoryLabel.UNTRUSTED


def test_trajectory_final_value_matches_aggregate(small_log):
    metrics = node_metrics(small_log)
    for user, values, _ in _records(trajectories(small_log, TrajectorySelection.BY_CATEGORY)):
        assert values[-1] == metrics[user].rho
        incoming = metrics[user].k_in_plus + metrics[user].k_in_minus
        assert len(values) == incoming
        # every incoming rating moves the reputation (scores are nonzero)
        steps = np.diff((0,) + values)
        assert (steps != 0).all()
        assert all(1 <= abs(s) <= 10 for s in steps)


def test_trajectories_by_category_cover_all_rated_users(small_log):
    users = trajectories(small_log, TrajectorySelection.BY_CATEGORY).users.tolist()
    rated = set(small_log.ratees.tolist())
    assert set(users) == rated
    assert users == sorted(users)


def _follow_by_event_loop(log, users, labels):
    """`follow` as a per-event loop over running per-ratee sums."""
    values: dict[int, list[int]] = {}
    running: dict[int, int] = {}
    for ratee, score in zip(log.ratees.tolist(), log.scores.tolist()):
        new = running.get(ratee, 0) + score
        running[ratee] = new
        values.setdefault(ratee, []).append(new)
    chosen = values if users is None else (u for u in users if u in values)
    return [(u, tuple(values[u]), labels[u]) for u in sorted(chosen)]


@given(
    _multi_day_logs(),
    # rated users, raters never rated, and ids absent from every log
    st.sets(st.sampled_from([-5, 0, 3, 17, 2**40, 8, 9, -6, 1, 2**41])),
)
@settings(max_examples=150, deadline=None)
def test_follow_matches_event_loop(log, subset):
    labels = categorize(node_metrics(log))
    for users in (None, set(), subset):
        assert _records(follow(log, users, labels)) == _follow_by_event_loop(log, users, labels)


def test_follow_gives_repeated_ids_the_result_of_distinct_ids(small_log):
    log = EventLog([(1, 2, 5, 0), (1, 3, -2, 10), (4, 2, 1, 20), (2, 3, 4, 30)])
    labels = categorize(node_metrics(log))
    assert _records(follow(log, [2, 2, 3], labels)) == _records(follow(log, [2, 3], labels))
    assert _records(follow(log, [3, 2, 3, 2], labels)) == [(2, (5, 6), labels[2]), (3, (-2, 2), labels[3])]
    labels = categorize(node_metrics(small_log))
    rated = sorted(set(small_log.ratees.tolist()))[:6]
    repeated = [*rated, *rated[::2], rated[-1], -1]  # and an id absent from the log
    assert _records(follow(small_log, repeated, labels)) == _records(follow(small_log, set(rated), labels))


def test_top_entrants_selection_subsets_by_category(small_log):
    all_users = set(trajectories(small_log, TrajectorySelection.BY_CATEGORY).users.tolist())
    pos = set(trajectories(small_log, TrajectorySelection.TOP_ENTRANTS_POSITIVE).users.tolist())
    neg = set(trajectories(small_log, TrajectorySelection.TOP_ENTRANTS_NEGATIVE).users.tolist())
    assert pos <= all_users
    assert neg <= all_users
    assert pos == top_entrants(small_log, "rho_plus", 10)


def test_top_entrants_key_validation(small_log):
    with pytest.raises(ValueError):
        top_entrants(small_log, "rho", 5)


def test_trajectories_empty_log():
    assert _records(trajectories(EventLog([]), TrajectorySelection.BY_CATEGORY)) == []


def test_trajectory_categories_match_final_state(small_log):
    labels = categorize(node_metrics(small_log))
    for user, _, category in _records(trajectories(small_log, TrajectorySelection.BY_CATEGORY)):
        assert category is labels[user]
