import random
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_log
from wotnet import (
    CategoryLabel,
    EventLog,
    RatingEvent,
    TrajectorySelection,
    extended_jaccard,
    gini,
    gini_point,
    gini_series,
    node_metrics,
    plain_jaccard,
    snapshot_series,
    stability_step,
    top_k_lists,
    topk_stability_series,
    trajectories,
)
from wotnet.dynamics import daily_fold

DAY = 86_400


def _truncated_log(log: EventLog, cutoff: int) -> EventLog:
    return EventLog(
        [e for e in log if e.timestamp <= cutoff]
    )


# ---------------------------------------------------------------------------
# snapshot engine


def test_single_event_log_yields_one_snapshot():
    log = make_log([(1, 2, 5, 100)])
    snaps = list(snapshot_series(log))
    assert len(snaps) == 1
    snap = snaps[0]
    assert snap.day == date(1970, 1, 1)
    assert snap.metrics == node_metrics(log)


def test_snapshot_series_errors_on_empty_log():
    with pytest.raises(ValueError):
        next(snapshot_series(make_log([])))


def test_snapshot_days_are_contiguous():
    log = make_log([(1, 2, 5, 0), (2, 3, 5, 3 * DAY + 10)])
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


def test_snapshots_match_truncated_aggregates():
    rng = random.Random(23)
    rows = []
    t = 0
    for _ in range(50):
        t += rng.randint(1, DAY)
        a, b = rng.sample(range(1, 9), 2)
        rows.append((a, b, rng.choice([-10, -2, 1, 3, 10]), t))
    log = make_log(rows)
    for snap in snapshot_series(log):
        cutoff = (
            (snap.day - date(1970, 1, 1)).days + 1
        ) * DAY - 1
        expected = node_metrics(_truncated_log(log, cutoff))
        assert snap.metrics == expected


def test_snapshot_columns_grow_monotonically(small_log):
    prev = None
    for snap in snapshot_series(small_log):
        if prev is not None:
            for name in (
                "k_in_plus",
                "k_in_minus",
                "k_out_plus",
                "k_out_minus",
                "rho_plus",
                "rho_minus",
            ):
                assert (getattr(snap, name) >= getattr(prev, name)).all()
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
    log = make_log([(1, 3, 5, 0), (2, 4, 5, 10)])
    points = gini_series(snapshot_series(log))
    assert len(points) == 1
    assert points[0].gini_plus == pytest.approx(0.0)
    assert points[0].gini_minus is None


def test_gini_series_single_owner_bound():
    # n users share the positive side, one holds everything... the limit
    # case is approximated by giving one user all the mass
    log = make_log(
        [(1, 9, 10, 0), (2, 9, 10, 5), (3, 9, 10, 9), (4, 8, 1, 20), (5, 7, 1, 30)]
    )
    last = list(snapshot_series(log))[-1]
    point = gini_point(last)
    # holders: 9 -> 30, 8 -> 1, 7 -> 1; heavy concentration but not 1
    assert 0.5 < point.gini_plus < (3 - 1) / 3 + 1e-12


def test_gini_point_positive_only_flag():
    log = make_log([(1, 2, 5, 0), (3, 4, 5, 10)])
    last = list(snapshot_series(log))[-1]
    by_holders = gini_point(last)
    over_seen = gini_point(last, positive_only=False)
    # holders 2 and 4 are equal -> 0; over all four seen users the raters
    # hold nothing, concentrating the mass
    assert by_holders.gini_plus == pytest.approx(0.0)
    assert over_seen.gini_plus == pytest.approx(0.5)


def test_gini_point_none_before_any_qualifying_day():
    log = make_log([(1, 2, 5, 0)])
    only = list(snapshot_series(log))[0]
    assert gini_point(only) is None  # one positive holder, no negative side


def test_gini_series_skips_unmeasurable_days():
    log = make_log([(1, 2, 5, 0), (3, 4, 5, 2 * DAY)])
    points = gini_series(snapshot_series(log))
    assert [p.day for p in points] == [date(1970, 1, 3)]


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
    log = make_log(
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
    log = make_log([(1, 20, 5, 0), (2, 10, 5, 10), (3, 30, 5, 20)])
    last = list(snapshot_series(log))[-1]
    assert top_k_lists(last, k=3)["rho_plus"] == [10, 20, 30]


def test_stability_identical_snapshots_give_unity():
    # two days, all events on day one: day two repeats the state
    log = make_log([(1, 5, 9, 0), (2, 6, 4, 50), (3, 7, -8, DAY + 10)])
    points = topk_stability_series(snapshot_series(log), k=3)
    assert len(points) == 1
    assert points[0].day == date(1970, 1, 1)  # labeled by the earlier day
    assert points[0].j_plus == pytest.approx(1.0)
    assert points[0].truncated  # fewer than 3 quali users on both days


def test_stability_day_labels_cover_all_but_last(small_log):
    snaps = list(snapshot_series(small_log))
    points = topk_stability_series(iter(snaps), k=5)
    assert [p.day for p in points] == [s.day for s in snaps[:-1]]
    for p in points:
        for value in (p.j_plus, p.j_minus, p.j_global):
            if value is not None:
                assert 0.0 <= value <= 1.0


def test_stability_k_validation(small_log):
    with pytest.raises(ValueError):
        topk_stability_series(snapshot_series(small_log), k=0)


def test_stability_step_empty_sides_are_none():
    lists_a = {"rho_plus": [1], "rho_minus": [], "rho": [1]}
    lists_b = {"rho_plus": [1], "rho_minus": [], "rho": [1]}
    point = stability_step(date(1970, 1, 1), lists_a, lists_b, k=2)
    assert point.j_minus is None
    assert point.j_plus == pytest.approx(1.0)
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


@st.composite
def _multi_day_logs(draw):
    """Small logs over a few days, some before 1970, with tied timestamps,
    in one of four shapes: mixed signs, the rewarding or the punitive layer
    only, or a single pair of users."""
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
        events.append(RatingEvent(rater, ratee, draw(scores), timestamp))
    return EventLog(events)


@given(_multi_day_logs(), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_daily_fold_matches_separate_passes(log, k):
    fold = daily_fold(log, k)
    gini_rows, stability_rows = _dynamics_rows_by_loop(log, k)
    assert [(p.day, p.gini_plus, p.gini_minus) for p in fold.gini] == gini_rows
    assert [
        (p.day, p.j_plus, p.j_minus, p.j_global, sj["rho_plus"], sj["rho_minus"], sj["rho"], p.truncated)
        for p, sj in zip(fold.stability, fold.overlap)
    ] == stability_rows
    assert len(fold.overlap) == len(fold.stability)
    assert fold.entrants == {
        TrajectorySelection.TOP_ENTRANTS_POSITIVE: top_entrants(log, "rho_plus", k),
        TrajectorySelection.TOP_ENTRANTS_NEGATIVE: top_entrants(log, "rho_minus", k),
    }
    *_, last = snapshot_series(log)
    assert fold.last.day == last.day
    assert fold.last.metrics == node_metrics(log)


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_accumulates_incoming_scores():
    log = make_log([(1, 9, 1, 0), (2, 9, 5, 10)])
    trajs = trajectories(log, TrajectorySelection.BY_CATEGORY)
    by_user = {t.user: t for t in trajs}
    assert by_user[9].values == (1, 6)


def test_trajectory_negative_spiral():
    log = make_log([(1, 9, -10, 0), (2, 9, -10, 10), (3, 9, -10, 20)])
    trajs = trajectories(log, TrajectorySelection.TOP_ENTRANTS_NEGATIVE, k=3)
    assert [t.user for t in trajs] == [9]
    assert trajs[0].values == (-10, -20, -30)
    assert trajs[0].category is CategoryLabel.UNTRUSTED


def test_trajectory_final_value_matches_aggregate(small_log):
    metrics = node_metrics(small_log)
    for traj in trajectories(small_log, TrajectorySelection.BY_CATEGORY):
        assert traj.values[-1] == metrics[traj.user].rho
        incoming = metrics[traj.user].k_in_plus + metrics[traj.user].k_in_minus
        assert len(traj.values) == incoming
        # every incoming rating moves the reputation (scores are nonzero)
        steps = np.diff((0,) + traj.values)
        assert (steps != 0).all()
        assert all(1 <= abs(s) <= 10 for s in steps)


def test_trajectories_by_category_cover_all_rated_users(small_log):
    trajs = trajectories(small_log, TrajectorySelection.BY_CATEGORY)
    rated = {e.ratee for e in small_log}
    assert {t.user for t in trajs} == rated
    assert [t.user for t in trajs] == sorted(t.user for t in trajs)


def test_top_entrants_selection_subsets_by_category(small_log):
    all_users = {t.user for t in trajectories(small_log, TrajectorySelection.BY_CATEGORY)}
    pos = {t.user for t in trajectories(small_log, TrajectorySelection.TOP_ENTRANTS_POSITIVE)}
    neg = {t.user for t in trajectories(small_log, TrajectorySelection.TOP_ENTRANTS_NEGATIVE)}
    assert pos <= all_users
    assert neg <= all_users
    assert pos == top_entrants(small_log, "rho_plus", 10)


def test_top_entrants_key_validation(small_log):
    with pytest.raises(ValueError):
        top_entrants(small_log, "rho", 5)


def test_trajectories_empty_log():
    assert trajectories(make_log([]), TrajectorySelection.BY_CATEGORY) == []


def test_trajectory_categories_match_final_state(small_log):
    from wotnet import categorize

    labels = categorize(node_metrics(small_log))
    for traj in trajectories(small_log, TrajectorySelection.BY_CATEGORY):
        assert traj.category is labels[traj.user]
