import random
from datetime import date, timedelta

import numpy as np
import pytest
from scipy import stats as sps

from conftest import make_log
from wotnet import (
    Layer,
    EventLog,
    SynthConfig,
    annotations_for,
    burstiness,
    circadian_profile,
    daily_series,
    day_of,
    interevent_distribution,
    interevent_times,
    load_annotations,
    synth_log,
    weekly_profile,
    yearly_burstiness,
)
from wotnet.temporal import AnnotationWindow

DAY = 86_400
YEAR_2012 = 1_325_376_000  # 2012-01-01T00:00:00Z


def activity_calendar(log: EventLog) -> dict[Layer, list[date]]:
    """Sorted list of UTC days with at least one event, per layer."""
    days = log.timestamps // DAY
    out: dict[Layer, list[date]] = {}
    for layer, mask in (
        (Layer.REWARDING, log.scores > 0),
        (Layer.PUNITIVE, log.scores < 0),
    ):
        active = np.unique(days[mask])
        out[layer] = [date(1970, 1, 1) + timedelta(days=int(d)) for d in active]
    return out


def interevent_times_by_user(log: EventLog, layer: Layer) -> dict[int, np.ndarray]:
    """Per-user interevent gaps instead of the pooled sample.

    Only users with at least two incoming events on the layer appear.
    """
    mask = log.scores > 0 if layer is Layer.REWARDING else log.scores < 0
    ratees = log.ratees[mask]
    ts = log.timestamps[mask]
    out: dict[int, list[int]] = {}
    last: dict[int, int] = {}
    for user, t in zip(ratees.tolist(), ts.tolist()):
        if user in last:
            out.setdefault(user, []).append(t - last[user])
        last[user] = t
    return {u: np.array(gaps, dtype=np.int64) for u, gaps in out.items()}


# ---------------------------------------------------------------------------
# daily series and calendars


def test_daily_series_single_day_counts():
    log = make_log(
        [(1, 2, 5, 100), (3, 2, 1, 200), (2, 1, -10, 300)]
    )
    series = daily_series(log)
    assert len(series) == 1
    assert series[0].day == date(1970, 1, 1)
    assert (series[0].count_plus, series[0].count_minus) == (2, 1)


def test_daily_series_shift_moves_events_across_midnight():
    # 23:30 UTC lands on the previous calendar day at shift -6
    t = 3 * DAY + 23 * 3600 + 1800
    log = make_log([(1, 2, 5, t)])
    assert daily_series(log)[0].day == date(1970, 1, 4)
    assert daily_series(log, tz_shift_hours=-6)[0].day == date(1970, 1, 4)
    # and 03:30 UTC moves back a day under the same shift
    early = make_log([(1, 2, 5, 3 * DAY + 3 * 3600 + 1800)])
    assert daily_series(early, tz_shift_hours=-6)[0].day == date(1970, 1, 3)


def test_day_of_matches_series_bucketing():
    t = 5 * DAY + 7 * 3600
    assert day_of(t) == date(1970, 1, 6)
    assert day_of(t, tz_shift_hours=-12) == date(1970, 1, 5)
    with pytest.raises(ValueError):
        day_of(t, tz_shift_hours=15)


def test_daily_series_zero_fills_gaps_and_reconciles(small_log):
    series = daily_series(small_log)
    days = [row.day for row in series]
    assert days == sorted(days)
    assert (days[-1] - days[0]).days + 1 == len(series)
    assert sum(r.count_plus for r in series) == int((small_log.scores > 0).sum())
    assert sum(r.count_minus for r in series) == int((small_log.scores < 0).sum())


def test_daily_series_empty_log():
    assert daily_series(make_log([])) == []


def test_activity_calendar_skips_quiet_days():
    log = make_log(
        [(1, 2, 5, 0), (2, 3, 4, 2 * DAY + 50), (3, 1, -1, 2 * DAY + 90)]
    )
    calendar = activity_calendar(log)
    assert calendar[Layer.REWARDING] == [date(1970, 1, 1), date(1970, 1, 3)]
    assert calendar[Layer.PUNITIVE] == [date(1970, 1, 3)]


# ---------------------------------------------------------------------------
# interevent times


def test_interevent_times_single_receiver():
    log = make_log(
        [(1, 9, 5, 0), (2, 9, 5, 10), (3, 9, 5, 25)]
    )
    assert interevent_times(log, Layer.REWARDING).tolist() == [10, 15]
    assert interevent_times(log, Layer.PUNITIVE).tolist() == []


def test_interevent_times_do_not_mix_receivers():
    log = make_log(
        [(1, 8, 5, 0), (1, 9, 5, 5), (2, 8, 5, 30), (2, 9, 5, 100)]
    )
    assert sorted(interevent_times(log, Layer.REWARDING).tolist()) == [30, 95]


def _gaps_by_scanning(rows, want_positive):
    """Oracle: per-user gap computation by direct scanning of event tuples."""
    seen = {}
    gaps = []
    for rater, ratee, score, ts in sorted(rows, key=lambda r: r[3]):
        if (score > 0) != want_positive:
            continue
        if ratee in seen:
            gaps.append(ts - seen[ratee])
        seen[ratee] = ts
    return sorted(gaps)


def test_interevent_times_match_scanning_oracle():
    rng = random.Random(11)
    for _ in range(25):
        rows = []
        t = 0
        for _ in range(60):
            t += rng.randint(1, 500)
            a = rng.randint(1, 6)
            b = rng.randint(1, 6)
            if a == b:
                continue
            rows.append((a, b, rng.choice([-3, -1, 2, 5]), t))
        log = make_log(rows)
        for layer, positive in ((Layer.REWARDING, True), (Layer.PUNITIVE, False)):
            assert sorted(interevent_times(log, layer).tolist()) == _gaps_by_scanning(
                rows, positive
            )


def test_interevent_times_by_user_consistent_with_pooled(small_log):
    for layer in Layer:
        per_user = interevent_times_by_user(small_log, layer)
        pooled = interevent_times(small_log, layer)
        merged = sorted(
            g for gaps in per_user.values() for g in gaps.tolist()
        )
        assert merged == sorted(pooled.tolist())
        for gaps in per_user.values():
            assert len(gaps) >= 1
            assert (gaps >= 0).all()


def test_interevent_distribution_requires_samples():
    log = make_log([(1, 2, 5, 0), (3, 4, 5, 10)])
    with pytest.raises(ValueError):
        interevent_distribution(log, Layer.REWARDING)


def test_poisson_synth_gaps_are_exponential():
    config = SynthConfig(
        n_users=20,
        n_events=12_000,
        positive_fraction=1.0,
        time_model="poisson",
        rate=0.02,
        seed=99,
    )
    log = synth_log(config)
    gaps = interevent_times(log, Layer.REWARDING).astype(float)
    assert gaps.size >= 10_000
    # pooled per-receiver gaps of a homogeneous Poisson stream are
    # exponential with the per-receiver arrival rate
    result = sps.kstest(gaps, "expon", args=(0.0, gaps.mean()))
    assert result.statistic <= 0.05


# ---------------------------------------------------------------------------
# burstiness


def test_burstiness_regular_gaps():
    assert burstiness([60, 60, 60, 60]) == pytest.approx(-1.0)


def test_burstiness_mixed_gaps_sign():
    # a lone huge gap among tiny ones drives the coefficient positive, and
    # more strongly so the more regular gaps surround it
    assert burstiness([1, 1, 1, 1000]) > 0
    assert burstiness([1] * 30 + [10_000]) > 0.5


def test_burstiness_is_scale_free():
    gaps = [3, 8, 1, 40, 2]
    assert burstiness(gaps) == pytest.approx(burstiness([g * 977 for g in gaps]))


def test_burstiness_exponential_gaps_near_zero():
    rng = np.random.default_rng(5)
    sample = rng.exponential(scale=1800.0, size=100_000)
    assert abs(burstiness(sample)) <= 0.02


@pytest.mark.parametrize("bad", [[], [5], [0, 0, 0]])
def test_burstiness_rejects_degenerate_samples(bad):
    with pytest.raises(ValueError):
        burstiness(bad)


def test_yearly_burstiness_single_year():
    log = make_log(
        [
            (1, 9, 5, YEAR_2012),
            (2, 9, 5, YEAR_2012 + 100),
            (3, 9, 5, YEAR_2012 + 5000),
            (1, 9, -5, YEAR_2012 + 200),
            (2, 9, -5, YEAR_2012 + 300),
            (3, 9, -5, YEAR_2012 + 400),
        ]
    )
    rows = yearly_burstiness(log)
    assert [(r.year, r.layer) for r in rows] == [
        (2012, Layer.REWARDING),
        (2012, Layer.PUNITIVE),
    ]
    plus = rows[0]
    assert plus.n_samples == 2
    assert plus.value == pytest.approx(burstiness([100, 4900]))
    assert rows[1].value == pytest.approx(-1.0)  # gaps 100, 100


def test_yearly_burstiness_omits_sparse_years():
    # one gap in 2012, two in 2013: only 2013 has enough samples
    y2013 = YEAR_2012 + 366 * DAY
    log = make_log(
        [
            (1, 9, 5, YEAR_2012),
            (2, 9, 5, YEAR_2012 + 100),
            (1, 9, 5, y2013),
            (2, 9, 5, y2013 + 70),
            (3, 9, 5, y2013 + 200),
        ]
    )
    rows = yearly_burstiness(log)
    assert [(r.year, r.layer) for r in rows] == [(2013, Layer.REWARDING)]


def test_yearly_burstiness_excludes_cross_year_gaps():
    # the same user's events straddling the year boundary form no sample
    y2013 = YEAR_2012 + 366 * DAY
    log = make_log(
        [
            (1, 9, 5, y2013 - 10_000),
            (2, 9, 5, y2013 - 5_000),
            (3, 9, 5, y2013 + 5_000),
            (4, 9, 5, y2013 + 10_000),
        ]
    )
    rows = yearly_burstiness(log)
    # each year holds only one within-year gap, below the two-sample floor
    assert rows == []


def test_yearly_burstiness_pools_users_within_year(small_log):
    rows = yearly_burstiness(small_log)
    for row in rows:
        assert row.n_samples >= 2
        assert -1.0 <= row.value < 1.0


# ---------------------------------------------------------------------------
# circadian and weekly profiles


def test_circadian_profile_indicator():
    log = make_log(
        [(1, 2, 5, 13 * 3600), (3, 2, 5, 13 * 3600 + 30), (2, 1, -1, 2 * 3600)]
    )
    profile = circadian_profile(log)
    assert profile[Layer.REWARDING][13] == 1.0
    assert profile[Layer.REWARDING].sum() == pytest.approx(1.0)
    assert profile[Layer.PUNITIVE][2] == 1.0


def test_circadian_profile_shift_rotates_hours():
    log = make_log([(1, 2, 5, 13 * 3600)])
    shifted = circadian_profile(log, tz_shift_hours=-6)
    assert shifted[Layer.REWARDING][7] == 1.0


def test_circadian_profile_sums(small_log):
    for shift in (0, -6, 5):
        profile = circadian_profile(small_log, tz_shift_hours=shift)
        for layer in Layer:
            vec = profile[layer]
            assert vec.shape == (24,)
            if vec.sum() > 0:
                assert vec.sum() == pytest.approx(1.0)


def test_weekly_profile_weekday_anchor():
    # day 0 of the epoch was a Thursday (weekday 3)
    log = make_log([(1, 2, 5, 100)])
    profile = weekly_profile(log)
    assert profile[Layer.REWARDING][3] == 1.0
    # four days later is Monday
    monday = make_log([(1, 2, 5, 4 * DAY + 100)])
    assert weekly_profile(monday)[Layer.REWARDING][0] == 1.0


def test_weekly_profile_sums(small_log):
    profile = weekly_profile(small_log, tz_shift_hours=-6)
    for layer in Layer:
        vec = profile[layer]
        assert vec.shape == (7,)
        if vec.sum() > 0:
            assert vec.sum() == pytest.approx(1.0)


def test_profile_shift_validation(small_log):
    with pytest.raises(ValueError):
        circadian_profile(small_log, tz_shift_hours=-13)
    with pytest.raises(ValueError):
        weekly_profile(small_log, tz_shift_hours=15)


# ---------------------------------------------------------------------------
# annotations


def test_annotation_windows_join(tmp_path):
    path = tmp_path / "windows.csv"
    path.write_text(
        "label,start_date,end_date\n"
        "first-peak,2013-03-01,2013-04-30\n"
        "second-peak,2013-11-01,2013-12-15\n"
    )
    windows = load_annotations(path)
    assert [w.label for w in windows] == ["first-peak", "second-peak"]
    assert annotations_for(date(2013, 4, 1), windows) == "first-peak"
    assert annotations_for(date(2014, 1, 1), windows) == ""
    # overlapping windows join with a semicolon
    overlapping = windows + [AnnotationWindow("extra", date(2013, 4, 1), date(2013, 4, 2))]
    assert annotations_for(date(2013, 4, 1), overlapping) == "first-peak;extra"


def test_annotation_file_validation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("only-two-fields,2013-01-01\n")
    with pytest.raises(ValueError):
        load_annotations(bad)
    bad_date = tmp_path / "bad_date.csv"
    bad_date.write_text("label,start,end\nx,2013-13-45,2013-01-01\n")
    with pytest.raises(ValueError):
        load_annotations(bad_date)
    with pytest.raises(ValueError):
        AnnotationWindow("inverted", date(2014, 1, 1), date(2013, 1, 1))


# ---------------------------------------------------------------------------
# dataset-dependent checks


def test_dataset_yearly_burstiness_positive_mid_years(otc_log):
    rows = {(r.year, r.layer): r.value for r in yearly_burstiness(otc_log)}
    for year in (2012, 2013, 2014, 2015):
        assert rows[(year, Layer.REWARDING)] > 0
        assert rows[(year, Layer.PUNITIVE)] > 0


def test_dataset_weekend_dip_on_punitive_layer(otc_log):
    weekly = weekly_profile(otc_log, tz_shift_hours=-6)[Layer.PUNITIVE]
    assert weekly[5] + weekly[6] < 2 / 7


def test_dataset_midday_concentration_on_punitive_layer(otc_log):
    hourly = circadian_profile(otc_log, tz_shift_hours=-6)[Layer.PUNITIVE]
    assert hourly[11:15].sum() > 4 / 24
