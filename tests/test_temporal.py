import random
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from conftest import rows
from scalar_reference import burstiness
from wotnet import (
    Layer,
    EventLog,
    SynthConfig,
    annotations_for,
    burstiness_table,
    circadian_profile,
    daily_fold,
    daily_series,
    interevent_times,
    load_annotations,
    synth_log,
    weekly_profile,
)
from wotnet.temporal import AnnotationWindow, _calendar

DAY = 86_400
YEAR_2012 = 1_325_376_000  # 2012-01-01T00:00:00Z


def _gaps_by_user(events, layer: Layer) -> list[tuple[int, int]]:
    """Oracle: (gap, later timestamp) of each pair of consecutive events that
    one user receives on a layer, from a scan of the time-sorted rows; user
    by user in ascending id order, and in time order within a user."""
    last: dict[int, int] = {}
    gaps: dict[int, list[tuple[int, int]]] = {}
    for _, ratee, score, t in events:
        if (score > 0) == (layer is Layer.REWARDING):
            if ratee in last:
                gaps.setdefault(ratee, []).append((t - last[ratee], t))
            last[ratee] = t
    return [gap for user in sorted(gaps) for gap in gaps[user]]


# ---------------------------------------------------------------------------
# daily series and calendars


def test_daily_series_single_day_counts():
    log = EventLog(
        [(1, 2, 5, 100), (3, 2, 1, 200), (2, 1, -10, 300)]
    )
    series = daily_series(log)
    assert series.day.tolist() == [date(1970, 1, 1)]
    assert (series.count_plus.tolist(), series.count_minus.tolist()) == ([2], [1])


def test_daily_series_shift_moves_events_across_midnight():
    # 23:30 UTC lands on the previous calendar day at shift -6
    t = 3 * DAY + 23 * 3600 + 1800
    log = EventLog([(1, 2, 5, t)])
    assert daily_series(log).day.tolist() == [date(1970, 1, 4)]
    assert daily_series(log, tz_shift_hours=-6).day.tolist() == [date(1970, 1, 4)]
    # and 03:30 UTC moves back a day under the same shift
    early = EventLog([(1, 2, 5, 3 * DAY + 3 * 3600 + 1800)])
    assert daily_series(early, tz_shift_hours=-6).day.tolist() == [date(1970, 1, 3)]


def test_daily_series_buckets_by_shifted_day():
    log = EventLog([(1, 2, 5, 5 * DAY + 7 * 3600)])
    assert daily_series(log).day.tolist() == [date(1970, 1, 6)]
    assert daily_series(log, tz_shift_hours=-12).day.tolist() == [date(1970, 1, 5)]
    assert daily_series(log, tz_shift_hours=14).day.tolist() == [date(1970, 1, 6)]
    for shift in (-13, 15):
        with pytest.raises(ValueError):
            daily_series(log, tz_shift_hours=shift)


def test_daily_series_zero_fills_gaps_and_reconciles(small_log):
    series = daily_series(small_log)
    days = series.day.tolist()
    assert days == sorted(days)
    assert (days[-1] - days[0]).days + 1 == len(days) == len(series.count_plus) == len(series.count_minus)
    assert series.count_plus.sum() == int((small_log.scores > 0).sum())
    assert series.count_minus.sum() == int((small_log.scores < 0).sum())


def test_daily_series_empty_log():
    series = daily_series(EventLog([]))
    assert [column.tolist() for column in series] == [[], [], []]
    assert series.day.dtype == np.dtype("datetime64[D]")


def test_days_past_the_calendar_raise_overflow_error():
    # as `date` arithmetic raised when the series were built of `date`s: the
    # CLI reports an analysis error (exit 3), not a day it cannot write
    beyond = (date.max - date(1970, 1, 1)).days + 1
    before = (date.min - date(1970, 1, 1)).days - 1
    for t in (beyond * DAY, before * DAY):
        log = EventLog([(1, 2, 5, 0), (2, 1, -3, t)])
        with pytest.raises(OverflowError, match="date value out of range"):
            daily_series(log)
        with pytest.raises(OverflowError, match="date value out of range"):
            daily_fold(log)
    last = EventLog([(1, 2, 5, (beyond - 1) * DAY)])
    assert daily_series(last).day.tolist() == [date.max]
    assert daily_fold(last).stability.day.tolist() == []


# ---------------------------------------------------------------------------
# interevent times


def test_interevent_times_single_receiver():
    log = EventLog(
        [(1, 9, 5, 0), (2, 9, 5, 10), (3, 9, 5, 25)]
    )
    assert interevent_times(log)[Layer.REWARDING].tolist() == [10, 15]
    assert interevent_times(log)[Layer.PUNITIVE].tolist() == []


def test_interevent_times_do_not_mix_receivers():
    log = EventLog(
        [(1, 8, 5, 0), (1, 9, 5, 5), (2, 8, 5, 30), (2, 9, 5, 100)]
    )
    assert sorted(interevent_times(log)[Layer.REWARDING].tolist()) == [30, 95]


def test_interevent_times_match_scanning_oracle():
    rng = random.Random(11)
    for _ in range(25):
        events = []
        t = 0
        for _ in range(60):
            t += rng.randint(1, 500)
            a = rng.randint(1, 6)
            b = rng.randint(1, 6)
            if a == b:
                continue
            events.append((a, b, rng.choice([-3, -1, 2, 5]), t))
        log = EventLog(events)  # the times rise
        for layer in Layer:
            assert interevent_times(log)[layer].tolist() == [gap for gap, _ in _gaps_by_user(events, layer)]


def test_interevent_times_by_user_consistent_with_pooled(small_log):
    for layer in Layer:
        pooled = interevent_times(small_log)[layer]
        assert pooled.tolist() == [gap for gap, _ in _gaps_by_user(rows(small_log), layer)]


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
    gaps = interevent_times(log)[Layer.REWARDING].astype(float)
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


def _year_rows(log: EventLog):
    """The per-year rows of `burstiness_table(log)`, as its columns, the years an int array."""
    table = burstiness_table(log)
    rows = slice(table.year.count(None), None)  # after the whole-log rows
    return table._replace(
        year=np.array(table.year[rows], dtype=np.int64),
        layer=table.layer[rows],
        value=table.value[rows],
        n_samples=table.n_samples[rows],
    )


def test_yearly_burstiness_single_year():
    log = EventLog(
        [
            (1, 9, 5, YEAR_2012),
            (2, 9, 5, YEAR_2012 + 100),
            (3, 9, 5, YEAR_2012 + 5000),
            (1, 9, -5, YEAR_2012 + 200),
            (2, 9, -5, YEAR_2012 + 300),
            (3, 9, -5, YEAR_2012 + 400),
        ]
    )
    yearly = _year_rows(log)
    assert list(zip(yearly.year.tolist(), yearly.layer)) == [
        (2012, Layer.REWARDING),
        (2012, Layer.PUNITIVE),
    ]
    assert yearly.n_samples[0] == 2
    assert yearly.value[0] == pytest.approx(burstiness([100, 4900]))
    assert yearly.value[1] == pytest.approx(-1.0)  # gaps 100, 100


def test_yearly_burstiness_omits_sparse_years():
    # one gap in 2012, two in 2013: only 2013 has enough samples
    y2013 = YEAR_2012 + 366 * DAY
    log = EventLog(
        [
            (1, 9, 5, YEAR_2012),
            (2, 9, 5, YEAR_2012 + 100),
            (1, 9, 5, y2013),
            (2, 9, 5, y2013 + 70),
            (3, 9, 5, y2013 + 200),
        ]
    )
    yearly = _year_rows(log)
    assert list(zip(yearly.year.tolist(), yearly.layer)) == [(2013, Layer.REWARDING)]


def test_yearly_burstiness_excludes_cross_year_gaps():
    # the same user's events straddling the year boundary form no sample
    y2013 = YEAR_2012 + 366 * DAY
    log = EventLog(
        [
            (1, 9, 5, y2013 - 10_000),
            (2, 9, 5, y2013 - 5_000),
            (3, 9, 5, y2013 + 5_000),
            (4, 9, 5, y2013 + 10_000),
        ]
    )
    yearly = _year_rows(log)
    # each year holds only one within-year gap, below the two-sample floor
    assert yearly.year.size == 0 and yearly.layer == []


def test_yearly_burstiness_pools_users_within_year(small_log):
    yearly = _year_rows(small_log)
    assert (yearly.n_samples >= 2).all()
    assert ((-1.0 <= yearly.value) & (yearly.value < 1.0)).all()


TIED = 1_300_000_000
# user 2 receives three ratings in one second: two rewarding gaps, both 0
TIED_LOG = [(1, 2, 5, TIED), (3, 2, 4, TIED), (4, 2, 3, TIED), (2, 1, -2, TIED + 100), (3, 1, -1, TIED + 200)]


def test_yearly_burstiness_omits_slices_of_zero_gaps():
    log = EventLog([*TIED_LOG, (5, 1, -3, TIED + 260)])
    with np.errstate(all="raise"):  # B is computed over the kept slices only
        yearly = _year_rows(log)
    # the rewarding gaps 0, 0 make no row; the punitive gaps 100, 60 do
    assert list(zip(yearly.year.tolist(), yearly.layer)) == [(2011, Layer.PUNITIVE)]
    assert yearly.value.tolist() == [burstiness([100, 60])]
    assert yearly.n_samples.tolist() == [2]


def _year_of(t: int) -> int:
    return (date(1970, 1, 1) + timedelta(days=t // DAY)).year


def _burstiness_rows(log: EventLog) -> list[tuple]:
    """Oracle: `burstiness` of each layer's gaps over the whole log (year
    None), then of each calendar year's gaps on each layer, by year and then
    layer, as (year, layer, B, n) rows; a slice of fewer than two gaps, or of
    zero gaps only, makes no row."""
    whole, yearly = [], {}
    for side, layer in enumerate(Layer):
        gaps = _gaps_by_user(rows(log), layer)
        whole.append((None, layer, [gap for gap, _ in gaps]))
        for gap, later in gaps:
            if _year_of(later - gap) == _year_of(later):
                yearly.setdefault((_year_of(later), side), []).append(gap)
    slices = whole + [(year, list(Layer)[side], gaps) for (year, side), gaps in sorted(yearly.items())]
    return [(year, layer, burstiness(gaps), len(gaps)) for year, layer, gaps in slices if len(gaps) >= 2 and any(gaps)]


# three days before 2012, 1970 and 1900 begin: gaps across a new year, and pre-1970 times
_YEAR_ENDS = (YEAR_2012 - 3 * DAY, -3 * DAY, -2_208_988_800 - 3 * DAY)


@st.composite
def _small_logs(draw, scores=(-3, -1, 2, 10)):
    start = draw(st.sampled_from(_YEAR_ENDS))
    # a small pool of offsets repeats timestamps; the rest spread over two years
    pool = draw(st.lists(st.integers(0, 6 * DAY), min_size=1, max_size=4))
    offset = st.sampled_from(pool) | st.integers(0, 6 * DAY) | st.integers(0, 2 * 365 * DAY)
    event = st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from(scores), offset)
    events = draw(st.lists(event.filter(lambda e: e[0] != e[1]), max_size=60))
    return EventLog([(a, b, score, start + t) for a, b, score, t in events])


@given(_small_logs())
@example(EventLog(TIED_LOG))
# twelve gaps in one slice, which a pairwise sum adds otherwise than one by one
@example(EventLog([(1, 2, 1, YEAR_2012 + t) for t in np.cumsum([0, 51113, 26978, 30782, 4097, 7524, 1652, 17526, 81327, 64941, 91275, 50362, 60663])]))
@settings(max_examples=200, deadline=None)
def test_yearly_burstiness_is_bitwise_burstiness_of_each_year(log):
    yearly = _year_rows(log)
    oracle = [row for row in _burstiness_rows(log) if row[0] is not None]
    assert list(zip(yearly.year.tolist(), yearly.layer, yearly.n_samples.tolist())) == [(year, layer, n) for year, layer, _, n in oracle]
    assert yearly.value.tobytes() == np.array([b for _, _, b, _ in oracle]).tobytes()


@given(_small_logs())
@example(EventLog(TIED_LOG))
# one gap on each layer
@example(EventLog([(1, 2, 5, YEAR_2012), (3, 2, 1, YEAR_2012 + 50), (2, 1, -2, YEAR_2012 + 9), (3, 1, -1, YEAR_2012 + 90)]))
@settings(max_examples=200, deadline=None)
def test_burstiness_table_is_bitwise_the_two_call_composition(log):
    # the whole-log rows, then the yearly rows: `burstiness` of each slice's gaps
    table = burstiness_table(log)
    oracle = _burstiness_rows(log)
    assert list(zip(table.year, table.layer, table.n_samples.tolist())) == [(year, layer, n) for year, layer, _, n in oracle]
    assert table.value.dtype == np.float64 and table.value.tobytes() == np.array([b for _, _, b, _ in oracle]).tobytes()


@given(st.sampled_from([(-3, -1, 2, 10), (2, 10), (-3, -1)]).flatmap(_small_logs), st.sampled_from([0, -6, 5, 14]))
@example(EventLog(TIED_LOG), -6)
@settings(max_examples=200, deadline=None)
def test_keyed_passes_are_bitwise_the_per_layer_masks(log, tz_shift_hours):
    # the oracle: one mask per layer, as each statistic split the layers
    # before it counted both in one pass keyed by layer row
    masks = (log.scores > 0, log.scores < 0)
    gaps = interevent_times(log)
    assert list(gaps) == list(Layer)
    for layer in Layer:
        expected = np.array([gap for gap, _ in _gaps_by_user(rows(log), layer)], dtype=np.int64)
        assert gaps[layer].dtype == expected.dtype and gaps[layer].tobytes() == expected.tobytes()

    shifted = log.timestamps + tz_shift_hours * 3600
    days, calendar = _calendar(shifted // DAY)
    series = daily_series(log, tz_shift_hours)
    assert series.day.tolist() == calendar.tolist()
    assert [c.tolist() for c in series[1:]] == [np.bincount(days[m], minlength=len(calendar)).tolist() for m in masks]

    hours, weekdays = (shifted % DAY) // 3600, (shifted // DAY + 3) % 7
    for profile, n_bins, bin_of in ((circadian_profile, 24, hours), (weekly_profile, 7, weekdays)):
        fractions = profile(log, tz_shift_hours)
        assert list(fractions) == list(Layer)
        for layer, mask in zip(Layer, masks):
            counts = np.bincount(bin_of[mask], minlength=n_bins).astype(float)
            total = counts.sum()
            expected = counts / total if total > 0 else counts
            assert fractions[layer].dtype == expected.dtype and fractions[layer].tobytes() == expected.tobytes()


def test_burstiness_table_leads_with_the_whole_log_rows():
    # gaps of 100 and 4,900 s in 2011 and of 60 s across the new year, then one in 2012
    new_year = YEAR_2012 - 30
    times = (new_year - 5000, new_year - 4900, new_year, new_year + 60, new_year + 70)
    log = EventLog((rater, 9, 5, t) for rater, t in enumerate(times, start=1))
    table = burstiness_table(log)
    assert list(zip(table.year, table.layer, table.n_samples.tolist())) == [
        (None, Layer.REWARDING, 4),
        (2011, Layer.REWARDING, 2),
    ]
    assert table.value.tolist() == [burstiness([100, 4900, 60, 10]), burstiness([100, 4900])]


# ---------------------------------------------------------------------------
# circadian and weekly profiles


def test_circadian_profile_indicator():
    log = EventLog(
        [(1, 2, 5, 13 * 3600), (3, 2, 5, 13 * 3600 + 30), (2, 1, -1, 2 * 3600)]
    )
    profile = circadian_profile(log)
    assert profile[Layer.REWARDING][13] == 1.0
    assert profile[Layer.REWARDING].sum() == pytest.approx(1.0)
    assert profile[Layer.PUNITIVE][2] == 1.0


def test_circadian_profile_shift_rotates_hours():
    log = EventLog([(1, 2, 5, 13 * 3600)])
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
    log = EventLog([(1, 2, 5, 100)])
    profile = weekly_profile(log)
    assert profile[Layer.REWARDING][3] == 1.0
    # four days later is Monday
    monday = EventLog([(1, 2, 5, 4 * DAY + 100)])
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


def test_annotation_header_may_follow_blank_lines(tmp_path):
    path = tmp_path / "windows.csv"
    path.write_text("\nlabel,start,end\nbubble,2013-11-01,2013-12-31\n")
    assert load_annotations(path) == [AnnotationWindow("bubble", date(2013, 11, 1), date(2013, 12, 31))]
    # only the first non-blank line may be a header
    path.write_text("\nlabel,start,end\nfrom,to,when\n")
    with pytest.raises(ValueError, match="line 3: invalid ISO date"):
        load_annotations(path)


@pytest.mark.parametrize("label", ['"bull, run"', '"bull; run"', '"bull ""run"""', '"bull\nrun"', '"bull\rrun"'])
def test_annotation_labels_may_not_break_the_daily_cells(tmp_path, label):
    # the daily output writes labels unquoted, joined by semicolons
    path = tmp_path / "windows.csv"
    path.write_text(f"label,start,end\n{label},2013-11-01,2013-11-03\n", newline="")
    with pytest.raises(ValueError, match="line 2: label"):
        load_annotations(path)


@pytest.mark.parametrize("first", ["bubble,2013-11-01,2013-13-01", "bubble,2013-13-01,2013-12-01"])
def test_a_first_line_with_one_valid_date_is_a_window_not_a_header(tmp_path, first):
    path = tmp_path / "windows.csv"
    path.write_text(f"{first}\ncrash,2014-02-01,2014-02-20\n")
    with pytest.raises(ValueError, match="line 1: invalid ISO date"):
        load_annotations(path)


def test_annotation_file_validation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("only-two-fields,2013-01-01\n")
    with pytest.raises(ValueError):
        load_annotations(bad)
    bad_date = tmp_path / "bad_date.csv"
    bad_date.write_text("label,start,end\nx,2013-13-45,2013-01-01\n")
    with pytest.raises(ValueError):
        load_annotations(bad_date)
    # `AnnotationWindow` rejects a window that starts after it ends, and the file names its line
    inverted = tmp_path / "inverted.csv"
    inverted.write_text("label,start,end\ninv,2014-01-01,2013-01-01\n")
    with pytest.raises(ValueError, match=r"inverted\.csv: line 2: window 'inv': start after end$"):
        load_annotations(inverted)
    with pytest.raises(ValueError):
        AnnotationWindow("inverted", date(2014, 1, 1), date(2013, 1, 1))
