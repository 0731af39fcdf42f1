import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import summary_row
from daily_reference import columns_of
from wotnet import (
    CategoryLabel,
    CategoryThresholds,
    NodeMetrics,
    category_summary,
    categorize,
    metric_columns,
    negative_fractions,
    node_metrics,
    reputation_vs_indegree_scatter,
)
from wotnet.categories import LABEL_TEXTS, LABELED_CATEGORIES, _quartiles

LABELS = tuple(CategoryLabel)  # a label column holds positions in this tuple


def _received(rho_plus: int, rho_minus: int) -> NodeMetrics:
    """Metrics for a user who only receives ratings (degrees chosen to be
    compatible with the per-rating weight bounds)."""
    k_in_plus = max(1, math.ceil(rho_plus / 10)) if rho_plus else 0
    k_in_minus = max(1, math.ceil(rho_minus / 10)) if rho_minus else 0
    return NodeMetrics(k_in_plus, k_in_minus, 0, 0, rho_plus, rho_minus)


def _labels(metrics, thresholds=CategoryThresholds()) -> list[CategoryLabel]:
    """The labels of a metrics mapping's users, in ascending id order."""
    return [LABELS[code] for code in categorize(columns_of(metrics), thresholds)]


def negative_fraction(m: NodeMetrics) -> float | None:
    """rho- / (rho+ + rho-) of one user, None when the user has no received
    reputation: the per-user oracle of `negative_fractions`."""
    total = m.rho_plus + m.rho_minus
    if total == 0:
        return None
    return m.rho_minus / total


# ---------------------------------------------------------------------------
# labeling rules


@pytest.mark.parametrize(
    "rho_plus,rho_minus,expected",
    [
        (100, 2, CategoryLabel.TRUSTWORTHY),
        (0, 50, CategoryLabel.UNTRUSTED),
        (10, 10, CategoryLabel.CONTROVERSIAL),
        (0, 0, CategoryLabel.UNCATEGORIZED),
    ],
)
def test_labeling_rule_examples(rho_plus, rho_minus, expected):
    assert _labels({1: _received(rho_plus, rho_minus)}) == [expected]


def test_threshold_boundaries_are_inclusive_for_controversial():
    # r exactly 0.25 and exactly 0.75 both land in the middle band
    labels = _labels({1: _received(3, 1), 2: _received(1, 3)})
    assert labels == [CategoryLabel.CONTROVERSIAL, CategoryLabel.CONTROVERSIAL]


def test_just_inside_outer_bands():
    labels = _labels({1: _received(31, 10), 2: _received(10, 31)})
    assert labels == [CategoryLabel.TRUSTWORTHY, CategoryLabel.UNTRUSTED]


def test_custom_thresholds_move_the_bands():
    strict = CategoryThresholds(low=0.05, high=0.95)
    assert _labels({1: _received(9, 1)}, strict) == [CategoryLabel.CONTROVERSIAL]  # r=0.1 >= 0.05


@pytest.mark.parametrize("low,high", [(0.0, 0.75), (0.5, 0.75), (0.25, 0.5), (0.25, 1.0)])
def test_threshold_validation(low, high):
    with pytest.raises(ValueError):
        CategoryThresholds(low=low, high=high)


def test_negative_fraction_values():
    r, received = negative_fractions(np.array([3, 0, 0]), np.array([1, 0, 7]))
    assert r.tolist() == [0.25, 0.0, 1.0]
    assert received.tolist() == [True, False, True]


@given(st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)) | st.just((0, 0)), max_size=8))
@settings(max_examples=200, deadline=None)
def test_negative_fractions_match_the_per_user_fraction(reputations):
    rho_plus, rho_minus = np.array(reputations, dtype=np.int64).reshape(-1, 2).T
    r, received = negative_fractions(rho_plus, rho_minus)
    expected = [negative_fraction(_received(p, m)) for p, m in reputations]
    assert received.tolist() == [value is not None for value in expected]
    assert r.tolist() == [0.0 if value is None else value for value in expected]


@given(
    st.integers(0, 400),
    st.integers(0, 400),
    st.integers(2, 37),
)
@settings(max_examples=200, deadline=None)
def test_labels_invariant_under_common_scaling(rho_plus, rho_minus, scale):
    base = _labels({1: _received(rho_plus, rho_minus)})
    scaled = _labels({1: _received(rho_plus * scale, rho_minus * scale)})
    assert base == scaled


@given(st.integers(0, 500), st.integers(0, 500))
@settings(max_examples=200, deadline=None)
def test_every_user_gets_exactly_one_label(rho_plus, rho_minus):
    (label,) = _labels({1: _received(rho_plus, rho_minus)})
    assert label in CategoryLabel
    if rho_plus + rho_minus == 0:
        assert label is CategoryLabel.UNCATEGORIZED
    else:
        assert label is not CategoryLabel.UNCATEGORIZED


def test_labels_cover_all_users(small_log):
    # one int8 label per user of the columns, which are the log's users
    columns = metric_columns(small_log)
    labels = categorize(columns)
    assert labels.dtype == np.int8 and labels.shape == columns.users.shape
    np.testing.assert_array_equal(columns.users, small_log.user_codes()[0])
    assert set(labels.tolist()) <= set(range(len(LABELS)))
    assert LABEL_TEXTS[labels].tolist() == [LABELS[code].value for code in labels]


def test_boundary_ratio_exact_at_large_magnitudes():
    # r stays exactly 1/4 regardless of magnitude, landing in the middle band
    big = 10**14
    assert _labels({1: _received(3 * big, big)}) == [CategoryLabel.CONTROVERSIAL]


def _categorize_by_fraction(metrics, thresholds):
    """The labels from a `Fraction` per user, as `categorize` found them
    before it compared integer products: the oracle."""
    low, high = Fraction(thresholds.low), Fraction(thresholds.high)
    labels = {}
    for user, m in metrics.items():
        total = m.rho_plus + m.rho_minus
        if total == 0:
            labels[user] = CategoryLabel.UNCATEGORIZED
        elif Fraction(m.rho_minus, total) < low:
            labels[user] = CategoryLabel.TRUSTWORTHY
        elif Fraction(m.rho_minus, total) > high:
            labels[user] = CategoryLabel.UNTRUSTED
        else:
            labels[user] = CategoryLabel.CONTROVERSIAL
    return labels


_reputations = st.one_of(st.integers(0, 1000), st.integers(2**62 - 1000, 2**62 + 1000))


@given(
    st.lists(st.tuples(_reputations, _reputations), max_size=20),
    st.sampled_from([(0.25, 0.75), (0.3, 0.7), (0.1, 0.9), (1 / 3, 2 / 3), (0.49, 0.51)]),
)
@example([(3, 1), (1, 3), (7, 3), (3, 7), (0, 0)], (0.25, 0.75))  # r on a threshold
@example([(7, 3), (3, 7), (70, 30), (30, 70)], (0.3, 0.7))  # r = 0.3 lies just above the float 0.3
@example([(3 * 2**60, 2**60), (2**60, 3 * 2**60), (2**62, 2**62)], (0.25, 0.75))
@settings(max_examples=200, deadline=None)
def test_labels_match_the_fraction_oracle(reputations, bounds):
    metrics = {user: _received(*pair) for user, pair in enumerate(reputations)}
    thresholds = CategoryThresholds(*bounds)
    expected = _categorize_by_fraction(metrics, thresholds)
    labels = categorize(columns_of(metrics), thresholds)
    assert labels.tolist() == [LABELS.index(expected[user]) for user in sorted(metrics)]


def test_label_columns_of_another_length_are_rejected(small_log):
    # a label column is read by position, so one of another length would
    # label the wrong users
    columns = metric_columns(small_log)
    labels = categorize(columns)
    for wrong in (labels[:-1], np.append(labels, labels[:1])):
        with pytest.raises(ValueError, match="one label per user"):
            category_summary(columns, wrong)
        with pytest.raises(ValueError, match="one label per user"):
            reputation_vs_indegree_scatter(columns, wrong)


# ---------------------------------------------------------------------------
# summaries


def test_category_summary_counts_and_quantiles():
    metrics = {
        1: _received(100, 2),
        2: _received(90, 0),
        3: _received(0, 50),
        4: _received(10, 10),
        5: _received(0, 0),
    }
    columns = columns_of(metrics)
    stats = category_summary(columns, categorize(columns))
    assert set(stats.category) == set(LABELED_CATEGORIES)
    assert summary_row(stats, CategoryLabel.TRUSTWORTHY, "rho").count == 2
    assert summary_row(stats, CategoryLabel.UNTRUSTED, "rho").count == 1
    assert summary_row(stats, CategoryLabel.CONTROVERSIAL, "rho").count == 1
    assert summary_row(stats, CategoryLabel.TRUSTWORTHY, "rho").median == pytest.approx(94.0)
    assert summary_row(stats, CategoryLabel.UNTRUSTED, "rho").median == -50.0
    assert summary_row(stats, CategoryLabel.CONTROVERSIAL, "rho").median == 0.0


def test_category_summary_empty_category_is_nan():
    columns = columns_of({1: _received(100, 2)})
    stats = category_summary(columns, categorize(columns))
    assert summary_row(stats, CategoryLabel.UNTRUSTED, "rho").count == 0
    assert math.isnan(summary_row(stats, CategoryLabel.UNTRUSTED, "rho").median)
    assert math.isnan(summary_row(stats, CategoryLabel.UNTRUSTED, "activity_total").q3)


def test_category_summary_tracks_out_activity():
    metrics = {
        1: NodeMetrics(1, 0, 4, 3, 10, 0),
        2: NodeMetrics(0, 1, 0, 0, 0, 5),
    }
    columns = columns_of(metrics)
    stats = category_summary(columns, categorize(columns))
    assert summary_row(stats, CategoryLabel.TRUSTWORTHY, "activity_plus").median == 4.0
    assert summary_row(stats, CategoryLabel.TRUSTWORTHY, "activity_minus").median == 3.0
    assert summary_row(stats, CategoryLabel.TRUSTWORTHY, "activity_total").median == 7.0
    assert summary_row(stats, CategoryLabel.UNTRUSTED, "activity_total").median == 0.0


def test_quartiles_equal_numpy_percentile():
    # rows of 1 to 60 values with ties, negatives and fractions: one sort and
    # the linear step give `np.percentile`'s default quantiles exactly
    rng = np.random.default_rng(27)
    for n in range(1, 61):
        for values in (
            rng.integers(-3, 4, (4, n)).astype(float),  # many ties
            rng.integers(-400, 400, (4, n)) / 8,  # negatives and exact fractions
            rng.normal(0, 1e3, (4, n)),
            rng.choice([-1e15, -2.5, 0.0, 1 / 3, 0.1, 7.25, 1e15], (4, n)),
        ):
            assert np.array_equal(_quartiles(values), np.percentile(values, (0, 25, 50, 75, 100), axis=1).T)


def test_category_summary_of_columns_matches_the_per_user_records(small_log):
    metrics, columns = node_metrics(small_log), metric_columns(small_log)
    labels = categorize(columns)
    stats = category_summary(columns, labels)
    label_of = dict(zip(columns.users.tolist(), (LABELS[code] for code in labels)))
    quantities = {
        "rho": lambda m: m.rho,
        "activity_plus": lambda m: m.k_out_plus,
        "activity_minus": lambda m: m.k_out_minus,
        "activity_total": lambda m: m.k_out_plus + m.k_out_minus,
    }
    for category in LABELED_CATEGORIES:
        ms = [metrics[u] for u in sorted(metrics) if label_of[u] is category]
        for quantity, value in quantities.items():
            values = np.array([value(m) for m in ms], dtype=float)
            row = summary_row(stats, category, quantity)
            assert row.count == len(ms)
            expected = [values.min(), *np.percentile(values, [25, 50, 75]), values.max()] if ms else [np.nan] * 5
            np.testing.assert_array_equal(row[1:], expected)


# ---------------------------------------------------------------------------
# reputation-vs-indegree scatter


def test_scatter_points_and_limit_slopes():
    metrics = {
        1: NodeMetrics(3, 0, 0, 0, 30, 0),  # 3 maximal positive ratings
        2: NodeMetrics(0, 4, 0, 0, 0, 40),  # 4 maximal negative ratings
        3: NodeMetrics(2, 0, 0, 0, 2, 0),  # 2 minimal positive ratings
    }
    columns = columns_of(metrics)
    result = reputation_vs_indegree_scatter(columns, categorize(columns))
    assert result.users.tolist() == [1, 2, 3]
    assert result.k_in_total.tolist() == [3, 4, 2]
    assert result.rho.tolist() == [30, -40, 2]
    assert result.limit_slopes == (10, 1, -10)
    # every point lies on or between the outer growth limits
    assert (-10 * result.k_in_total <= result.rho).all() and (result.rho <= 10 * result.k_in_total).all()
    # the three constructed users sit exactly on the three reference lines
    assert (result.rho == np.array([10, -10, 1]) * result.k_in_total).all()


def test_scatter_labels_follow_categorization(small_log):
    metrics, columns = node_metrics(small_log), metric_columns(small_log)
    result = reputation_vs_indegree_scatter(columns, categorize(columns))
    assert result.users.tolist() == sorted(metrics)
    expected = _categorize_by_fraction(metrics, CategoryThresholds())
    assert [LABELS[code] for code in result.labels] == [expected[u] for u in sorted(metrics)]
    assert result.k_in_total.tolist() == [m.k_in_plus + m.k_in_minus for _, m in sorted(metrics.items())]
    assert result.rho.tolist() == [m.rho for _, m in sorted(metrics.items())]
    assert (-10 * result.k_in_total <= result.rho).all() and (result.rho <= 10 * result.k_in_total).all()
