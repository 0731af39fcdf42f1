"""Release gate: one verdict line per criterion.

Criteria 1-9 measure the Bitcoin-OTC event log and print a SKIP verdict
when the data file is absent (see conftest for how it is located);
criterion 10 bundles the dataset-independent property checks and always
runs.  Every verdict is replayed in a terminal section after the run.
"""

import itertools
import random
from datetime import date
from functools import lru_cache

import numpy as np
import pytest

from conftest import (
    ACCEPTANCE_LINES,
    adjacency_sets,
    dataset_path,
    keeps_projected_degrees,
    mode,
    project,
    rows,
    summary_row,
)
from daily_reference import snapshot_series
from wotnet import (
    CategoryLabel,
    EventLog,
    Layer,
    MetricColumns,
    burstiness_table,
    categorize,
    category_summary,
    circadian_profile,
    daily_fold,
    ingest,
    mean_clustering,
    metric_columns,
    node_metrics,
    ranking_report,
    split_layers,
    synth_log,
    SynthConfig,
    weekly_profile,
    weight_distribution,
)
from wotnet.static import (
    _double_edge_swaps,
    avg_neighbor_degree_spectrum,
    configuration_null,
    spectrum_trend,
)
from wotnet.temporal import interevent_times

SEED = 20240822


def _verdict(cid: str, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {cid} {name}: {status}" + (f" ({detail})" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _dataset_or_skip(cid: str, name: str):
    path = dataset_path()
    if path is None:
        line = (
            f"ACCEPTANCE {cid} {name}: SKIP "
            "(dataset not present; set WOTNET_DATASET or data/)"
        )
        ACCEPTANCE_LINES.append(line)
        print(line)
        pytest.skip("dataset not present")
    return path


@lru_cache(maxsize=None)
def _ingested():
    log, report = ingest(dataset_path())
    return log, report


@lru_cache(maxsize=None)
def _layers():
    return split_layers(_ingested()[0])


@lru_cache(maxsize=None)
def _metrics():
    return metric_columns(_ingested()[0])


# ---------------------------------------------------------------------------
# dataset criteria


def test_c1_dataset_counts():
    _dataset_or_skip("C1", "dataset-counts")
    _log, report = _ingested()
    plus, minus = _layers()
    got = (report.n_users, report.events_kept, len(plus), len(minus))
    want = (5_878, 35_795, 32_305, 3_490)
    deltas = ", ".join(
        f"{label}={g}({g - w:+d})"
        for label, g, w in zip(("users", "events", "e_plus", "e_minus"), got, want)
    )
    _verdict("C1", "dataset-counts", got == want, deltas)


def test_c2_score_modes():
    _dataset_or_skip("C2", "score-modes")
    plus, minus = _layers()
    mode_plus = mode(weight_distribution(plus))
    mode_minus = mode(weight_distribution(minus))
    _verdict(
        "C2",
        "score-modes",
        mode_plus == 1 and mode_minus == 10,
        f"mode_plus={mode_plus}, mode_minus={mode_minus}",
    )


def test_c3_gini_plateau():
    _dataset_or_skip("C3", "gini-plateau")
    gini = daily_fold(_ingested()[0]).gini
    # the last 365 days of the series; a day whose side has fewer than two
    # holders has no Gini there
    mean_plus, mean_minus = (
        float(np.mean(values[-365:][measured[-365:]]))
        for values, measured in zip((gini.gini_plus, gini.gini_minus), gini.measured)
    )
    ok = (
        abs(mean_plus - 0.75) <= 0.05
        and abs(mean_minus - 0.60) <= 0.05
        and mean_plus > mean_minus
    )
    _verdict(
        "C3",
        "gini-plateau",
        ok,
        f"mean_gini_plus={mean_plus:.4f} (0.75±0.05), "
        f"mean_gini_minus={mean_minus:.4f} (0.60±0.05)",
    )


def test_c4_clustering_null_ordering():
    _dataset_or_skip("C4", "clustering-vs-null")
    plus, minus = (project(layer) for layer in _layers())
    null_plus = configuration_null(plus, n_samples=20, seed=SEED)
    null_minus = configuration_null(minus, n_samples=20, seed=SEED + 1)
    empirical_plus = mean_clustering(plus)
    empirical_minus = mean_clustering(minus)
    margin_plus = empirical_plus - null_plus.null_mean_clustering
    margin_minus = null_minus.null_mean_clustering - empirical_minus
    ok = (
        margin_plus > null_plus.null_std_clustering
        and margin_minus > null_minus.null_std_clustering
    )
    _verdict(
        "C4",
        "clustering-vs-null",
        ok,
        f"plus: emp={empirical_plus:.4f} "
        f"null={null_plus.null_mean_clustering:.4f}±{null_plus.null_std_clustering:.4f}; "
        f"minus: emp={empirical_minus:.4f} "
        f"null={null_minus.null_mean_clustering:.4f}±{null_minus.null_std_clustering:.4f}",
    )


def test_c5_norm_breaking_clustering():
    _dataset_or_skip("C5", "norm-breaking-clustering")
    plus, _ = _layers()
    strong = project(plus.where(plus.scores >= 2))
    single = project(plus.where(plus.scores == 1))
    results = {}
    for convention, include_low in (("all_nodes", True), ("degree_ge_2", False)):
        c_gt = mean_clustering(strong, include_low_degree=include_low)
        c_eq = mean_clustering(single, include_low_degree=include_low)
        results[convention] = (c_gt, c_eq)
    ok = any(
        c_gt > c_eq
        and abs(c_gt - 0.063) <= 0.2 * 0.063
        and abs(c_eq - 0.022) <= 0.2 * 0.022
        for c_gt, c_eq in results.values()
    )
    detail = "; ".join(
        f"{name}: c_gt1={c_gt:.4f} (0.063±20%), c_eq1={c_eq:.4f} (0.022±20%)"
        for name, (c_gt, c_eq) in results.items()
    )
    _verdict("C5", "norm-breaking-clustering", ok, detail)


def test_c6_disassortativity():
    _dataset_or_skip("C6", "disassortativity")
    plus, minus = _layers()
    trend_plus = spectrum_trend(avg_neighbor_degree_spectrum(project(plus)))
    trend_minus = spectrum_trend(avg_neighbor_degree_spectrum(project(minus)))
    _verdict(
        "C6",
        "disassortativity",
        trend_plus < 0 and trend_minus < 0,
        f"trend_plus={trend_plus:.3f}, trend_minus={trend_minus:.3f}",
    )


def test_c7_rank_correlations():
    _dataset_or_skip("C7", "rank-correlations")
    report = ranking_report(_metrics())
    favorable = (report.tau("rho", "k_in_plus"), report.tau("rho", "k_out_plus"))
    adverse = (report.tau("rho", "k_in_minus"), report.tau("rho", "k_out_minus"))
    ok = min(favorable) > max(adverse)
    _verdict(
        "C7",
        "rank-correlations",
        ok,
        f"tau(rho, k_in+)={favorable[0]:.3f}, tau(rho, k_out+)={favorable[1]:.3f} "
        f"vs tau(rho, k_in-)={adverse[0]:.3f}, tau(rho, k_out-)={adverse[1]:.3f}",
    )


def test_c8_categories():
    _dataset_or_skip("C8", "categories")
    columns = _metrics()
    stats = category_summary(columns, categorize(columns))
    tw, un, co = (
        {q: summary_row(stats, category, q) for q in ("rho", "activity_total")}
        for category in (CategoryLabel.TRUSTWORTHY, CategoryLabel.UNTRUSTED, CategoryLabel.CONTROVERSIAL)
    )
    largest = tw["rho"].count > un["rho"].count and tw["rho"].count > co["rho"].count
    rho_order = un["rho"].median < co["rho"].median < tw["rho"].median
    activity = (
        un["activity_total"].median < tw["activity_total"].median
        and un["activity_total"].median < co["activity_total"].median
    )
    _verdict(
        "C8",
        "categories",
        largest and rho_order and activity,
        f"counts tw/co/un={tw['rho'].count}/{co['rho'].count}/{un['rho'].count}; "
        f"median rho un/co/tw={un['rho'].median:.1f}/{co['rho'].median:.1f}/{tw['rho'].median:.1f}; "
        f"median out-activity un/co/tw={un['activity_total'].median:.1f}/"
        f"{co['activity_total'].median:.1f}/{tw['activity_total'].median:.1f}",
    )


def test_c9_temporal_patterns():
    _dataset_or_skip("C9", "temporal-patterns")
    log, _ = _ingested()
    columns = burstiness_table(log)
    # the per-year rows; the whole-log rows have no year
    yearly = dict(zip(zip(columns.year, columns.layer), columns.value.tolist()))
    missing = [
        (year, layer.value)
        for year in (2012, 2013, 2014, 2015)
        for layer in Layer
        if yearly.get((year, layer), -1.0) <= 0
    ]
    weekend = float(weekly_profile(log, tz_shift_hours=-6)[Layer.PUNITIVE][5:].sum())
    midday = float(
        circadian_profile(log, tz_shift_hours=-6)[Layer.PUNITIVE][11:15].sum()
    )
    ok = not missing and weekend < 2 / 7 and midday > 4 / 24
    _verdict(
        "C9",
        "temporal-patterns",
        ok,
        f"non-positive yearly B: {missing or 'none'}; "
        f"weekend punitive share={weekend:.3f} (<{2 / 7:.3f}); "
        f"punitive 11-14h mass={midday:.3f} (>{4 / 24:.3f})",
    )


# ---------------------------------------------------------------------------
# dataset-independent property suite


def _clustering_oracle(adj):
    out = {}
    for node, neigh in adj.items():
        d = len(neigh)
        if d < 2:
            out[node] = 0.0
            continue
        closed = sum(
            1 for u, v in itertools.combinations(sorted(neigh), 2) if v in adj[u]
        )
        out[node] = closed / (d * (d - 1) / 2)
    return out


def _random_small_log(rng, n_users=8, n_events=50):
    events = []
    t = 0
    for _ in range(n_events):
        t += rng.randint(1, 90_000)
        a, b = rng.sample(range(1, n_users + 1), 2)
        events.append((a, b, rng.choice([-10, -4, 1, 5, 10]), t))
    return EventLog(events)


def _fold_gini(values) -> float:
    """The rewarding Gini index of `daily_fold` on the one day of a log in
    which user u + 1 receives `values[u]`, in ratings of at most 10."""
    ratings = [(user, min(10, value - given)) for user, value in enumerate(values, start=1) for given in range(0, value, 10)]
    return float(daily_fold(EventLog((0, user, score, 0) for user, score in ratings)).gini.gini_plus[0])


def _whole_log_burstiness(gaps) -> float:
    """B of `burstiness_table`'s rewarding whole-log row for a log in which
    one user receives ratings `gaps` seconds apart."""
    times = 1_300_000_000 + np.concatenate(([0], np.cumsum(gaps)))
    return float(burstiness_table(EventLog((1, 2, 1, t) for t in times.tolist())).value[0])


def test_c10_property_suites():
    failures: list[str] = []

    def check(label: str, condition: bool) -> None:
        if not condition:
            failures.append(label)

    rng = random.Random(SEED)
    nprng = np.random.default_rng(SEED)

    # inequality-index axioms, on the kernel of gini_series.csv
    check("gini equal values", _fold_gini([5, 5, 5, 5]) == pytest.approx(0.0))
    sample = [rng.randint(0, 100) for _ in range(50)] + [1]
    g = _fold_gini(sample)
    check("gini bounds", 0.0 <= g < 1.0)
    check("gini scale invariance", _fold_gini([v * 13 for v in sample]) == pytest.approx(g))

    # rank-correlation axioms, on the kernel of tau_matrix.csv: `ranking_report`
    # ranks any integer columns, here a, b and a strictly monotone transform of
    # a as three degrees, and a again as the reputation
    a = np.array([rng.randint(-20, 20) for _ in range(12)])
    b = np.array([rng.randint(-20, 20) for _ in range(12)])
    zeros = np.zeros_like(a)
    report = ranking_report(MetricColumns(np.arange(12), np.vstack((a, b, 3 * a**3 + 7, zeros, a, zeros))))
    tau = report.tau("k_in_plus", "k_in_minus")
    check("tau bounds", -1.0 <= tau <= 1.0)
    check("tau self-unity", report.tau("k_in_plus", "rho") == pytest.approx(1.0))
    check(
        "tau monotone-transform invariance",
        report.tau("k_out_plus", "k_in_minus") == pytest.approx(tau),
    )

    # clustering range and oracle equivalence on small graphs
    for _ in range(10):
        log = _random_small_log(rng, n_users=7, n_events=20)
        plus, _ = split_layers(log)
        projection = project(plus)
        adj = adjacency_sets(projection)
        cc = dict(zip(projection.nodes.tolist(), projection.clustering.tolist()))
        check("clustering in [0,1]", all(0.0 <= c <= 1.0 for c in cc.values()))
        check("clustering oracle", cc == pytest.approx(_clustering_oracle(adj)))
        spectrum = avg_neighbor_degree_spectrum(projection)
        annd = dict(zip(spectrum.degree.tolist(), spectrum.mean_value.tolist()))
        oracle_vals: dict[int, list[float]] = {}
        for node, neigh in adj.items():
            mean_nd = sum(len(adj[v]) for v in neigh) / len(neigh)
            oracle_vals.setdefault(len(neigh), []).append(mean_nd)
        annd_oracle = {d: sum(vs) / len(vs) for d, vs in oracle_vals.items()}
        check("neighbor-degree oracle", annd == pytest.approx(annd_oracle))

    # burstiness axioms, on the kernel of burstiness.csv
    check("burstiness regular", _whole_log_burstiness([30] * 10) == pytest.approx(-1.0))
    expo = np.rint(nprng.exponential(scale=900.0, size=100_000)).astype(np.int64)
    check("burstiness exponential", abs(_whole_log_burstiness(expo)) <= 0.02)

    # ranked-list similarity boundary cases, on the kernel of topk_stability.csv:
    # the rewarding top 3 of four days is 1, 2, 3; the same, once user 1 gains 1;
    # 2, 1, 3; and 4, 5, 6
    days = ([1, 1, 1, 2, 2, 3], [1], [2, 2], [4, 5, 6] * 5)
    log = EventLog((0, user, 10 if day != 1 else 1, day * 86_400) for day, users in enumerate(days) for user in users)
    stability = daily_fold(log, k=3).stability
    check("jaccard identical", stability.j_plus[0] == 1.0)
    check("jaccard swapped head", stability.j_plus[1] == pytest.approx(2 / 3))
    check("jaccard disjoint", stability.j_plus[2] == 0.0)
    # no punitive list on any day: the pairs of two empty lists are unmeasured
    check("jaccard both empty", not stability.measured[1].any())

    # interevent oracle on a small log
    log = _random_small_log(rng)
    got = sorted(interevent_times(log)[Layer.REWARDING].tolist())
    seen: dict[int, int] = {}
    expected = []
    for _, ratee, score, timestamp in rows(log):
        if score > 0:
            if ratee in seen:
                expected.append(timestamp - seen[ratee])
            seen[ratee] = timestamp
    check("interevent oracle", got == sorted(expected))

    # snapshot-vs-truncation consistency
    snaps = list(snapshot_series(log))
    for snap in (snaps[len(snaps) // 2], snaps[-1]):
        cutoff_day = (snap.day - date(1970, 1, 1)).days
        cutoff = (cutoff_day + 1) * 86_400 - 1
        truncated = EventLog(row for row in rows(log) if row[3] <= cutoff)
        check("snapshot-vs-truncation", snap.metrics == node_metrics(truncated))

    # configuration-model degree preservation and determinism
    projection = project(split_layers(log)[0])
    null_a = configuration_null(projection, n_samples=3, seed=SEED)
    null_b = configuration_null(projection, n_samples=3, seed=SEED)
    check("null determinism", null_a.sample_means == null_b.sample_means)
    n = len(projection.nodes)
    keys = projection.edges[0] * n + projection.edges[1]
    _double_edge_swaps(keys, n, 200, np.random.default_rng(SEED))
    check("null degree preservation", keeps_projected_degrees(projection, np.stack(np.divmod(keys, n))))

    # seeded determinism of the generator
    cfg = dict(n_users=12, n_events=200, seed=77)
    log_a = synth_log(SynthConfig(**cfg))
    log_b = synth_log(SynthConfig(**cfg))
    check("synth determinism", rows(log_a) == rows(log_b))

    _verdict(
        "C10",
        "property-suites",
        not failures,
        "all sub-checks passed" if not failures else "failed: " + "; ".join(failures),
    )
