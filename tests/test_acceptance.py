"""Release gate: one verdict line per criterion.

Criteria 1-9, and two tests of reputation, check the paper's claims about
the Bitcoin-OTC log.  Each claim is a reader of the manifest and CSVs of
one `wotnet all` run of the log with the settings of `gate.conf`; without
the data file (see conftest for how it is located) each criterion prints a
SKIP verdict.  Criterion 10 bundles the dataset-independent property checks
and always runs.  Every verdict is replayed in a terminal section after the run.
"""

import csv
import itertools
import json
import math
import random
from datetime import date
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from conftest import (
    ACCEPTANCE_LINES,
    adjacency_sets,
    dataset_path,
    keeps_projected_degrees,
    project,
    rows,
)
from daily_reference import snapshot_series
from wotnet import (
    EventLog,
    Layer,
    MetricColumns,
    burstiness_table,
    daily_fold,
    ingest,
    node_metrics,
    ranking_report,
    split_layers,
    synth_log,
    SynthConfig,
)
from wotnet.cli import main
from wotnet.static import (
    BIN_FACTOR,
    _double_edge_swaps,
    avg_neighbor_degree_spectrum,
    configuration_null,
)
from wotnet.temporal import interevent_times

SEED = 20240822
GATE_CONFIG = Path(__file__).with_name("gate.conf")


def _verdict(cid: str, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {cid} {name}: {status}" + (f" ({detail})" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# readers: each claim as a function of one run directory


class Reading(NamedTuple):
    """A claim read from one run: whether it holds, the numbers it weighs
    and the detail of its verdict line."""

    ok: bool
    statistic: tuple[float, ...]
    detail: str


class NotMeasured(Exception):
    """The run's tables hold no value that a claim reads."""


def _rows(run: Path, name: str, **match: str) -> list[dict[str, str]]:
    """The rows of the run's table `name` whose cells equal `match`; none is not measured."""
    with open(run / name, encoding="utf-8", newline="") as fh:
        found = [row for row in csv.DictReader(fh) if all(row[key] == value for key, value in match.items())]
    if not found:
        raise NotMeasured(f"no row of {name} where {match}")
    return found


def _values(rows: list[dict[str, str]], column: str) -> np.ndarray:
    """The numbers in the non-empty cells of a column; none, or one that is not finite, is not measured."""
    values = np.array([float(row[column]) for row in rows if row[column]])
    if not len(values) or not np.isfinite(values).all():
        raise NotMeasured(f"{column}: no value, or one not finite")
    return values


def _cell(run: Path, name: str, column: str, **match: str) -> float:
    """The number in `column` of the row of the run's table `name` whose cells equal `match`."""
    return float(_values(_rows(run, name, **match)[:1], column)[0])


def dataset_counts(run: Path) -> Reading:
    ingested = json.loads((run / "manifest.json").read_text(encoding="utf-8"))["ingest"]
    days = _rows(run, "daily_activity.csv", tz_shift_hours="0")
    layers = (int(_values(days, f"count_{side}").sum()) for side in ("plus", "minus"))
    got = (ingested["users"], ingested["kept"], *layers)
    want = (5_878, 35_795, 32_305, 3_490)
    labels = ("users", "events", "e_plus", "e_minus")
    deltas = ", ".join(f"{label}={g}({g - w:+d})" for label, g, w in zip(labels, got, want))
    return Reading(got == want, got, deltas)


def score_modes(run: Path) -> Reading:
    # the weight of the highest probability, the smallest on a tie
    mode_plus, mode_minus = (
        int(max(_rows(run, "weight_distribution.csv", layer=layer), key=lambda row: float(row["pmf"]))["weight"])
        for layer in ("rewarding", "punitive")
    )
    detail = f"mode_plus={mode_plus}, mode_minus={mode_minus}"
    return Reading(mode_plus == 1 and mode_minus == 10, (mode_plus, mode_minus), detail)


def gini_plateau(run: Path) -> Reading:
    # the last 365 days of the series; a day whose side has fewer than two
    # holders has no Gini there
    last = _rows(run, "gini_series.csv")[-365:]
    plus, minus = (float(np.mean(_values(last, column))) for column in ("gini_plus", "gini_minus"))
    ok = abs(plus - 0.75) <= 0.05 and abs(minus - 0.60) <= 0.05 and plus > minus
    return Reading(ok, (plus, minus), f"mean_gini_plus={plus:.4f} (0.75±0.05), mean_gini_minus={minus:.4f} (0.60±0.05)")


def clustering_vs_null(run: Path) -> Reading:
    (emp_plus, mean_plus, std_plus), (emp_minus, mean_minus, std_minus) = (
        [_cell(run, "clustering_null.csv", column, layer=layer) for column in ("empirical_mean", "null_mean", "null_std")]
        for layer in ("rewarding", "punitive")
    )
    margins = (emp_plus - mean_plus, mean_minus - emp_minus)
    detail = (
        f"plus: emp={emp_plus:.4f} null={mean_plus:.4f}±{std_plus:.4f}; "
        f"minus: emp={emp_minus:.4f} null={mean_minus:.4f}±{std_minus:.4f}"
    )
    return Reading(margins[0] > std_plus and margins[1] > std_minus, margins, detail)


def norm_breaking_clustering(run: Path) -> Reading:
    results = {
        convention: tuple(
            _cell(run, "norm_breaking_clustering.csv", "mean_clustering", convention=convention, sublayer=sublayer)
            for sublayer in ("w_gt_1", "w_eq_1")
        )
        for convention in ("all_nodes", "degree_ge_2")
    }
    ok = any(
        c_gt > c_eq and abs(c_gt - 0.063) <= 0.2 * 0.063 and abs(c_eq - 0.022) <= 0.2 * 0.022
        for c_gt, c_eq in results.values()
    )
    detail = "; ".join(
        f"{name}: c_gt1={c_gt:.4f} (0.063±20%), c_eq1={c_eq:.4f} (0.022±20%)" for name, (c_gt, c_eq) in results.items()
    )
    return Reading(ok, sum(results.values(), ()), detail)


def disassortativity(run: Path) -> Reading:
    plus, minus = (_cell(run, "neighbor_degree_trend.csv", "spearman", layer=layer) for layer in ("rewarding", "punitive"))
    return Reading(plus < 0 and minus < 0, (plus, minus), f"trend_plus={plus:.3f}, trend_minus={minus:.3f}")


def rank_correlations(run: Path) -> Reading:
    keys = ("k_in_plus", "k_out_plus", "k_in_minus", "k_out_minus")
    taus = in_plus, out_plus, in_minus, out_minus = tuple(_cell(run, "tau_matrix.csv", column, key="rho") for column in keys)
    detail = (
        f"tau(rho, k_in+)={in_plus:.3f}, tau(rho, k_out+)={out_plus:.3f} "
        f"vs tau(rho, k_in-)={in_minus:.3f}, tau(rho, k_out-)={out_minus:.3f}"
    )
    return Reading(min(in_plus, out_plus) > max(in_minus, out_minus), taus, detail)


def categories(run: Path) -> Reading:
    (tw, co, un), (rho_tw, rho_co, rho_un), (act_tw, act_co, act_un) = (
        [
            _cell(run, "category_summary.csv", column, category=category, quantity=quantity)
            for category in ("trustworthy", "controversial", "untrusted")
        ]
        for quantity, column in (("rho", "count"), ("rho", "median"), ("activity_total", "median"))
    )
    ok = tw > un and tw > co and rho_un < rho_co < rho_tw and act_un < act_tw and act_un < act_co
    detail = (
        f"counts tw/co/un={tw:.0f}/{co:.0f}/{un:.0f}; "
        f"median rho un/co/tw={rho_un:.1f}/{rho_co:.1f}/{rho_tw:.1f}; "
        f"median out-activity un/co/tw={act_un:.1f}/{act_co:.1f}/{act_tw:.1f}"
    )
    return Reading(ok, (tw, co, un, rho_tw, rho_co, rho_un, act_tw, act_co, act_un), detail)


def temporal_patterns(run: Path) -> Reading:
    # the per-year rows; the whole-log rows have no year
    yearly = {(int(row["year"]), row["layer"]): float(row["B"]) for row in _rows(run, "burstiness.csv") if row["year"]}
    missing = [
        (year, layer.value)
        for year in (2012, 2013, 2014, 2015)
        for layer in Layer
        if yearly.get((year, layer.value), -1.0) <= 0
    ]
    weekly = _rows(run, "weekly_profile.csv", tz_shift_hours="-6")
    hourly = _rows(run, "circadian_profile.csv", tz_shift_hours="-6")
    weekend = float(_values([row for row in weekly if int(row["weekday"]) >= 5], "frac_minus").sum())
    midday = float(_values([row for row in hourly if 11 <= int(row["hour"]) <= 14], "frac_minus").sum())
    detail = (
        f"non-positive yearly B: {missing or 'none'}; "
        f"weekend punitive share={weekend:.3f} (<{2 / 7:.3f}); "
        f"punitive 11-14h mass={midday:.3f} (>{4 / 24:.3f})"
    )
    return Reading(not missing and weekend < 2 / 7 and midday > 4 / 24, (len(missing), weekend, midday), detail)


def _r_squared_loglog(support: np.ndarray, ccdf: np.ndarray, decades: float = 1.5) -> float:
    """Straightness of a CCDF on log-log axes over its first `decades`."""
    keep = (support > 0) & (ccdf > 0)
    x, y = np.log10(support[keep]), np.log10(ccdf[keep])
    window = x <= x[0] + decades
    x, y = x[window], y[window]
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    return float(1 - residual.var() / y.var())


def reputation_tails(run: Path) -> Reading:
    """The CCDFs of rho+ and rho- are straight on log-log axes, and more users hold a positive rho than a negative one."""
    r2_plus, r2_minus = (
        _r_squared_loglog(*(_values(rows, column) for column in ("value", "ccdf")))
        for rows in (_rows(run, "reputation_distributions.csv", measure=m) for m in ("rho_plus", "rho_minus"))
    )
    rho = _rows(run, "reputation_distributions.csv", measure="rho")
    value, pmf = _values(rho, "value"), _values(rho, "pmf")
    positive, negative = float(pmf[value > 0].sum()), float(pmf[value < 0].sum())
    detail = f"R² rho+={r2_plus:.3f}, rho-={r2_minus:.3f} (>0.90); mass rho>0={positive:.3f}, rho<0={negative:.3f}"
    ok = r2_plus > 0.90 and r2_minus > 0.90 and positive > negative
    return Reading(ok, (r2_plus, r2_minus, positive, negative), detail)


def reputation_rises_with_rewarding_indegree(run: Path) -> Reading:
    """The mean rho rises over the lower half of the log bins of rewarding in-degree."""
    rows = _rows(run, "reputation_by_indegree.csv", layer="rewarding")
    degree, mean, users = (_values(rows, column) for column in ("in_degree", "mean_rho", "n_users"))
    keep = degree >= 1
    # the bins [1, f), [f, f²), ... of `log_binned_means`, each degree weighted by its users
    bins = np.unique(np.floor(np.log(degree[keep]) / np.log(BIN_FACTOR)), return_inverse=True)[1]
    means = np.bincount(bins, (mean * users)[keep]) / np.bincount(bins, users[keep])
    steps = np.diff(means[: len(means) // 2])
    falling = int((steps <= 0).sum())
    return Reading(falling == 0, (len(steps), falling), f"{falling} of {len(steps)} steps over the lower bins do not rise")


# each criterion's ID, name and reader
CRITERIA: dict[str, tuple[str, Callable[[Path], Reading]]] = {
    "C1": ("dataset-counts", dataset_counts),
    "C2": ("score-modes", score_modes),
    "C3": ("gini-plateau", gini_plateau),
    "C4": ("clustering-vs-null", clustering_vs_null),
    "C5": ("norm-breaking-clustering", norm_breaking_clustering),
    "C6": ("disassortativity", disassortativity),
    "C7": ("rank-correlations", rank_correlations),
    "C8": ("categories", categories),
    "C9": ("temporal-patterns", temporal_patterns),
}
REPUTATION_CLAIMS = (reputation_tails, reputation_rises_with_rewarding_indegree)
READERS = [reader for _, reader in CRITERIA.values()] + list(REPUTATION_CLAIMS)


def read(reader: Callable[[Path], Reading], run: Path) -> Reading:
    """A reader's reading of `run`; a value it reads that the run does not hold fails the claim with the reason."""
    try:
        return reader(run)
    except NotMeasured as exc:
        return Reading(False, (), f"not measured: {exc}")


def _gate_run(log: Path, out: Path, *flags: str) -> Path:
    """The directory of a `wotnet all` run of `log` with the settings of `gate.conf`, overridden by `flags`."""
    assert main(["all", "--config", str(GATE_CONFIG), "--input", str(log), "--out", str(out), *flags]) == 0
    return out


@pytest.fixture(scope="session")
def gate_run(tmp_path_factory) -> Path | None:
    """The one run of the dataset that every dataset claim reads; None without the dataset."""
    path = dataset_path()
    return None if path is None else _gate_run(path, tmp_path_factory.mktemp("gate") / "run")


@pytest.fixture(scope="session")
def synthetic_run(tmp_path_factory) -> Path:
    """A gate run, with two replicas, of a log shaped like an eighth of Bitcoin-OTC's."""
    where = tmp_path_factory.mktemp("synthetic")
    flags = "--users 738 --events 4500 --seed 7 --scores skewed --t-span 20500000"
    assert main(["synth", *flags.split(), "--out", str(where / "log")]) == 0
    return _gate_run(where / "log" / "synthetic.csv", where / "run", "--null-samples", "2")


@pytest.fixture(scope="session")
def one_layer_run(tmp_path_factory) -> Path:
    """A gate run of two rewarding ratings: no punitive table has a row."""
    where = tmp_path_factory.mktemp("one-layer")
    (where / "log.csv").write_text("1,2,5,100\n2,3,4,200\n")
    return _gate_run(where / "log.csv", where / "run", "--null-samples", "2")


# ---------------------------------------------------------------------------
# dataset criteria


@pytest.mark.parametrize("cid", CRITERIA)
def test_criterion_reads_the_dataset_run(gate_run, cid):
    name, reader = CRITERIA[cid]
    if gate_run is None:
        line = f"ACCEPTANCE {cid} {name}: SKIP (dataset not present; set WOTNET_DATASET or data/)"
        ACCEPTANCE_LINES.append(line)
        print(line)
        pytest.skip("dataset not present")
    reading = read(reader, gate_run)
    _verdict(cid, name, reading.ok, reading.detail)


@pytest.mark.parametrize("reader", REPUTATION_CLAIMS, ids=lambda reader: reader.__name__)
def test_reputation_claim_reads_the_dataset_run(gate_run, reader):
    if gate_run is None:
        pytest.skip("dataset not present")
    reading = read(reader, gate_run)
    assert reading.ok, reading.detail


@pytest.mark.parametrize("reader", READERS, ids=lambda reader: reader.__name__)
def test_every_reader_measures_a_synthetic_run_and_names_what_a_one_layer_run_lacks(synthetic_run, one_layer_run, reader):
    reading = read(reader, synthetic_run)
    assert reading.statistic and all(map(math.isfinite, reading.statistic)), reading
    reading = read(reader, one_layer_run)
    assert all(map(math.isfinite, reading.statistic)) if reading.statistic else reading.detail.startswith("not measured: ")


def test_layer_sums_of_the_daily_series_are_the_layers(synthetic_run):
    # C1 reads the layers' sizes from `daily_activity.csv`
    log, report = ingest(synthetic_run / ".." / "log" / "synthetic.csv")
    assert dataset_counts(synthetic_run).statistic == (report.n_users, len(log), *map(len, split_layers(log)))


def test_a_dataset_path_that_names_no_file_is_an_error(monkeypatch, tmp_path):
    monkeypatch.setenv("WOTNET_DATASET", str(tmp_path / "no-such.csv"))
    with pytest.raises(FileNotFoundError, match=str(tmp_path / "no-such.csv")):
        dataset_path()


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
