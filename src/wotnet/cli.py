"""Command-line front end: reproducible analysis runs with CSV outputs.

Every subcommand that reads a log runs its entry of `STAGES` (`all` runs
every analysis stage) over one `RunContext`, which computes what several
stages share once.  Every run that writes files also writes a
`manifest.json` recording the resolved configuration, the input checksum,
the ingest counts, the tool version and the list of produced files.
Outputs are written atomically (temp file + rename) and floats are
formatted with %.12g, so identical (input, config, seed) runs produce
byte-identical files except for the manifest timestamp.

Exit codes: 0 success, 1 usage error, 2 input error, 3 analysis error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import secrets
import sys
import warnings
from datetime import date, datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from . import __version__
from .categories import (
    CategoryLabel,
    CategoryThresholds,
    categorize,
    category_summary,
    negative_fraction,
    reputation_vs_indegree_scatter,
)
from .distributions import Distribution, from_values, log_binned_ccdf
from .dynamics import DailyFold, TrajectorySelection, daily_fold, follow
from .model import (
    EventLog,
    IngestError,
    IngestReport,
    Layer,
    NodeMetrics,
    SynthConfig,
    ingest,
    node_metrics,
    split_layers,
    synth_log,
    write_log_csv,
)
from .static import (
    RANKING_KEYS,
    DegreeSpectrum,
    avg_neighbor_degree_spectrum,
    clustering_spectrum,
    configuration_null,
    log_binned_means,
    mean_clustering,
    ranking_report,
    reputation_by_indegree,
    reputation_distributions,
    spectrum_trend,
    undirected_projection,
    weight_distribution,
)
from .temporal import (
    MAX_TZ_SHIFT,
    MIN_TZ_SHIFT,
    annotations_for,
    burstiness,
    circadian_profile,
    daily_series,
    interevent_times,
    load_annotations,
    weekly_profile,
    yearly_burstiness,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_ANALYSIS = 3

LAYERS = (Layer.REWARDING, Layer.PUNITIVE)


class InputError(Exception):
    """Problem with the input data or auxiliary files (exit 2)."""


class UsageError(Exception):
    """Invalid configuration discovered after argument parsing (exit 1)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here reserves 2
    # for input problems, so route usage failures to exit 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.12g" % value
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, (Layer, CategoryLabel)):
        return value.value
    return str(value)


def _temp_path(path: Path) -> Path:
    # a fresh name per write, so that runs sharing a directory never write
    # into each other's temporary files
    return path.parent / f"{path.name}.{secrets.token_hex(8)}.tmp"


def _atomic_write(path: Path, text: str) -> None:
    # created exclusively; unlike mkstemp's 0600 files, this one gets the
    # umask's permissions
    tmp = _temp_path(path)
    with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


class RunWriter:
    """Collects the CSV outputs of one run and finalizes the manifest."""

    def __init__(self, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        # a run that fails must not leave an earlier run's manifest next to
        # its own files; the manifest is written last
        (out_dir / "manifest.json").unlink(missing_ok=True)
        self.out_dir = out_dir
        self.outputs: list[str] = []
        # ingest counts and warnings of a log-reading run, recorded in the manifest
        self.ingest: IngestReport | None = None
        self.warnings: list[str] | None = None

    def write_csv(self, name: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
        _atomic_write(self.out_dir / name, "\n".join(lines) + "\n")
        self.outputs.append(name)

    def write_manifest(self, command: str, config: dict, input_sha256: str | None) -> None:
        manifest = {
            "command": command,
            "config": config,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "input_sha256": input_sha256,
            "outputs": sorted(self.outputs),
            "tool": "wotnet",
            "version": __version__,
        }
        if self.ingest is not None:
            manifest["ingest"] = {
                "kept": self.ingest.events_kept,
                "rejected": self.ingest.events_rejected,
                "users": self.ingest.n_users,
            }
        if self.warnings is not None:
            manifest["warnings"] = self.warnings
        _atomic_write(
            self.out_dir / "manifest.json",
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# configuration


DEFAULTS: dict = {
    "input": None,
    "out": None,
    "tz_shift": -6,
    "thresholds": (0.25, 0.75),
    "topk": 10,
    "null_samples": 20,
    "seed": None,
    "mode": "lenient",
    "annotations": None,
}

_CONFIG_PARSERS = {
    "input": str,
    "out": str,
    "tz_shift": int,
    "thresholds": lambda s: _parse_thresholds(s),
    "topk": int,
    "null_samples": int,
    "seed": int,
    "mode": str,
    "annotations": str,
}


def _parse_thresholds(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("thresholds must be LOW,HIGH")
    return float(parts[0]), float(parts[1])


def _thresholds_arg(text: str) -> tuple[float, float]:
    try:
        return _parse_thresholds(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_config_file(path: str) -> dict:
    values: dict = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from exc
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not sep or key not in _CONFIG_PARSERS:
            raise UsageError(f"{path}: line {i}: unknown config entry {line!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](value.strip())
        except ValueError as exc:
            raise UsageError(f"{path}: line {i}: {exc}") from None
    return values


def _resolve_config(args: argparse.Namespace) -> dict:
    """DEFAULTS, overlaid by the config file, overlaid by explicit flags."""
    config = dict(DEFAULTS)
    if getattr(args, "config", None):
        config.update(_read_config_file(args.config))
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    if config["mode"] not in ("strict", "lenient"):
        raise UsageError(f"mode must be 'strict' or 'lenient', got {config['mode']!r}")
    if not MIN_TZ_SHIFT <= config["tz_shift"] <= MAX_TZ_SHIFT:
        raise UsageError(
            f"tz-shift must be in [{MIN_TZ_SHIFT}, {MAX_TZ_SHIFT}], got {config['tz_shift']}"
        )
    if config["topk"] < 1:
        raise UsageError(f"topk must be >= 1, got {config['topk']}")
    if config["null_samples"] < 1:
        raise UsageError(f"null-samples must be >= 1, got {config['null_samples']}")
    try:
        CategoryThresholds(*config["thresholds"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return config


def _require(config: dict, key: str, why: str):
    if config[key] is None:
        raise UsageError(f"--{key.replace('_', '-')} is required {why}")
    return config[key]


def _load_log(config: dict) -> tuple[EventLog, IngestReport]:
    path = _require(config, "input", "to read an event log")
    if not os.path.exists(path):
        raise InputError(f"input file not found: {path}")
    try:
        return ingest(path, mode=config["mode"])
    except IngestError as exc:
        raise InputError(str(exc)) from exc
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}") from exc


class RunContext:
    """The log of one run and what the stages derive from it.

    Each derived value is computed on first use and then shared by every
    stage, so `all` splits the layers, computes the node metrics and the
    labels, and folds the daily snapshots once.
    """

    def __init__(self, config: dict, selection: str | None):
        self.config = config
        self.log, self.report = _load_log(config)
        # `all` follows both top-entrant selections
        self.selections = (
            [TrajectorySelection(selection)]
            if selection
            else [TrajectorySelection.TOP_ENTRANTS_POSITIVE, TrajectorySelection.TOP_ENTRANTS_NEGATIVE]
        )

    @cached_property
    def layers(self) -> tuple[EventLog, EventLog]:
        return split_layers(self.log)

    @cached_property
    def metrics(self) -> dict[int, NodeMetrics]:
        return node_metrics(self.log)

    @cached_property
    def labels(self) -> dict[int, CategoryLabel]:
        return categorize(self.metrics, CategoryThresholds(*self.config["thresholds"]))

    @cached_property
    def fold(self) -> DailyFold:
        return daily_fold(self.log, self.config["topk"])


# ---------------------------------------------------------------------------
# stages: each writes its outputs from the shared run context


def _distribution_rows(dist: Distribution, *prefix) -> Iterable[tuple]:
    for v, p, c in zip(dist.support, dist.pmf, dist.ccdf):
        yield (*prefix, int(v), float(p), float(c))


def _spectrum_rows(spectrum: DegreeSpectrum, *prefix) -> Iterable[tuple]:
    for d, m, s, n in zip(spectrum.degree, spectrum.mean_value, spectrum.std_value, spectrum.n_nodes):
        yield (*prefix, int(d), float(m), float(s), int(n))


def _binned_rows(spectrum: DegreeSpectrum, *prefix) -> list[tuple]:
    centers, means = log_binned_means(spectrum)
    return [(*prefix, float(c), float(m)) for c, m in zip(centers, means)]


def _write_ingest_check(writer: RunWriter | None, ctx: RunContext) -> None:
    report = ctx.report
    print(f"events={report.events_kept}")
    print(f"users={report.n_users}")
    print(f"rejected={report.events_rejected}")
    for rej in report.rejections[:20]:
        print(f"line {rej.line_no}: {rej.reason}: {rej.text}", file=sys.stderr)
    if len(report.rejections) > 20:
        print(f"... {len(report.rejections) - 20} more", file=sys.stderr)
    if writer is not None:
        writer.write_csv(
            "rejected_lines.csv",
            ["line_no", "reason", "text"],
            ((r.line_no, r.reason, r.text.replace(",", ";")) for r in report.rejections),
        )


def _write_summary(writer: RunWriter | None, ctx: RunContext) -> None:
    log = ctx.log
    plus, minus = ctx.layers
    names = ("users", "events", "e_plus", "e_minus")
    counts = (len(log.users), len(log), len(plus), len(minus))
    print("\n".join(f"{name}={count}" for name, count in zip(names, counts)))
    if writer is not None:
        writer.write_csv("summary.csv", names, [counts])


def _write_static(writer: RunWriter, ctx: RunContext) -> None:
    seed = _require(ctx.config, "seed", "for the configuration-model null")
    n_samples = ctx.config["null_samples"]
    metrics = ctx.metrics
    layer_plus, layer_minus = ctx.layers
    pair = ((Layer.REWARDING, layer_plus), (Layer.PUNITIVE, layer_minus))

    writer.write_csv(
        "weight_distribution.csv",
        ["layer", "weight", "pmf", "ccdf"],
        (row for layer, view in pair for row in _distribution_rows(weight_distribution(view), layer)),
    )

    def degree_rows():
        for layer in LAYERS:
            for direction in ("in", "out"):
                attr = f"k_{direction}_{layer.short}"
                dist = from_values([getattr(m, attr) for m in metrics.values()])
                yield from _distribution_rows(dist, layer, direction)

    writer.write_csv(
        "degree_distributions.csv",
        ["layer", "direction", "degree", "pmf", "ccdf"],
        degree_rows(),
    )

    measures = zip(("rho_plus", "rho_minus", "rho"), reputation_distributions(metrics))
    writer.write_csv(
        "reputation_distributions.csv",
        ["measure", "value", "pmf", "ccdf"],
        (row for measure, dist in measures for row in _distribution_rows(dist, measure)),
    )

    clustering_rows = []
    clustering_binned_rows = []
    null_summary_rows = []
    projections = [undirected_projection(view.raters, view.ratees) for _, view in pair]
    for (layer, _), projection in zip(pair, projections):
        spectrum = clustering_spectrum(projection)
        clustering_binned_rows.extend(_binned_rows(spectrum, layer))
        null = configuration_null(projection, n_samples, seed)
        null_by_degree = {
            int(d): (float(m), float(s))
            for d, m, s in zip(null.degree, null.null_mean, null.null_std)
        }
        clustering_rows.extend(
            row + null_by_degree.get(row[1], (None, None)) for row in _spectrum_rows(spectrum, layer)
        )
        null_summary_rows.append(
            (
                layer,
                mean_clustering(projection),
                null.null_mean_clustering,
                null.null_std_clustering,
                null.n_samples,
                null.swaps_target,
                min(null.swaps_done),
                null.seed,
            )
        )
    writer.write_csv(
        "clustering_spectrum.csv",
        ["layer", "degree", "mean_clustering", "std_clustering", "n_nodes", "null_mean", "null_std"],
        clustering_rows,
    )
    writer.write_csv(
        "clustering_binned.csv",
        ["layer", "bin_center", "mean_clustering"],
        clustering_binned_rows,
    )
    writer.write_csv(
        "clustering_null.csv",
        [
            "layer",
            "empirical_mean",
            "null_mean",
            "null_std",
            "n_samples",
            "swaps_target",
            "min_swaps_done",
            "seed",
        ],
        null_summary_rows,
    )

    # single-rating vs. repeated/strong-rating sub-layers of L+, under both
    # degree conventions (all nodes vs. degree >= 2 only)
    by_weight = [("w_eq_1", layer_plus.where(layer_plus.scores == 1)), ("w_gt_1", layer_plus.where(layer_plus.scores >= 2))]
    sublayers = [(name, undirected_projection(view.raters, view.ratees)) for name, view in by_weight]
    norm_rows = []
    for convention, include_low in (("all_nodes", True), ("degree_ge_2", False)):
        for sublayer, projection in sublayers:
            norm_rows.append((convention, sublayer, mean_clustering(projection, include_low)))
    writer.write_csv(
        "norm_breaking_clustering.csv",
        ["convention", "sublayer", "mean_clustering"],
        norm_rows,
    )

    annd_rows = []
    binned_rows = []
    trend_rows = []
    for (layer, _), projection in zip(pair, projections):
        spectrum = avg_neighbor_degree_spectrum(projection)
        annd_rows.extend(_spectrum_rows(spectrum, layer))
        binned_rows.extend(_binned_rows(spectrum, layer))
        trend_rows.append((layer, spectrum_trend(spectrum)))
    writer.write_csv(
        "neighbor_degree_spectrum.csv",
        ["layer", "degree", "mean_neighbor_degree", "std_neighbor_degree", "n_nodes"],
        annd_rows,
    )
    writer.write_csv(
        "neighbor_degree_binned.csv",
        ["layer", "bin_center", "mean_neighbor_degree"],
        binned_rows,
    )
    writer.write_csv(
        "neighbor_degree_trend.csv", ["layer", "spearman"], trend_rows
    )

    report = ranking_report(metrics)
    writer.write_csv(
        "tau_matrix.csv",
        ["key", *RANKING_KEYS],
        (
            (key, *(float(report.tau_matrix[i, j]) for j in range(len(RANKING_KEYS))))
            for i, key in enumerate(RANKING_KEYS)
        ),
    )
    writer.write_csv(
        "ranking.csv",
        ["rank", "user", "k_in_plus", "k_in_minus", "k_out_plus", "k_out_minus", "rho"],
        report.by_inplus_rank,
    )

    writer.write_csv(
        "reputation_by_indegree.csv",
        ["layer", "in_degree", "mean_rho", "std_rho", "n_users"],
        (row for layer in LAYERS for row in _spectrum_rows(reputation_by_indegree(metrics, layer), layer)),
    )


def _write_categories(writer: RunWriter, ctx: RunContext) -> None:
    metrics, labels = ctx.metrics, ctx.labels

    writer.write_csv(
        "categories.csv",
        ["user", "rho_plus", "rho_minus", "rho", "r", "label"],
        (
            (
                u,
                m.rho_plus,
                m.rho_minus,
                m.rho,
                negative_fraction(m),
                labels[u],
            )
            for u, m in sorted(metrics.items())
        ),
    )

    stats = category_summary(metrics, labels)
    summary_rows = []
    for label, cs in stats.items():
        for quantity, summary in (
            ("rho", cs.rho),
            ("activity_plus", cs.activity_plus),
            ("activity_minus", cs.activity_minus),
            ("activity_total", cs.activity_total),
        ):
            summary_rows.append(
                (
                    label,
                    quantity,
                    cs.count,
                    summary.minimum,
                    summary.q1,
                    summary.median,
                    summary.q3,
                    summary.maximum,
                )
            )
    writer.write_csv(
        "category_summary.csv",
        ["category", "quantity", "count", "min", "q1", "median", "q3", "max"],
        summary_rows,
    )

    scatter = reputation_vs_indegree_scatter(metrics, labels)
    writer.write_csv(
        "reputation_scatter.csv",
        ["user", "k_in_total", "rho", "category"],
        ((p.user, p.k_in_total, p.rho, p.label) for p in scatter.points),
    )
    writer.write_csv(
        "reputation_scatter_slopes.csv",
        ["slope_per_rating"],
        ((s,) for s in scatter.limit_slopes),
    )


def _write_temporal(writer: RunWriter, ctx: RunContext) -> None:
    log, config = ctx.log, ctx.config
    shift = config["tz_shift"]
    windows = []
    if config["annotations"]:
        if not os.path.exists(config["annotations"]):
            raise InputError(f"annotation file not found: {config['annotations']}")
        try:
            windows = load_annotations(config["annotations"])
        except ValueError as exc:
            raise InputError(str(exc)) from exc

    shifts = [0] if shift == 0 else [0, shift]

    writer.write_csv(
        "daily_activity.csv",
        ["tz_shift_hours", "date", "count_plus", "count_minus", "annotations"],
        (
            (s, row.day, row.count_plus, row.count_minus, annotations_for(row.day, windows))
            for s in shifts
            for row in daily_series(log, s)
        ),
    )

    interevent_rows = []
    binned_rows = []
    burst_rows = []
    for layer in LAYERS:
        # layers without enough repeat ratings simply contribute no rows
        deltas = interevent_times(log, layer)
        if deltas.size > 0:
            dist = from_values(deltas)
            interevent_rows.extend(_distribution_rows(dist, layer))
            binned_rows.extend(
                (layer, float(v), float(c)) for v, c in log_binned_ccdf(dist)
            )
        if deltas.size >= 2:
            burst_rows.append((None, layer, burstiness(deltas), len(deltas)))
    for row in yearly_burstiness(log):
        burst_rows.append((row.year, row.layer, row.value, row.n_samples))
    writer.write_csv(
        "interevent_distribution.csv",
        ["layer", "dt_seconds", "pmf", "ccdf"],
        interevent_rows,
    )
    writer.write_csv(
        "interevent_binned_ccdf.csv",
        ["layer", "dt_seconds", "ccdf"],
        binned_rows,
    )
    # empty year marks the whole-log rows
    writer.write_csv(
        "burstiness.csv", ["year", "layer", "B", "n_samples"], burst_rows
    )

    def profile_rows(profile):
        for s in shifts:
            fractions = profile(log, s)
            for slot, pair in enumerate(zip(fractions[Layer.REWARDING], fractions[Layer.PUNITIVE])):
                yield (s, slot, *map(float, pair))

    writer.write_csv(
        "circadian_profile.csv",
        ["tz_shift_hours", "hour", "frac_plus", "frac_minus"],
        profile_rows(circadian_profile),
    )
    writer.write_csv(
        "weekly_profile.csv",
        ["tz_shift_hours", "weekday", "frac_plus", "frac_minus"],
        profile_rows(weekly_profile),
    )


def _final_state_check(ctx: RunContext) -> None:
    if ctx.fold.metrics != ctx.metrics:
        raise RuntimeError(
            "internal consistency check failed: final snapshot does not match "
            "aggregate per-user metrics"
        )


def _write_dynamics(writer: RunWriter, ctx: RunContext) -> None:
    fold = ctx.fold
    _final_state_check(ctx)
    writer.write_csv(
        "gini_series.csv",
        ["date", "gini_plus", "gini_minus"],
        ((p.day, p.gini_plus, p.gini_minus) for p in fold.gini),
    )
    # plain set overlap next to the order-sensitive index
    writer.write_csv(
        "topk_stability.csv",
        ["date", "J_plus", "J_minus", "J_global", "SJ_plus", "SJ_minus", "SJ_global", "truncated"],
        (
            (p.day, p.j_plus, p.j_minus, p.j_global, p.sj_plus, p.sj_minus, p.sj_global, p.truncated)
            for p in fold.stability
        ),
    )


def _write_trajectories(writer: RunWriter, ctx: RunContext) -> None:
    for selection in ctx.selections:
        # None follows every rated user
        users = None if selection is TrajectorySelection.BY_CATEGORY else ctx.fold.entrants[selection]
        writer.write_csv(
            f"trajectories_{selection.value.replace('-', '_')}.csv",
            ["user", "seq_index", "rho", "category"],
            (
                (t.user, step, value, t.category)
                for t in follow(ctx.log, users, ctx.labels)
                for step, value in enumerate(t.values, start=1)
            ),
        )


class Stage(NamedTuple):
    help: str
    build: Callable[[RunWriter | None, RunContext], None]
    analysis: bool = True  # needs --out and is part of `all`


# every subcommand that reads a log; `all` runs the analyses in this order
STAGES = {
    "ingest-check": Stage("parse the input and report per-line diagnostics", _write_ingest_check, False),
    "summary": Stage("print user/event/layer counts", _write_summary, False),
    "static": Stage("distributions, clustering vs. null, neighbor degrees, rankings", _write_static),
    "categories": Stage("user categories and their summaries", _write_categories),
    "temporal": Stage("daily series, interevent statistics, activity profiles", _write_temporal),
    "dynamics": Stage("daily snapshots: Gini series and top-k stability", _write_dynamics),
    "trajectories": Stage("per-user reputation trajectories", _write_trajectories),
}


def _run(args: argparse.Namespace) -> int:
    """Load the log once, run the command's stages over one shared context,
    then write the manifest."""
    config = _resolve_config(args)
    ctx = RunContext(config, getattr(args, "selection", None))
    if args.command == "all":
        stages = [stage for stage in STAGES.values() if stage.analysis]
    else:
        stages = [STAGES[args.command]]
    if stages[0].analysis:
        _require(config, "out", "to write analysis outputs")
    writer = RunWriter(Path(config["out"])) if config["out"] else None
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for stage in stages:
                stage.build(writer, ctx)
    finally:
        # recorded for the manifest, and passed on to the caller's filters
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    if writer is not None:
        writer.ingest = ctx.report
        writer.warnings = [str(w.message) for w in caught]
        writer.write_manifest(args.command, config, _sha256(config["input"]))
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    seed = _require(config, "seed", "to generate a synthetic log")
    try:
        synth_config = SynthConfig(
            n_users=args.users,
            n_events=args.events,
            seed=seed,
            positive_fraction=args.positive_fraction,
            score_distribution=args.scores,
            time_model=args.times,
            t_start=args.t_start,
            t_span=args.t_span,
            rate=args.rate,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    log = synth_log(synth_config)
    writer = RunWriter(Path(_require(config, "out", "to write the synthetic log")))
    target = writer.out_dir / "synthetic.csv"
    tmp = _temp_path(target)
    write_log_csv(log, tmp)
    os.replace(tmp, target)
    writer.outputs.append("synthetic.csv")
    synth_keys = ("users", "events", "positive_fraction", "scores", "times", "t_start", "t_span", "rate")
    config.update((key, getattr(args, key)) for key in synth_keys)
    writer.write_manifest("synth", config, None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser, *, needs_input: bool = True) -> None:
    if needs_input:
        sub.add_argument("--input", help="event log CSV (plain or gzip)")
        sub.add_argument("--mode", choices=("strict", "lenient"), help="ingest mode (default lenient)")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--config", help="flat key=value config file (flags win)")
    sub.add_argument("--seed", type=int, help="master seed for randomized steps")
    sub.add_argument("--tz-shift", type=int, dest="tz_shift", help="timezone shift in hours for calendar bucketing (default -6)")
    sub.add_argument("--thresholds", type=_thresholds_arg, help="category cut points LOW,HIGH (default 0.25,0.75)")
    sub.add_argument("--topk", type=int, help="ranking depth for stability and trajectories (default 10)")
    sub.add_argument("--null-samples", type=int, dest="null_samples", help="configuration-model replicas (default 20)")
    sub.add_argument("--annotations", help="label,start,end CSV of date windows joined onto daily output")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wotnet",
        description="Two-layer trust-network analysis: ingestion, static and "
        "temporal measurements, reputation dynamics.",
    )
    parser.add_argument("--version", action="version", version=f"wotnet {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    specs = [
        *((name, _run, stage.help) for name, stage in STAGES.items()),
        ("synth", _cmd_synth, "generate a synthetic event log"),
        ("all", _run, "run every analysis into one output directory"),
    ]
    for name, func, help_text in specs:
        sub = commands.add_parser(name, help=help_text)
        _add_common(sub, needs_input=name != "synth")
        sub.set_defaults(func=func)
        if name == "trajectories":
            sub.add_argument(
                "--selection",
                choices=sorted(s.value for s in TrajectorySelection),
                default=TrajectorySelection.TOP_ENTRANTS_POSITIVE.value,
                help="which users to follow (default top-positive)",
            )
        if name == "synth":
            sub.add_argument("--users", type=int, required=True, help="number of users")
            sub.add_argument("--events", type=int, required=True, help="number of events")
            sub.add_argument("--positive-fraction", type=float, default=0.9, dest="positive_fraction")
            sub.add_argument("--scores", choices=("flat", "skewed"), default="flat")
            sub.add_argument("--times", choices=("uniform", "poisson"), default="uniform")
            sub.add_argument("--t-start", type=int, default=1_300_000_000, dest="t_start")
            sub.add_argument("--t-span", type=int, default=4 * 365 * 86_400, dest="t_span")
            sub.add_argument("--rate", type=float, default=0.01)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"wotnet: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"wotnet: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"wotnet: analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
