"""Command-line front end: reproducible analysis runs with CSV outputs.

Every subcommand that reads a log runs its entry of `STAGES` (`all` runs
every analysis stage) over one `RunContext`, which computes what several
stages share once.  Every run that writes files also writes a
`manifest.json` recording the resolved configuration, the input checksum,
the ingest counts, the tool version and the list of produced files.
A run writes its files into a hidden directory beside its output
directory and publishes them together when it ends, so a run that fails
leaves the output directory as it was.  Floats are formatted with %.12g,
so identical (input, config, seed) runs produce byte-identical files
except for the manifest timestamp.

Exit codes: 0 success, 1 usage error, 2 input error, 3 analysis error.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import shutil
import sys
import warnings
import zlib
from contextlib import nullcontext
from dataclasses import MISSING, astuple, fields
from datetime import date, datetime, timezone
from functools import cache, cached_property
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence, get_type_hints

import numpy as np

from . import __version__
from .categories import (
    LABEL_TEXTS,
    CategoryLabel,
    CategoryThresholds,
    categorize,
    category_summary,
    negative_fractions,
    reputation_vs_indegree_scatter,
)
from .distributions import from_values, log_binned_ccdf
from .dynamics import DailyFold, TrajectorySelection, daily_fold, follow
from .model import (
    EventLog,
    IngestError,
    IngestReport,
    Layer,
    SynthConfig,
    MetricColumns,
    ingest,
    metric_columns,
    split_layers,
    synth_log,
)
from .static import (
    RANKING_KEYS,
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
    burstiness_table,
    circadian_profile,
    daily_series,
    interevent_times,
    load_annotations,
    weekly_profile,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_ANALYSIS = 3

LAYERS = tuple(Layer)


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
    """The CSV text of one cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.12g" % value
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, (Layer, CategoryLabel)):
        return value._value_
    return str(value)


# rows formatted and written at a time: a run holds one slice's text, never a
# whole table's, however long the calendar
_SLICE_ROWS = 1 << 10


def _texts(column: np.ndarray | list) -> list:
    """The values of a column that its `%` format reads: Python floats for a
    float64 array (`%.12g`), ints for an int array and else the cells' text
    (`%s`), one `_fmt` per cell for any column but a list of texts or an
    array of str, bools or days."""
    if isinstance(column, list):
        return column if set(map(type, column)) <= {str} else list(map(_fmt, column))
    if column.dtype.kind in "iuU" or column.dtype == np.float64:
        return column.tolist()
    if column.dtype.kind == "b":
        return np.where(column, "true", "false").tolist()
    if column.dtype == "datetime64[D]":
        return np.datetime_as_string(column).tolist()
    return list(map(_fmt, column))


class _masked:
    """A float column with an empty cell where not `present`; a slice of it
    is the texts of its cells, so that only the slice written is formatted."""

    def __init__(self, values: np.ndarray, present: np.ndarray):
        self.values, self.present = values, present

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, rows: slice) -> list[str]:
        return ["%.12g" % v if ok else "" for v, ok in zip(self.values[rows].tolist(), self.present[rows].tolist())]


def _block_lines(name: str, block: Sequence) -> Iterator[str]:
    """The text of one block of a table, `_SLICE_ROWS` lines at a time: its
    columns of one length and constant cells, one format string for all."""
    formats, columns = [], []
    for cell in block:
        if isinstance(cell, (np.ndarray, list, _masked)):
            formats.append("%.12g" if isinstance(cell, np.ndarray) and cell.dtype == np.float64 else "%s")
            columns.append(cell)
        else:
            formats.append(_fmt(cell).replace("%", "%%"))
    row = ",".join(formats)
    if not columns:
        yield row % () + "\n"
        return
    lengths = set(map(len, columns))
    if len(lengths) > 1:
        raise ValueError(f"{name}: columns of unequal length")
    for start in range(0, lengths.pop(), _SLICE_ROWS):
        values = [_texts(column[start : start + _SLICE_ROWS]) for column in columns]
        yield "\n".join(map(row.__mod__, zip(*values))) + "\n"


class RunWriter:
    """The files of one run, written into `out_dir`, a hidden directory
    beside `out`, and published together.

    Used as a context manager: when its block ends, the files move into
    `out`, with one rename if `out` is new and else one by one over their
    namesakes, the manifest last, so an existing `out` keeps its own mode and
    owner; on an exception they are removed and `out` is left as it was.
    """

    def __init__(self, out: Path):
        self.out = out.resolve()
        if self.out.exists() and not self.out.is_dir():
            raise NotADirectoryError(f"{out} is not a directory")
        self.out.parent.mkdir(parents=True, exist_ok=True)
        self.out_dir = self.out.parent / f".{self.out.name}.{os.urandom(8).hex()}"
        self.out_dir.mkdir()
        self.outputs: list[str] = []

    def __enter__(self) -> RunWriter:
        return self

    def __exit__(self, failure, *_) -> None:
        try:
            if failure is None:
                self._publish()
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)

    def _publish(self) -> None:
        if not self.out.exists():
            os.rename(self.out_dir, self.out)
            return
        # while ours join the files of `out`, no manifest lists a mix
        (self.out / "manifest.json").unlink(missing_ok=True)
        for name in sorted(os.listdir(self.out_dir), key="manifest.json".__eq__):
            os.replace(self.out_dir / name, self.out / name)

    def write_csv(self, name: str, header: Sequence[str], *blocks: Sequence) -> None:
        """Write the table of `blocks`, one below the other; no block makes a
        header-only file.

        A block is a sequence of cells.  A numpy array, a list or `_masked`
        is a column; the columns of a block have one length.  Any other cell
        is a constant of each of the block's rows, and a block of constants
        only is one row.  Every cell is written as `_fmt` writes it: ints in
        decimal, floats with %.12g, None as an empty cell, bools as
        true/false and enum members as their values.  Arrays of ints,
        float64, bools, datetime64[D] days or str and lists of texts are
        formatted whole, any other column cell by cell.
        """
        with open(self.out_dir / name, "x", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for block in blocks:  # each slice written as it comes
                fh.writelines(_block_lines(name, block))
        self.outputs.append(name)

    def write_manifest(
        self,
        command: str,
        config: dict,
        input_sha256: str | None,
        ingest: IngestReport | None = None,
        warnings: list[str] | None = None,
    ) -> None:
        """Write `manifest.json`; a log-reading run also records its ingest
        counts and the warnings its stages raised."""
        manifest = {
            "command": command,
            "config": config,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "input_sha256": input_sha256,
            "outputs": sorted(self.outputs),
            "tool": "wotnet",
            "version": __version__,
        }
        if ingest is not None:
            manifest["ingest"] = {"kept": ingest.events_kept, "rejected": ingest.events_rejected, "users": ingest.n_users}
        if warnings is not None:
            manifest["warnings"] = warnings
        (self.out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# configuration


def _int_in(low: int, high: float = math.inf) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise ValueError(f"must be in [{low}, {high}], got {value}")
        return value

    return parse


def _mode(text: str) -> str:
    if text not in ("strict", "lenient"):
        raise ValueError(f"must be 'strict' or 'lenient', got {text!r}")
    return text


def _thresholds(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("must be LOW,HIGH")
    return astuple(CategoryThresholds(*map(float, parts)))


class Option(NamedTuple):
    parse: Callable[[str], object]  # converts a flag or config-file text; ValueError if invalid
    default: object
    help: str


# every setting of a run, each settable as a flag or a config-file entry
OPTIONS = {
    "input": Option(str, None, "event log CSV (plain or gzip)"),
    "mode": Option(_mode, "lenient", "ingest mode, strict or lenient"),
    "out": Option(str, None, "output directory"),
    "seed": Option(_int_in(0), None, "master seed for randomized steps"),
    "tz_shift": Option(_int_in(MIN_TZ_SHIFT, MAX_TZ_SHIFT), -6, "timezone shift in hours for calendar bucketing"),
    "thresholds": Option(_thresholds, astuple(CategoryThresholds()), "category cut points LOW,HIGH"),
    "topk": Option(_int_in(1), 10, "ranking depth for stability and trajectories"),
    "null_samples": Option(_int_in(1), 20, "configuration-model replicas"),
    "annotations": Option(str, None, "label,start,end CSV of date windows joined onto daily output"),
}

# `wotnet synth` flag -> the SynthConfig field it sets; its type and default are the field's
SYNTH_FLAGS = {
    "users": "n_users",
    "events": "n_events",
    "positive_fraction": "positive_fraction",
    "scores": "score_distribution",
    "times": "time_model",
    "t_start": "t_start",
    "t_span": "t_span",
    "rate": "rate",
}


def _flag(key: str) -> str:
    return key.replace("_", "-")


def _parse(key: str, text: str, where: str = "") -> object:
    try:
        return OPTIONS[key].parse(text)
    except ValueError as exc:
        raise UsageError(f"{where}{_flag(key)}: {exc}") from None


def _read_config_file(path: str) -> dict:
    values: dict = {}
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config file: {exc}") from exc
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not sep or key not in OPTIONS:
            raise UsageError(f"{path}: line {i}: unknown config entry {line!r}")
        values[key] = _parse(key, value.strip(), f"{path}: line {i}: ")
    return values


def _resolve_config(args: argparse.Namespace) -> dict:
    """The defaults of OPTIONS, overlaid by the config file, overlaid by
    explicit flags; each value is checked as it is parsed."""
    config = {key: option.default for key, option in OPTIONS.items()}
    if args.config:
        config.update(_read_config_file(args.config))
    for key in OPTIONS:
        text = getattr(args, key, None)
        if text is not None:
            config[key] = _parse(key, text)
    return config


def _require(config: dict, key: str, why: str):
    if config[key] is None:
        raise UsageError(f"--{_flag(key)} is required {why}")
    return config[key]


def _load_log(config: dict) -> tuple[EventLog, IngestReport, str]:
    """The log, its ingest report and the SHA-256 of the bytes it was read from."""
    path = _require(config, "input", "to read an event log")
    if not os.path.exists(path):
        raise InputError(f"input file not found: {path}")
    try:
        data = Path(path).read_bytes()
        return *ingest(io.BytesIO(data), mode=config["mode"]), hashlib.sha256(data).hexdigest()
    except IngestError as exc:
        raise InputError(str(exc)) from exc
    except OSError as exc:  # a bad gzip header or checksum too
        raise InputError(f"cannot read input: {exc}") from exc
    except (EOFError, zlib.error, UnicodeDecodeError) as exc:  # truncated gzip, bad deflate data, not UTF-8
        raise InputError(f"cannot decode input: {exc}") from exc


def _run_writer(out: str) -> RunWriter:
    try:
        return RunWriter(Path(out))
    except OSError as exc:  # such as a file in place of the directory
        raise UsageError(f"--out: cannot create the output directory: {exc}") from None


class RunContext:
    """The log of one run and what the stages derive from it.

    Each derived value is computed on first use and then shared by every
    stage, so `all` splits the layers, computes the node metrics and the
    labels, and folds the daily snapshots once.
    """

    def __init__(self, config: dict, selection: str | None):
        self.config = config
        self.log, self.report, self.input_sha256 = _load_log(config)
        # read before any stage writes, so that a bad file writes nothing
        self.windows = []
        if config["annotations"]:
            try:
                self.windows = load_annotations(config["annotations"])
            except (ValueError, OSError) as exc:
                raise InputError(f"cannot read annotation file: {exc}") from exc
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
    def columns(self) -> MetricColumns:
        return metric_columns(self.log)

    @cached_property
    def labels(self) -> np.ndarray:
        return categorize(self.columns, CategoryThresholds(*self.config["thresholds"]))

    @cached_property
    def fold(self) -> DailyFold:
        return daily_fold(self.log, self.config["topk"])


# ---------------------------------------------------------------------------
# stages: each writes its outputs from the shared run context


def _csv_cell(text: str) -> str:
    """`text` as one CSV cell: each comma written as `;`, and the cell quoted
    as RFC 4180 quotes it if it holds a `"`."""
    text = text.replace(",", ";")
    return '"' + text.replace('"', '""') + '"' if '"' in text else text


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
        rejections = report.rejections
        writer.write_csv(
            "rejected_lines.csv",
            ["line_no", "reason", "text"],
            [
                np.array([r.line_no for r in rejections], dtype=np.int64),
                [_csv_cell(r.reason) for r in rejections],
                [_csv_cell(r.text) for r in rejections],
            ],
        )


def _write_summary(writer: RunWriter | None, ctx: RunContext) -> None:
    log = ctx.log
    plus, minus = ctx.layers
    names = ("users", "events", "e_plus", "e_minus")
    counts = (len(log.user_codes()[0]), len(log), len(plus), len(minus))
    print("\n".join(f"{name}={count}" for name, count in zip(names, counts)))
    if writer is not None:
        writer.write_csv("summary.csv", names, counts)


def _kept(table: str, row: str, why: str, ok: bool) -> bool:
    """Whether a row of `table` is written; a row left out raises a warning naming it and why."""
    if not ok:
        warnings.warn(f"{table}: row {row} left out: {why}", RuntimeWarning)
    return ok


def _write_static(writer: RunWriter, ctx: RunContext) -> None:
    seed = _require(ctx.config, "seed", "for the configuration-model null")
    n_samples = ctx.config["null_samples"]
    columns = ctx.columns
    layer_plus = ctx.layers[0]
    pair = tuple(zip(LAYERS, ctx.layers))

    writer.write_csv(
        "weight_distribution.csv",
        ["layer", "weight", "pmf", "ccdf"],
        *((layer, *weight_distribution(view)) for layer, view in pair),
    )

    fields = columns.fields
    writer.write_csv(
        "degree_distributions.csv",
        ["layer", "direction", "degree", "pmf", "ccdf"],
        *(
            (layer, direction, *from_values(fields[row + offset]))
            for row, layer in enumerate(LAYERS)
            for offset, direction in ((0, "in"), (2, "out"))
        ),
    )

    measures = zip(("rho_plus", "rho_minus", "rho"), reputation_distributions(columns))
    writer.write_csv(
        "reputation_distributions.csv",
        ["measure", "value", "pmf", "ccdf"],
        *((measure, *dist) for measure, dist in measures),
    )

    projections = [undirected_projection(view.raters, view.ratees) for _, view in pair]
    spectrum_blocks, binned_blocks, null_rows = [], [], []
    for layer, projection in zip(LAYERS, projections):
        spectrum = clustering_spectrum(projection)
        binned_blocks.append((layer, *log_binned_means(spectrum)))
        # a layer of no node has no spectrum rows either
        if not _kept("clustering_null.csv", layer.value, "no node to average", len(projection.nodes) > 0):
            continue
        null = configuration_null(projection, n_samples, seed)
        stats = (null.null_mean_clustering, null.null_std_clustering, null.n_samples, null.swaps_target)
        null_rows.append((layer, mean_clustering(projection), *stats, min(null.swaps_done), null.seed, null.swaps_gap))
        # the replicas keep every projected degree, so the null's degrees are the spectrum's
        spectrum_blocks.append((layer, *spectrum, null.null_mean, null.null_std))
    writer.write_csv(
        "clustering_spectrum.csv",
        ["layer", "degree", "mean_clustering", "std_clustering", "n_nodes", "null_mean", "null_std"],
        *spectrum_blocks,
    )
    writer.write_csv("clustering_binned.csv", ["layer", "bin_center", "mean_clustering"], *binned_blocks)
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
            "swaps_gap",
        ],
        *null_rows,
    )

    # single-rating vs. repeated/strong-rating sub-layers of L+, under both
    # degree conventions (all nodes vs. degree >= 2 only)
    by_weight = [("w_eq_1", layer_plus.where(layer_plus.scores == 1)), ("w_gt_1", layer_plus.where(layer_plus.scores >= 2))]
    sublayers = [(name, undirected_projection(view.raters, view.ratees)) for name, view in by_weight]
    conventions = (("all_nodes", 0), ("degree_ge_2", 2))  # the least degree of the nodes each averages over
    writer.write_csv(
        "norm_breaking_clustering.csv",
        ["convention", "sublayer", "mean_clustering"],
        *(
            (convention, name, mean_clustering(projection, include_low_degree=least < 2))
            for convention, least in conventions
            for name, projection in sublayers
            if _kept("norm_breaking_clustering.csv", f"{convention},{name}", "no node to average", (projection.degree >= least).any())
        ),
    )

    spectra = [avg_neighbor_degree_spectrum(projection) for projection in projections]
    binned = [(layer, *log_binned_means(spectrum)) for layer, spectrum in zip(LAYERS, spectra)]
    trends = [
        (layer, spectrum_trend(spectrum))
        for (layer, centers, _), spectrum in zip(binned, spectra)
        if _kept("neighbor_degree_trend.csv", layer.value, "fewer than two log bins", len(centers) >= 2)
    ]
    writer.write_csv(
        "neighbor_degree_spectrum.csv",
        ["layer", "degree", "mean_neighbor_degree", "std_neighbor_degree", "n_nodes"],
        *((layer, *spectrum) for layer, spectrum in zip(LAYERS, spectra)),
    )
    writer.write_csv("neighbor_degree_binned.csv", ["layer", "bin_center", "mean_neighbor_degree"], *binned)
    writer.write_csv("neighbor_degree_trend.csv", ["layer", "spearman"], *trends)

    report = ranking_report(columns)
    writer.write_csv("tau_matrix.csv", ["key", *RANKING_KEYS], [list(RANKING_KEYS), *report.tau_matrix.T])
    writer.write_csv(
        "ranking.csv",
        ["rank", "user", "k_in_plus", "k_in_minus", "k_out_plus", "k_out_minus", "rho"],
        list(report.by_inplus_rank.T),
    )

    writer.write_csv(
        "reputation_by_indegree.csv",
        ["layer", "in_degree", "mean_rho", "std_rho", "n_users"],
        *((layer, *reputation_by_indegree(columns, layer)) for layer in LAYERS),
    )


def _write_categories(writer: RunWriter, ctx: RunContext) -> None:
    scatter = reputation_vs_indegree_scatter(ctx.columns, ctx.labels)
    label_texts = LABEL_TEXTS[scatter.labels].tolist()
    rho_plus, rho_minus = ctx.columns.fields[4:]
    # the negative fraction r, empty for a user with no received reputation
    r, received = negative_fractions(rho_plus, rho_minus)
    writer.write_csv(
        "categories.csv",
        ["user", "rho_plus", "rho_minus", "rho", "r", "label"],
        [scatter.users, rho_plus, rho_minus, scatter.rho, _masked(r, received), label_texts],
    )

    summary = category_summary(ctx.columns, ctx.labels)
    writer.write_csv(
        "category_summary.csv",
        ["category", "quantity", "count", "min", "q1", "median", "q3", "max"],
        [[c.value for c in summary.category], summary.quantity, summary.count, *summary.quantiles.T],
    )

    writer.write_csv(
        "reputation_scatter.csv",
        ["user", "k_in_total", "rho", "category"],
        [scatter.users, scatter.k_in_total, scatter.rho, label_texts],
    )
    writer.write_csv("reputation_scatter_slopes.csv", ["slope_per_rating"], [np.array(scatter.limit_slopes)])


def _write_temporal(writer: RunWriter, ctx: RunContext) -> None:
    log, shift, windows = ctx.log, ctx.config["tz_shift"], ctx.windows
    shifts = [0] if shift == 0 else [0, shift]

    def daily_blocks():
        for s in shifts:
            series = daily_series(log, s)
            # no window makes every annotation empty
            notes = [annotations_for(day, windows) for day in series.day.tolist()] if windows else ""
            yield s, *series, notes

    writer.write_csv(
        "daily_activity.csv",
        ["tz_shift_hours", "date", "count_plus", "count_minus", "annotations"],
        *daily_blocks(),
    )

    interevent_blocks, binned_blocks = [], []
    for layer, deltas in interevent_times(log).items():
        dist = from_values(deltas)
        interevent_blocks.append((layer, *dist))
        binned_blocks.append((layer, *log_binned_ccdf(dist)))
    writer.write_csv("interevent_distribution.csv", ["layer", "dt_seconds", "pmf", "ccdf"], *interevent_blocks)
    writer.write_csv("interevent_binned_ccdf.csv", ["layer", "dt_seconds", "ccdf"], *binned_blocks)
    writer.write_csv("burstiness.csv", ["year", "layer", "B", "n_samples"], burstiness_table(log))

    profiles = (("circadian", "hour", circadian_profile), ("weekly", "weekday", weekly_profile))
    for name, slot, profile in profiles:
        fractions = [profile(log, s).values() for s in shifts]
        writer.write_csv(
            f"{name}_profile.csv",
            ["tz_shift_hours", slot, "frac_plus", "frac_minus"],
            *((s, np.arange(len(plus)), plus, minus) for s, (plus, minus) in zip(shifts, fractions)),
        )


def _final_state_check(ctx: RunContext) -> None:
    users, fields = ctx.columns
    if not (np.array_equal(ctx.log.user_codes()[0], users) and np.array_equal(ctx.fold.rho, fields[4:])):
        raise RuntimeError(
            "internal consistency check failed: final snapshot does not match "
            "aggregate per-user metrics"
        )


def _write_dynamics(writer: RunWriter, ctx: RunContext) -> None:
    gini, stability = ctx.fold.gini, ctx.fold.stability
    _final_state_check(ctx)
    writer.write_csv(
        "gini_series.csv",
        ["date", "gini_plus", "gini_minus"],
        [gini.day, *map(_masked, (gini.gini_plus, gini.gini_minus), gini.measured)],
    )
    # plain set overlap next to the order-sensitive index; a side's mask serves both
    writer.write_csv(
        "topk_stability.csv",
        ["date", "J_plus", "J_minus", "J_global", "SJ_plus", "SJ_minus", "SJ_global", "truncated"],
        [stability.day, *map(_masked, stability[1:7], [*stability.measured] * 2), stability.truncated],
    )


def _write_trajectories(writer: RunWriter, ctx: RunContext) -> None:
    runs = follow(ctx.log, None, ctx.labels)  # sorted once for every selection
    for selection in ctx.selections:
        t = runs if selection is TrajectorySelection.BY_CATEGORY else runs.pick(ctx.fold.entrants[selection])
        starts = np.cumsum(t.counts) - t.counts
        writer.write_csv(
            f"trajectories_{selection.value.replace('-', '_')}.csv",
            ["user", "seq_index", "rho", "category"],
            [
                np.repeat(t.users, t.counts),
                np.arange(1, len(t.rho) + 1) - np.repeat(starts, t.counts),
                t.rho,
                LABEL_TEXTS[np.repeat(t.categories, t.counts)].tolist(),
            ],
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
    then write the manifest; the run's files are published only if all of
    this succeeds."""
    config = _resolve_config(args)
    ctx = RunContext(config, getattr(args, "selection", None))
    stages = [stage for stage in STAGES.values() if stage.analysis] if args.command == "all" else [STAGES[args.command]]
    if stages[0].analysis:
        _require(config, "out", "to write analysis outputs")
    with _run_writer(config["out"]) if config["out"] else nullcontext() as writer:
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
            writer.write_manifest(args.command, config, ctx.input_sha256, ctx.report, [str(w.message) for w in caught])
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    seed = _require(config, "seed", "to generate a synthetic log")
    given = {field: getattr(args, flag) for flag, field in SYNTH_FLAGS.items()}
    try:
        synth_config = SynthConfig(seed=seed, **{k: v for k, v in given.items() if v is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    log = synth_log(synth_config)
    with _run_writer(_require(config, "out", "to write the synthetic log")) as writer:
        writer.write_csv("synthetic.csv", ["rater", "ratee", "score", "timestamp"], [log.raters, log.ratees, log.scores, log.timestamps])
        config.update((flag, getattr(synth_config, field)) for flag, field in SYNTH_FLAGS.items())
        writer.write_manifest("synth", config, None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _default_help(help_text: str, default: object) -> str:
    if isinstance(default, tuple):
        default = ",".join(map(str, default))
    return help_text if default in (None, MISSING) else f"{help_text} (default {default})"


def _add_common(sub: argparse.ArgumentParser, *, needs_input: bool = True) -> None:
    sub.add_argument("--config", help="flat key=value config file (flags win)")
    for key, option in OPTIONS.items():
        if needs_input or key not in ("input", "mode"):
            sub.add_argument(f"--{_flag(key)}", dest=key, help=_default_help(option.help, option.default))


@cache  # built once per process: parsing leaves the parser as it was
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
            default, choices = TrajectorySelection.TOP_ENTRANTS_POSITIVE.value, sorted(s.value for s in TrajectorySelection)
            help_text = _default_help("which users to follow", default)
            sub.add_argument("--selection", choices=choices, default=default, help=help_text)
        if name == "synth":
            types = get_type_hints(SynthConfig)
            defaults = {field.name: field.default for field in fields(SynthConfig)}
            for flag, field in SYNTH_FLAGS.items():
                default = defaults[field]
                help_text = _default_help(f"SynthConfig.{field}", default)
                sub.add_argument(f"--{_flag(flag)}", dest=flag, type=types[field], required=default is MISSING, help=help_text)
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
