"""Analysis toolkit for two-layer (rewarding/punitive) trust networks.

Signed, timestamped peer ratings are modeled as a directed weighted
temporal multigraph; the package measures its static structure (degree,
weight and reputation distributions, clustering against degree-preserving
nulls, neighbor-degree mixing, rank correlations), categorizes users by
received reputation, and follows the system through time (daily activity,
interevent statistics and burstiness, circadian/weekly profiles, Gini
concentration, top-k ranking stability, per-user trajectories).
"""

__version__ = "0.3.0"

from .categories import (
    CategoryLabel,
    CategoryThresholds,
    categorize,
    category_summary,
    negative_fraction,
    negative_fractions,
    reputation_vs_indegree_scatter,
)
from .distributions import from_values, log_binned_ccdf
from .dynamics import (
    TrajectorySelection,
    daily_fold,
    extended_jaccard,
    follow,
    gini,
    trajectories,
)
from .model import (
    EventLog,
    IngestError,
    Layer,
    MetricColumns,
    NodeMetrics,
    SynthConfig,
    gettrust,
    ingest,
    latest_ratings,
    metric_columns,
    node_metrics,
    split_layers,
    synth_log,
    write_log_csv,
)
from .static import (
    avg_neighbor_degree_spectrum,
    clustering_spectrum,
    configuration_null,
    kendall_tau,
    local_clustering,
    mean_clustering,
    ranked_users,
    ranking_report,
    reputation_by_indegree,
    reputation_distributions,
    undirected_projection,
    weight_distribution,
)
from .temporal import (
    annotations_for,
    burstiness,
    circadian_profile,
    daily_series,
    interevent_distribution,
    interevent_times,
    load_annotations,
    weekly_profile,
    yearly_burstiness,
)

__all__ = [
    "CategoryLabel",
    "CategoryThresholds",
    "EventLog",
    "IngestError",
    "Layer",
    "MetricColumns",
    "NodeMetrics",
    "SynthConfig",
    "TrajectorySelection",
    "annotations_for",
    "avg_neighbor_degree_spectrum",
    "burstiness",
    "categorize",
    "category_summary",
    "circadian_profile",
    "clustering_spectrum",
    "configuration_null",
    "daily_fold",
    "daily_series",
    "extended_jaccard",
    "follow",
    "from_values",
    "gettrust",
    "gini",
    "ingest",
    "interevent_distribution",
    "interevent_times",
    "kendall_tau",
    "latest_ratings",
    "load_annotations",
    "local_clustering",
    "log_binned_ccdf",
    "mean_clustering",
    "metric_columns",
    "negative_fraction",
    "negative_fractions",
    "node_metrics",
    "ranked_users",
    "ranking_report",
    "reputation_by_indegree",
    "reputation_distributions",
    "reputation_vs_indegree_scatter",
    "split_layers",
    "synth_log",
    "trajectories",
    "undirected_projection",
    "weekly_profile",
    "weight_distribution",
    "write_log_csv",
    "yearly_burstiness",
]
