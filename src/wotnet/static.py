"""Aggregate-network measurements: distributions, clustering spectra with a
degree-preserving null model, neighbor-degree spectra, and rank correlations
between the per-user attributes.

Clustering and neighbor-degree measures operate on the undirected unweighted
projection of a layer: parallel edges and edge directions are collapsed into
single simple edges.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import stats as sps

from .distributions import Distribution, from_values
from .model import Layer, LayerView, NodeMetrics

RANKING_KEYS = ("k_in_plus", "k_in_minus", "k_out_plus", "k_out_minus", "rho")


@dataclass(frozen=True, eq=False)
class DegreeSpectrum:
    """Per-degree-bucket mean/std of some node-level value."""

    degree: np.ndarray
    mean_value: np.ndarray
    std_value: np.ndarray
    n_nodes: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.degree, self.mean_value, self.std_value, self.n_nodes):
            a.setflags(write=False)

    def as_dict(self) -> dict[int, float]:
        return {int(d): float(m) for d, m in zip(self.degree, self.mean_value)}


def _bucket_spectrum(buckets: Sequence[int], values: Sequence[float]) -> DegreeSpectrum:
    b = np.asarray(buckets)
    v = np.asarray(values, dtype=float)
    levels = np.unique(b)
    means = np.empty(len(levels))
    stds = np.empty(len(levels))
    counts = np.empty(len(levels), dtype=np.int64)
    for i, level in enumerate(levels):
        sel = v[b == level]
        means[i] = sel.mean()
        stds[i] = sel.std()
        counts[i] = sel.size
    return DegreeSpectrum(levels, means, stds, counts)


def undirected_projection(layer: LayerView) -> dict[int, set[int]]:
    """Adjacency sets of the simple undirected graph underlying a layer."""
    adj: dict[int, set[int]] = {}
    for u, v in zip(layer.raters.tolist(), layer.ratees.tolist()):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def local_clustering(adj: Mapping[int, set[int]]) -> dict[int, float]:
    """Fraction of closed neighbor pairs per node; 0 for degree < 2."""
    out: dict[int, float] = {}
    for node, neigh in adj.items():
        d = len(neigh)
        if d < 2:
            out[node] = 0.0
            continue
        links = sum(len(neigh & adj[u]) for u in neigh) // 2
        out[node] = links / (d * (d - 1) / 2)
    return out


def clustering_spectrum(
    layer: LayerView, include_low_degree: bool = True
) -> DegreeSpectrum:
    """Mean/std of local clustering per total-degree bucket.

    `include_low_degree=False` drops the degree<2 nodes (whose clustering is
    0 by convention) instead of averaging them in.
    """
    adj = undirected_projection(layer)
    cc = local_clustering(adj)
    degrees, values = [], []
    for node, c in cc.items():
        d = len(adj[node])
        if d < 2 and not include_low_degree:
            continue
        degrees.append(d)
        values.append(c)
    return _bucket_spectrum(degrees, values)


def mean_clustering(layer: LayerView, include_low_degree: bool = True) -> float:
    """Average local clustering over the projected nodes.

    Only nodes incident to at least one edge of the layer exist in the
    projection; with `include_low_degree=False` the average is restricted
    to nodes of degree >= 2.
    """
    adj = undirected_projection(layer)
    cc = local_clustering(adj)
    values = [
        c for node, c in cc.items() if include_low_degree or len(adj[node]) >= 2
    ]
    if not values:
        raise ValueError("no nodes satisfy the requested clustering convention")
    return float(np.mean(values))


def avg_neighbor_degree_spectrum(layer: LayerView) -> DegreeSpectrum:
    """Mean neighbor degree averaged within each total-degree bucket."""
    adj = undirected_projection(layer)
    degrees, values = [], []
    for node, neigh in adj.items():
        degrees.append(len(neigh))
        values.append(float(np.mean([len(adj[u]) for u in neigh])))
    return _bucket_spectrum(degrees, values)


@dataclass(frozen=True, eq=False)
class NullModelResult:
    """Clustering statistics of degree-preserving rewired replicas.

    Per-degree rows aggregate the bucket means across replicas; the overall
    fields summarize the replica-level mean clustering, next to the
    empirical value of the input layer under the same convention.
    """

    degree: np.ndarray
    null_mean: np.ndarray
    null_std: np.ndarray
    n_samples_per_bucket: np.ndarray
    empirical_mean_clustering: float
    null_mean_clustering: float
    null_std_clustering: float
    sample_means: tuple[float, ...]
    n_samples: int
    swaps_target: int
    swaps_done: tuple[int, ...]
    seed: int


def _directed_simple_edges(layer: LayerView) -> list[tuple[int, int]]:
    return sorted(set(zip(layer.raters.tolist(), layer.ratees.tolist())))


def _rewire(
    edges: list[tuple[int, int]], n_swaps: int, rng: np.random.Generator
) -> tuple[list[tuple[int, int]], int]:
    """Endpoint-swap MCMC on a simple directed edge list.

    Each successful swap exchanges the targets of two edges; proposals that
    would create a self-loop or a duplicate edge are rejected.  In/out degree
    sequences are invariant.  Returns the rewired edges and the number of
    swaps performed (best effort when the attempt budget runs out).
    """
    edges = list(edges)
    edge_set = set(edges)
    m = len(edges)
    if m < 2:
        return edges, 0
    done = 0
    attempts = 0
    max_attempts = 20 * n_swaps
    while done < n_swaps and attempts < max_attempts:
        # draw in bulk; regenerating per miss would be slow
        batch = min(n_swaps - done, 4096)
        pairs = rng.integers(0, m, size=(batch, 2))
        for i, j in pairs:
            attempts += 1
            if done >= n_swaps or attempts > max_attempts:
                break
            if i == j:
                continue
            a, b = edges[i]
            c, d = edges[j]
            if a == d or c == b:
                continue
            e1, e2 = (a, d), (c, b)
            if e1 in edge_set or e2 in edge_set:
                continue
            edge_set.discard((a, b))
            edge_set.discard((c, d))
            edge_set.add(e1)
            edge_set.add(e2)
            edges[i] = e1
            edges[j] = e2
            done += 1
    if done < n_swaps:
        warnings.warn(
            f"rewiring stalled: {done}/{n_swaps} swaps after {attempts} attempts",
            RuntimeWarning,
        )
    return edges, done


def _edges_to_layer(edges: list[tuple[int, int]], template: LayerView) -> LayerView:
    r = np.array([e[0] for e in edges], dtype=np.int64)
    t = np.array([e[1] for e in edges], dtype=np.int64)
    ones = np.ones(len(edges), dtype=np.int64)
    return LayerView(template.layer, template.cutoff, r, t, ones, ones * 0)


def configuration_null(
    layer: LayerView,
    n_samples: int,
    seed: int,
    swaps_per_edge: int = 10,
    include_low_degree: bool = True,
) -> NullModelResult:
    """Clustering of the layer against degree-preserving rewired replicas.

    The layer's directed simple graph is rewired by `swaps_per_edge * |E|`
    endpoint swaps per replica; every replica keeps the exact in/out degree
    sequences.  Clustering is then measured on the undirected projection of
    each replica, with the same degree-<2 convention as the empirical value.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    base = _directed_simple_edges(layer)
    n_swaps = swaps_per_edge * len(base)
    streams = np.random.SeedSequence(seed).spawn(n_samples)
    bucket_samples: dict[int, list[float]] = {}
    sample_means: list[float] = []
    swaps_done: list[int] = []
    for stream in streams:
        rng = np.random.default_rng(stream)
        rewired, done = _rewire(base, n_swaps, rng)
        swaps_done.append(done)
        replica = _edges_to_layer(rewired, layer)
        spectrum = clustering_spectrum(replica, include_low_degree)
        for d, m in zip(spectrum.degree, spectrum.mean_value):
            bucket_samples.setdefault(int(d), []).append(float(m))
        sample_means.append(mean_clustering(replica, include_low_degree))
    degrees = np.array(sorted(bucket_samples), dtype=np.int64)
    null_mean = np.array([np.mean(bucket_samples[d]) for d in degrees])
    null_std = np.array([np.std(bucket_samples[d]) for d in degrees])
    per_bucket = np.array([len(bucket_samples[d]) for d in degrees], dtype=np.int64)
    means = np.array(sample_means)
    return NullModelResult(
        degree=degrees,
        null_mean=null_mean,
        null_std=null_std,
        n_samples_per_bucket=per_bucket,
        empirical_mean_clustering=mean_clustering(layer, include_low_degree),
        null_mean_clustering=float(means.mean()),
        null_std_clustering=float(means.std()),
        sample_means=tuple(means.tolist()),
        n_samples=n_samples,
        swaps_target=n_swaps,
        swaps_done=tuple(swaps_done),
        seed=seed,
    )


def weight_distribution(layer: LayerView) -> Distribution:
    """Distribution of the layer's edge weights (absolute scores)."""
    if layer.n_edges == 0:
        raise ValueError("weight distribution of an empty layer is undefined")
    return from_values(layer.weights)


def reputation_distributions(
    metrics: Mapping[int, NodeMetrics],
) -> tuple[Distribution, Distribution, Distribution]:
    """Distributions of positive, negative and global reputation.

    Positive/negative distributions cover only the users with a non-zero
    value on that side (a user never rated on a layer carries no mass
    there); the global distribution covers every user, signed support.
    """
    if not metrics:
        raise ValueError("empty metrics map")
    rho_p = [m.rho_plus for m in metrics.values() if m.rho_plus > 0]
    rho_m = [m.rho_minus for m in metrics.values() if m.rho_minus > 0]
    rho = [m.rho for m in metrics.values()]
    return from_values(rho_p), from_values(rho_m), from_values(rho)


def kendall_tau(
    values_a: Mapping[int, float], values_b: Mapping[int, float]
) -> float:
    """Tie-aware rank correlation (tau-b) of two attributes over one user set.

    Works on the raw attribute values, so equal values count as ties; any
    strictly monotone transform of either side leaves the result unchanged.
    """
    if set(values_a) != set(values_b):
        raise ValueError("rankings must cover the same user set")
    if not values_a:
        raise ValueError("empty rankings")
    users = sorted(values_a)
    x = np.array([values_a[u] for u in users], dtype=float)
    y = np.array([values_b[u] for u in users], dtype=float)
    return float(sps.kendalltau(x, y, variant="b").statistic)


def ranked_users(values: Mapping[int, float]) -> list[int]:
    """Users by descending value; ties broken by ascending user id."""
    return sorted(values, key=lambda u: (-values[u], u))


@dataclass(frozen=True, eq=False)
class RankingReport:
    """Rankings of users by each attribute plus their pairwise correlations."""

    keys: tuple[str, ...]
    table: dict[str, list[int]]
    tau_matrix: np.ndarray
    by_inplus_rank: list[tuple[int, int, int, int, int, int, int]]
    # rows: (rank, user, k_in_plus, k_in_minus, k_out_plus, k_out_minus, rho)

    def tau(self, key_a: str, key_b: str) -> float:
        return float(self.tau_matrix[self.keys.index(key_a), self.keys.index(key_b)])


def _attribute_values(
    metrics: Mapping[int, NodeMetrics],
) -> dict[str, dict[int, int]]:
    return {
        key: {u: getattr(m, key) for u, m in metrics.items()} for key in RANKING_KEYS
    }


def ranking_report(metrics: Mapping[int, NodeMetrics]) -> RankingReport:
    """Per-attribute rankings, the 5x5 tau-b matrix, and the attribute table
    sorted by the rewarding in-degree ranking."""
    if not metrics:
        raise ValueError("empty metrics map")
    values = _attribute_values(metrics)
    table = {key: ranked_users(values[key]) for key in RANKING_KEYS}
    n = len(RANKING_KEYS)
    tau = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            t = kendall_tau(values[RANKING_KEYS[i]], values[RANKING_KEYS[j]])
            tau[i, j] = tau[j, i] = t
    rows = []
    for rank, user in enumerate(table["k_in_plus"], start=1):
        m = metrics[user]
        rows.append(
            (rank, user, m.k_in_plus, m.k_in_minus, m.k_out_plus, m.k_out_minus, m.rho)
        )
    return RankingReport(
        keys=RANKING_KEYS, table=table, tau_matrix=tau, by_inplus_rank=rows
    )


def reputation_by_indegree(
    metrics: Mapping[int, NodeMetrics], layer: Layer
) -> DegreeSpectrum:
    """Mean/std of global reputation per in-degree level of one layer."""
    if not metrics:
        raise ValueError("empty metrics map")
    attr = "k_in_plus" if layer is Layer.REWARDING else "k_in_minus"
    degrees = [getattr(m, attr) for m in metrics.values()]
    values = [float(m.rho) for m in metrics.values()]
    return _bucket_spectrum(degrees, values)


def log_binned_means(
    spectrum: DegreeSpectrum, factor: float = 2.0, weighted: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse a spectrum into multiplicative degree bins.

    Bins are [1,f), [f,f^2), ...; degree-0 rows are ignored.  Bucket means
    are combined weighted by their node counts unless `weighted=False`.
    Returns (geometric bin centers, bin means).
    """
    if factor <= 1.0:
        raise ValueError("factor must be > 1")
    keep = spectrum.degree >= 1
    deg = spectrum.degree[keep].astype(float)
    val = spectrum.mean_value[keep]
    wgt = spectrum.n_nodes[keep].astype(float) if weighted else np.ones(keep.sum())
    if deg.size == 0:
        return np.array([]), np.array([])
    bins = np.floor(np.log(deg) / np.log(factor)).astype(int)
    centers, means = [], []
    for b in np.unique(bins):
        sel = bins == b
        centers.append(factor ** (b + 0.5))
        means.append(float(np.average(val[sel], weights=wgt[sel])))
    return np.array(centers), np.array(means)


def spectrum_trend(spectrum: DegreeSpectrum, factor: float = 2.0) -> float:
    """Spearman correlation between log-binned degree and bin mean value.

    Negative values indicate a decreasing spectrum (disassortative mixing
    when applied to neighbor degrees).
    """
    centers, means = log_binned_means(spectrum, factor)
    if len(centers) < 2:
        raise ValueError("need at least two occupied bins for a trend")
    return float(sps.spearmanr(centers, means).statistic)
