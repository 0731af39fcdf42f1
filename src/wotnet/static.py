"""Aggregate-network measurements: distributions, clustering spectra with a
degree-preserving null model, neighbor-degree spectra, and rank correlations
between the per-user attributes.

Clustering and neighbor-degree measures operate on the undirected unweighted
projection of a layer: parallel edges and edge directions are collapsed into
single simple edges.  The null model rewires that projection itself, so its
replicas keep the projected degrees that the clustering spectrum buckets by.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from .distributions import Distribution, from_values
from .model import EventLog, Layer, NodeMetrics

RANKING_KEYS = ("k_in_plus", "k_in_minus", "k_out_plus", "k_out_minus", "rho")
# ratio between consecutive bin edges of `log_binned_means`
BIN_FACTOR = 2.0
# rows of the two-step path product held at once by `local_clustering`
_BLOCK_ROWS = 1024


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


@dataclass(frozen=True, eq=False)
class Projection:
    """The simple undirected graph underlying a directed edge list.

    Parallel edges and directions collapse into single edges.  `degree[i]`,
    `clustering[i]` and row `i` of the symmetric 0/1 `adjacency` belong to
    `nodes[i]`; nodes are in order of first appearance in the edge list
    (rater, then ratee, edge by edge), so reductions sum in that order.
    """

    nodes: np.ndarray
    adjacency: sparse.csr_array
    degree: np.ndarray
    clustering: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.nodes, self.degree, self.clustering):
            a.setflags(write=False)


def undirected_projection(raters: np.ndarray, ratees: np.ndarray) -> Projection:
    """Project the directed edges `raters[i] -> ratees[i]` (no self-loops)."""
    ids, first, inverse = np.unique(
        np.column_stack((raters, ratees)).ravel(), return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    u, v = np.argsort(order)[inverse].reshape(-1, 2).T
    return _project(ids[order], u, v)


def _project(nodes: np.ndarray, u: np.ndarray, v: np.ndarray) -> Projection:
    """The projection of the edges `u[i] -- v[i]` between positions in `nodes`."""
    n = len(nodes)
    pairs = np.unique(np.concatenate((u * n + v, v * n + u)))
    adjacency = sparse.csr_array((np.ones(len(pairs), np.int64), np.divmod(pairs, n)), shape=(n, n))
    degree = np.diff(adjacency.indptr).astype(np.int64)
    return Projection(nodes, adjacency, degree, local_clustering(adjacency))


def local_clustering(adjacency: sparse.csr_array) -> np.ndarray:
    """Fraction of closed neighbor pairs per node; 0 for degree < 2.

    Row sums of `(A @ A) * A` count each link among a node's neighbors
    twice (Latapy, TCS 407, 2008).  The product is formed `_BLOCK_ROWS`
    rows at a time: whole, it holds an order of magnitude more entries than `A`.
    """
    degree = np.diff(adjacency.indptr).astype(np.int64)
    closed = np.zeros(len(degree), dtype=np.int64)
    for lo in range(0, len(degree), _BLOCK_ROWS):
        rows = adjacency[lo : lo + _BLOCK_ROWS]
        paths = (rows @ adjacency).multiply(rows)
        closed[lo : lo + _BLOCK_ROWS] = np.asarray(paths.sum(axis=1)).ravel()
    out = np.zeros(len(degree))
    np.divide(closed // 2, degree * (degree - 1) / 2, out=out, where=degree >= 2)
    return out


def clustering_spectrum(
    projection: Projection, include_low_degree: bool = True
) -> DegreeSpectrum:
    """Mean/std of local clustering per total-degree bucket.

    `include_low_degree=False` drops the degree<2 nodes (whose clustering is
    0 by convention) instead of averaging them in.
    """
    keep = projection.degree >= (0 if include_low_degree else 2)
    return _bucket_spectrum(projection.degree[keep], projection.clustering[keep])


def mean_clustering(projection: Projection, include_low_degree: bool = True) -> float:
    """Average local clustering over the projected nodes.

    Only nodes incident to at least one edge exist in the projection; with
    `include_low_degree=False` the average is restricted to nodes of
    degree >= 2.
    """
    values = projection.clustering[projection.degree >= (0 if include_low_degree else 2)]
    if values.size == 0:
        raise ValueError("no nodes satisfy the requested clustering convention")
    return float(np.mean(values))


def avg_neighbor_degree_spectrum(projection: Projection) -> DegreeSpectrum:
    """Mean neighbor degree averaged within each total-degree bucket."""
    neighbor_sums = projection.adjacency @ projection.degree
    return _bucket_spectrum(projection.degree, neighbor_sums / projection.degree)


@dataclass(frozen=True, eq=False)
class NullModelResult:
    """Clustering statistics of degree-preserving rewired replicas.

    Per-degree rows aggregate the bucket means across replicas; the overall
    fields summarize the replica-level mean clustering.
    """

    degree: np.ndarray
    null_mean: np.ndarray
    null_std: np.ndarray
    n_samples_per_bucket: np.ndarray
    null_mean_clustering: float
    null_std_clustering: float
    sample_means: tuple[float, ...]
    n_samples: int
    swaps_target: int
    swaps_done: tuple[int, ...]
    seed: int


def _swap_round(
    ends: np.ndarray, keys: np.ndarray, n: int, n_pairs: int, limit: int, rng: np.random.Generator
) -> int:
    """One round of double-edge swaps on the simple graph of edges `ends[:, i]`
    (lower end first, with key `lo * n + hi` in `keys`).

    Draws `n_pairs` disjoint edge pairs (a, b), (c, d) and a coin per pair
    proposing (a, c), (b, d) or (a, d), (b, c).  A proposal is accepted when
    it makes no self-loop and each of its new and old keys occurs once among
    the edges' and all proposals' keys, so the round is its own reverse and
    the chain samples simple graphs uniformly (Maslov & Sneppen, Science
    296:910, 2002).  Applies at most `limit` accepted swaps in place.
    """
    slots = rng.permutation(len(keys))[: 2 * n_pairs]
    (a, c), (b, d) = ends[:, slots].reshape(2, 2, n_pairs)
    flip = rng.random(n_pairs) < 0.5
    swapped = np.concatenate((np.where(flip, d, c), np.where(flip, c, d)))
    new = np.sort([np.concatenate((a, b)), swapped], axis=0)
    new_keys = new[0] * n + new[1]
    every_key = np.concatenate((keys, new_keys))
    order = np.argsort(every_key)
    same = np.concatenate(([False], np.diff(every_key[order]) == 0, [False]))
    once = np.empty(len(order), dtype=bool)
    once[order] = ~(same[1:] | same[:-1])
    ok = (new[0] != new[1]) & once[len(keys) :] & once[slots]
    done = np.flatnonzero(ok.reshape(2, n_pairs).all(axis=0))[:limit]
    done = np.concatenate((done, done + n_pairs))
    ends[:, slots[done]] = new[:, done]
    keys[slots[done]] = new_keys[done]
    return len(done) // 2


def _double_edge_swaps(ends: np.ndarray, n: int, n_swaps: int, rng: np.random.Generator) -> int:
    """Rewire the simple graph `ends` (lower ends first) in place by `n_swaps`
    double-edge swaps, in rounds of `_swap_round`, until the target is met or
    `20 * n_swaps` pairs have been proposed; returns the swaps done."""
    keys = ends[0] * n + ends[1]
    m, degree = len(keys), np.bincount(ends.ravel())
    # A proposed edge exists already with probability about q = (sum k^2)^2 / (2m)^3
    # and then blocks the pair whose old edge it is; at most m / (32 q) pairs a round
    # keep that near 1/16 of them.  Fixed by the degrees, the bound keeps the chain symmetric.
    round_pairs = min(m // 2, max(1, int((m * m / (2 * degree @ degree)) ** 2))) if m else 0
    done, attempts, max_attempts = 0, 0, 20 * n_swaps
    while round_pairs and done < n_swaps and attempts < max_attempts:
        n_pairs = min(round_pairs, max_attempts - attempts)
        done += _swap_round(ends, keys, n, n_pairs, n_swaps - done, rng)
        attempts += n_pairs
    if done < n_swaps:
        message = f"rewiring stalled: {done}/{n_swaps} swaps after {attempts} attempts"
        warnings.warn(message, RuntimeWarning)
    return done


def configuration_null(
    projection: Projection, n_samples: int, seed: int, swaps_per_edge: int = 10
) -> NullModelResult:
    """Clustering of a projected layer against degree-preserving replicas.

    Each replica makes `swaps_target = swaps_per_edge * |E|` double-edge
    swaps on the projection's |E| undirected edges, so it keeps every
    node's projected degree and stays simple.  Clustering is measured on
    each replica, degree-<2 nodes included.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n, upper = len(projection.nodes), sparse.triu(projection.adjacency, k=1, format="coo")
    base = np.stack((upper.row, upper.col)).astype(np.int64)
    n_swaps = swaps_per_edge * base.shape[1]
    spectra: list[DegreeSpectrum] = []
    sample_means: list[float] = []
    swaps_done: list[int] = []
    for stream in np.random.SeedSequence(seed).spawn(n_samples):
        ends = base.copy()
        swaps_done.append(_double_edge_swaps(ends, n, n_swaps, np.random.default_rng(stream)))
        replica = _project(projection.nodes, *ends)
        spectra.append(clustering_spectrum(replica))
        sample_means.append(mean_clustering(replica))
    # the replicas' bucket means, pooled per degree
    null = _bucket_spectrum(
        np.concatenate([s.degree for s in spectra]), np.concatenate([s.mean_value for s in spectra])
    )
    means = np.array(sample_means)
    return NullModelResult(
        degree=null.degree,
        null_mean=null.mean_value,
        null_std=null.std_value,
        n_samples_per_bucket=null.n_nodes,
        null_mean_clustering=float(means.mean()),
        null_std_clustering=float(means.std()),
        sample_means=tuple(means.tolist()),
        n_samples=n_samples,
        swaps_target=n_swaps,
        swaps_done=tuple(swaps_done),
        seed=seed,
    )


def weight_distribution(layer: EventLog) -> Distribution:
    """Distribution of the layer's edge weights (absolute scores)."""
    if len(layer) == 0:
        raise ValueError("weight distribution of an empty layer is undefined")
    return from_values(np.abs(layer.scores))


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
    from scipy import stats  # deferred: importing it costs about 1 s of start-up

    return float(stats.kendalltau(x, y, variant="b").statistic)


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


def log_binned_means(spectrum: DegreeSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """Collapse a spectrum into multiplicative degree bins.

    Bins are [1,f), [f,f^2), ... for f = `BIN_FACTOR`; degree-0 rows are
    ignored.  Bucket means are combined weighted by their node counts.
    Returns (geometric bin centers, bin means).
    """
    keep = spectrum.degree >= 1
    deg = spectrum.degree[keep].astype(float)
    val = spectrum.mean_value[keep]
    wgt = spectrum.n_nodes[keep].astype(float)
    if deg.size == 0:
        return np.array([]), np.array([])
    bins = np.floor(np.log(deg) / np.log(BIN_FACTOR)).astype(int)
    centers, means = [], []
    for b in np.unique(bins):
        sel = bins == b
        centers.append(BIN_FACTOR ** (b + 0.5))
        means.append(float(np.average(val[sel], weights=wgt[sel])))
    return np.array(centers), np.array(means)


def spectrum_trend(spectrum: DegreeSpectrum) -> float:
    """Spearman correlation between log-binned degree and bin mean value.

    Negative values indicate a decreasing spectrum (disassortative mixing
    when applied to neighbor degrees).
    """
    centers, means = log_binned_means(spectrum)
    if len(centers) < 2:
        raise ValueError("need at least two occupied bins for a trend")
    from scipy import stats

    return float(stats.spearmanr(centers, means).statistic)
