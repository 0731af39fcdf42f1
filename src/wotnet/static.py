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
from typing import NamedTuple, Sequence

import numpy as np

from .distributions import Distribution, from_values
from .model import EventLog, Layer, MetricColumns

RANKING_KEYS = ("k_in_plus", "k_in_minus", "k_out_plus", "k_out_minus", "rho")
# ratio between consecutive bin edges of `log_binned_means`
BIN_FACTOR = 2.0


class DegreeSpectrum(NamedTuple):
    """Per-degree-bucket mean/std of some node-level value."""

    degree: np.ndarray
    mean_value: np.ndarray
    std_value: np.ndarray
    n_nodes: np.ndarray


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Whether each element of the sorted `ordered` differs from the one before it."""
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of `values`, as `np.unique(values)` gives
    them, from one sort: numpy 2's hash-table `np.unique` is many times slower."""
    ordered = np.sort(values)
    return ordered[_run_starts(ordered)]


def _buckets(buckets: Sequence[int]) -> tuple[np.ndarray, ...]:
    """The permutation that sorts values by their level in `buckets`,
    stably, the distinct levels, and the start and length of each level's
    run of the sorted values."""
    b = np.asarray(buckets)
    order = np.argsort(b, kind="stable")
    b = b[order]
    starts = np.flatnonzero(_run_starts(b))
    return order, b[starts], starts, np.diff(starts, append=len(b))


def _run_sums(ordered: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # each run summed by `np.add.reduce`, as `ndarray.mean`, `.std` and
    # `np.average` sum it, so the bucket statistics are theirs bit for bit
    return np.array([np.add.reduce(ordered[i : i + c]) for i, c in zip(starts.tolist(), counts.tolist())])


def _bucket_spectrum(buckets: Sequence[int], values: Sequence[float]) -> DegreeSpectrum:
    order, levels, starts, counts = _buckets(buckets)
    v = np.asarray(values, dtype=float)[order]
    means = _run_sums(v, starts, counts) / counts
    stds = np.sqrt(_run_sums(np.square(v - np.repeat(means, counts)), starts, counts) / counts)
    for a in (levels, means, stds, counts):
        a.setflags(write=False)
    return DegreeSpectrum(levels, means, stds, counts)


class Projection(NamedTuple):
    """The simple undirected graph underlying a directed edge list.

    Parallel edges and directions collapse into single edges.  `degree[i]`
    and `clustering[i]` belong to `nodes[i]`; nodes are in order of first
    appearance in the edge list (rater, then ratee, edge by edge), so
    reductions sum in that order.  `edges` holds each edge's positions in
    `nodes`, lower end first, in a 2 x |E| array sorted by `lo * n + hi`.
    """

    nodes: np.ndarray
    edges: np.ndarray
    degree: np.ndarray
    clustering: np.ndarray


def undirected_projection(raters: np.ndarray, ratees: np.ndarray) -> Projection:
    """Project the directed edges `raters[i] -> ratees[i]` (no self-loops)."""
    ends = np.column_stack((raters, ratees)).ravel()
    order = np.argsort(ends)
    starts = _run_starts(ends[order])
    first = np.minimum.reduceat(order, np.flatnonzero(starts))  # each id's first position
    is_first = np.zeros(len(ends), dtype=bool)
    is_first[first] = True
    # an id's node number counts the ids that appear first before it
    labels = np.empty(len(ends), dtype=np.intp)
    labels[order] = (np.cumsum(is_first) - 1)[first][np.cumsum(starts) - 1]
    u, v = labels.reshape(-1, 2).T
    nodes = ends[is_first]
    n = len(nodes)
    edges = np.stack(np.divmod(_distinct(np.minimum(u, v) * n + np.maximum(u, v)), n))
    degree = np.bincount(edges.ravel(), minlength=n)
    projection = Projection(nodes, edges, degree, local_clustering(edges, degree))
    for a in projection:
        a.setflags(write=False)
    return projection


def local_clustering(edges: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Fraction of closed neighbor pairs per node; 0 for degree < 2.

    `edges` is a 2 x |E| array of distinct simple edges, in any order, and
    `degree` the number of edges at each node.

    Compact-forward (Latapy, TCS 407, 2008): number the nodes by (degree,
    position) and point each edge to its higher-numbered end; each pair of
    a node's at most sqrt(2|E|) out-neighbors is looked up among the edges,
    so every triangle is found once, from its lowest-numbered corner.
    """
    n = len(degree)
    rank = np.empty(n, dtype=np.intp)
    rank[np.argsort(degree, kind="stable")] = np.arange(n)
    a, b = rank[edges]
    keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    src, dst = np.divmod(keys, n)
    # arc i pairs with the arcs after it in its source's out-list
    later = np.cumsum(np.bincount(src, minlength=n))[src] - 1 - np.arange(len(src))
    first = np.repeat(np.arange(len(src)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    wedges = dst[first] * n + dst[second]
    # few wedges close, so only those whose low bits match an edge key's are looked
    # up among the sorted keys; 16 or more cells per edge let few others through
    table = np.zeros(1 << (16 * len(keys)).bit_length(), dtype=bool)
    table[keys & (len(table) - 1)] = True
    maybe = np.flatnonzero(table[wedges & (len(table) - 1)])
    found = wedges[maybe]
    hit = maybe[keys[np.minimum(np.searchsorted(keys, found), len(keys) - 1)] == found]
    corners = np.concatenate((src[first[hit]], dst[first[hit]], dst[second[hit]]))
    closed = np.bincount(corners, minlength=n)[rank]
    out = np.zeros(n)
    np.divide(closed, degree * (degree - 1) / 2, out=out, where=degree >= 2)
    return out


def clustering_spectrum(projection: Projection) -> DegreeSpectrum:
    """Mean/std of local clustering per total-degree bucket; degree<2 nodes
    have clustering 0 by convention."""
    return _bucket_spectrum(projection.degree, projection.clustering)


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
    ends, degree = projection.edges, projection.degree
    # each end adds the other's degree: exact integer sums, held in float64
    neighbor_sums = np.bincount(ends.ravel(), degree[ends[::-1]].ravel(), len(degree))
    return _bucket_spectrum(degree, neighbor_sums / degree)


class NullModelResult(NamedTuple):
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
    swaps_gap: int
    swaps_done: tuple[int, ...]
    seed: int


def _swap_round(keys: np.ndarray, n: int, n_pairs: int, rng: np.random.Generator) -> int:
    """One round of double-edge swaps on the simple graph whose edges have the
    keys `lo * n + hi` in `keys`, lower end first.

    Draws `n_pairs` disjoint edge pairs (a, b), (c, d) and a coin per pair
    proposing (a, c), (b, d) or (a, d), (b, c).  A proposal is accepted when
    it makes no self-loop and each of its new and old keys occurs once among
    the edges' and all proposals' keys, so the round is its own reverse and
    the chain samples simple graphs uniformly (Maslov & Sneppen, Science
    296:910, 2002).  Applies the accepted swaps in place and returns their number.
    """
    slots = rng.permutation(len(keys))[: 2 * n_pairs]
    old_keys = keys.take(slots)
    taken = np.stack(np.divmod(old_keys, n))
    ab, cd = taken[:, :n_pairs], taken[:, n_pairs:]  # rows (a, b) and (c, d)
    flip = rng.random(n_pairs) < 0.5
    kept, swapped = ab.ravel(), np.where(flip, cd[::-1], cd).ravel()
    lo, hi = np.minimum(kept, swapped), np.maximum(kept, swapped)
    new_keys = lo * n + hi
    every_key = np.concatenate((keys, new_keys))
    size = len(every_key)
    # `order` lists every key's position (as its remainder mod `size`) in key order
    if n * n * size < 2**63:  # keys are below n * n, so each can carry its position
        order = np.sort(every_key * size + np.arange(size))
        in_order = order // size
    else:
        order = np.argsort(every_key)
        in_order = every_key[order]
    # a key equal to its neighbour in sorted order occurs more than once
    same = np.flatnonzero(in_order[1:] == in_order[:-1])
    clash = np.zeros(size, dtype=bool)
    clash[order[same] % size] = True
    clash[order[same + 1] % size] = True
    bad = (lo == hi) | clash[len(keys) :] | clash[slots]
    ok = ~(bad[:n_pairs] | bad[n_pairs:])
    keys[slots] = np.where(np.concatenate((ok, ok)), new_keys, old_keys)
    return int(np.count_nonzero(ok))


def _double_edge_swaps(keys: np.ndarray, n: int, n_proposals: int, rng: np.random.Generator) -> int:
    """Rewire the simple graph of edge keys `keys` (`lo * n + hi`) in place by
    `n_proposals` double-edge swap proposals, in rounds of `_swap_round`; a rejected
    proposal is a step that stays on the current graph (Fosdick et al., SIAM Review
    60:315, 2018).  Returns the swaps accepted."""
    m, degree = len(keys), np.bincount(np.concatenate(np.divmod(keys, n)))
    if m < 2:  # no pair of edges to propose
        return 0
    # A proposed edge exists already with probability about q = (sum k^2)^2 / (2m)^3
    # and then blocks the pair whose old edge it is; at most m / (32 q) pairs a round
    # keep that near 1/16 of them.  Fixed by the degrees, the bound keeps the chain symmetric.
    round_pairs = min(m // 2, max(1, int((m * m / (2 * degree @ degree)) ** 2)))
    return sum(
        _swap_round(keys, n, min(round_pairs, n_proposals - start), rng)
        for start in range(0, n_proposals, round_pairs)
    )


def configuration_null(
    projection: Projection, n_samples: int, seed: int, swaps_per_edge: int = 10
) -> NullModelResult:
    """Clustering of a projected layer against degree-preserving replicas.

    The replicas are states of one chain of double-edge swap proposals on the projection's |E|
    undirected edges: the first after `swaps_target = swaps_per_edge * |E|` proposals, each later
    one after `swaps_gap` more (`swaps_done[i]` counts the swaps accepted up to replica i).  Each
    keeps every projected degree and stays simple; clustering is measured with degree-<2 nodes.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n, m = len(projection.nodes), projection.edges.shape[1]
    if n == 0:  # no node to measure, as `mean_clustering` reports it
        raise ValueError("no nodes satisfy the requested clustering convention")
    # the swaps keep every degree and the graph simple, so each replica's
    # edges go to `local_clustering` as they are, and its degree buckets are
    # the projection's
    order, levels, starts, counts = _buckets(projection.degree)
    bucket_means: list[np.ndarray] = []
    sample_means: list[float] = []
    swaps_done: list[int] = []
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    keys, done, proposals = projection.edges[0] * n + projection.edges[1], 0, swaps_per_edge * m
    for _ in range(n_samples):
        done += _double_edge_swaps(keys, n, proposals, rng)
        if not swaps_done:  # the gap: about |E| swaps at the burn-in's rate, at most its length
            proposals = -(-swaps_per_edge * m * m // max(done, m))
        swaps_done.append(done)
        clustering = local_clustering(np.stack(np.divmod(keys, n)), projection.degree)
        bucket_means.append(_run_sums(clustering[order], starts, counts) / counts)
        sample_means.append(float(np.mean(clustering)))
    # the replicas' bucket means, pooled per degree
    null = _bucket_spectrum(np.tile(levels, n_samples), np.concatenate(bucket_means))
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
        swaps_target=swaps_per_edge * m,
        swaps_gap=proposals,
        swaps_done=tuple(swaps_done),
        seed=seed,
    )


def weight_distribution(layer: EventLog) -> Distribution:
    """Distribution of the layer's edge weights (absolute scores); empty for an empty layer."""
    return from_values(np.abs(layer.scores))


def reputation_distributions(columns: MetricColumns) -> tuple[Distribution, Distribution, Distribution]:
    """Distributions of positive, negative and global reputation.

    Positive/negative distributions cover only the users with a non-zero
    value on that side (a user never rated on a layer carries no mass
    there); the global distribution covers every user, signed support.
    No user gives three empty distributions.
    """
    rho_plus, rho_minus = columns.fields[4:]
    rho = rho_plus - rho_minus
    return from_values(rho_plus[rho_plus > 0]), from_values(rho_minus[rho_minus > 0]), from_values(rho)


def _tau_b_of_ranks(x: tuple[np.ndarray, int], y: tuple[np.ndarray, int]) -> float:
    """Kendall's tau-b of two sides given as `_ties` of their values:
    `(C - D) / sqrt(n0 - n1) / sqrt(n0 - n2)` of exact pair counts, clamped
    to [-1, 1]; NaN if a side holds only ties."""
    (x_ranks, x_ties), (y_ranks, y_ties) = x, y
    n = len(x_ranks)
    total = n * (n - 1) // 2
    if x_ties == total or y_ties == total:
        return float("nan")
    joint = np.sort(x_ranks * n + y_ranks)
    runs = np.diff(np.flatnonzero(np.concatenate(([True], joint[1:] != joint[:-1], [True]))))
    joint_ties = int((runs * (runs - 1) // 2).sum())
    # y's ranks in order of (x, y): a later smaller rank is a discordant pair
    c_less_d = total - x_ties - y_ties + joint_ties - 2 * _discordant_pairs(joint % n)
    tau = c_less_d / np.sqrt(total - x_ties) / np.sqrt(total - y_ties)
    return float(np.minimum(1.0, max(-1.0, tau)))


def _ties(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ranks of `values`, from 0, and the number of pairs of equal values."""
    _, ranks, counts = np.unique(values, return_inverse=True, return_counts=True)
    return ranks, int((counts * (counts - 1) // 2).sum())


def _discordant_pairs(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], for dense ranks from 0, in one
    pass per bit: a pair counts at the highest bit where its ranks differ, as
    a 1 before a 0 among the positions whose ranks agree above that bit."""
    n, discordant = len(ranks), 0
    shift, positions = n.bit_length(), np.arange(n)
    counts = np.bincount(ranks)
    below = np.cumsum(counts) - counts
    for bit in reversed(range(int(ranks.max()).bit_length())):
        # the ranks grouped by their bits above `bit`, each group in position order
        z = ranks[np.sort(((ranks >> (bit + 1)) << shift) | positions) & ((1 << shift) - 1)]
        high = (z >> bit) & 1
        ones = np.cumsum(high) - high
        # a group starts after the `below` ranks smaller than its own
        ones_in_group = ones - ones[below[z & -(2 << bit)]]
        discordant += int(np.dot(ones_in_group, 1 - high))
    return discordant


class RankingReport(NamedTuple):
    """Pairwise rank correlations of the users' attributes (`RANKING_KEYS`),
    and the users ranked by one of them."""

    tau_matrix: np.ndarray
    # n x 7 int64, by rewarding in-degree rank: the columns are rank, user,
    # k_in_plus, k_in_minus, k_out_plus, k_out_minus and rho
    by_inplus_rank: np.ndarray

    def tau(self, key_a: str, key_b: str) -> float:
        return float(self.tau_matrix[RANKING_KEYS.index(key_a), RANKING_KEYS.index(key_b)])


def ranking_report(columns: MetricColumns) -> RankingReport:
    """The 5x5 tau-b matrix of the attributes, and the attribute table sorted
    by the rewarding in-degree ranking.  A tau over fewer than two users is
    NaN, so no user gives NaN off the diagonal and no row."""
    users, fields = columns
    # one row per RANKING_KEYS entry: the four degrees, then rho
    attributes = np.vstack((fields[:4], fields[4] - fields[5]))
    # each attribute ranked once, for its four pairs
    ranks = [_ties(attribute) for attribute in attributes]
    n = len(RANKING_KEYS)
    tau = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            tau[i, j] = tau[j, i] = _tau_b_of_ranks(ranks[i], ranks[j])
    # descending rewarding in-degree, ties by ascending id
    by_inplus = np.lexsort((users, -attributes[0]))
    rows = np.column_stack((np.arange(1, len(users) + 1), users[by_inplus], attributes[:, by_inplus].T))
    return RankingReport(tau, rows)


def reputation_by_indegree(columns: MetricColumns, layer: Layer) -> DegreeSpectrum:
    """Mean/std of global reputation per in-degree level of one layer; no level without users."""
    fields = columns.fields
    return _bucket_spectrum(fields[list(Layer).index(layer)], fields[4] - fields[5])


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
    order, bins, starts, counts = _buckets(np.floor(np.log(deg) / np.log(BIN_FACTOR)).astype(int))
    # each bin's weighted mean summed as `np.average` sums it
    means = _run_sums((val * wgt)[order], starts, counts) / _run_sums(wgt[order], starts, counts)
    return BIN_FACTOR ** (bins + 0.5), means


def spectrum_trend(spectrum: DegreeSpectrum) -> float:
    """Spearman correlation between log-binned degree and bin mean value.

    Negative values indicate a decreasing spectrum (disassortative mixing
    when applied to neighbor degrees).
    """
    centers, means = log_binned_means(spectrum)
    if len(centers) < 2:
        raise ValueError("need at least two occupied bins for a trend")
    # the bin centers are distinct, so only the means can be constant
    if (means == means[0]).all():
        message = "An input array is constant; the correlation coefficient is not defined."
        warnings.warn(message, RuntimeWarning)
        return float("nan")
    if np.isnan(means).any():
        return float("nan")
    ranks = np.column_stack((_average_ranks(centers), _average_ranks(means)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks of `values` from 1, equal values sharing their mean rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]
