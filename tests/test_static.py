import itertools
import math
import random
import warnings
from collections import Counter
from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from conftest import (
    adjacency_sets,
    keeps_projected_degrees,
    mode,
    project,
    reciprocal_log,
)
from daily_reference import columns_of
from scalar_reference import kendall_tau
from wotnet import (
    EventLog,
    Layer,
    NodeMetrics,
    SynthConfig,
    from_values,
    local_clustering,
    log_binned_ccdf,
    mean_clustering,
    metric_columns,
    ranking_report,
    reputation_by_indegree,
    reputation_distributions,
    split_layers,
    synth_log,
    weight_distribution,
)
from wotnet.static import (
    BIN_FACTOR,
    RANKING_KEYS,
    DegreeSpectrum,
    Projection,
    _bucket_spectrum,
    _distinct,
    _double_edge_swaps,
    _swap_round,
    avg_neighbor_degree_spectrum,
    clustering_spectrum,
    configuration_null,
    log_binned_means,
    spectrum_trend,
    undirected_projection,
)


def _layer_from_edges(edges, scores=None) -> EventLog:
    """Build the rewarding layer of a log whose events are the given arcs."""
    rows = []
    for t, (a, b) in enumerate(edges, start=1):
        s = 1 if scores is None else scores[t - 1]
        rows.append((a, b, s, t * 10))
    plus, _ = split_layers(EventLog(rows))
    return plus


# ---------------------------------------------------------------------------
# distributions


def test_weight_distribution_simple_counts():
    layer = _layer_from_edges([(1, 2), (1, 3), (2, 3)], scores=[3, 3, 7])
    dist = weight_distribution(layer)
    assert dist.support.tolist() == [3, 7]
    assert dist.pmf.tolist() == pytest.approx([2 / 3, 1 / 3])


def test_weight_distribution_empty_layer_is_empty():
    # an empty layer has a distribution of empty columns, not an error
    _, minus = split_layers(EventLog([(1, 2, 5, 10)]))
    for column in weight_distribution(minus):
        assert column.size == 0
        assert not column.flags.writeable


def test_distribution_invariants(small_log):
    plus, minus = split_layers(small_log)
    for dist in (weight_distribution(plus), weight_distribution(minus)):
        assert dist.pmf.sum() == pytest.approx(1.0, abs=1e-9)
        assert (np.diff(dist.ccdf) <= 1e-12).all()
        assert dist.ccdf[0] == pytest.approx(1.0)
        assert (np.diff(dist.support) > 0).all()


def test_result_tables_unpack_into_read_only_columns():
    dist = from_values([3, 1, 3])
    projection = project(_layer_from_edges([(1, 2), (2, 3), (3, 1), (3, 4)]))
    spectrum = clustering_spectrum(projection)
    # the tables are tuples of their columns, which the CLI unpacks into blocks
    assert tuple(dist) == (dist.support, dist.pmf, dist.ccdf)
    assert tuple(spectrum) == (spectrum.degree, spectrum.mean_value, spectrum.std_value, spectrum.n_nodes)
    assert tuple(projection) == (projection.nodes, projection.edges, projection.degree, projection.clustering)
    for column in (*dist, *spectrum, *projection):
        assert not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0


def test_reputation_distribution_small_case():
    metrics = {
        1: NodeMetrics(1, 0, 0, 0, 1, 0),
        2: NodeMetrics(1, 0, 0, 0, 1, 0),
        3: NodeMetrics(1, 0, 0, 0, 2, 0),
        4: NodeMetrics(0, 1, 0, 0, 0, 3),
    }
    rho_p, rho_m, rho = reputation_distributions(columns_of(metrics))
    assert rho_p.support.tolist() == [1, 2]
    assert rho_p.pmf.tolist() == pytest.approx([2 / 3, 1 / 3])
    assert rho_m.support.tolist() == [3]
    assert rho.support.tolist() == [-3, 1, 2]


def test_reputation_distributions_skip_zero_sides():
    metrics = {
        1: NodeMetrics(0, 0, 1, 0, 0, 0),  # pure rater: no mass on either side
        2: NodeMetrics(1, 1, 0, 0, 5, 3),
    }
    rho_p, rho_m, rho = reputation_distributions(columns_of(metrics))
    assert rho_p.support.tolist() == [5]
    assert rho_m.support.tolist() == [3]
    assert sorted(rho.support.tolist()) == [0, 2]


def test_log_binned_ccdf_anchors_to_support():
    dist = from_values([1, 1, 2, 4, 8, 16])
    values, ccdfs = log_binned_ccdf(dist, n_points=9)
    assert values[0] >= 1
    assert len(values) == len(ccdfs) == 9
    assert all(a >= b - 1e-12 for a, b in zip(ccdfs, ccdfs[1:]))


# ---------------------------------------------------------------------------
# clustering


def _adjacency_sets(raters, ratees):
    """Oracle: adjacency sets of the simple undirected graph of the arcs
    from `raters` to `ratees`, keyed in order of first appearance."""
    adj = {}
    for u, v in zip(raters.tolist(), ratees.tolist()):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def _clustering_by_set_intersection(adj):
    """Oracle: fraction of closed neighbor pairs per node; 0 for degree < 2."""
    out = {}
    for node, neigh in adj.items():
        d = len(neigh)
        if d < 2:
            out[node] = 0.0
            continue
        links = sum(len(neigh & adj[u]) for u in neigh) // 2
        out[node] = links / (d * (d - 1) / 2)
    return out


def _clustering_by_node(projection):
    return dict(zip(projection.nodes.tolist(), projection.clustering.tolist()))


def test_triangle_clustering_is_one():
    layer = _layer_from_edges([(1, 2), (2, 3), (3, 1)])
    c = _clustering_by_node(project(layer))
    assert c == {1: 1.0, 2: 1.0, 3: 1.0}
    assert c == _clustering_by_set_intersection(_adjacency_sets(layer.raters, layer.ratees))


def test_star_center_clustering_is_zero():
    layer = _layer_from_edges([(0, i) for i in range(1, 6)])
    c = _clustering_by_node(project(layer))
    assert c[0] == 0.0
    assert all(c[i] == 0.0 for i in range(1, 6))


def test_projection_collapses_directions_and_parallels():
    layer = _layer_from_edges([(1, 2), (2, 1), (1, 2), (2, 3), (3, 1)])
    projection = project(layer)
    assert adjacency_sets(projection) == {1: {2, 3}, 2: {1, 3}, 3: {1, 2}}
    assert adjacency_sets(projection) == _adjacency_sets(layer.raters, layer.ratees)
    assert projection.nodes.tolist() == [1, 2, 3]
    assert projection.degree.tolist() == [2, 2, 2]


def test_clustering_values_in_unit_interval(small_log):
    plus, _ = split_layers(small_log)
    for value in project(plus).clustering:
        assert 0.0 <= value <= 1.0


def _random_layers(seed, p):
    """The layers of 40 random graphs on 2-7 nodes, each arc there with
    probability p; a graph with no arc is skipped."""
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(2, 7)
        arcs = [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < p]
        if arcs:
            yield _layer_from_edges(arcs)


def test_clustering_matches_enumeration_oracle_on_small_graphs():
    for layer in _random_layers(42, 0.45):
        expected = _clustering_by_set_intersection(_adjacency_sets(layer.raters, layer.ratees))
        assert _clustering_by_node(project(layer)) == expected


def test_compact_forward_clustering_matches_oracle(small_log):
    # a sparse layer, a dense one, and a reciprocal log's denser layer with hubs
    layers = [*split_layers(small_log), split_layers(reciprocal_log(14, 60, seed=5))[0]]
    for layer in layers:
        projection = project(layer)
        clustering = local_clustering(projection.edges, projection.degree)
        oracle = _clustering_by_set_intersection(_adjacency_sets(layer.raters, layer.ratees))
        assert clustering.tolist() == list(oracle.values())
        assert projection.clustering.tolist() == clustering.tolist()


def test_clustering_of_sparse_graphs_matches_oracle():
    # with many more node pairs than table cells per edge, wedges that close no
    # triangle share low key bits with edges and must be rejected by the lookup
    for seed in range(6):
        rng = random.Random(seed)
        arcs = {(rng.randrange(400), rng.randrange(400)) for _ in range(500)}
        arcs |= {(b, c) for a, b in list(arcs)[:60] for x, c in arcs if x == a}  # some triangles
        layer = _layer_from_edges(sorted((a, b) for a, b in arcs if a != b))
        projection = project(layer)
        oracle = _clustering_by_set_intersection(_adjacency_sets(layer.raters, layer.ratees))
        assert projection.clustering.tolist() == list(oracle.values())


def test_mean_clustering_conventions():
    # triangle plus one pendant node: pendant has c=0 by convention
    layer = _layer_from_edges([(1, 2), (2, 3), (3, 1), (3, 4)])
    projection = project(layer)
    with_all = mean_clustering(projection, include_low_degree=True)
    core_only = mean_clustering(projection, include_low_degree=False)
    c = _clustering_by_node(projection)
    assert with_all == pytest.approx(np.mean(list(c.values())))
    assert core_only == pytest.approx(np.mean([c[1], c[2], c[3]]))
    assert core_only > with_all


def test_mean_clustering_no_eligible_nodes_errors():
    layer = _layer_from_edges([(1, 2)])
    with pytest.raises(ValueError):
        mean_clustering(project(layer), include_low_degree=False)


def test_clustering_spectrum_buckets_by_degree():
    layer = _layer_from_edges([(1, 2), (2, 3), (3, 1), (3, 4)])
    spectrum = clustering_spectrum(project(layer))
    by_degree = dict(zip(spectrum.degree.tolist(), spectrum.mean_value.tolist()))
    assert by_degree[1] == 0.0  # the pendant
    assert by_degree[2] == pytest.approx(1.0)  # two triangle corners
    assert by_degree[3] == pytest.approx(1 / 3)  # the shared corner


def _spectrum_by_sets(adj, values, include_low_degree=True):
    """Oracle: per-node values bucketed by their degrees in `adj`, with
    `_bucket_spectrum`, which is checked against `_bucket_spectrum_by_mask`."""
    degrees, kept = [], []
    for node, value in values.items():
        if len(adj[node]) >= 2 or include_low_degree:
            degrees.append(len(adj[node]))
            kept.append(value)
    return _bucket_spectrum(degrees, kept), kept


def _spectrum_tuple(spectrum):
    return tuple(a.tolist() for a in (spectrum.degree, spectrum.mean_value, spectrum.std_value, spectrum.n_nodes))


def _neighbor_means(adj):
    """Oracle: each node's mean neighbor degree."""
    return {u: float(np.mean([len(adj[w]) for w in neigh])) for u, neigh in adj.items()}


_arcs = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=30,
)


@given(_arcs)
@example([(0, 1)])  # a single edge
@example([(0, 1), (1, 0), (0, 1)])  # reciprocal and parallel arcs
@example([(0, i) for i in range(1, 7)])  # a star
@example([(0, 1), (2, 3), (5, 4)])  # disjoint pairs
@example([(a, b) for a in range(5) for b in range(5) if a != b])  # complete graph
@settings(max_examples=150, deadline=None)
def test_projection_matches_set_oracle(arcs):
    layer = _layer_from_edges(arcs)
    adj = _adjacency_sets(layer.raters, layer.ratees)
    projection = project(layer)
    assert projection.nodes.tolist() == list(adj)
    assert projection.degree.tolist() == [len(n) for n in adj.values()]
    assert adjacency_sets(projection) == adj
    oracle_clustering = _clustering_by_set_intersection(adj)
    assert projection.clustering.tolist() == list(oracle_clustering.values())
    spectrum, _ = _spectrum_by_sets(adj, oracle_clustering)
    assert _spectrum_tuple(clustering_spectrum(projection)) == _spectrum_tuple(spectrum)
    for include_low in (True, False):
        _, kept = _spectrum_by_sets(adj, oracle_clustering, include_low)
        if kept:
            assert mean_clustering(projection, include_low) == float(np.mean(kept))
        else:
            with pytest.raises(ValueError, match="no nodes satisfy"):
                mean_clustering(projection, include_low)
    spectrum, _ = _spectrum_by_sets(adj, _neighbor_means(adj))
    assert _spectrum_tuple(avg_neighbor_degree_spectrum(projection)) == _spectrum_tuple(spectrum)


_int64 = st.integers(-(2**63), 2**63 - 1)


@given(st.lists(_int64 | st.integers(-3, 3), max_size=40))
@example([])
@example([5])
@example([2, 2, 2])
@example([2**63 - 1, -(2**63), 0, -1, 2**63 - 1, -(2**63)])
@settings(max_examples=200, deadline=None)
def test_distinct_equals_np_unique(values):
    x = np.array(values, dtype=np.int64)
    distinct = _distinct(x)
    assert distinct.dtype == x.dtype
    assert distinct.tolist() == np.unique(x).tolist()


_extreme_ids = st.sampled_from([-(2**63), -(2**63) + 1, -7, -1, 0, 1, 2, 3, 5, 2**62, 2**63 - 2, 2**63 - 1])


@given(st.lists(st.tuples(_extreme_ids | st.integers(0, 6), _extreme_ids | st.integers(0, 6)).filter(lambda e: e[0] != e[1]), max_size=40))
@example([])  # no edge
@example([(2**63 - 1, -(2**63))])  # the int64 extremes
@example([(0, 1), (1, 0), (0, 1), (1, 2), (2, 1)])  # repeated and reciprocal arcs
@example([(-(2**63), 2**63 - 1), (2**63 - 1, -(2**63)), (-(2**63), 0), (0, 2**63 - 1)])  # a triangle of extremes
@example([(a, b) for a in range(5) for b in range(5) if a != b])  # complete graph
@settings(max_examples=200, deadline=None)
def test_projection_of_extreme_ids_matches_set_oracle(arcs):
    raters = np.array([a for a, _ in arcs], dtype=np.int64)
    ratees = np.array([b for _, b in arcs], dtype=np.int64)
    adj = _adjacency_sets(raters, ratees)
    # nodes numbered in order of first appearance, each edge (lower, higher) in lexicographic order
    code = {node: i for i, node in enumerate(adj)}
    edges = sorted((code[u], code[v]) for u in adj for v in adj[u] if code[u] < code[v])
    expected = (
        list(adj),
        [[a for a, _ in edges], [b for _, b in edges]],
        [len(neigh) for neigh in adj.values()],
        list(_clustering_by_set_intersection(adj).values()),
    )
    for mine, oracle, dtype in zip(undirected_projection(raters, ratees), expected, (np.int64, np.int64, np.int64, np.float64)):
        assert mine.dtype == dtype and mine.tolist() == oracle


def _bucket_spectrum_by_mask(buckets, values):
    """`_bucket_spectrum` as it was before it grouped the values with one
    sort: `ndarray.mean` and `.std` of each level's values; the oracle, kept
    beside plain sums because the spectra are checked bit for bit, which
    needs numpy's own summation order."""
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


_magnitudes = st.floats(1e-300, 1e300) | st.floats(-1e300, -1e-300) | st.sampled_from([0.0, -0.0, 1.0, 0.1, 1e300])


@st.composite
def _bucketed_values(draw):
    pool = draw(st.lists(_magnitudes, min_size=1, max_size=6))  # a small pool repeats values
    value = st.sampled_from(pool) | _magnitudes
    return draw(st.lists(st.tuples(st.integers(-2, 5), value), max_size=60))


@given(_bucketed_values())
@example([])
@example([(3, 1e-300)])  # one-element bucket
@example([(1, 0.1)] * 9 + [(2, 0.1)] * 130)  # repeated values, past the pairwise-sum blocks
@example([(0, 1e300), (0, -1e300), (0, 1e300), (1, 1e-300), (1, 3e-300)])
@settings(max_examples=300, deadline=None)
def test_bucket_spectrum_is_bitwise_the_mean_and_std_of_each_level(rows):
    buckets, values = [b for b, _ in rows], [v for _, v in rows]
    with np.errstate(over="ignore", invalid="ignore"):
        mine, oracle = _bucket_spectrum(buckets, values), _bucket_spectrum_by_mask(buckets, values)
    for name in ("degree", "mean_value", "std_value", "n_nodes"):
        a, b = getattr(mine, name), getattr(oracle, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# ---------------------------------------------------------------------------
# neighbor degrees


def test_star_neighbor_degree_spectrum():
    layer = _layer_from_edges([(0, i) for i in range(1, 6)])
    spectrum = avg_neighbor_degree_spectrum(project(layer))
    as_map = dict(zip(spectrum.degree.tolist(), spectrum.mean_value.tolist()))
    assert as_map == {1: 5.0, 5: 1.0}


def test_complete_graph_neighbor_degree():
    arcs = [(a, b) for a in range(4) for b in range(4) if a != b]
    spectrum = avg_neighbor_degree_spectrum(project(_layer_from_edges(arcs)))
    assert spectrum.degree.tolist() == [3]
    assert spectrum.mean_value.tolist() == [3.0]


def test_neighbor_degree_matches_enumeration_oracle():
    for layer in _random_layers(7, 0.5):
        adj = _adjacency_sets(layer.raters, layer.ratees)
        spectrum, _ = _spectrum_by_sets(adj, _neighbor_means(adj))
        assert _spectrum_tuple(avg_neighbor_degree_spectrum(project(layer))) == _spectrum_tuple(spectrum)


def test_log_binned_means_collapse():
    layer = _layer_from_edges([(0, i) for i in range(1, 6)])
    spectrum = avg_neighbor_degree_spectrum(project(layer))
    centers, means = log_binned_means(spectrum)
    assert len(centers) == 2
    assert means[0] == pytest.approx(5.0)  # leaves dominate the low bin
    assert means[-1] == pytest.approx(1.0)


def _log_binned_means_by_mask(spectrum: DegreeSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """`log_binned_means` as it was before it grouped the bins with one sort:
    `np.average` of each bin's means weighted by their node counts; the
    oracle, kept for `np.average`'s summation order, which the bit-for-bit
    check needs."""
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


@given(st.lists(st.tuples(st.integers(0, 100), _magnitudes, st.integers(1, 50)), max_size=60, unique_by=lambda r: r[0]))
@example([])
@example([(0, 2.0, 3)])  # no degree-1 row, no bin
@example([(d, 0.1 * d, d % 7 + 1) for d in range(64, 0, -1)])  # descending, a bin of 32 degrees
@settings(max_examples=200, deadline=None)
def test_log_binned_means_is_bitwise_the_weighted_average_of_each_bin(rows):
    degree, mean, count = (np.array([row[i] for row in rows], dtype=t) for i, t in enumerate((np.int64, float, np.int64)))
    spectrum = DegreeSpectrum(degree, mean, np.zeros(len(rows)), count)
    with np.errstate(over="ignore", invalid="ignore"):
        mine, oracle = log_binned_means(spectrum), _log_binned_means_by_mask(spectrum)
    for a, b in zip(mine, oracle):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_spectrum_trend_sign():
    layer = _layer_from_edges([(0, i) for i in range(1, 6)])
    assert spectrum_trend(avg_neighbor_degree_spectrum(project(layer))) < 0


@given(
    st.lists(
        st.tuples(
            st.integers(1, 300),
            st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0, 50),
            st.integers(1, 4),
        ),
        min_size=2,
        max_size=30,
        unique_by=lambda row: row[0],
    )
)
@example([(1, 0.5, 1), (2, 0.5, 3), (9, 0.5, 1)])  # constant means: NaN and a warning
@example([(1, 1.0, 1), (2, 2.0, 1)])
@example([(1, math.nan, 1), (2, 2.0, 1), (5, 1.0, 2)])  # a NaN mean: NaN, no warning
@settings(max_examples=300, deadline=None)
def test_spectrum_trend_is_bitwise_scipy_spearmanr(rows):
    degree, mean, count = (np.array(column) for column in zip(*sorted(rows)))
    spectrum = DegreeSpectrum(degree, mean.astype(float), np.zeros(len(rows)), count)
    centers, means = log_binned_means(spectrum)
    assume(len(centers) >= 2)
    caught = []
    for trend in (lambda: sps.spearmanr(centers, means).statistic, lambda: spectrum_trend(spectrum)):
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            caught.append((trend(), [str(w.message) for w in warned]))
    (expected, expected_warnings), (got, got_warnings) = caught
    assert _bitwise_equal(got, expected)
    assert got_warnings == expected_warnings


def test_spectrum_trend_needs_two_bins():
    arcs = [(a, b) for a in range(4) for b in range(4) if a != b]
    with pytest.raises(ValueError):
        spectrum_trend(avg_neighbor_degree_spectrum(project(_layer_from_edges(arcs))))


# ---------------------------------------------------------------------------
# configuration-model null


def _rewired(projection, seed, swaps_per_edge=10):
    """Rewire the projection's edges as one null replica does; returns the
    rewired edges, the swaps accepted and the pairs `_swap_round` was given."""
    n = len(projection.nodes)
    keys = projection.edges[0] * n + projection.edges[1]
    with mock.patch("wotnet.static._swap_round", wraps=_swap_round) as spy:
        done = _double_edge_swaps(keys, n, swaps_per_edge * len(keys), np.random.default_rng(seed))
    return np.stack(np.divmod(keys, n)), done, sum(call.args[2] for call in spy.call_args_list)


def test_null_samples_preserve_degree_sequences(small_log):
    for layer in split_layers(small_log):
        projection = project(layer)
        for sample_seed in range(5):
            ends, done, proposed = _rewired(projection, sample_seed)
            assert proposed == 10 * ends.shape[1]
            assert 0 < done < proposed
            assert keeps_projected_degrees(projection, ends)


def _log_of(arcs, score=1):
    return EventLog((a, b, score, 10 * t) for t, (a, b) in enumerate(arcs))


@st.composite
def _small_logs(draw):
    n = draw(st.integers(2, 7))
    arc = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    scores = st.sampled_from((-4, -1, 1, 2, 7))
    events = draw(st.lists(st.tuples(arc, scores), min_size=1, max_size=30))
    return EventLog((a, b, score, 10 * t) for t, ((a, b), score) in enumerate(events))


@settings(max_examples=100, deadline=None)
@given(_small_logs())
@example(_log_of([(0, i) for i in range(1, 6)]))  # star
@example(_log_of([(4, 9)]))  # single edge
@example(_log_of([(0, 1), (2, 3), (5, 4), (7, 6), (8, 9)]))  # disjoint pairs
@example(_log_of([(a, b) for a in range(5) for b in range(5) if a < b]))  # complete graph
@example(_log_of([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], score=-3))  # punitive layer only
def test_replicas_keep_projected_degrees(log):
    for layer in split_layers(log):
        if len(layer) == 0:
            continue
        projection = project(layer)
        for seed in range(3):
            ends, _, _ = _rewired(projection, seed, swaps_per_edge=1)
            assert keeps_projected_degrees(projection, ends)
        null = configuration_null(projection, n_samples=2, seed=0, swaps_per_edge=1)
        assert null.degree.tolist() == clustering_spectrum(projection).degree.tolist()


def test_null_on_a_reciprocal_layer_keeps_the_empirical_degrees():
    # every rating is returned, so rewiring the directed graph would break
    # reciprocity and change the projected degrees
    for layer in split_layers(reciprocal_log(n_users=80, n_pairs=300, seed=8)):
        projection = project(layer)
        for seed in range(5):
            ends, done, proposed = _rewired(projection, seed)
            assert proposed == 10 * ends.shape[1]
            assert 0 < done < proposed
            assert keeps_projected_degrees(projection, ends)
        null = configuration_null(projection, n_samples=5, seed=11)
        assert null.degree.tolist() == clustering_spectrum(projection).degree.tolist()
        assert (null.n_samples_per_bucket == 5).all()


def _measured_by_projection(projection, replicas):
    """Each replica's edge keys projected again (sorted, split with `divmod`,
    degrees recounted) and its clustering spectrum, stds included, taken per
    level, as `configuration_null` measured replicas before it passed their
    edges straight to `local_clustering`; kept with the null's two oracles,
    whose spectra it pools in that path's summation order.  Returns the pooled
    spectrum and the replicas' mean clustering."""
    n = len(projection.nodes)
    spectra, sample_means = [], []
    for keys in replicas:
        edges = np.stack(np.divmod(np.unique(keys), n))
        degree = np.bincount(edges.ravel(), minlength=n)
        clustering = local_clustering(edges, degree)
        spectra.append(_bucket_spectrum_by_mask(degree, clustering))
        sample_means.append(float(np.mean(clustering)))
    pooled = _bucket_spectrum_by_mask(
        np.concatenate([s.degree for s in spectra]), np.concatenate([s.mean_value for s in spectra])
    )
    return pooled, sample_means


def _configuration_null_by_projection(projection, n_samples, seed, swaps_per_edge):
    """The null of independent chains, as `configuration_null` drew it before
    its replicas came from one chain: each replica `swaps_per_edge` x |E|
    proposals from the projection, on its own stream spawned from the seed,
    and measured by `_measured_by_projection`; kept as the reference sample
    of the one chain's KS test, and for the first replica, which the one chain
    draws as the independent chains did.  Returns the pooled spectrum, the
    replicas' mean clustering and their swap counts."""
    n, replicas, swaps_done = len(projection.nodes), [], []
    for stream in np.random.SeedSequence(seed).spawn(n_samples):
        keys = projection.edges[0] * n + projection.edges[1]
        proposals = swaps_per_edge * len(keys)
        swaps_done.append(_double_edge_swaps(keys, n, proposals, np.random.default_rng(stream)))
        replicas.append(keys)
    return (*_measured_by_projection(projection, replicas), swaps_done)


def _one_chain_null_by_projection(projection, n_samples, seed, swaps_per_edge):
    """The oracle of `configuration_null`: one chain on the seed's first
    spawned stream makes a burn-in of B = `swaps_per_edge` x m proposals from
    the projection's m edges, then G = min(B, max(m, ceil(B m / A))) more
    before each later replica, A the swaps the burn-in accepted (G = B when A
    is 0); each replica is measured by `_measured_by_projection`.  Kept
    because the null is checked bit for bit, which needs the chain's own
    random draws and summation order.  Returns the pooled spectrum, the
    replicas' mean clustering, the swaps accepted up to each replica and G."""
    n, m = len(projection.nodes), projection.edges.shape[1]
    burn_in = swaps_per_edge * m
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    keys = projection.edges[0] * n + projection.edges[1]
    swaps_done = [_double_edge_swaps(keys, n, burn_in, rng)]
    accepted = swaps_done[0]
    gap = min(burn_in, max(m, math.ceil(Fraction(burn_in * m, accepted)))) if accepted else burn_in
    replicas = [keys.copy()]
    for _ in range(n_samples - 1):
        swaps_done.append(swaps_done[-1] + _double_edge_swaps(keys, n, gap, rng))
        replicas.append(keys.copy())
    return (*_measured_by_projection(projection, replicas), swaps_done, gap)


@settings(max_examples=60, deadline=None)
@given(_small_logs(), st.integers(1, 4), st.integers(0, 2**32), st.integers(1, 3))
@example(_log_of([(0, i) for i in range(1, 6)]), 2, 0, 1)  # star: no swap is accepted
@example(_log_of([(a, b) for a in range(6) for b in range(6) if a < b and (a + b) % 3]), 3, 9, 2)
def test_null_equals_the_reprojecting_oracle(log, n_samples, seed, swaps_per_edge):
    for layer in split_layers(log):
        if len(layer) == 0:
            continue
        projection = project(layer)
        null = configuration_null(projection, n_samples, seed, swaps_per_edge)
        pooled, sample_means, swaps_done, gap = _one_chain_null_by_projection(
            projection, n_samples, seed, swaps_per_edge
        )
        got = (null.degree, null.null_mean, null.null_std, null.n_samples_per_bucket)
        for mine, oracle in zip(got, (pooled.degree, pooled.mean_value, pooled.std_value, pooled.n_nodes)):
            assert mine.dtype == oracle.dtype and mine.tobytes() == oracle.tobytes()
        assert null.sample_means == tuple(sample_means)
        assert null.swaps_done == tuple(swaps_done)
        assert null.swaps_gap == gap
        means = np.array(sample_means)
        assert (null.null_mean_clustering, null.null_std_clustering) == (means.mean(), means.std())


def test_null_equals_the_reprojecting_oracle_on_a_reciprocal_layer():
    for layer in split_layers(reciprocal_log(n_users=80, n_pairs=300, seed=8)):
        projection = project(layer)
        null = configuration_null(projection, n_samples=3, seed=11)
        pooled, sample_means, _, _ = _one_chain_null_by_projection(projection, 3, 11, 10)
        assert null.null_mean.tobytes() == pooled.mean_value.tobytes()
        assert null.null_std.tobytes() == pooled.std_value.tobytes()
        assert null.sample_means == tuple(sample_means)


@pytest.mark.parametrize("n_samples", [2, 20])
def test_one_replica_is_the_first_replica_of_many(small_log, n_samples):
    # the chain's first replica follows the burn-in from the projection, as the
    # first of the independent replicas did
    for layer in (*split_layers(small_log), *split_layers(reciprocal_log(n_users=80, n_pairs=300, seed=8))):
        projection = project(layer)
        for seed in (0, 7):
            one = configuration_null(projection, 1, seed)
            many = configuration_null(projection, n_samples, seed)
            assert (one.sample_means[0], one.swaps_done[0]) == (many.sample_means[0], many.swaps_done[0])
            independent = _configuration_null_by_projection(projection, 1, seed, 10)
            assert (one.sample_means[0], one.swaps_done[0]) == (independent[1][0], independent[2][0])


def _swap_round_by_sort(ends, keys, n, n_pairs, rng):
    """`_swap_round` as it was before it ordered the proposed ends with
    `np.minimum`/`np.maximum`, scattered the clash flags and kept only the
    edges' keys: the oracle, which keeps the ends `ends` next to `keys`.
    Kept because the rounds are compared state for state, which needs the
    same random draws in the same order."""
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
    done = np.flatnonzero(ok.reshape(2, n_pairs).all(axis=0))
    done = np.concatenate((done, done + n_pairs))
    ends[:, slots[done]] = new[:, done]
    keys[slots[done]] = new_keys[done]
    return len(done) // 2


def _twelve_rounds(edges, n, seed):
    """The keys, the swaps accepted and the `np.argsort` calls of twelve
    rounds of `_swap_round` and then of `_swap_round_by_sort`, each from the
    same draws."""
    states = []
    for round_ in (_swap_round, partial(_swap_round_by_sort, edges.copy())):
        keys = edges[0] * n + edges[1]
        rng = np.random.default_rng(seed)
        pairs = random.Random(seed)  # the same round sizes for both
        with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
            accepted = [round_(keys, n, pairs.randint(1, edges.shape[1] // 2), rng) for _ in range(12)]
        states.append((keys.tolist(), accepted, spy.call_count))
    return states


@settings(max_examples=150, deadline=None)
@given(_small_logs(), st.integers(0, 2**32 - 1))
@example(_log_of([(0, i) for i in range(1, 6)]), 1)  # star, odd m
@example(_log_of([(0, 1), (2, 3)]), 2)  # m = 2
@example(_log_of([(0, 1), (1, 2), (2, 3)]), 3)  # m = 3
@example(reciprocal_log(n_users=12, n_pairs=30, seed=4), 4)  # reciprocal layers
def test_swap_round_matches_the_sorting_round(log, seed):
    for layer in split_layers(log):
        projection = project(layer)
        if projection.edges.shape[1] >= 2:
            mine, oracle = _twelve_rounds(projection.edges, len(projection.nodes), seed)
            assert mine[:2] == oracle[:2]


@settings(max_examples=100, deadline=None)
@given(_small_logs(), st.integers(0, 2**32 - 1))
@example(_log_of([(0, 1), (2, 3)]), 2)  # m = 2
@example(reciprocal_log(n_users=12, n_pairs=30, seed=4), 4)  # reciprocal layers
def test_swap_round_without_room_to_pack_matches_the_sorting_round(log, seed):
    # with this many nodes `n * n * size` reaches 2**63, so keys cannot carry
    # their positions and the round takes its argsort fallback
    for layer in split_layers(log):
        edges = project(layer).edges
        if edges.shape[1] >= 2:
            mine, oracle = _twelve_rounds(edges, 3 * 10**9, seed)
            assert mine == oracle and mine[2] == 12


def _simple_graphs(degrees):
    """Every simple graph with the given degree sequence, as sorted edge-key tuples."""
    n = len(degrees)
    graphs = []
    for edges in itertools.combinations(itertools.combinations(range(n), 2), sum(degrees) // 2):
        if Counter(v for e in edges for v in e) == dict(enumerate(degrees)):
            graphs.append(tuple(a * n + b for a, b in edges))
    return graphs


def _round_chain(graph, n, seed):
    """One `_swap_round` per step, pairing every edge: the most conflicts a round can have."""
    rng = np.random.default_rng(seed)
    keys = np.array(graph, dtype=np.int64)
    while True:
        _swap_round(keys, n, len(keys) // 2, rng)
        yield tuple(sorted(keys.tolist()))


def _one_swap_chain(graph, n, seed):
    """The oracle: one double-edge swap proposal per step."""
    rng = random.Random(seed)
    edges = [divmod(k, n) for k in graph]
    present = set(edges)
    while True:
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        new = (min(a, c), max(a, c)), (min(b, d), max(b, d))
        if a != c and b != d and not present.intersection(new):
            present.difference_update((edges[i], edges[j]))
            present.update(new)
            edges[i], edges[j] = new
        yield tuple(sorted(a * n + b for a, b in present))


@pytest.mark.parametrize(
    "chain, thin, n_samples", [(_round_chain, 20, 1800), (_one_swap_chain, 60, 2400)]
)
def test_rewiring_chain_visits_every_graph_uniformly(chain, thin, n_samples):
    # a state every `thin` steps: consecutive steps are correlated, and
    # counting them as independent would fail the test even for a uniform chain
    degrees = [3, 3, 2, 2, 1, 1]
    graphs = _simple_graphs(degrees)
    assert len(graphs) == 17
    steps = chain(graphs[0], len(degrees), seed=2024)
    visits = Counter(next(itertools.islice(steps, thin - 1, None)) for _ in range(n_samples))
    assert set(visits) == set(graphs)
    assert sps.chisquare([visits[g] for g in graphs]).pvalue > 1e-3


def test_rewiring_from_a_uniform_start_stays_uniform():
    # A rejected proposal is a step that stays put, so each step is symmetric and
    # keeps the uniform distribution: one proposal per edge from a uniform start
    # must end uniform.  Counting only accepted swaps would favour the graphs
    # with more legal swaps.
    degrees = [3, 3, 2, 2, 1, 1]
    n, graphs = len(degrees), _simple_graphs(degrees)
    rng = np.random.default_rng(1)
    visits = Counter()
    for start in rng.integers(len(graphs), size=3400):
        keys = np.array(graphs[start], dtype=np.int64)
        _double_edge_swaps(keys, n, len(keys), rng)
        visits[tuple(sorted(keys.tolist()))] += 1
    assert set(visits) == set(graphs)
    assert sps.chisquare([visits[g] for g in graphs]).pvalue > 1e-3


def test_thinned_replicas_visit_every_graph_uniformly():
    # every replica of the production path, spaced by the gap its burn-in sets,
    # recorded as `configuration_null` measures it
    degrees = [3, 3, 2, 2, 1, 1]
    n, graphs = len(degrees), _simple_graphs(degrees)
    edges, degree = np.array(np.divmod(graphs[0], n)), np.array(degrees)
    projection = Projection(np.arange(n), edges, degree, local_clustering(edges, degree))
    visits = Counter()

    def measured(ends, degree):
        visits[tuple(sorted((ends[0] * n + ends[1]).tolist()))] += 1
        return local_clustering(ends, degree)

    with mock.patch("wotnet.static.local_clustering", measured):
        for seed in range(150):
            configuration_null(projection, n_samples=12, seed=seed)
    assert set(visits) == set(graphs)
    assert sps.chisquare([visits[g] for g in graphs]).pvalue > 1e-3


def _ring_lattice(n, k):
    """The projection of a ring of n nodes, each joined to the k nearest on
    either side: clustering 3(k - 1) / (2(2k - 1)), far above its null's."""
    raters = np.repeat(np.arange(n), k)
    return undirected_projection(raters, (raters + np.tile(np.arange(1, k + 1), n)) % n)


def _synthetic_layer(config, side):
    layer = split_layers(synth_log(config))[side]
    return undirected_projection(layer.raters, layer.ratees)


# the shape of the eighth benchmark log: 738 users, 4,500 ratings, about 237 days
EIGHTH = SynthConfig(n_users=738, n_events=4500, seed=1, score_distribution="skewed", t_span=20_500_000)
# layers whose burn-ins accept 98% (eighth log, punitive), 5.8% (dense log,
# rewarding: the gap is the whole burn-in) and 78% of the proposals from a
# clustered start; the replicas per seed keep each check within a few seconds
NULL_CHECKS = {
    "eighth-punitive": (lambda: _synthetic_layer(EIGHTH, 1), 5),
    "dense-rewarding": (lambda: _synthetic_layer(SynthConfig(n_users=25, n_events=400, seed=7), 0), 2),
    "ring-lattice": (lambda: _ring_lattice(60, 2), 5),
}


@pytest.mark.parametrize("name", NULL_CHECKS)
def test_one_chain_draws_the_null_of_independent_chains(name):
    # 200 seeds of each; the one chain on seeds 0-199, the independent chains on
    # 200-399, so that no replica of one is a replica of the other
    build, n_samples = NULL_CHECKS[name]
    projection = build()
    thinned = [configuration_null(projection, n_samples, seed) for seed in range(200)]
    thinned = np.array([(r.null_mean_clustering, r.null_std_clustering) for r in thinned])
    independent = [_configuration_null_by_projection(projection, n_samples, seed, 10)[1] for seed in range(200, 400)]
    independent = np.array([(np.mean(means), np.std(means)) for means in independent])
    for statistic in range(2):  # the replicas' mean clustering, then its std
        assert sps.ks_2samp(thinned[:, statistic], independent[:, statistic]).pvalue > 1e-3


def test_null_deterministic_for_fixed_seed():
    projection = project(_layer_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]))
    a = configuration_null(projection, n_samples=1, seed=5)
    b = configuration_null(projection, n_samples=1, seed=5)
    assert a.null_mean_clustering == b.null_mean_clustering
    assert a.sample_means == b.sample_means
    assert a.swaps_done == b.swaps_done


def test_null_different_seeds_can_differ(small_log):
    plus = project(split_layers(small_log)[0])
    a = configuration_null(plus, n_samples=2, seed=1)
    b = configuration_null(plus, n_samples=2, seed=2)
    assert a.sample_means != b.sample_means


def test_null_metadata_records_swap_budget():
    # (projection, seed, burn-in, gap): only the swap of two opposite edges to the
    # two diagonals is legal on a 4-cycle; the dense log's layers as `static --seed 1`
    # nulls them, the rewarding one's burn-in accepting so few proposals that its gap
    # is the whole burn-in
    dense = SynthConfig(n_users=25, n_events=400, seed=7)
    cases = [
        (project(_layer_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])), 3, 40, 32),
        (_synthetic_layer(dense, 0), 1, 2170, 2170),
        (_synthetic_layer(dense, 1), 1, 310, 47),
    ]
    for projection, seed, burn_in, gap in cases:
        with mock.patch("wotnet.static._swap_round", wraps=_swap_round) as spy:
            result = configuration_null(projection, n_samples=2, seed=seed, swaps_per_edge=10)
        assert (result.swaps_target, result.swaps_gap) == (burn_in, gap)
        # the burn-in, then the gap before the second replica
        assert sum(call.args[2] for call in spy.call_args_list) == burn_in + gap
        first, second = result.swaps_done
        assert 0 < first < burn_in and first <= second < burn_in + gap
        m = projection.edges.shape[1]
        assert gap == min(burn_in, max(m, math.ceil(burn_in * m / first)))
        assert all(type(x) is int for x in (gap, *result.swaps_done))  # plain ints, as JSON takes them
        assert (result.n_samples, result.seed) == (2, seed)


def test_null_rewiring_star_accepts_no_swap_and_does_not_warn():
    # a star's edges all share the hub: every proposal is rejected
    projection = project(_layer_from_edges([(0, i) for i in range(1, 5)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = configuration_null(projection, n_samples=1, seed=1)
    assert (result.swaps_target, result.swaps_done) == (40, (0,))
    assert mean_clustering(projection) == result.null_mean_clustering


def test_null_of_a_single_edge_does_not_warn():
    # with one edge there is no pair to propose
    projection = project(_layer_from_edges([(0, 1)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = configuration_null(projection, n_samples=2, seed=1)
    assert (result.swaps_target, result.swaps_done) == (10, (0, 0))


def test_null_sample_count_validation(small_log):
    plus = project(split_layers(small_log)[0])
    with pytest.raises(ValueError):
        configuration_null(plus, n_samples=0, seed=1)


# ---------------------------------------------------------------------------
# rank correlation


def test_tau_identical_rankings():
    values = {1: 3.0, 2: 2.0, 3: 1.0}
    assert kendall_tau(values, dict(values)) == pytest.approx(1.0)


def test_tau_exact_reversal():
    a = {1: 3.0, 2: 2.0, 3: 1.0}
    b = {1: 1.0, 2: 2.0, 3: 3.0}
    assert kendall_tau(a, b) == pytest.approx(-1.0)


def test_tau_one_discordant_pair_of_three():
    a = {"x": 3, "y": 2, "z": 1}
    b = {"x": 3, "y": 1, "z": 2}
    assert kendall_tau(a, b) == pytest.approx(1 / 3)


def _bitwise_equal(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or float(a).hex() == float(b).hex()


@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(-3, 3) | st.floats(-1e3, 1e3)),
        min_size=2,
        max_size=60,
    )
)
@example([(1, 2), (2, 1)])  # two users
@example([(1, 0), (2, 0), (3, 0)])  # a constant side: NaN
@example([(4, 1.5), (4, 2.5), (4, 0.5)])  # the other side constant
@example([(1, math.nan), (2, 1), (3, 2)])  # a NaN: NaN
@settings(max_examples=300, deadline=None)
def test_tau_is_bitwise_scipy_kendalltau(pairs):
    a = {u: x for u, (x, _) in enumerate(pairs)}
    b = {u: y for u, (_, y) in enumerate(pairs)}
    expected = sps.kendalltau(list(a.values()), list(b.values()), variant="b").statistic
    assert _bitwise_equal(kendall_tau(a, b), expected)


def test_tau_of_one_user_is_nan_without_a_warning():
    # and of no user: fewer than two users give NaN, as `ranking_report` gives it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(kendall_tau({7: 1.0}, {7: 2.0}))
        assert math.isnan(kendall_tau({}, {}))


def test_tau_mismatched_user_sets_error():
    with pytest.raises(ValueError):
        kendall_tau({1: 1.0}, {2: 1.0})


def _tau_b_by_pair_counting(a, b):
    """O(n^2) oracle: concordant minus discordant pairs over the root of the
    product of the pairs untied on each side; NaN when a side is all ties."""
    pairs = [(a[u] - a[v], b[u] - b[v]) for u, v in itertools.combinations(sorted(a), 2)]
    score = sum(((da > 0) - (da < 0)) * ((db > 0) - (db < 0)) for da, db in pairs)
    untied = sum(da != 0 for da, _ in pairs) * sum(db != 0 for _, db in pairs)
    return score / math.sqrt(untied) if untied else math.nan


def test_tau_matches_pair_counting_oracle():
    rng = random.Random(3)
    for _ in range(30):
        users = list(range(rng.randint(2, 12)))
        a = {u: rng.randint(0, 4) for u in users}
        b = {u: rng.randint(0, 4) for u in users}
        expected = _tau_b_by_pair_counting(a, b)
        if math.isnan(expected):
            continue
        assert kendall_tau(a, b) == pytest.approx(expected, abs=1e-12)


@given(
    st.dictionaries(
        st.integers(0, 20), st.integers(-50, 50), min_size=2, max_size=15
    )
)
@settings(max_examples=80, deadline=None)
def test_tau_symmetry_and_self_unity(values):
    other = {u: -v for u, v in values.items()}
    if len(set(values.values())) > 1:
        assert kendall_tau(values, values) == pytest.approx(1.0)
        assert kendall_tau(values, other) == pytest.approx(
            kendall_tau(other, values)
        )


@given(
    st.dictionaries(
        st.integers(0, 20), st.integers(-50, 50), min_size=3, max_size=15
    )
)
@settings(max_examples=80, deadline=None)
def test_tau_invariant_under_monotone_transform(values):
    if len(set(values.values())) < 2:
        return
    other = {u: float(v) for u, v in values.items()}
    transformed = {u: math.exp(0.1 * v) + 3 for u, v in values.items()}
    base = kendall_tau(values, other)
    assert kendall_tau(transformed, other) == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# rankings and reports


def ranked_users(values: dict[int, float]) -> list[int]:
    """Users by descending value; ties broken by ascending user id: the
    oracle of the rankings."""
    return sorted(values, key=lambda u: (-values[u], u))


def test_ranked_users_ties_break_by_id():
    assert ranked_users({3: 5.0, 1: 5.0, 2: 9.0}) == [2, 1, 3]
    # the rewarding in-degree ranking breaks its ties so too
    metrics = {u: NodeMetrics(k, 0, 0, 0, 0, 0) for u, k in ((3, 5), (1, 5), (2, 9))}
    assert ranking_report(columns_of(metrics)).by_inplus_rank[:, 1].tolist() == [2, 1, 3]


def test_ranking_report_shape(small_log):
    columns = metric_columns(small_log)
    report = ranking_report(columns)
    n = len(RANKING_KEYS)
    assert report.tau_matrix.shape == (n, n)
    assert np.allclose(report.tau_matrix, report.tau_matrix.T)
    assert np.allclose(np.diag(report.tau_matrix), 1.0)
    assert report.tau("rho", "rho") == pytest.approx(1.0)
    assert report.by_inplus_rank[:, 0].tolist() == list(range(1, len(columns.users) + 1))
    assert sorted(report.by_inplus_rank[:, 1].tolist()) == columns.users.tolist()


@st.composite
def _metrics_maps(draw):
    """One to twelve users, in any order, with few distinct counter values so
    that every ranking holds ties."""
    users = draw(st.lists(st.integers(-5, 2**40), min_size=1, max_size=12, unique=True))
    counters = st.tuples(*[st.integers(0, 3)] * len(NodeMetrics._fields))
    return {u: NodeMetrics(*draw(counters)) for u in users}


@given(_metrics_maps())
@example({7: NodeMetrics(1, 0, 2, 0, 3, 1)})
@settings(max_examples=150, deadline=None)
def test_ranking_report_matches_ranked_users(metrics):
    report = ranking_report(columns_of(metrics))
    values = {key: {u: getattr(m, key) for u, m in metrics.items()} for key in RANKING_KEYS}
    expected_rows = [
        (rank, u, *metrics[u][:4], metrics[u].rho)
        for rank, u in enumerate(ranked_users(values["k_in_plus"]), start=1)
    ]
    assert report.by_inplus_rank.tolist() == list(map(list, expected_rows))
    # one int64 array, which the CSV writer formats with %d
    assert report.by_inplus_rank.dtype == np.int64
    tau = np.eye(len(RANKING_KEYS))
    for (i, a), (j, b) in itertools.combinations(enumerate(RANKING_KEYS), 2):
        tau[i, j] = tau[j, i] = _tau_b_by_pair_counting(values[a], values[b])
    np.testing.assert_allclose(report.tau_matrix, tau, rtol=0, atol=1e-12)  # NaN where a side is all ties


def test_no_user_gives_empty_tables_and_nan_tau():
    # no user gives empty tables and a tau of NaN for each pair of attributes
    empty = columns_of({})
    for dist in reputation_distributions(empty):
        assert [column.size for column in dist] == [0, 0, 0]
    assert [column.size for column in reputation_by_indegree(empty, Layer.REWARDING)] == [0, 0, 0, 0]
    report = ranking_report(empty)
    n = len(RANKING_KEYS)
    np.testing.assert_array_equal(report.tau_matrix, np.where(np.eye(n, dtype=bool), 1.0, np.nan))
    assert report.by_inplus_rank.shape == (0, 7)


def test_reputation_by_indegree_single_bucket():
    spectrum = reputation_by_indegree(columns_of({1: NodeMetrics(3, 0, 0, 0, 5, 0)}), Layer.REWARDING)
    assert spectrum.degree.tolist() == [3]
    assert spectrum.mean_value.tolist() == [5.0]
    assert spectrum.std_value.tolist() == [0.0]


# ---------------------------------------------------------------------------
# dataset-dependent checks (skipped without the data file)


def _r_squared_loglog(support, ccdf, decades=1.5):
    """Straightness of a CCDF on log-log axes over its first `decades`."""
    support = np.asarray(support, dtype=float)
    ccdf = np.asarray(ccdf, dtype=float)
    keep = (support > 0) & (ccdf > 0)
    x, y = np.log10(support[keep]), np.log10(ccdf[keep])
    window = x <= x[0] + decades
    x, y = x[window], y[window]
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    return 1 - residual.var() / y.var()


def test_dataset_weight_modes(otc_log):
    plus, minus = split_layers(otc_log)
    assert mode(weight_distribution(plus)) == 1
    assert mode(weight_distribution(minus)) == 10


def test_dataset_reputation_tails_and_asymmetry(otc_log):
    rho_p, rho_m, rho = reputation_distributions(metric_columns(otc_log))
    assert _r_squared_loglog(rho_p.support, rho_p.ccdf) > 0.90
    assert _r_squared_loglog(rho_m.support, rho_m.ccdf) > 0.90
    positive_mass = rho.pmf[rho.support > 0].sum()
    negative_mass = rho.pmf[rho.support < 0].sum()
    assert positive_mass > negative_mass


def test_dataset_reputation_rises_with_rewarding_indegree(otc_log):
    spectrum = reputation_by_indegree(metric_columns(otc_log), Layer.REWARDING)
    centers, means = log_binned_means(spectrum)
    low = means[: len(means) // 2]
    assert (np.diff(low) > 0).all()
