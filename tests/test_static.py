import itertools
import math
import random
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from conftest import (
    adjacency_sets,
    keeps_projected_degrees,
    project,
    reciprocal_log,
)
from wotnet import (
    EventLog,
    Layer,
    NodeMetrics,
    from_values,
    kendall_tau,
    local_clustering,
    log_binned_ccdf,
    mean_clustering,
    node_metrics,
    ranked_users,
    ranking_report,
    reputation_by_indegree,
    reputation_distributions,
    split_layers,
    weight_distribution,
)
from wotnet.static import (
    RANKING_KEYS,
    DegreeSpectrum,
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


def test_weight_distribution_empty_layer_errors():
    _, minus = split_layers(EventLog([(1, 2, 5, 10)]))
    with pytest.raises(ValueError):
        weight_distribution(minus)


def test_distribution_invariants(small_log):
    plus, minus = split_layers(small_log)
    for dist in (weight_distribution(plus), weight_distribution(minus)):
        assert dist.pmf.sum() == pytest.approx(1.0, abs=1e-9)
        assert (np.diff(dist.ccdf) <= 1e-12).all()
        assert dist.ccdf[0] == pytest.approx(1.0)
        assert (np.diff(dist.support) > 0).all()


def test_reputation_distribution_small_case():
    metrics = {
        1: NodeMetrics(1, 0, 0, 0, 1, 0),
        2: NodeMetrics(1, 0, 0, 0, 1, 0),
        3: NodeMetrics(1, 0, 0, 0, 2, 0),
        4: NodeMetrics(0, 1, 0, 0, 0, 3),
    }
    rho_p, rho_m, rho = reputation_distributions(metrics)
    assert rho_p.support.tolist() == [1, 2]
    assert rho_p.pmf.tolist() == pytest.approx([2 / 3, 1 / 3])
    assert rho_m.support.tolist() == [3]
    assert rho.support.tolist() == [-3, 1, 2]


def test_reputation_distributions_skip_zero_sides():
    metrics = {
        1: NodeMetrics(0, 0, 1, 0, 0, 0),  # pure rater: no mass on either side
        2: NodeMetrics(1, 1, 0, 0, 5, 3),
    }
    rho_p, rho_m, rho = reputation_distributions(metrics)
    assert rho_p.support.tolist() == [5]
    assert rho_m.support.tolist() == [3]
    assert sorted(rho.support.tolist()) == [0, 2]


def test_log_binned_ccdf_anchors_to_support():
    dist = from_values([1, 1, 2, 4, 8, 16])
    pairs = log_binned_ccdf(dist, n_points=9)
    values = [v for v, _ in pairs]
    assert values[0] >= 1
    ccdfs = [c for _, c in pairs]
    assert all(a >= b - 1e-12 for a, b in zip(ccdfs, ccdfs[1:]))


# ---------------------------------------------------------------------------
# clustering


def _adjacency_sets(layer):
    """Oracle: adjacency sets of the simple undirected graph underlying a
    layer, keyed in order of first appearance."""
    adj = {}
    for u, v in zip(layer.raters.tolist(), layer.ratees.tolist()):
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
    assert c == _clustering_by_set_intersection(_adjacency_sets(layer))


def test_star_center_clustering_is_zero():
    layer = _layer_from_edges([(0, i) for i in range(1, 6)])
    c = _clustering_by_node(project(layer))
    assert c[0] == 0.0
    assert all(c[i] == 0.0 for i in range(1, 6))


def test_projection_collapses_directions_and_parallels():
    layer = _layer_from_edges([(1, 2), (2, 1), (1, 2), (2, 3), (3, 1)])
    projection = project(layer)
    assert adjacency_sets(projection) == {1: {2, 3}, 2: {1, 3}, 3: {1, 2}}
    assert adjacency_sets(projection) == _adjacency_sets(layer)
    assert projection.nodes.tolist() == [1, 2, 3]
    assert projection.degree.tolist() == [2, 2, 2]


def test_clustering_values_in_unit_interval(small_log):
    plus, _ = split_layers(small_log)
    for value in project(plus).clustering:
        assert 0.0 <= value <= 1.0


def _clustering_by_triple_enumeration(adj):
    """Oracle: count closed triangles through each node by scanning all
    neighbor pairs explicitly."""
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


def test_clustering_matches_enumeration_oracle_on_small_graphs():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(2, 7)
        arcs = [
            (a, b)
            for a in range(n)
            for b in range(n)
            if a != b and rng.random() < 0.45
        ]
        if not arcs:
            continue
        layer = _layer_from_edges(arcs)
        adj = _adjacency_sets(layer)
        expected = _clustering_by_triple_enumeration(adj)
        assert _clustering_by_node(project(layer)) == pytest.approx(expected)
        assert _clustering_by_set_intersection(adj) == pytest.approx(expected)


def test_compact_forward_clustering_matches_oracle(small_log):
    # a sparse layer, a dense one, and a reciprocal log's denser layer with hubs
    layers = [*split_layers(small_log), split_layers(reciprocal_log(14, 60, seed=5))[0]]
    for layer in layers:
        projection = project(layer)
        clustering = local_clustering(projection.edges, projection.degree)
        oracle = _clustering_by_set_intersection(_adjacency_sets(layer))
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
        oracle = _clustering_by_set_intersection(_adjacency_sets(layer))
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
    """Oracle: the pre-sparse bucketing of per-node values over adjacency sets."""
    degrees, kept = [], []
    for node, value in values.items():
        if len(adj[node]) >= 2 or include_low_degree:
            degrees.append(len(adj[node]))
            kept.append(value)
    return _bucket_spectrum(degrees, kept), kept


def _spectrum_tuple(spectrum):
    return tuple(a.tolist() for a in (spectrum.degree, spectrum.mean_value, spectrum.std_value, spectrum.n_nodes))


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
    adj = _adjacency_sets(layer)
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
    neighbor_means = {
        u: float(np.mean([len(adj[w]) for w in neigh])) for u, neigh in adj.items()
    }
    spectrum, _ = _spectrum_by_sets(adj, neighbor_means)
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


def _local_clustering_by_sort(edges, degree):
    """`local_clustering` as it was before it ordered the ranks with
    `np.minimum`/`np.maximum`: the oracle."""
    n = len(degree)
    rank = np.argsort(np.argsort(degree, kind="stable"))
    lo, hi = np.sort(rank[edges], axis=0)
    keys = np.sort(lo * n + hi)
    src, dst = np.divmod(keys, n)
    later = np.cumsum(np.bincount(src, minlength=n))[src] - 1 - np.arange(len(src))
    first = np.repeat(np.arange(len(src)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    wedges = dst[first] * n + dst[second]
    hit = keys[np.minimum(np.searchsorted(keys, wedges), len(keys) - 1)] == wedges
    corners = np.concatenate((src[first[hit]], dst[first[hit]], dst[second[hit]]))
    closed = np.bincount(corners, minlength=n)[rank]
    out = np.zeros(n)
    np.divide(closed, degree * (degree - 1) / 2, out=out, where=degree >= 2)
    return out


def _projection_by_unique(raters, ratees):
    """`undirected_projection` as it was before it numbered the ids with one
    sort: `np.unique` with first positions and inverse, then two argsorts; the
    oracle.  Returns nodes, edges, degree and clustering."""
    ids, first, inverse = np.unique(
        np.column_stack((raters, ratees)).ravel(), return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    u, v = np.argsort(order)[inverse].reshape(-1, 2).T
    n = len(ids)
    edges = np.stack(np.divmod(np.unique(np.minimum(u, v) * n + np.maximum(u, v)), n))
    degree = np.bincount(edges.ravel(), minlength=n)
    return ids[order], edges, degree, _local_clustering_by_sort(edges, degree)


_extreme_ids = st.sampled_from([-(2**63), -(2**63) + 1, -7, -1, 0, 1, 2, 3, 5, 2**62, 2**63 - 2, 2**63 - 1])


@given(st.lists(st.tuples(_extreme_ids | st.integers(0, 6), _extreme_ids | st.integers(0, 6)).filter(lambda e: e[0] != e[1]), max_size=40))
@example([])  # no edge
@example([(2**63 - 1, -(2**63))])  # the int64 extremes
@example([(0, 1), (1, 0), (0, 1), (1, 2), (2, 1)])  # repeated and reciprocal arcs
@example([(-(2**63), 2**63 - 1), (2**63 - 1, -(2**63)), (-(2**63), 0), (0, 2**63 - 1)])  # a triangle of extremes
@example([(a, b) for a in range(5) for b in range(5) if a != b])  # complete graph
@settings(max_examples=200, deadline=None)
def test_projection_equals_the_unique_oracle(arcs):
    raters = np.array([a for a, _ in arcs], dtype=np.int64)
    ratees = np.array([b for _, b in arcs], dtype=np.int64)
    projection = undirected_projection(raters, ratees)
    got = (projection.nodes, projection.edges, projection.degree, projection.clustering)
    for mine, oracle in zip(got, _projection_by_unique(raters, ratees)):
        assert mine.dtype == oracle.dtype
        assert mine.shape == oracle.shape
        assert mine.tolist() == oracle.tolist()


def _bucket_spectrum_by_mask(buckets, values):
    """`_bucket_spectrum` as it was before it grouped the values with one
    sort: `ndarray.mean` and `.std` of each level's values; the oracle."""
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


def _neighbor_means_by_enumeration(adj):
    degrees = {u: len(n) for u, n in adj.items()}
    per_node = {
        u: sum(degrees[v] for v in neigh) / len(neigh) for u, neigh in adj.items()
    }
    buckets = {}
    for u, value in per_node.items():
        buckets.setdefault(degrees[u], []).append(value)
    return {d: sum(vs) / len(vs) for d, vs in buckets.items()}


def test_neighbor_degree_matches_enumeration_oracle():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 7)
        arcs = [
            (a, b)
            for a in range(n)
            for b in range(n)
            if a != b and rng.random() < 0.5
        ]
        if not arcs:
            continue
        layer = _layer_from_edges(arcs)
        spectrum = avg_neighbor_degree_spectrum(project(layer))
        oracle = _neighbor_means_by_enumeration(_adjacency_sets(layer))
        got = dict(zip(spectrum.degree.tolist(), spectrum.mean_value.tolist()))
        assert got == pytest.approx(oracle)


def test_log_binned_means_collapse():
    layer = _layer_from_edges([(0, i) for i in range(1, 6)])
    spectrum = avg_neighbor_degree_spectrum(project(layer))
    centers, means = log_binned_means(spectrum)
    assert len(centers) == 2
    assert means[0] == pytest.approx(5.0)  # leaves dominate the low bin
    assert means[-1] == pytest.approx(1.0)


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
    ends = projection.edges.copy()
    with mock.patch("wotnet.static._swap_round", wraps=_swap_round) as spy:
        done = _double_edge_swaps(
            ends, len(projection.nodes), swaps_per_edge * ends.shape[1], np.random.default_rng(seed)
        )
    return ends, done, sum(call.args[3] for call in spy.call_args_list)


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


def _swap_round_by_sort(ends, keys, n, n_pairs, rng):
    """`_swap_round` as it was before it ordered the proposed ends with
    `np.minimum`/`np.maximum` and scattered the clash flags: the oracle."""
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


@settings(max_examples=150, deadline=None)
@given(_small_logs(), st.integers(0, 2**32 - 1))
@example(_log_of([(0, i) for i in range(1, 6)]), 1)  # star, odd m
@example(_log_of([(0, 1), (2, 3)]), 2)  # m = 2
@example(_log_of([(0, 1), (1, 2), (2, 3)]), 3)  # m = 3
@example(reciprocal_log(n_users=12, n_pairs=30, seed=4), 4)  # reciprocal layers
def test_swap_round_matches_the_sorting_round(log, seed):
    for layer in split_layers(log):
        projection = project(layer)
        m, n = projection.edges.shape[1], len(projection.nodes)
        if m < 2:
            continue
        states = []
        for round_ in (_swap_round, _swap_round_by_sort):
            ends = projection.edges.copy()
            keys = ends[0] * n + ends[1]
            rng = np.random.default_rng(seed)
            pairs = random.Random(seed)  # the same round sizes for both
            accepted = [round_(ends, keys, n, pairs.randint(1, m // 2), rng) for _ in range(12)]
            states.append((ends.tolist(), keys.tolist(), accepted))
        assert states[0] == states[1]


@settings(max_examples=100, deadline=None)
@given(_small_logs(), st.integers(0, 2**32 - 1))
@example(_log_of([(0, 1), (2, 3)]), 2)  # m = 2
@example(reciprocal_log(n_users=12, n_pairs=30, seed=4), 4)  # reciprocal layers
def test_swap_round_without_room_to_pack_matches_the_sorting_round(log, seed):
    # with this many nodes `n * n * size` reaches 2**63, so keys cannot carry
    # their positions and the round takes its argsort fallback
    n = 3 * 10**9
    for layer in split_layers(log):
        edges = project(layer).edges
        m = edges.shape[1]
        if m < 2:
            continue
        states = []
        for round_ in (_swap_round, _swap_round_by_sort):
            ends = edges.copy()
            keys = ends[0] * n + ends[1]
            rng = np.random.default_rng(seed)
            pairs = random.Random(seed)  # the same round sizes for both
            with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
                accepted = [round_(ends, keys, n, pairs.randint(1, m // 2), rng) for _ in range(12)]
            assert spy.call_count == 12
            states.append((ends.tolist(), keys.tolist(), accepted))
        assert states[0] == states[1]


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
    ends = np.array(np.divmod(graph, n), dtype=np.int64)
    keys = ends[0] * n + ends[1]
    while True:
        _swap_round(ends, keys, n, len(keys) // 2, rng)
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
        ends = np.array(np.divmod(graphs[start], n), dtype=np.int64)
        _double_edge_swaps(ends, n, ends.shape[1], rng)
        visits[tuple(sorted((ends[0] * n + ends[1]).tolist()))] += 1
    assert set(visits) == set(graphs)
    assert sps.chisquare([visits[g] for g in graphs]).pvalue > 1e-3


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
    projection = project(_layer_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]))
    with mock.patch("wotnet.static._swap_round", wraps=_swap_round) as spy:
        result = configuration_null(projection, n_samples=2, seed=3, swaps_per_edge=10)
    assert result.swaps_target == 40
    assert sum(call.args[3] for call in spy.call_args_list) == 2 * 40
    # only the swap of two opposite edges to the two diagonals is legal on a 4-cycle
    assert all(0 < done < 40 for done in result.swaps_done)
    assert all(type(done) is int for done in result.swaps_done)  # plain ints, as JSON takes them
    assert result.n_samples == 2
    assert result.seed == 3


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(kendall_tau({7: 1.0}, {7: 2.0}))


def test_tau_mismatched_user_sets_error():
    with pytest.raises(ValueError):
        kendall_tau({1: 1.0}, {2: 1.0})
    with pytest.raises(ValueError):
        kendall_tau({}, {})


def _tau_b_by_pair_counting(a, b):
    """O(n^2) oracle: count concordant/discordant pairs, tie-corrected."""
    users = sorted(a)
    concordant = discordant = ties_a = ties_b = 0
    for i, j in itertools.combinations(range(len(users)), 2):
        da = a[users[i]] - a[users[j]]
        db = b[users[i]] - b[users[j]]
        if da == 0 and db == 0:
            ties_a += 1
            ties_b += 1
        elif da == 0:
            ties_a += 1
        elif db == 0:
            ties_b += 1
        elif (da > 0) == (db > 0):
            concordant += 1
        else:
            discordant += 1
    n_pairs = len(users) * (len(users) - 1) / 2
    denom = math.sqrt((n_pairs - ties_a) * (n_pairs - ties_b))
    if denom == 0:
        return math.nan
    return (concordant - discordant) / denom


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


def test_ranked_users_ties_break_by_id():
    assert ranked_users({3: 5.0, 1: 5.0, 2: 9.0}) == [2, 1, 3]


def test_ranking_report_shape(small_log):
    report = ranking_report(node_metrics(small_log))
    n = len(RANKING_KEYS)
    assert report.tau_matrix.shape == (n, n)
    assert np.allclose(report.tau_matrix, report.tau_matrix.T)
    assert np.allclose(np.diag(report.tau_matrix), 1.0)
    users = set(report.table["rho"])
    for key in RANKING_KEYS:
        assert set(report.table[key]) == users
    assert report.tau("rho", "rho") == pytest.approx(1.0)
    ranks = [row[0] for row in report.by_inplus_rank]
    assert ranks == list(range(1, len(users) + 1))


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
    report = ranking_report(metrics)
    values = {key: {u: getattr(m, key) for u, m in metrics.items()} for key in RANKING_KEYS}
    for key in RANKING_KEYS:
        assert report.table[key] == ranked_users(values[key])
    expected_rows = [
        (rank, u, *metrics[u][:4], metrics[u].rho)
        for rank, u in enumerate(ranked_users(values["k_in_plus"]), start=1)
    ]
    assert report.by_inplus_rank == expected_rows
    # plain ints, as the CSV writer formats them
    assert all(type(x) is int for row in report.by_inplus_rank for x in row)
    assert all(type(u) is int for ranking in report.table.values() for u in ranking)
    tau = np.eye(len(RANKING_KEYS))
    for (i, a), (j, b) in itertools.combinations(enumerate(RANKING_KEYS), 2):
        tau[i, j] = tau[j, i] = kendall_tau(values[a], values[b])
    np.testing.assert_array_equal(report.tau_matrix, tau)  # NaN where a side is all ties


def test_ranking_report_empty_errors():
    with pytest.raises(ValueError):
        ranking_report({})


def test_reputation_by_indegree_single_bucket():
    metrics = {1: NodeMetrics(3, 0, 0, 0, 5, 0)}
    spectrum = reputation_by_indegree(metrics, Layer.REWARDING)
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
    assert weight_distribution(plus).mode() == 1
    assert weight_distribution(minus).mode() == 10


def test_dataset_reputation_tails_and_asymmetry(otc_log):
    rho_p, rho_m, rho = reputation_distributions(node_metrics(otc_log))
    assert _r_squared_loglog(rho_p.support, rho_p.ccdf) > 0.90
    assert _r_squared_loglog(rho_m.support, rho_m.ccdf) > 0.90
    positive_mass = rho.mass_where(rho.support > 0)
    negative_mass = rho.mass_where(rho.support < 0)
    assert positive_mass > negative_mass


def test_dataset_reputation_rises_with_rewarding_indegree(otc_log):
    spectrum = reputation_by_indegree(node_metrics(otc_log), Layer.REWARDING)
    centers, means = log_binned_means(spectrum)
    low = means[: len(means) // 2]
    assert (np.diff(low) > 0).all()
