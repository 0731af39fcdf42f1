import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import degree_sequences, make_log
from wotnet import (
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
    undirected_projection,
    weight_distribution,
)
from wotnet.static import (
    RANKING_KEYS,
    _directed_simple_edges,
    _rewire,
    avg_neighbor_degree_spectrum,
    clustering_spectrum,
    configuration_null,
    log_binned_means,
    spectrum_trend,
)


def _layer_from_edges(edges, scores=None) -> "LayerView":
    """Build the rewarding layer of a log whose events are the given arcs."""
    rows = []
    for t, (a, b) in enumerate(edges, start=1):
        s = 1 if scores is None else scores[t - 1]
        rows.append((a, b, s, t * 10))
    plus, _ = split_layers(make_log(rows))
    return plus


# ---------------------------------------------------------------------------
# distributions


def test_weight_distribution_simple_counts():
    layer = _layer_from_edges([(1, 2), (1, 3), (2, 3)], scores=[3, 3, 7])
    dist = weight_distribution(layer)
    assert dist.support.tolist() == [3, 7]
    assert dist.pmf.tolist() == pytest.approx([2 / 3, 1 / 3])


def test_weight_distribution_empty_layer_errors():
    _, minus = split_layers(make_log([(1, 2, 5, 10)]))
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


def test_triangle_clustering_is_one():
    layer = _layer_from_edges([(1, 2), (2, 3), (3, 1)])
    c = local_clustering(undirected_projection(layer))
    assert c == {1: 1.0, 2: 1.0, 3: 1.0}


def test_star_center_clustering_is_zero():
    layer = _layer_from_edges([(0, i) for i in range(1, 6)])
    c = local_clustering(undirected_projection(layer))
    assert c[0] == 0.0
    assert all(c[i] == 0.0 for i in range(1, 6))


def test_projection_collapses_directions_and_parallels():
    layer = _layer_from_edges([(1, 2), (2, 1), (1, 2), (2, 3), (3, 1)])
    adj = undirected_projection(layer)
    assert adj == {1: {2, 3}, 2: {1, 3}, 3: {1, 2}}


def test_clustering_values_in_unit_interval(small_log):
    plus, _ = split_layers(small_log)
    for value in local_clustering(undirected_projection(plus)).values():
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
        adj = undirected_projection(layer)
        assert local_clustering(adj) == pytest.approx(
            _clustering_by_triple_enumeration(adj)
        )


def test_mean_clustering_conventions():
    # triangle plus one pendant node: pendant has c=0 by convention
    layer = _layer_from_edges([(1, 2), (2, 3), (3, 1), (3, 4)])
    with_all = mean_clustering(layer, include_low_degree=True)
    core_only = mean_clustering(layer, include_low_degree=False)
    c = local_clustering(undirected_projection(layer))
    assert with_all == pytest.approx(np.mean(list(c.values())))
    assert core_only == pytest.approx(np.mean([c[1], c[2], c[3]]))
    assert core_only > with_all


def test_mean_clustering_no_eligible_nodes_errors():
    layer = _layer_from_edges([(1, 2)])
    with pytest.raises(ValueError):
        mean_clustering(layer, include_low_degree=False)


def test_clustering_spectrum_buckets_by_degree():
    layer = _layer_from_edges([(1, 2), (2, 3), (3, 1), (3, 4)])
    spectrum = clustering_spectrum(layer)
    by_degree = dict(zip(spectrum.degree.tolist(), spectrum.mean_value.tolist()))
    assert by_degree[1] == 0.0  # the pendant
    assert by_degree[2] == pytest.approx(1.0)  # two triangle corners
    assert by_degree[3] == pytest.approx(1 / 3)  # the shared corner


# ---------------------------------------------------------------------------
# neighbor degrees


def test_star_neighbor_degree_spectrum():
    layer = _layer_from_edges([(0, i) for i in range(1, 6)])
    spectrum = avg_neighbor_degree_spectrum(layer)
    as_map = dict(zip(spectrum.degree.tolist(), spectrum.mean_value.tolist()))
    assert as_map == {1: 5.0, 5: 1.0}


def test_complete_graph_neighbor_degree():
    arcs = [(a, b) for a in range(4) for b in range(4) if a != b]
    spectrum = avg_neighbor_degree_spectrum(_layer_from_edges(arcs))
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
        spectrum = avg_neighbor_degree_spectrum(layer)
        oracle = _neighbor_means_by_enumeration(undirected_projection(layer))
        got = dict(zip(spectrum.degree.tolist(), spectrum.mean_value.tolist()))
        assert got == pytest.approx(oracle)


def test_log_binned_means_collapse():
    layer = _layer_from_edges([(0, i) for i in range(1, 6)])
    spectrum = avg_neighbor_degree_spectrum(layer)
    centers, means = log_binned_means(spectrum)
    assert len(centers) == 2
    assert means[0] == pytest.approx(5.0)  # leaves dominate the low bin
    assert means[-1] == pytest.approx(1.0)


def test_spectrum_trend_sign():
    layer = _layer_from_edges([(0, i) for i in range(1, 6)])
    assert spectrum_trend(avg_neighbor_degree_spectrum(layer)) < 0


def test_spectrum_trend_needs_two_bins():
    arcs = [(a, b) for a in range(4) for b in range(4) if a != b]
    with pytest.raises(ValueError):
        spectrum_trend(avg_neighbor_degree_spectrum(_layer_from_edges(arcs)))


# ---------------------------------------------------------------------------
# configuration-model null


def test_null_samples_preserve_degree_sequences(small_log):
    plus, _ = split_layers(small_log)
    out_deg, in_deg = degree_sequences(plus)
    base = _directed_simple_edges(plus)
    for sample_seed in range(5):
        rewired, _ = _rewire(
            base, 10 * len(base), np.random.default_rng(sample_seed)
        )
        r_out, r_in = {}, {}
        for a, b in rewired:
            assert a != b, "self-loop leaked into a replica"
            r_out[a] = r_out.get(a, 0) + 1
            r_in[b] = r_in.get(b, 0) + 1
        assert r_out == out_deg
        assert r_in == in_deg
        assert len(set(rewired)) == len(rewired), "duplicate edge in replica"


def test_null_deterministic_for_fixed_seed():
    layer = _layer_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    a = configuration_null(layer, n_samples=1, seed=5)
    b = configuration_null(layer, n_samples=1, seed=5)
    assert a.null_mean_clustering == b.null_mean_clustering
    assert a.sample_means == b.sample_means
    assert a.swaps_done == b.swaps_done


def test_null_different_seeds_can_differ(small_log):
    plus, _ = split_layers(small_log)
    a = configuration_null(plus, n_samples=2, seed=1)
    b = configuration_null(plus, n_samples=2, seed=2)
    assert a.sample_means != b.sample_means


def test_null_metadata_records_swap_budget():
    layer = _layer_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    result = configuration_null(layer, n_samples=2, seed=3, swaps_per_edge=10)
    assert result.swaps_target == 40
    assert len(result.swaps_done) == 2
    assert result.n_samples == 2
    assert result.seed == 3


def test_null_rewiring_star_is_best_effort_with_warning():
    # a star's only directed edges share the hub: no swap can ever apply
    layer = _layer_from_edges([(0, i) for i in range(1, 5)])
    with pytest.warns(RuntimeWarning):
        result = configuration_null(layer, n_samples=1, seed=1)
    assert result.swaps_done == (0,)
    assert result.empirical_mean_clustering == result.null_mean_clustering


def test_null_sample_count_validation(small_log):
    plus, _ = split_layers(small_log)
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
