import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgnids import bruteforce as bf
from hgnids import hypergraph as hg
from hgnids.flows import Dataset
from hgnids.hypergraph import (
    build_hypergraph,
    centrality_profile,
    detector_skip_interval,
    edge_profiles,
    feature_skip_interval,
    incidence_rows,
    s_closeness_centrality,
    s_components,
    s_distance,
)

import hypergraph_reference as ref
from helpers import (
    hypergraph_from_edges,
    make_record,
    random_hypergraph,
    topology_fixture,
)


@pytest.mark.parametrize("edge, port, n_roles", [
    ([0, 1], [80], 2),  # one edge id too many
    ([0, 0], [80, 70_000], 2),  # a port past 65535
    ([0, 1], [-1, 80], 2),  # a negative port
    ([0, 5], [80, 80], 2),  # an edge id past the names
    ([0, 1], [80, 80], 1),  # a role short
], ids=["lengths", "port-high", "port-negative", "edge-id", "roles"])
def test_constructor_rejects_what_it_cannot_pack(edge, port, n_roles):
    """Incidences pack as edge * 65536 + port, so an unchecked port or
    edge id would land on another edge or be dropped."""
    with pytest.raises(ValueError):
        hg.Hypergraph(["a", "b"], edge, port, [hg.EdgeRole.SOURCE] * n_roles)


def test_build_single_record():
    d = Dataset((make_record("a", "b", 80),))
    h = build_hypergraph(d)
    assert len(h) == 2
    assert h.edges["a"] == {80}
    assert h.edges["b"] == {80}
    assert h.vertices == {80}


def test_build_collapses_duplicates():
    d = Dataset((make_record("a", "b", 80), make_record("a", "b", 80)))
    h = build_hypergraph(d)
    assert h.edges["a"] == {80}


def test_build_roles():
    d = Dataset((make_record("a", "b", 80), make_record("b", "c", 81)))
    h = build_hypergraph(d)
    assert h.names == ("a", "b", "c")
    assert h.roles == (hg.EdgeRole.SOURCE, hg.EdgeRole.BOTH, hg.EdgeRole.DEST)


def test_build_scan_sweep():
    records = tuple(make_record("s", "d", 1 + i) for i in range(100))
    h = build_hypergraph(Dataset(records))
    assert len(h) == 2
    assert h.sizes.tolist() == [100, 100]
    assert len(h.vertices) == 100


def test_topology_fixture_counts():
    d = topology_fixture()
    assert len(d) == 43
    h = build_hypergraph(d)
    assert len(h) == 15
    assert len(h.vertices) == 34


def test_monotone_construction():
    d = topology_fixture()
    h_partial = build_hypergraph(Dataset(d.records[:20]))
    h_full = build_hypergraph(d)
    assert set(h_partial.edges) <= set(h_full.edges)
    for ip, members in h_partial.edges.items():
        assert members <= h_full.edges[ip]


def test_distance_direct_adjacency():
    h = hypergraph_from_edges({"a": {1, 2, 3}, "b": {2, 3, 4}})
    assert s_distance(h, "a", "b", 2) == 1
    assert s_distance(h, "a", "a", 2) == 0
    assert s_distance(h, "a", "b", 3) is None


def test_distance_unknown_edge():
    h = hypergraph_from_edges({"a": {1}})
    with pytest.raises(KeyError):
        s_distance(h, "a", "nope", 1)


def test_path_of_three_edges():
    # a-b and b-c overlap in 2 vertices, a-c in none
    h = hypergraph_from_edges({"a": {1, 2, 3}, "b": {2, 3, 4, 5}, "c": {4, 5, 6}})
    assert s_distance(h, "a", "c", 2) == 2
    assert s_closeness_centrality(h, "b", 2) == pytest.approx(1.0)
    assert s_closeness_centrality(h, "a", 2) == pytest.approx(2.0 / 3.0)


def test_concentric_pair_centrality():
    m = 30
    h = hypergraph_from_edges({"src": set(range(m)), "dst": set(range(m))})
    for s in range(3, m + 1):
        assert s_closeness_centrality(h, "src", s) == 1.0
        assert s_closeness_centrality(h, "dst", s) == 1.0
    for s in (m + 1, m + 5):
        assert s_closeness_centrality(h, "src", s) == 0.0


def test_concentric_component_at_high_s():
    h = hypergraph_from_edges({"src": set(range(30)), "dst": set(range(30)), "x": {1, 2}})
    comp = s_components(h, 11)
    groups = [g for g in comp.groups() if len(g) > 1]
    assert groups == [{"src", "dst"}]


def test_disjoint_edges_are_singletons():
    h = hypergraph_from_edges({"a": {1}, "b": {2}, "c": {3}})
    comp = s_components(h, 1)
    assert len(comp.groups()) == 3


def test_singleton_centrality_zero():
    h = hypergraph_from_edges({"a": {1, 2}, "b": {3, 4}})
    assert s_closeness_centrality(h, "a", 1) == 0.0


def test_profile_zero_fill_small_edge():
    h = hypergraph_from_edges({"a": {1, 2}, "b": {1, 2}})
    profile = centrality_profile(h, "a", k=5)
    assert profile.values == (0.0,) * 11
    assert profile.total == 0.0


def test_profile_matches_pointwise():
    h = random_hypergraph(123)
    k = 2
    table = edge_profiles(h, k)
    assert table.shape == (len(h), 11) and table.dtype == np.float64
    assert list(h.edge_ids().items()) == [(ip, i) for i, ip in enumerate(h.edges)]
    for (ip, members), row in zip(h.edges.items(), table.tolist()):
        profile = centrality_profile(h, ip, k)
        assert tuple(row) == profile.values
        expected = tuple(
            0.0 if s > len(members) else s_closeness_centrality(h, ip, s)
            for s in profile.schedule
        )
        assert profile.values == expected
        assert profile.total == pytest.approx(sum(profile.values), abs=1e-12)


def test_schedule_values():
    assert hg.centrality_schedule(10) == (3, 13, 23, 33, 43, 53, 63, 73, 83, 93, 103)
    with pytest.raises(ValueError):
        hg.centrality_schedule(0)


def test_feature_skip_interval():
    h110 = hypergraph_from_edges({"big": set(range(110))})
    assert feature_skip_interval(h110) == 7
    h10 = hypergraph_from_edges({"small": set(range(10))})
    assert feature_skip_interval(h10) == 1
    h1500 = hypergraph_from_edges({"huge": set(range(1500))})
    assert feature_skip_interval(h1500) == 105


def test_feature_skip_interval_empty():
    with pytest.raises(ValueError):
        feature_skip_interval(hypergraph_from_edges({}))


def test_detector_skip_interval():
    assert detector_skip_interval(110) == 10
    assert detector_skip_interval(5) == 1


def test_symmetry_and_triangle():
    for seed in range(20):
        h = random_hypergraph(seed)
        names = list(h.edges)
        for s in (1, 2):
            for i, e in enumerate(names):
                for f in names[i + 1:]:
                    assert s_distance(h, e, f, s) == s_distance(h, f, e, s)


def test_monotonicity_in_s():
    for seed in range(20):
        h = random_hypergraph(seed + 500)
        for s in (1, 2, 3):
            coarse = s_components(h, s).groups()
            fine = s_components(h, s + 1).groups()
            for group in fine:
                assert any(group <= parent for parent in coarse)


def test_centrality_bounds():
    for seed in range(20):
        h = random_hypergraph(seed + 900)
        for s in (1, 2, 3):
            for e in h.edges:
                c = s_closeness_centrality(h, e, s)
                assert 0.0 <= c <= 1.0


def test_oracle_equivalence_small():
    for seed in range(40):
        h = random_hypergraph(seed + 2000)
        names = list(h.edges)
        for s in (1, 2, 3):
            fast = {frozenset(g) for g in s_components(h, s).groups()}
            slow = {frozenset(g) for g in bf.oracle_components(h, s)}
            assert fast == slow
            for e in names:
                assert s_closeness_centrality(h, e, s) == pytest.approx(
                    bf.oracle_centrality(h, e, s), abs=1e-15
                )
                for f in names:
                    assert s_distance(h, e, f, s) == bf.oracle_distance(h, e, f, s)


def test_empty_dataset_builds_empty_hypergraph():
    h = build_hypergraph(Dataset(()))
    assert len(h) == 0
    assert s_components(h, 1).assignment == {}


# Few hosts, so some address is both a source and a destination and
# (address, port) incidences repeat; the port range's ends are drawn often.
_HOSTS = [f"10.0.1.{i}" for i in range(1, 7)]
_flows = st.lists(
    st.tuples(
        st.sampled_from(_HOSTS),
        st.sampled_from(_HOSTS),
        st.one_of(st.sampled_from([0, 1, 80, 65535]), st.integers(0, 65535)),
    ),
    max_size=25,
)


@settings(max_examples=100, deadline=None)
@given(flows=_flows)
@example(flows=[])
@example(flows=[("a", "b", 0), ("b", "c", 65535), ("a", "b", 0), ("c", "a", 65535), ("c", "c", 0)])
def test_build_matches_per_record_reference(flows):
    data = Dataset(tuple(make_record(src, dst, port) for src, dst, port in flows))
    h = build_hypergraph(data)
    edges, roles = ref.build(data)
    assert h.names == tuple(edges) == data.ips
    assert dict(h.edges) == edges
    assert h.roles == tuple(roles.values())
    assert h.sizes.tolist() == [len(m) for m in edges.values()]
    assert h.vertices == set().union(*edges.values())
    assert incidence_rows(h) == [
        (ip, roles[ip].value, port) for ip, members in edges.items() for port in sorted(members)
    ]
    assert list(map(tuple, h.overlaps().tolist())) == ref.class_overlap_rows(edges)
    if len(h):
        from_sets = hypergraph_from_edges(edges)
        for k in {1, feature_skip_interval(h)}:
            assert np.array_equal(edge_profiles(h, k), edge_profiles(from_sets, k))


def test_overlaps_memory_stays_far_below_dense():
    """~3,800 edges of 1-6 ports each over 30,000 ports: the overlap table
    is a few thousand rows, and building it must not touch an [E, E]
    array (E * E bytes is ~14 MB here)."""
    rng = np.random.default_rng(0)
    edges = {f"e{i}": set(rng.integers(0, 30_000, rng.integers(1, 7)).tolist()) for i in range(3_800)}
    h = hypergraph_from_edges(edges)
    tracemalloc.start()
    try:
        table = h.overlaps()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < len(table) < 10_000
    assert peak < len(h) ** 2 // 8, peak


def test_profiles_of_twin_edges_stay_far_below_dense():
    """2,000 edges that share one 40-port set are one twin class, so their
    overlap table has no row, and neither building it nor the sweep may
    touch an [E, E] array (16 MB of int32 here); no cached s-line graph
    keeps a two-dimensional array."""
    h = hypergraph_from_edges({f"e{i}": set(range(40)) for i in range(2_000)})
    tracemalloc.start()
    try:
        overlaps = h.overlaps()
        overlaps_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        table = edge_profiles(h, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(overlaps) == 0
    assert overlaps_peak < 1 << 20, overlaps_peak
    assert (table == 1.0).all()
    assert peak < 4 << 20, peak
    assert all(a.ndim == 1 for line in h._lines.values() for a in vars(line).values())
