"""The integer overlap table against raw set intersections, and the integer
s-line-graph kernel against the brute-force oracle on random small
hypergraphs, against the string-keyed reference BFS on ~300-edge ones,
and against both on hypergraphs made mostly of twin edges. Floats must
match exactly: both sides divide the same integers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgnids import bruteforce as bf
from hgnids import hypergraph as hg
from hgnids.flows import Dataset
from hgnids.hypergraph import (
    EdgeRole,
    build_hypergraph,
    detector_skip_interval,
    edge_profiles,
    feature_skip_interval,
    s_closeness_centrality,
    s_components,
    s_distance,
)

import bfs_reference as ref
import hypergraph_reference
from helpers import hypergraph_from_edges, make_record

# Few hosts and ports, so records repeat ports, hosts appear as both source
# and destination (BOTH-role edges), and some edges share nothing.
_HOSTS = [f"10.0.0.{i}" for i in range(1, 9)]
_flows = st.lists(
    st.tuples(st.sampled_from(_HOSTS), st.sampled_from(_HOSTS), st.integers(1, 9)),
    min_size=1,
    max_size=30,
)


# A few port sets, each drawn for many edges: classes of one twin and of
# several, classes smaller than s, and components made only of twins.
_twin_port_sets = st.lists(
    st.frozensets(st.integers(0, 9), min_size=1, max_size=7), min_size=1, max_size=4
).flatmap(lambda sets: st.lists(st.sampled_from(sets), max_size=12))


# A BOTH-role edge (10.0.0.2), a repeated flow, and singletons at s = 2.
_MIXED = [
    ("10.0.0.1", "10.0.0.2", 1), ("10.0.0.2", "10.0.0.3", 2),
    ("10.0.0.1", "10.0.0.2", 2), ("10.0.0.1", "10.0.0.2", 1),
    ("10.0.0.4", "10.0.0.5", 9),
]


def _dataset(flows) -> Dataset:
    return Dataset(tuple(make_record(src, dst, port) for src, dst, port in flows))


@settings(max_examples=80, deadline=None)
@given(flows=_flows, s=st.integers(1, 5))
@example(flows=_MIXED, s=2)
def test_kernel_matches_oracle(flows, s):
    h = build_hypergraph(_dataset(flows))
    names = list(h.edges)
    components = s_components(h, s)
    assert {frozenset(g) for g in components.groups()} == {
        frozenset(g) for g in bf.oracle_components(h, s)
    }
    first_seen = list(dict.fromkeys(components.assignment[e] for e in names))
    assert first_seen == list(range(len(first_seen)))  # ids in insertion order
    for e in names:
        assert s_closeness_centrality(h, e, s) == bf.oracle_centrality(h, e, s)
        for f in names:
            assert s_distance(h, e, f, s) == bf.oracle_distance(h, e, f, s)


@settings(max_examples=80, deadline=None)
@given(flows=_flows, port_sets=_twin_port_sets)
@example(flows=_MIXED, port_sets=[{1, 2, 3}] * 3 + [{1, 2, 3, 4}] + [{7, 8}] * 2 + [{8}])
def test_overlaps_match_set_intersections(flows, port_sets):
    """One row per pair of overlapping port sets, between their first
    edges: on windows, and on hypergraphs made mostly of twins."""
    twins = hypergraph_from_edges({f"e{i}": set(ports) for i, ports in enumerate(port_sets)})
    for h in (build_hypergraph(_dataset(flows)), twins):
        table = h.overlaps()
        assert table.dtype == np.int32
        assert list(map(tuple, table.tolist())) == hypergraph_reference.class_overlap_rows(h.edges)


def test_overlaps_of_empty_hypergraph():
    table = hypergraph_from_edges({}).overlaps()
    assert table.shape == (0, 3) and table.dtype == np.int32


def test_mixed_example_has_both_roles_and_singletons():
    h = build_hypergraph(_dataset(_MIXED))
    assert h.roles[h.edge_ids()["10.0.0.2"]] is EdgeRole.BOTH
    groups = s_components(h, 2).groups()
    assert {"10.0.0.1", "10.0.0.2"} in groups and {"10.0.0.4"} in groups
    assert s_closeness_centrality(h, "10.0.0.3", 2) == 0.0
    assert s_distance(h, "10.0.0.3", "10.0.0.3", 2) == 0
    assert s_distance(h, "10.0.0.3", "10.0.0.1", 2) is None


def _large_hypergraph(seed: int, n_edges: int = 300, n_vertices: int = 150):
    rng = np.random.default_rng(seed)
    edges = {}
    for i in range(n_edges):
        size = int(rng.integers(1, 40))
        edges[f"e{i}"] = {int(v) for v in rng.choice(n_vertices, size=size, replace=False)}
    return hypergraph_from_edges(edges)


@pytest.mark.parametrize("chunk_cells", [hg._CHUNK_CELLS, 1000])
@pytest.mark.parametrize("seed", [0, 1])
def test_kernel_matches_reference_bfs(seed, chunk_cells, monkeypatch):
    monkeypatch.setattr(hg, "_CHUNK_CELLS", chunk_cells)
    h = _large_hypergraph(seed)
    for k in {1, feature_skip_interval(h), detector_skip_interval(h.max_edge_size())}:
        fast = dict(zip(h.edges, map(tuple, edge_profiles(h, k).tolist())))
        assert fast == ref.profile_values(h, k)
    names = list(h.edges)
    for s in (1, 3, 8):
        assert s_components(h, s).assignment == ref.components(h, s)
        adjacency = ref.adjacency_at(h, s)
        for e in names[::25]:
            dist = ref.bfs_distances(adjacency, e)
            assert [s_distance(h, e, f, s) for f in names] == [dist.get(f) for f in names]


@settings(max_examples=100, deadline=None)
@given(port_sets=_twin_port_sets, s=st.integers(1, 6))
@example(port_sets=[], s=1)
@example(port_sets=[frozenset(range(5))] * 6, s=3)
@example(port_sets=[{1, 2, 3}] * 3 + [{1, 2, 3, 4}] + [{7, 8}] * 2 + [{8}], s=3)
def test_twin_classes_match_reference_and_oracle(port_sets, s):
    h = hypergraph_from_edges({f"e{i}": set(ports) for i, ports in enumerate(port_sets)})
    names = list(h.names)
    for k in (1, 2):
        expected = ref.profile_values(h, k)
        table = edge_profiles(h, k)
        assert table.shape == (len(h), 11)
        assert table.tobytes() == np.array([expected[e] for e in names]).tobytes()
    assert s_components(h, s).assignment == ref.components(h, s)
    assert {frozenset(g) for g in s_components(h, s).groups()} == {
        frozenset(g) for g in bf.oracle_components(h, s)
    }
    adjacency = ref.adjacency_at(h, s)
    for e in names:
        dist = ref.bfs_distances(adjacency, e)
        fast = [s_distance(h, e, f, s) for f in names]
        assert fast == [dist.get(f) for f in names] == [bf.oracle_distance(h, e, f, s) for f in names]
        assert s_closeness_centrality(h, e, s) == bf.oracle_centrality(h, e, s)
    # only per-edge arrays stay cached, no [n_s, n_s] matrix
    assert all(a.ndim == 1 for line in h._lines.values() for a in vars(line).values())
