"""Metamorphic tests for the hypergraph, the detector and the encoder.

S-closeness depends only on the incidence structure (Aksoy et al. 2020,
"Hypernetwork science via high-order hypergraph walks"), so some changes
to the input must leave the outputs unchanged, or change them in a known
way: reordering records, relabelling destination ports by a bijection,
and renaming addresses by a bijection. No reference is needed, so each
test stays fast on small scan + benign windows and on hypergraphs made
mostly of twin edges."""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgnids.detector import detect_window
from hgnids.features import encode
from hgnids.flows import Dataset, concat, synth_traffic
from hgnids.hypergraph import (
    build_hypergraph,
    detector_skip_interval,
    edge_profiles,
    feature_skip_interval,
    s_components,
    s_distance,
)

from helpers import hypergraph_from_edges


def _window(seed: int, n_pairs: int, scans_per_pair: int, n_benign: int) -> Dataset:
    """Port scans on n_pairs endpoint pairs, then benign traffic between
    the default clients and servers on the popular ports, so most benign
    edges are twins."""
    pairs = [(f"172.16.{i}.1", f"192.168.{100 + i}.50") for i in range(n_pairs)]
    return concat(synth_traffic("PORT_SCAN", n_pairs * scans_per_pair, pairs, seed),
                  synth_traffic("BENIGN", n_benign, [], seed + 1), seed=seed)


_windows = st.builds(_window, st.integers(0, 1 << 16), st.integers(1, 3), st.integers(1, 40),
                     st.integers(0, 150))
_seeds = st.integers(0, (1 << 32) - 1)
# A few port sets, each drawn for many edges.
_twin_port_sets = st.lists(
    st.frozensets(st.integers(0, 11), min_size=1, max_size=8), min_size=1, max_size=4
).flatmap(lambda sets: st.lists(st.sampled_from(sets), min_size=1, max_size=14))

# Two scanned pairs whose edges reach the top of the detector's schedule,
# and a benign address seen in one record only.
_SMALL = dict(seed=5, n_pairs=2, scans_per_pair=30, n_benign=3)


def _profiles(data: Dataset) -> dict[str, tuple[bytes, ...]]:
    """Each address's profile rows at the feature k and the detector k."""
    h = build_hypergraph(data)
    tables = [edge_profiles(h, k) for k in (feature_skip_interval(h), detector_skip_interval(h.max_edge_size()))]
    return {ip: tuple(table[i].tobytes() for table in tables) for ip, i in h.edge_ids().items()}


def _flags(data: Dataset) -> list[tuple]:
    return [(f.pair, f.binarized_tail, f.tail_sum) for f in detect_window(data, set())[0]]


def _rewritten(data: Dataset, **fields) -> Dataset:
    """data with each record's named fields mapped by the given functions."""
    records = [replace(r, **{name: f(getattr(r, name)) for name, f in fields.items()}) for r in data]
    return Dataset(records, data.provenance, data.seed)


@settings(max_examples=25, deadline=None)
@given(data=_windows, order=_seeds)
@example(data=_window(**_SMALL), order=0)
def test_record_order_changes_no_profile_and_no_flag(data, order):
    shuffled = data.take(np.random.default_rng(order).permutation(len(data)))
    assert _profiles(shuffled) == _profiles(data)
    assert set(_flags(shuffled)) == set(_flags(data))


@settings(max_examples=25, deadline=None)
@given(data=_windows, relabel=_seeds)
@example(data=_window(**_SMALL), relabel=0)
def test_a_port_bijection_changes_no_profile_and_no_flag(data, relabel):
    port = np.random.default_rng(relabel).permutation(1 << 16).tolist()
    moved = _rewritten(data, dst_port=port.__getitem__)
    assert _profiles(moved) == _profiles(data)
    assert _flags(moved) == _flags(data)


@settings(max_examples=25, deadline=None)
@given(data=_windows, rename=_seeds)
@example(data=_window(**_SMALL), rename=0)
def test_an_address_bijection_renames_the_flags_in_order(data, rename):
    """The window's addresses trade names among themselves, so scanners
    take benign hosts' names and the other way round."""
    new = np.random.default_rng(rename).permutation(len(data.ips)).tolist()
    name = dict(zip(data.ips, [data.ips[i] for i in new]))
    renamed = _rewritten(data, src_ip=name.__getitem__, dst_ip=name.__getitem__)
    assert _profiles(renamed) == {name[ip]: rows for ip, rows in _profiles(data).items()}
    assert _flags(renamed) == [((name[a], name[b]), tail, total) for (a, b), tail, total in _flags(data)]


@settings(max_examples=25, deadline=None)
@given(data=_windows, order=_seeds)
@example(data=_window(**_SMALL), order=0)
def test_encode_commutes_with_a_row_permutation(data, order):
    """Against a fixed hypergraph, and against the permuted table's own."""
    p = np.random.default_rng(order).permutation(len(data))
    h = build_hypergraph(data)
    X, y = encode(data, None, h)
    for graph in (h, build_hypergraph(data.take(p))):
        Xp, yp = encode(data.take(p), None, graph)
        assert Xp.tobytes() == X[p].tobytes()
        assert yp.tobytes() == y[p].tobytes()


@settings(max_examples=60, deadline=None)
@given(port_sets=_twin_port_sets, order=_seeds, s=st.integers(1, 4))
@example(port_sets=[frozenset({1, 2, 3})] * 3 + [frozenset({1, 2, 3, 4}), frozenset({3, 4})] * 2,
         order=1, s=3)
def test_twin_heavy_metrics_ignore_edge_order_and_port_labels(port_sets, order, s):
    """Edges listed in another order, with ports relabelled by a
    bijection, keep every name-keyed answer: profiles at k = 1 and at
    the feature and detector k, the s-components as sets of names, and
    every s-distance."""
    rng = np.random.default_rng(order)
    p, port = rng.permutation(len(port_sets)).tolist(), rng.permutation(1 << 16)
    h = hypergraph_from_edges({f"e{i}": set(ports) for i, ports in enumerate(port_sets)})
    moved = hypergraph_from_edges({f"e{i}": set(port[list(port_sets[i])].tolist()) for i in p})
    ids, moved_ids = h.edge_ids(), moved.edge_ids()
    for k in {1, feature_skip_interval(h), detector_skip_interval(h.max_edge_size())}:
        table, moved_table = edge_profiles(h, k), edge_profiles(moved, k)
        assert all(table[ids[e]].tobytes() == moved_table[moved_ids[e]].tobytes() for e in ids)
    groups = {frozenset(g) for g in s_components(h, s).groups()}
    assert {frozenset(g) for g in s_components(moved, s).groups()} == groups
    assert all(s_distance(moved, e, f, s) == s_distance(h, e, f, s) for e in ids for f in ids)
