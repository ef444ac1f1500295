"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from hgnids.flows import BENIGN_LABEL, Dataset, FlowRecord, SCAN_LABEL
from hgnids.features import FeatureMode, FeatureVector
from hgnids.hypergraph import EdgeRole, Hypergraph
from hgnids.trees import Hyperparams, ModelKind, TreeModel, _Tree


def make_record(
    src="10.0.0.1",
    dst="10.0.0.2",
    dst_port=80,
    label=BENIGN_LABEL,
    duration=1000.0,
    fwd_pkts=2.0,
    bwd_pkts=2.0,
    fwd_bytes=120.0,
    bwd_bytes=240.0,
    bytes_s=5000.0,
    pkts_s=100.0,
    ratio=1.0,
    protocol=6,
    src_port=40000,
) -> FlowRecord:
    return FlowRecord(
        src_ip=src,
        dst_ip=dst,
        src_port=src_port,
        dst_port=dst_port,
        protocol=protocol,
        flow_duration=duration,
        tot_fwd_pkts=fwd_pkts,
        tot_bwd_pkts=bwd_pkts,
        tot_fwd_bytes=fwd_bytes,
        tot_bwd_bytes=bwd_bytes,
        flow_bytes_per_s=bytes_s,
        flow_pkts_per_s=pkts_s,
        down_up_ratio=ratio,
        label=label,
    )


_COLUMN_NAMES = ("nrf", "src_port", "dst_port", "label_code", "src", "dst")


def same_columns(a: Dataset, b: Dataset) -> bool:
    """Bit-equal columns of one dtype, the same labels and addresses in the
    same order, and the same provenance and seed."""
    return all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for name in _COLUMN_NAMES
    ) and (a.labels, a.ips, a.provenance, a.seed) == (b.labels, b.ips, b.provenance, b.seed)


def hypergraph_from_edges(edges: dict[str, set[int]]) -> Hypergraph:
    """Edges in the given order, every one a SOURCE edge."""
    sizes = [len(members) for members in edges.values()]
    ports = [port for members in edges.values() for port in members]
    return Hypergraph(list(edges), np.repeat(np.arange(len(edges)), sizes), ports,
                      [EdgeRole.SOURCE] * len(edges))


def random_hypergraph(seed: int, max_edges: int = 12, max_vertices: int = 20) -> Hypergraph:
    rng = np.random.default_rng(seed)
    n_edges = int(rng.integers(2, max_edges + 1))
    n_verts = int(rng.integers(3, max_vertices + 1))
    edges = {}
    for i in range(n_edges):
        size = int(rng.integers(1, min(n_verts, 8) + 1))
        members = rng.choice(n_verts, size=size, replace=False)
        edges[f"edge{i}"] = {int(v) for v in members}
    return hypergraph_from_edges(edges)


def separable_rows(n: int = 200, seed: int = 0, mode=FeatureMode.NRF):
    """Linearly separable two-class toy matrix in the 9-feature layout."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        label = i % 2
        base = 10.0 if label else 1000.0
        values = (
            6.0,
            base + float(rng.normal(0, 1)),
            2.0 + float(rng.random()),
            2.0 + float(rng.random()),
            100.0 + float(rng.random()),
            100.0 + float(rng.random()),
            base * 2 + float(rng.normal(0, 1)),
            50.0 + float(rng.random()),
            1.0,
        )
        rows.append(FeatureVector(mode, values, label))
    return rows


def single_leaf_model(value: float, n_features: int = 9, kind=ModelKind.RANDOM_FOREST) -> TreeModel:
    tree = _Tree(
        np.array([-1], dtype=np.int32),
        np.array([0.0]),
        np.array([-1], dtype=np.int32),
        np.array([-1], dtype=np.int32),
        np.array([value]),
    )
    hp = Hyperparams(1, 1, 1, None, None, 0)
    return TreeModel(kind, FeatureMode.NRF, hp, n_features, [tree])


def split_model(feature: int, threshold: float, left_value: float, right_value: float,
                n_features: int = 9) -> TreeModel:
    """Single-split forest: leaf probabilities chosen by hand."""
    tree = _Tree(
        np.array([feature, -1, -1], dtype=np.int32),
        np.array([threshold, 0.0, 0.0]),
        np.array([1, -1, -1], dtype=np.int32),
        np.array([2, -1, -1], dtype=np.int32),
        np.array([0.0, left_value, right_value]),
    )
    hp = Hyperparams(1, 1, 1, None, None, 0)
    return TreeModel(ModelKind.RANDOM_FOREST, FeatureMode.NRF, hp, n_features, [tree])


SCAN_SRC = "172.16.0.1"
SCAN_DST = "192.168.10.50"


def topology_fixture() -> Dataset:
    """43 records whose hypergraph has exactly 15 edges and 34 vertices:
    one scanning pair sweeping 29 ports plus 14 benign flows over 13 other
    IPs and 5 additional ports."""
    records = []
    scan_ports = [21, 53, 80, 443] + list(range(1001, 1026))
    for port in scan_ports:
        records.append(make_record(SCAN_SRC, SCAN_DST, port, SCAN_LABEL, duration=50.0,
                                    fwd_pkts=1.0, bwd_pkts=1.0, fwd_bytes=1.0, bwd_bytes=6.0,
                                    bytes_s=140000.0, pkts_s=42000.0, ratio=1.0))
    clients = [f"192.168.10.{i}" for i in (5, 8, 9, 12, 14, 15, 16, 17)]
    servers = ["8.8.8.8", "173.194.208.155", "104.16.28.34", "192.168.10.3", "205.174.165.73"]
    c = clients
    s = servers
    benign = [
        (c[0], s[0], 53),
        (c[1], s[0], 53),
        (c[2], s[0], 443),
        (c[3], s[1], 35066),
        (c[4], s[1], 56344),
        (c[5], s[2], 8613),
        (c[6], s[2], 42154),
        (c[7], s[3], 55107),
        (c[0], s[3], 21),
        (c[1], s[4], 443),
        (c[2], s[4], 53),
        (c[3], s[4], 21),
        (c[4], s[0], 443),
        (c[5], s[1], 53),
    ]
    for src, dst, port in benign:
        records.append(make_record(src, dst, port, BENIGN_LABEL))
    return Dataset(tuple(records), provenance="SYNTHETIC", seed=0)
