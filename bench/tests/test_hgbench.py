"""Tests of the benchmark's own code (not of hgnids)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from hgnids import detector, features, flows, hypergraph, trees  # noqa: E402
from hgbench import layers  # noqa: E402
from hgbench.trace import Span, Tracer, patched, self_times, summarize  # noqa: E402
from hgbench.window import make_window  # noqa: E402
from hgbench.workloads import digest_mismatches, sha256  # noqa: E402

SMALL = dict(n_pairs=2, scans_per_pair=40, n_benign=300, n_clients=30, n_servers=5)


def _window_bytes(seed: int, tmp_path: Path) -> bytes:
    path = tmp_path / f"w{seed}-{len(list(tmp_path.iterdir()))}.csv"
    flows.write_csv(make_window(seed, **SMALL).dataset, path)
    return path.read_bytes()


def test_window_same_seed_same_bytes(tmp_path):
    assert _window_bytes(7, tmp_path) == _window_bytes(7, tmp_path)
    assert _window_bytes(7, tmp_path) != _window_bytes(8, tmp_path)


def test_window_shape(tmp_path):
    w = make_window(3, **SMALL)
    assert len(w.dataset) == 2 * 40 + 300
    assert len(w.planted) == 2
    scan_pairs = {r.pair for r in w.dataset if r.label.kind is flows.LabelKind.PORT_SCAN}
    assert scan_pairs == set(w.planted)
    h = hypergraph.build_hypergraph(w.dataset)
    assert h.max_edge_size() == 40


def _span(sid, parent, name, start, end):
    return Span(sid, parent, name, start, end)


def test_self_time_of_hand_built_tree():
    # root [0, 10] has children [1, 3] and [2, 6] (overlapping, union 5 s)
    # and [8, 12] (clipped to the root's end: 2 s); the first child has a
    # grandchild that must not count against the root.
    spans = [
        _span(0, None, "a", 0.0, 10.0),
        _span(1, 0, "b", 1.0, 3.0),
        _span(2, 1, "c", 1.5, 2.5),
        _span(3, 0, "b", 2.0, 6.0),
        _span(4, 0, "d", 8.0, 12.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.0, 1.0, 4.0, 4.0])


def test_summarize_counts_nested_same_name_once():
    spans = [
        Span(0, None, "x", 0.0, 4.0, {"rows": 3}),
        Span(1, 0, "x", 1.0, 2.0, {"rows": 2}),
        Span(2, None, "y", 5.0, 6.0),
    ]
    s = summarize(spans)
    assert s["x.calls"] == 2
    assert s["x.s"] == pytest.approx(4.0)
    assert s["x.self_s"] == pytest.approx(4.0)
    assert s["x.rows"] == 5
    assert s["y.s"] == pytest.approx(1.0)


def test_digest_check_catches_one_byte_change():
    blob = b"window_id,src_ip,dst_ip\n0,172.16.0.1,192.168.100.50\n"
    changed = bytearray(blob)
    changed[-3] ^= 1
    expected = {"flags": sha256(blob), "scores": sha256(b"0.9")}
    assert digest_mismatches(expected, {"flags": sha256(blob), "scores": sha256(b"0.9")}) == []
    assert digest_mismatches(expected, {"flags": sha256(bytes(changed)), "scores": sha256(b"0.9")}) == [
        "flags"
    ]
    assert digest_mismatches(expected, {"flags": sha256(blob)}) == ["scores"]


def test_patched_records_nested_spans_and_restores():
    window = make_window(5, **SMALL).dataset
    originals = (detector.build_hypergraph, hypergraph.Hypergraph.overlaps)
    tracer = Tracer()
    with patched(tracer, layers.targets()):
        flags, _ = detector.detect_window(window, set())
    assert (detector.build_hypergraph, hypergraph.Hypergraph.overlaps) == originals
    spans = tracer.finish()
    by_id = {s.id: s for s in spans}
    root = spans[0]
    assert root.name == "detector.detect_window" and root.parent is None
    assert root.counts == {"flags": len(flags)}
    names = {s.name for s in spans}
    assert {"hypergraph.build_hypergraph", "hypergraph.edge_profiles", "hypergraph.overlaps"} <= names
    for s in spans[1:]:
        assert by_id[s.parent].start <= s.start <= s.end <= by_id[s.parent].end
    values = layers.layer_values(summarize(spans))
    h = hypergraph.build_hypergraph(window)
    assert values["hypergraph.overlap_pairs"] == len(h.overlaps())
    assert values["hypergraph.edge_profiles.edges"] == len(h)


def test_benchmark_json_lists_the_layer_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    table = [(m.name, m.unit, m.better) for m in (*layers.PER_LAYER, layers.OVERHEAD)]
    assert declared == table


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "trees._pick_best splits at (a + b) / 2, which rounds to b when a and b are "
    "adjacent floats; every row then goes left and the empty right child raises"
))
def test_split_between_adjacent_floats():
    """Why the simulation workload runs desk case 4 and not case 6: update-all
    retraining on adversarial rows meets feature values one ulp apart (such
    as 0.9999999999999999 and 1.0) on about a third of seeds. Once this
    passes, case 6 can come back."""
    width = features.MODE_WIDTH[features.FeatureMode.NRF]
    below_one = float(np.nextafter(1.0, 0.0))
    rows = [
        features.FeatureVector(features.FeatureMode.NRF, (v,) + (0.0,) * (width - 1), label)
        for v, label in [(below_one, 0), (1.0, 1)] * 20
    ]
    trees.train(rows, trees.ModelKind.RANDOM_FOREST, trees.Hyperparams(1, 3, 1, None, width, 0))
