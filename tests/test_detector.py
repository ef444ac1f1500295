from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgnids import detector
from hgnids.detector import (
    BINARIZE_THRESHOLD,
    FLAG_MIN_SUM,
    detect_window,
)
from hgnids.flows import BENIGN_LABEL, Dataset, SCAN_LABEL, concat, synth_traffic
from hgnids.hypergraph import build_hypergraph, detector_skip_interval

import bfs_reference
import detector_reference as ref
from helpers import make_record


def _scan_window(seed=1, n_ports=120, n_benign=500):
    pair = ("172.16.0.1", "192.168.10.50")
    scans = synth_traffic("PORT_SCAN", n_ports, [pair], seed=seed)
    benign = synth_traffic("BENIGN", n_benign, [], seed=seed + 1)
    return pair, concat(scans, benign)


def test_schedule_tops_out_near_largest_edge():
    k = detector_skip_interval(110)
    assert [3 + n * k for n in range(11)] == [3, 13, 23, 33, 43, 53, 63, 73, 83, 93, 103]


def test_scanning_pair_flagged():
    pair, window = _scan_window()
    flags, flagged = detect_window(window, set(), window_id=3)
    assert [f.pair for f in flags] == [pair]
    assert flags[0].tail_sum >= FLAG_MIN_SUM
    assert flags[0].window_id == 3
    assert len(flags[0].binarized_tail) == 6
    assert pair in flagged


def test_benign_only_window_has_no_flags():
    records = tuple(
        make_record(f"10.0.{i}.1", f"10.0.{i}.2", dst_port=80 + i, label=BENIGN_LABEL)
        for i in range(40)
    )
    flags, flagged = detect_window(Dataset(records), set())
    assert flags == []
    assert flagged == set()


def test_binarization_threshold_is_inclusive():
    # reproduce the step-3 conversion exactly
    tail = (0.949, 0.95, 1.0, 0.0, 0.951, 0.9499)
    converted = tuple(1 if v >= BINARIZE_THRESHOLD else 0 for v in tail)
    assert converted == (0, 1, 1, 0, 1, 0)


def test_pair_flagged_once():
    pair, window = _scan_window()
    flags, flagged = detect_window(window, set(), window_id=0)
    assert len(flags) == 1
    flags2, flagged2 = detect_window(window, flagged, window_id=1)
    assert flags2 == []
    assert flagged2 == flagged


def test_reset_clears_memory():
    pair, window = _scan_window()
    _, flagged = detect_window(window, set())
    assert pair in flagged
    flags, _ = detect_window(window, set(), window_id=9)
    assert [f.pair for f in flags] == [pair]


def test_monotone_window_growth():
    pair, window = _scan_window(n_ports=110)
    flags_small, _ = detect_window(window, set())
    assert [f.pair for f in flags_small] == [pair]
    more = synth_traffic("PORT_SCAN", 160, [pair], seed=77)
    grown = concat(window, more)
    flags_big, _ = detect_window(grown, set())
    assert pair in [f.pair for f in flags_big]


def test_deterministic():
    _, window = _scan_window(seed=5)
    a, _ = detect_window(window, set(), window_id=2)
    b, _ = detect_window(window, set(), window_id=2)
    assert a == b


def test_empty_window():
    flags, flagged = detect_window(Dataset(()), {("a", "b")})
    assert flags == []
    assert flagged == {("a", "b")}


def test_flag_requires_both_edges_to_close():
    # src sweeps many ports against dst, but a second client pair touches
    # only one port: the sweep pair is flagged, the small pair is not
    records = [
        make_record("172.16.0.1", "192.168.10.50", 1000 + i, SCAN_LABEL)
        for i in range(100)
    ]
    records += [make_record("10.1.1.1", "10.2.2.2", 80, BENIGN_LABEL) for _ in range(5)]
    flags, _ = detect_window(Dataset(tuple(records)), set())
    assert [f.pair for f in flags] == [("172.16.0.1", "192.168.10.50")]


# Few hosts, so pairs repeat and hosts are both sources and destinations.
# Each block sends one pair's records over a run of consecutive ports, so
# long runs give the closed large edges that the detector flags.
_HOSTS = [f"10.0.0.{i}" for i in range(1, 7)]
_blocks = st.lists(
    st.tuples(
        st.sampled_from(_HOSTS), st.sampled_from(_HOSTS), st.integers(1, 60), st.integers(1, 45)
    ),
    min_size=1,
    max_size=8,
)
# A sweep pair whose destination sweeps on as a source, a repeat of that
# pair, and a third sweep; the examples run it with and without the first
# pair flagged by an earlier window.
_BOTH_ROLES = [
    ("10.0.0.1", "10.0.0.2", 1, 40), ("10.0.0.2", "10.0.0.3", 1, 40),
    ("10.0.0.1", "10.0.0.2", 30, 5), ("10.0.0.4", "10.0.0.5", 7, 30),
]


def _block_window(blocks) -> Dataset:
    return Dataset(tuple(
        make_record(src, dst, port, SCAN_LABEL)
        for src, dst, first, n in blocks
        for port in range(first, first + n)
    ))


def _flagged_subset(window, picks):
    pairs = list(dict.fromkeys(r.pair for r in window))
    return {pairs[i % len(pairs)] for i in picks} | {("9.9.9.9", "8.8.8.8")}


def _assert_matches_reference(window, flagged, values=None):
    flags, updated = detect_window(window, flagged, window_id=4)
    assert (flags, updated) == ref.detect_window(window, flagged, 4, values)
    assert all(type(bit) is int for f in flags for bit in f.binarized_tail)
    return flags


@settings(max_examples=60, deadline=None)
@given(blocks=_blocks, picks=st.lists(st.integers(0, 40), max_size=3))
@example(blocks=_BOTH_ROLES, picks=[3])
@example(blocks=_BOTH_ROLES, picks=[])
def test_detect_window_matches_reference(blocks, picks):
    window = _block_window(blocks)
    _assert_matches_reference(window, _flagged_subset(window, picks))


def test_reference_windows_raise_flags():
    window = _block_window(_BOTH_ROLES)
    assert _assert_matches_reference(window, set())
    assert _assert_matches_reference(window, _flagged_subset(window, [0]))


# Planted centralities that sit on and just under the binarisation threshold.
_value = st.sampled_from([0.0, 0.5, 0.9499999999999999, BINARIZE_THRESHOLD, 1.0])


@settings(max_examples=80, deadline=None)
@given(blocks=_blocks, picks=st.lists(st.integers(0, 40), max_size=3), data=st.data())
def test_detect_window_matches_reference_on_planted_profiles(blocks, picks, data):
    window = _block_window(blocks)
    edges = list(build_hypergraph(window).edges)
    rows = data.draw(st.lists(st.lists(_value, min_size=11, max_size=11),
                              min_size=len(edges), max_size=len(edges)))
    values = dict(zip(edges, rows))
    with mock.patch.object(detector, "edge_profiles", lambda h, k: np.array(rows).reshape(-1, 11)):
        _assert_matches_reference(window, _flagged_subset(window, picks), values)


def test_twin_heavy_window_matches_reference():
    """Twelve clients sweep ports 1-40 of one server and five sweep ports
    1-25 of another, and eight send to port 443 only, so 28 edges fall
    into three twin classes. The reference reads the string-keyed BFS's
    profiles."""
    blocks = [(f"10.0.1.{i}", "10.0.2.1", 1, 40) for i in range(1, 13)]
    blocks += [(f"10.0.3.{i}", "10.0.4.1", 1, 25) for i in range(1, 6)]
    blocks += [(f"10.0.5.{i}", "10.0.6.1", 443, 1) for i in range(1, 9)]
    window = _block_window(blocks)
    h = build_hypergraph(window)
    assert len(h) == 28 and len(set(h.edges.values())) == 3
    values = bfs_reference.profile_values(h, detector_skip_interval(h.max_edge_size()))
    flags = _assert_matches_reference(window, set(), values)
    assert len(flags) == 17
