from hgnids.detector import (
    BINARIZE_THRESHOLD,
    FLAG_MIN_SUM,
    detect_window,
)
from hgnids.flows import BENIGN_LABEL, Dataset, SCAN_LABEL, concat, synth_traffic
from hgnids.hypergraph import detector_skip_interval

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
