"""`features.encode` against the per-record reference encoder: every layout,
weights on and off, hacker and non-hacker pairs, and endpoints unseen by
the hypergraph on one side or both. Floats must match exactly. The
reference takes the weight vector itself: None, or NON_HACKER_WEIGHTS,
which is what `encode` uses with use_weights on."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgnids.features import (
    LAYOUT_COLUMNS,
    FeatureMode,
    NON_HACKER_WEIGHTS,
    build_matrix,
    encode,
    encode_record,
)
from hgnids.flows import BENIGN_LABEL, PROTOCOLS, SCAN_LABEL, Dataset
from hgnids.hypergraph import build_hypergraph
from hgnids.simulate import HACKER_PAIR

import encode_reference as ref
from helpers import make_record

_WEIGHTS = (None, NON_HACKER_WEIGHTS)


def _assert_matches_reference(records, mode, h, hackers, weights):
    use_weights = weights is not None
    X, y = encode(Dataset(records), mode, h, hackers, use_weights)
    expected = ref.encode_records(records, mode, h, hackers, weights)
    assert X.tolist() == [list(row.values) for row in expected]
    assert y.tolist() == [row.label for row in expected]
    assert build_matrix(Dataset(records), h, mode, hackers, use_weights) == expected
    if h is not None and len(h):
        table, y_all = encode(Dataset(records), None, h, hackers, use_weights)
        assert table.shape == (len(records), 24)
        assert table[:, LAYOUT_COLUMNS[mode]].tolist() == X.tolist()
        assert y_all.tolist() == y.tolist()


def _with_strangers(records):
    """Records whose source, destination, or both endpoints are unseen."""
    out = []
    for i, r in enumerate(records):
        out.append(r)
        if i % 3 == 0:
            out.append(replace(r, src_ip=f"99.0.0.{i % 250}"))
        elif i % 3 == 1:
            out.append(replace(r, dst_ip=f"98.0.0.{i % 250}"))
        else:
            out.append(replace(r, src_ip="97.0.0.1", dst_ip="97.0.0.2"))
    return out


@pytest.mark.parametrize("weights", _WEIGHTS)
@pytest.mark.parametrize("mode", list(FeatureMode))
def test_encode_matches_reference_on_desk_data(desk_data, mode, weights):
    records = list(desk_data)
    h = build_hypergraph(Dataset(tuple(records[::2])))
    probe = _with_strangers(records[::7])
    assert {r.pair for r in probe} & {HACKER_PAIR}
    for hackers in (frozenset(), frozenset({HACKER_PAIR})):
        _assert_matches_reference(probe, mode, h, hackers, weights)


def test_encode_computes_profiles_when_none_given(desk_data):
    records = list(desk_data)[:300]
    h = build_hypergraph(Dataset(tuple(records)))
    for mode in (FeatureMode.HGI, FeatureMode.HGA):
        _assert_matches_reference(records, mode, h, frozenset(), None)


def test_encode_of_unseen_endpoints_is_all_zero():
    # a scan pair gives h non-zero profiles; the probe's IPs are not in h
    seen = Dataset(tuple(make_record("a", "b", port) for port in range(1, 40)))
    h = build_hypergraph(seen)
    assert encode(seen, FeatureMode.HGI, h)[0][:, 9:].any()
    probe = [make_record("c", "d", 1), make_record("e", "c", 2)]
    X, _ = encode(Dataset(probe), FeatureMode.HGI, h)
    assert X[:, 9:].tolist() == [[0.0] * 12] * 2
    X, _ = encode(Dataset(probe), FeatureMode.HGA, h)
    assert X[:, 9:].tolist() == [[0.0] * 5] * 2
    for mode in (FeatureMode.HGI, FeatureMode.HGA):
        _assert_matches_reference(probe, mode, h, frozenset(), None)


def test_encode_empty_batch_has_layout_width(desk_data):
    h = build_hypergraph(desk_data)
    for mode, width in ((FeatureMode.NRF, 9), (FeatureMode.HGI, 21), (FeatureMode.HGA, 14), (None, 24)):
        X, y = encode(Dataset(), mode, h)
        assert X.shape == (0, width)
        assert y.shape == (0,)


def test_encode_errors():
    d = Dataset((make_record("a", "b", 1),))
    for mode in (FeatureMode.HGA, None):
        with pytest.raises(ValueError, match="non-empty hypergraph"):
            encode(d, mode)


def test_encode_record_is_one_row_of_build_matrix():
    d = Dataset((make_record("a", "b", 1, SCAN_LABEL), make_record("b", "c", 2)))
    h = build_hypergraph(d)
    rows = build_matrix(d, h, FeatureMode.HGA)
    assert [encode_record(r, FeatureMode.HGA, h) for r in d] == rows


# Few hosts, so pairs repeat and some hosts play both roles; the hypergraph
# sees only a prefix of the records, so later endpoints may be unseen.
_HOSTS = [f"10.0.0.{i}" for i in range(1, 7)]
_value = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)
_record = st.builds(
    make_record,
    src=st.sampled_from(_HOSTS),
    dst=st.sampled_from(_HOSTS),
    dst_port=st.integers(1, 12),
    label=st.sampled_from([BENIGN_LABEL, SCAN_LABEL]),
    duration=_value,
    fwd_pkts=_value,
    bytes_s=_value,
    protocol=st.sampled_from(PROTOCOLS),
)


@settings(max_examples=80, deadline=None)
@given(
    records=st.lists(_record, min_size=1, max_size=25),
    seen=st.integers(1, 25),
    mode=st.sampled_from(list(FeatureMode)),
    hacker_picks=st.lists(st.integers(0, 24), max_size=4),
    weights=st.sampled_from(_WEIGHTS),
)
def test_encode_matches_reference_on_random_data(records, seen, mode, hacker_picks, weights):
    h = build_hypergraph(Dataset(tuple(records[:seen])))
    hackers = frozenset(records[i % len(records)].pair for i in hacker_picks)
    _assert_matches_reference(records, mode, h, hackers, weights)
    # the sum slot is a left-to-right sum, not numpy's pairwise one
    if mode is FeatureMode.HGI:
        X, _ = encode(Dataset(records), mode, h, hackers, weights is not None)
        assert X[:, 20].tolist() == [sum(row) for row in X[:, 9:20].tolist()]
