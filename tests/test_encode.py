"""`features.encode` against the per-record reference encoder: every layout,
weights on and off, hacker and non-hacker pairs, and endpoints unseen by
the hypergraph on one side or both. Floats must match exactly."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgnids.features import (
    FeatureMode,
    NON_HACKER_WEIGHTS,
    build_matrix,
    encode,
    encode_record,
)
from hgnids.flows import BENIGN_LABEL, PROTOCOLS, SCAN_LABEL, Dataset
from hgnids.hypergraph import build_hypergraph, edge_profiles, feature_skip_interval
from hgnids.simulate import HACKER_PAIR

import encode_reference as ref
from helpers import make_record

_WEIGHTS = (None, NON_HACKER_WEIGHTS)


def _assert_matches_reference(records, mode, h, profiles, hackers, weights):
    X, y = encode(records, mode, h, profiles, hackers, weights)
    expected = [ref.encode_record(r, mode, h, profiles, hackers, weights) for r in records]
    assert X.tolist() == [list(row.values) for row in expected]
    assert y.tolist() == [row.label for row in expected]
    assert build_matrix(records, h, mode, hackers, weights, profiles) == expected


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
    profiles = edge_profiles(h, feature_skip_interval(h))
    probe = _with_strangers(records[::7])
    assert {r.pair for r in probe} & {HACKER_PAIR}
    for hackers in (frozenset(), frozenset({HACKER_PAIR})):
        _assert_matches_reference(probe, mode, h, profiles, hackers, weights)


def test_encode_computes_profiles_when_none_given(desk_data):
    records = list(desk_data)[:300]
    h = build_hypergraph(Dataset(tuple(records)))
    for mode in (FeatureMode.HGI, FeatureMode.HGA):
        _assert_matches_reference(records, mode, h, None, frozenset(), None)


def test_encode_with_empty_profile_map_is_all_zero():
    d = Dataset((make_record("a", "b", 1), make_record("c", "d", 2)))
    h = build_hypergraph(d)
    X, _ = encode(d, FeatureMode.HGI, h, profiles={})
    assert X[:, 9:].tolist() == [[0.0] * 12] * 2
    _assert_matches_reference(list(d), FeatureMode.HGI, h, {}, frozenset(), None)


def test_encode_empty_batch_has_layout_width(desk_data):
    h = build_hypergraph(desk_data)
    for mode, width in ((FeatureMode.NRF, 9), (FeatureMode.HGI, 21), (FeatureMode.HGA, 14)):
        X, y = encode([], mode, h)
        assert X.shape == (0, width)
        assert y.shape == (0,)


def test_encode_errors():
    d = Dataset((make_record("a", "b", 1),))
    h = build_hypergraph(d)
    with pytest.raises(ValueError, match="non-empty hypergraph"):
        encode(d, FeatureMode.HGA)
    with pytest.raises(ValueError, match="11 entries"):
        encode(d, FeatureMode.HGI, h, weights=NON_HACKER_WEIGHTS[:10])
    short = {ip: replace(p, values=p.values[:10]) for ip, p in edge_profiles(h, 1).items()}
    with pytest.raises(ValueError, match="11 entries"):
        encode(d, FeatureMode.HGI, h, profiles=short)


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
_weights = st.one_of(
    st.none(),
    st.just(NON_HACKER_WEIGHTS),
    st.lists(st.floats(0.0, 1.0), min_size=11, max_size=11).map(tuple),
)


@settings(max_examples=80, deadline=None)
@given(
    records=st.lists(_record, min_size=1, max_size=25),
    seen=st.integers(1, 25),
    mode=st.sampled_from(list(FeatureMode)),
    hacker_picks=st.lists(st.integers(0, 24), max_size=4),
    weights=_weights,
)
def test_encode_matches_reference_on_random_data(records, seen, mode, hacker_picks, weights):
    h = build_hypergraph(Dataset(tuple(records[:seen])))
    hackers = frozenset(records[i % len(records)].pair for i in hacker_picks)
    profiles = edge_profiles(h, feature_skip_interval(h))
    _assert_matches_reference(records, mode, h, profiles, hackers, weights)
    # the sum slot is a left-to-right sum, not numpy's pairwise one
    if mode is FeatureMode.HGI:
        X, _ = encode(records, mode, h, profiles, hackers, weights)
        assert X[:, 20].tolist() == [sum(row) for row in X[:, 9:20].tolist()]
