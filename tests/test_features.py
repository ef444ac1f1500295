import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgnids import features
from hgnids.features import (
    ATTACK,
    FeatureMode,
    FeatureVector,
    NON_HACKER_WEIGHTS,
    NORMAL,
    build_matrix,
    encode_record,
    stratified_split,
    train_test_split,
)
from hgnids.flows import BENIGN_LABEL, DataFormatError, Dataset, SCAN_LABEL
from hgnids.hypergraph import CentralityProfile, build_hypergraph, centrality_schedule

import row_split_reference
from encode_reference import record_profile
from helpers import make_record, separable_rows

SCHEDULE = centrality_schedule(2)


def _profile(edge, values):
    return CentralityProfile(edge, SCHEDULE, tuple(values))


def _scan_dataset():
    records = tuple(
        make_record("172.16.0.1", "192.168.10.50", 1000 + i, SCAN_LABEL) for i in range(60)
    ) + tuple(make_record("10.1.1.1", "10.2.2.2", 80, BENIGN_LABEL) for _ in range(5))
    return Dataset(records)


def test_nrf_layout():
    rec = make_record(duration=123.0, fwd_pkts=3.0, bwd_pkts=4.0, fwd_bytes=5.0,
                      bwd_bytes=6.0, bytes_s=7.0, pkts_s=8.0, ratio=9.0, protocol=17)
    row = encode_record(rec, FeatureMode.NRF)
    assert row.values == (17.0, 123.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)
    assert row.label == NORMAL
    assert len(row.values) == 9


def test_vector_width_enforced():
    with pytest.raises(ValueError):
        FeatureVector(FeatureMode.HGI, (1.0,) * 9, ATTACK)


def test_record_profile_both_unseen():
    rec = make_record("zz.1", "zz.2")
    profile = record_profile(rec, {})
    assert profile.values == (0.0,) * 11
    assert profile.total == 0.0


def test_record_profile_max_with_zero():
    rec = make_record("a", "b")
    profiles = {"a": _profile("a", [1.0] * 11), "b": _profile("b", [0.0] * 11)}
    combined = record_profile(rec, profiles)
    assert combined.values == (1.0,) * 11


def test_record_profile_elementwise_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = rng.random(11)
        b = rng.random(11)
        profiles = {"a": _profile("a", a), "b": _profile("b", b)}
        combined = record_profile(make_record("a", "b"), profiles)
        for i in range(11):
            assert combined.values[i] == max(a[i], b[i])


def test_record_profile_one_side_only():
    profiles = {"a": _profile("a", [0.5] * 11)}
    combined = record_profile(make_record("a", "unknown"), profiles)
    assert combined.values == (0.5,) * 11


def test_hgi_layout_and_sum_slot():
    d = _scan_dataset()
    h = build_hypergraph(d)
    rows = build_matrix(d, h, FeatureMode.HGI)
    for row in rows:
        assert len(row.values) == 21
        assert row.values[20] == pytest.approx(sum(row.values[9:20]), abs=1e-12)
    scan_rows = [r for r in rows if r.label == ATTACK]
    assert scan_rows[0].values[9:20] != (0.0,) * 11


def test_hga_layout_and_size_slots():
    d = _scan_dataset()
    h = build_hypergraph(d)
    rows = build_matrix(d, h, FeatureMode.HGA)
    for row in rows:
        assert len(row.values) == 14
        assert row.values[13] == row.values[11] + row.values[12]
    scan_row = next(r for r in rows if r.label == ATTACK)
    assert scan_row.values[11] == 60.0  # source edge size
    assert scan_row.values[12] == 60.0


def test_weight_encoding_for_non_hackers():
    d = _scan_dataset()
    h = build_hypergraph(d)
    hackers = frozenset({("172.16.0.1", "192.168.10.50")})
    rows = build_matrix(d, h, FeatureMode.HGI, hackers, use_weights=True)
    benign_row = next(r for r in rows if r.label == NORMAL)
    assert benign_row.values[9:20] == NON_HACKER_WEIGHTS
    assert benign_row.values[20] == pytest.approx(0.619, abs=1e-12)
    hacker_row = next(r for r in rows if r.label == ATTACK)
    assert hacker_row.values[9:20] != NON_HACKER_WEIGHTS


def test_weight_encoding_never_applies_to_hackers():
    d = _scan_dataset()
    h = build_hypergraph(d)
    hackers = frozenset({("172.16.0.1", "192.168.10.50")})
    with_weights = build_matrix(d, h, FeatureMode.HGI, hackers, use_weights=True)
    without = build_matrix(d, h, FeatureMode.HGI, hackers)
    for a, b in zip(with_weights, without):
        if a.origin.pair in hackers:
            assert a.values == b.values


def test_unseen_record_scores_with_zeros():
    d = _scan_dataset()
    h = build_hypergraph(d)
    stranger = Dataset((make_record("99.9.9.9", "88.8.8.8", 1234, SCAN_LABEL),))
    rows = build_matrix(stranger, h, FeatureMode.HGI)
    assert rows[0].values[9:21] == (0.0,) * 12
    hga = build_matrix(stranger, h, FeatureMode.HGA)
    assert hga[0].values[9:14] == (0.0,) * 5


def test_hgi_requires_hypergraph():
    d = _scan_dataset()
    with pytest.raises(ValueError):
        build_matrix(d, None, FeatureMode.HGI)


def test_labels_binary():
    d = Dataset((
        make_record(label=SCAN_LABEL),
        make_record(label=BENIGN_LABEL),
    ))
    rows = build_matrix(d, None, FeatureMode.NRF)
    assert [r.label for r in rows] == [ATTACK, NORMAL]


def test_split_80_20():
    rows = separable_rows(1000)
    train, test = train_test_split(rows, 0.8, seed=1)
    assert len(train) == 800
    assert len(test) == 200


def test_split_85_15():
    rows = separable_rows(1000)
    train, test = train_test_split(rows, 0.85, seed=1)
    assert len(train) == 850
    assert len(test) == 150


def test_split_deterministic():
    rows = separable_rows(300)
    a = train_test_split(rows, 0.8, seed=5)
    b = train_test_split(rows, 0.8, seed=5)
    assert a == b
    c = train_test_split(rows, 0.8, seed=6)
    assert a != c


def test_split_stratified():
    rows = separable_rows(400)  # exactly half and half
    train, test = train_test_split(rows, 0.8, seed=2)
    whole = sum(r.label for r in rows) / len(rows)
    for part in (train, test):
        frac = sum(r.label for r in part) / len(part)
        assert abs(frac - whole) <= 0.02


def test_split_partition_is_exact():
    rows = separable_rows(257)
    train, test = train_test_split(rows, 0.8, seed=3)
    assert len(train) + len(test) == 257
    seen = sorted(id(r) for r in train + test)
    assert seen == sorted(id(r) for r in rows)


def test_split_errors():
    rows = separable_rows(10)
    with pytest.raises(ValueError):
        train_test_split(rows, 0.0, seed=1)
    with pytest.raises(ValueError):
        train_test_split(rows[:1], 0.5, seed=1)


def _row_split(labels, frac, seed):
    """The reference split of rows carrying these labels, as row ids."""
    rows = [FeatureVector(FeatureMode.NRF, (float(i),) + (0.0,) * 8, label)
            for i, label in enumerate(labels)]
    train, test = row_split_reference.train_test_split(rows, frac, seed)
    return [int(r.values[0]) for r in train], [int(r.values[0]) for r in test]


@settings(max_examples=200, deadline=None)
@given(
    labels=st.sets(st.integers(-3, 3), min_size=1, max_size=3).flatmap(
        lambda values: st.lists(st.sampled_from(sorted(values)), min_size=2, max_size=300)),
    frac=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                   st.sampled_from([0.8, 0.85])),
    seed=st.integers(0, 2**32 - 1),
)
def test_stratified_split_matches_row_reference(labels, frac, seed):
    """The same ids in the same order as the row split it replaced: the
    same quotas and the same draws from the same generator."""
    train, test = stratified_split(np.array(labels), frac, seed)
    assert train.dtype == test.dtype == np.intp
    assert (train.tolist(), test.tolist()) == _row_split(labels, frac, seed)


@pytest.mark.parametrize("labels,frac", [
    ([0, 1], 0.0), ([0, 1], 1.0), ([0, 1], -0.5), ([0, 1], float("nan")),
    ([], 0.5), ([1], 0.8), ([], 0.0),
])
def test_stratified_split_errors_match_row_reference(labels, frac):
    with pytest.raises((ValueError, DataFormatError)) as want:
        _row_split(labels, frac, 1)
    with pytest.raises((ValueError, DataFormatError)) as got:
        stratified_split(np.array(labels, np.int64), frac, 1)
    assert (got.type, str(got.value)) == (want.type, str(want.value))


_ROW_ADAPTERS = {"build_matrix", "train_test_split", "rows_to_arrays", "encode_record"}


def test_no_pipeline_uses_a_row_adapter():
    """Outside features.py no module of the package names a FeatureVector
    row adapter, and outside trees.py none names trees.train: every
    pipeline encodes, splits, fits and attacks arrays."""
    package = Path(features.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                trees = (node.module or "").split(".")[-1] == "trees" and "train" in names
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
                trees = node.attr == "train" and getattr(node.value, "id", None) == "trees"
            elif isinstance(node, ast.Name):
                names, trees = {node.id}, False
            else:
                continue
            if path.name != "features.py" and names & _ROW_ADAPTERS:
                found.append((path.name, node.lineno, sorted(names & _ROW_ADAPTERS)))
            if path.name != "trees.py" and trees:
                found.append((path.name, node.lineno, ["trees.train"]))
    assert found == []
