import ast
import csv
import hashlib
import math
import random
import re
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgnids import flows
from hgnids.flows import (
    ActivityLabel,
    BENIGN_LABEL,
    DEFAULT_COLUMN_MAP,
    DataFormatError,
    Dataset,
    FlowRecord,
    InvalidFlow,
    LabelKind,
    OTHER_ATTACK_NAMES,
    PROTOCOLS,
    SCAN_LABEL,
    class_balance,
    concat,
    ingest_csv,
    remap_ip_pairs,
    synth_traffic,
    write_csv,
)
from hgnids.detector import detect_window
from hgnids.hypergraph import build_hypergraph
from hgnids.simulate import make_desk_dataset

import ingest_reference
import synth_reference
from helpers import make_record, same_columns

HEADER = (
    "Source IP,Destination IP,Source Port,Destination Port,Protocol,"
    "Flow Duration,Total Fwd Packets,Total Backward Packets,"
    "Total Length of Fwd Packets,Total Length of Bwd Packets,"
    "Flow Bytes/s,Flow Packets/s,Down/Up Ratio,Label"
)


def _row(duration="100", bytes_s="5000.0", label="BENIGN", protocol="6", src_port="40000",
         dst_port="80"):
    return (
        f"10.0.0.1,10.0.0.2,{src_port},{dst_port},{protocol},{duration},2,2,120,240,"
        f"{bytes_s},100.0,1.0,{label}"
    )


def test_ingest_drops_bad_rows(tmp_path):
    rows = [_row() for _ in range(8)]
    rows.append(_row(duration="-1"))
    rows.append(_row(bytes_s="Infinity"))
    path = tmp_path / "mixed.csv"
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    dataset, report = ingest_csv(path)
    assert len(dataset) == 8
    assert report.total_rows == 10
    assert report.kept == 8
    assert report.dropped == 2
    assert report.reasons == {"negative_duration": 1, "non_finite": 1}


def test_ingest_empty_file_with_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(HEADER + "\n")
    dataset, report = ingest_csv(path)
    assert len(dataset) == 0
    assert report.total_rows == 0
    assert report.kept == 0
    assert report.dropped == 0


def test_ingest_missing_column(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("Source IP,Label\n")
    with pytest.raises(DataFormatError, match="missing mapped columns"):
        ingest_csv(path)


def test_ingest_counts_missing_and_unparseable(tmp_path):
    rows = [_row(), _row(duration=""), _row(duration="abc"), _row(bytes_s="NaN")]
    path = tmp_path / "odd.csv"
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    dataset, report = ingest_csv(path)
    assert len(dataset) == 1
    assert report.reasons["missing_value"] == 2  # empty cell and NaN
    assert report.reasons["unparseable"] == 1


def test_ingest_drops_rows_with_a_blank_ip(tmp_path):
    rows = [_row(), _row().replace("10.0.0.1,", ",", 1), _row().replace(",10.0.0.2,", ", ,", 1)]
    path = tmp_path / "blank_ip.csv"
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    dataset, report = ingest_csv(path)
    assert [r.pair for r in dataset] == [("10.0.0.1", "10.0.0.2")]
    assert report.reasons == {"missing_value": 2}
    assert "" not in build_hypergraph(dataset).edges


def test_ingest_rejects_non_integral_ports_and_protocol(tmp_path):
    rows = [
        _row(protocol="6.0", src_port="40000.0", dst_port="80.0"),
        _row(protocol="6.5"),
        _row(src_port="40000.5"),
        _row(dst_port="80.25"),
        _row(dst_port="inf"),
    ]
    path = tmp_path / "fractional.csv"
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    dataset, report = ingest_csv(path)
    assert [(r.protocol, r.src_port, r.dst_port) for r in dataset] == [(6, 40000, 80)]
    assert report.reasons == {"unparseable": 4}


def test_ingest_decision_order(tmp_path):
    rows = [
        _row(protocol="6.5", duration=""),
        _row(protocol="inf", duration="-1"),
        _row(protocol="6.5", duration="-1"),
        _row(protocol="6.5", bytes_s="-1"),
        _row(dst_port="70000", bytes_s="-1"),
        _row(bytes_s="-1"),
        _row(protocol="6.0", duration="-0.0"),
    ]
    path = tmp_path / "order.csv"
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    dataset, report = ingest_csv(path)
    assert report.reasons == {"missing_value": 1, "non_finite": 1, "negative_duration": 1,
                              "unparseable": 2, "negative_value": 1}
    (kept,) = dataset.records
    assert type(kept.protocol) is int and str(kept.flow_duration) == "-0.0"
    write_csv(dataset, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_text().splitlines()[1].startswith("10.0.0.1,10.0.0.2,40000,80,6,-0.0,")


def test_ingest_missing_columns_listed_in_map_order(tmp_path):
    path = tmp_path / "partial.csv"
    path.write_text("Source IP,Label\n")
    column_map = dict(reversed(DEFAULT_COLUMN_MAP.items()))
    missing = [h for h in column_map.values() if h not in ("Source IP", "Label")]
    with pytest.raises(DataFormatError, match=re.escape(f"missing mapped columns: {missing}")):
        ingest_csv(path, column_map)


@pytest.mark.parametrize("fields,reason", [
    ({"bytes_s": math.inf}, "non_finite"),
    ({"protocol": math.inf, "duration": -1.0, "dst_port": 70000}, "non_finite"),
    ({"pkts_s": math.nan}, "non_finite"),
    ({"duration": -1.0, "protocol": 5, "ratio": -2.0}, "negative_duration"),
    ({"protocol": 6.5, "ratio": -2.0}, "unparseable"),
    ({"src_port": -1}, "unparseable"),
    ({"dst_port": 70000, "fwd_pkts": -1.0}, "unparseable"),
    ({"fwd_bytes": -0.5}, "negative_value"),
])
def test_flow_record_value_rules(fields, reason):
    """A record is plain data; the Dataset it enters names the first record
    that breaks a value rule, and the first rule it breaks, as the
    one-record reference rules do."""
    with pytest.raises(InvalidFlow) as info:
        Dataset((make_record(), make_record(**fields)))
    assert info.value.reason == reason
    assert isinstance(info.value, ValueError) and str(info.value).startswith(reason + ": row 1: ")
    assert ingest_reference.value_rule_broken(make_record(**fields)) == reason


@pytest.mark.parametrize("fields,reason", [
    ({"src_port": 1024.75, "dst_port": 80.5}, "unparseable"),
    ({"dst_port": 80.5, "duration": -1.0}, "unparseable"),
    ({"src": ""}, "missing_value"),
    ({"dst": "", "bytes_s": math.inf}, "missing_value"),
])
def test_dataset_rejects_fractional_ports_and_blank_addresses(fields, reason):
    """Ingest drops these rows, and so does a Dataset built from the same
    values: no port is truncated to a whole number, and no hypergraph edge
    is named ""."""
    with pytest.raises(InvalidFlow) as info:
        Dataset((make_record(**fields),))
    assert info.value.reason == reason


# Typed field values at and past the edges of the value rules; a blank is
# only an address here, since a blank or NaN number is a rule of parsing
# text.
_ODD_VALUES = (6.5, 80.25, 70000, 65536, -0.0, -1, -3.5, math.inf, -math.inf, 0, 17)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dataset_rejects_a_record_exactly_when_ingest_drops_its_row(data):
    """A record breaks a rule R in a Dataset exactly when ingest drops the
    same values, written as CSV text, with R."""
    values = list(vars(make_record()).values())
    for field in data.draw(st.lists(st.sampled_from(range(len(values) - 1)), max_size=3)):
        values[field] = "" if field < 2 else data.draw(st.sampled_from(_ODD_VALUES))
    try:
        Dataset((FlowRecord(*values),))
        reason = ""
    except InvalidFlow as exc:
        reason = exc.reason
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "row.csv"
        path.write_text(HEADER + "\n" + ",".join(map(str, values[:-1])) + f",{values[-1].text}\n")
        _, report = ingest_csv(path)
    assert report.reasons == ({reason: 1} if reason else {})


# Ordinary cells per column (DEFAULT_COLUMN_MAP order), and odd cells that
# reach every drop reason: blanks and NaN (missing_value), inf and 1e999
# (non_finite), -1 and -0.0 (negative durations, values and ports), 6.5
# and 80.25 (not whole numbers), 65536 and 70000 (out of range) and text.
_GOOD_CELLS = (
    ("10.0.0.1", " 172.16.0.1 "), ("10.0.0.2", "8.8.8.8"), ("40000", "1024.0"), ("80", "443"),
    ("6", "17", "0", "6.0"), ("100", "0", "1.5e3"), ("2",), ("2", "0"), ("120",), ("240",),
    ("5000.0", " 7.25 "), ("100.0",), ("1.0", "0.5"), ("BENIGN", "PortScan", " DoS Hulk "),
)
_ODD_CELLS = (
    "", " ", "nan", "NaN", "inf", "-inf", "1e999", "-0.0", "-1", "-3.5", "0", "6", "17",
    "6.5", "80.25", "70000", "65535", "65536", "abc", "1_000",
)
_REASONS = {"", "unparseable", "missing_value", "non_finite", "negative_duration", "negative_value"}


def _random_row(pick) -> list[str]:
    """Ordinary cells with up to three replaced by odd ones, and one row in
    ten cut short; pick(n) draws an integer in [0, n)."""
    row = [cells[pick(len(cells))] for cells in _GOOD_CELLS]
    for _ in range(pick(4)):
        row[pick(len(row))] = _ODD_CELLS[pick(len(_ODD_CELLS))]
    return row if pick(10) else row[: pick(len(row))]


def _typed(records):
    """Each record's field values with their types."""
    return [[(type(v), repr(v)) for v in vars(r).values()] for r in records]


def _ingest_both(rows, path):
    """Write rows under the default header, ingest them with ingest_csv and
    with the row-by-row reference, check that both keep the same records
    (read through the row view, and as the NRF column) and give the same
    report, and return it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(DEFAULT_COLUMN_MAP.values())
        writer.writerows(rows)
    dataset, report = ingest_csv(path)
    ref_records, ref_report = ingest_reference.ingest_rows(path)
    assert report == ref_report
    assert _typed(dataset) == _typed(ref_records)
    ref_nrf = np.array([r.nrf() for r in ref_records]).reshape(-1, len(flows.NRF_FIELDS))
    assert dataset.nrf.tobytes() == ref_nrf.tobytes()  # -0.0 and 0.0 differ here
    return report


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_row_matches_reference(data):
    """Whole files in small chunks, so that the drawn rows span several."""
    chunk = data.draw(st.integers(1, 8))
    n_rows = data.draw(st.integers(chunk + 1, 4 * chunk))
    pick = data.draw(st.randoms(use_true_random=False)).randrange
    rows = [_random_row(pick) for _ in range(n_rows)]
    with mock.patch.object(flows, "CHUNK_ROWS", chunk), tempfile.TemporaryDirectory() as tmp:
        _ingest_both(rows, Path(tmp) / "rows.csv")


def test_parse_row_matches_reference_on_every_reason(tmp_path):
    rng = random.Random(13)
    rows = [_random_row(rng.randrange) for _ in range(20_000)]
    assert len(rows) > 4 * flows.CHUNK_ROWS
    report = _ingest_both(rows, tmp_path / "rows.csv")
    assert report.kept and set(report.reasons) == _REASONS - {""}


def test_dataset_from_records_matches_its_ingested_csv(tmp_path):
    """The columns a Dataset derives from records equal the columns that
    ingest reads back from its CSV, and so do the row views."""
    data = synth_traffic("MIXED", 3000, [("1.1.1.1", "2.2.2.2"), ("3.3.3.3", "4.4.4.4")], seed=8)
    write_csv(data, tmp_path / "mixed.csv")
    back, _ = ingest_csv(tmp_path / "mixed.csv")
    assert back.nrf.tobytes() == data.nrf.tobytes()
    for name in ("src_port", "dst_port", "label_code", "src", "dst"):
        assert np.array_equal(getattr(back, name), getattr(data, name)), name
    assert (back.labels, back.ips) == (data.labels, data.ips)
    assert back.records == data.records
    assert _typed(back) == _typed(data)


def test_ingest_then_detect_builds_no_flow_record(tmp_path, monkeypatch):
    window = synth_traffic("MIXED", 2000, [("172.16.0.1", "192.168.10.50")], seed=6)
    write_csv(window, tmp_path / "window.csv")
    built = []
    init = FlowRecord.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FlowRecord, "__init__", counting)
    dataset, _ = ingest_csv(tmp_path / "window.csv")
    flags, _ = detect_window(dataset, set())
    assert flags and not built
    assert len(list(dataset)) == len(built) == len(dataset)  # the row view counts


def test_ingest_header_whitespace_tolerated(tmp_path):
    padded = ",".join(f" {name} " for name in HEADER.split(","))
    path = tmp_path / "padded.csv"
    path.write_text(padded + "\n" + _row() + "\n")
    dataset, _ = ingest_csv(path)
    assert len(dataset) == 1


def test_cleaning_idempotent(tmp_path):
    rows = [_row() for _ in range(5)] + [_row(duration="-3"), _row(bytes_s="inf")]
    dirty = tmp_path / "dirty.csv"
    dirty.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    cleaned, first = ingest_csv(dirty)
    out = tmp_path / "clean.csv"
    write_csv(cleaned, out)
    again, second = ingest_csv(out)
    assert second.dropped == 0
    assert again.records == cleaned.records


def test_label_parsing():
    assert ActivityLabel.parse(" BENIGN ") == BENIGN_LABEL
    assert ActivityLabel.parse("PortScan") == SCAN_LABEL
    assert ActivityLabel.parse("Port Scan") == SCAN_LABEL
    other = ActivityLabel.parse("DoS Hulk")
    assert other.kind is LabelKind.OTHER_ATTACK
    assert other.name == "DoS Hulk"
    assert other.is_attack


def test_class_balance_sums_to_one():
    records = [make_record(label=SCAN_LABEL) for _ in range(55)]
    records += [make_record(label=BENIGN_LABEL) for _ in range(45)]
    balance = class_balance(Dataset(tuple(records)))
    assert abs(sum(balance.values()) - 1.0) < 1e-12
    assert balance["PortScan"] == pytest.approx(0.55)


def test_class_balance_single_record():
    balance = class_balance(Dataset((make_record(),)))
    assert balance == {"BENIGN": 1.0}


def test_class_balance_empty_errors():
    with pytest.raises(DataFormatError):
        class_balance(Dataset(()))


def test_synth_scan_sweeps_ports():
    d = synth_traffic("PORT_SCAN", 100, [("172.16.0.1", "192.168.10.50")], seed=7)
    assert len(d) == 100
    assert all(r.label == SCAN_LABEL for r in d)
    assert len({r.dst_port for r in d}) >= 90


def test_synth_empty():
    d = synth_traffic("BENIGN", 0, [], seed=1)
    assert len(d) == 0


def test_synth_scan_requires_pairs():
    with pytest.raises(ValueError):
        synth_traffic("PORT_SCAN", 10, [], seed=1)


@pytest.mark.parametrize("frac", [1.5, -0.5, math.nan])
def test_synth_rejects_attack_frac_outside_unit_interval(frac):
    with pytest.raises(ValueError, match="attack_frac"):
        synth_traffic("MIXED", 100, [("1.1.1.1", "2.2.2.2")], seed=1, attack_frac=frac)


@pytest.mark.parametrize("frac,n_attack", [(0.0, 0), (1.0, 100)])
def test_synth_attack_frac_bounds(frac, n_attack):
    d = synth_traffic("MIXED", 100, [("1.1.1.1", "2.2.2.2")], seed=1, attack_frac=frac)
    assert len(d) == 100
    assert sum(r.label.is_attack for r in d) == n_attack


def test_synth_deterministic(tmp_path):
    a = synth_traffic("MIXED", 500, [("1.1.1.1", "2.2.2.2")], seed=9)
    b = synth_traffic("MIXED", 500, [("1.1.1.1", "2.2.2.2")], seed=9)
    assert a == b
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, pa)
    write_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    c = synth_traffic("MIXED", 500, [("1.1.1.1", "2.2.2.2")], seed=10)
    assert a != c


def test_synth_mixed_balance():
    d = synth_traffic("MIXED", 8900, [("1.1.1.1", "2.2.2.2"), ("3.3.3.3", "4.4.4.4")],
                      seed=3, attack_frac=0.25)
    assert len(d) == 8900
    balance = class_balance(d)
    attack_frac = sum(v for k, v in balance.items() if k != "BENIGN")
    assert attack_frac == pytest.approx(0.25, abs=0.01)
    assert balance["BENIGN"] == pytest.approx(0.75, abs=0.01)


def test_synth_features_finite_nonnegative():
    d = synth_traffic("MIXED", 1000, [("1.1.1.1", "2.2.2.2")], seed=5)
    for r in d:
        for v in r.numeric_features():
            assert math.isfinite(v)
            assert v >= 0


def test_remap_round_robin():
    d = synth_traffic("PORT_SCAN", 160, [("172.16.0.1", "192.168.10.50")], seed=2)
    remapped = remap_ip_pairs(d, 16, seed=4)
    counts = {}
    for r in remapped:
        counts[r.pair] = counts.get(r.pair, 0) + 1
    assert len(counts) == 16
    assert set(counts.values()) == {10}


def test_remap_single_pair_is_identity():
    d = synth_traffic("PORT_SCAN", 40, [("172.16.0.1", "192.168.10.50")], seed=2)
    remapped = remap_ip_pairs(d, 1, seed=4)
    assert {r.pair for r in remapped} == {("172.16.0.1", "192.168.10.50")}


def test_remap_keeps_original_pair_and_adds_fresh():
    pair = ("172.16.0.1", "192.168.10.50")
    d = synth_traffic("PORT_SCAN", 64, [pair], seed=2)
    remapped = remap_ip_pairs(d, 16, seed=4)
    pairs = {r.pair for r in remapped}
    assert pair in pairs
    assert len(pairs) == 16
    originals = {r.src_ip for r in d} | {r.dst_ip for r in d}
    fresh = pairs - {pair}
    for src, dst in fresh:
        assert src not in originals
        assert dst not in originals


def test_remap_preserves_features():
    d = synth_traffic("PORT_SCAN", 32, [("172.16.0.1", "192.168.10.50")], seed=2)
    remapped = remap_ip_pairs(d, 4, seed=4)
    for before, after in zip(d, remapped):
        assert before.nrf() == after.nrf()
        assert before.dst_port == after.dst_port


def test_remap_errors():
    d = synth_traffic("PORT_SCAN", 8, [("172.16.0.1", "192.168.10.50")], seed=2)
    with pytest.raises(ValueError):
        remap_ip_pairs(d, 0, seed=1)
    benign = synth_traffic("BENIGN", 8, [], seed=2)
    with pytest.raises(ValueError):
        remap_ip_pairs(benign, 2, seed=1)


_ip = st.builds("{}.{}.{}.{}".format, *[st.integers(0, 255)] * 4)
_port = st.integers(0, 65535)
_feature = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_label = st.sampled_from(
    [BENIGN_LABEL, SCAN_LABEL] + [ActivityLabel(LabelKind.OTHER_ATTACK, n) for n in OTHER_ATTACK_NAMES]
)
_flow = st.builds(
    FlowRecord, _ip, _ip, _port, _port, st.sampled_from(PROTOCOLS),
    *[_feature] * 8, label=_label,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_flow, max_size=20))
def test_write_ingest_roundtrip(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "flows.csv"
        write_csv(Dataset(tuple(records)), path)
        dataset, report = ingest_csv(path)
    assert dataset.records == tuple(records)
    assert (report.total_rows, report.kept, report.dropped) == (len(records), len(records), 0)


@settings(max_examples=80, deadline=None)
@given(
    profile=st.sampled_from(["PORT_SCAN", "BENIGN", "MIXED"]),
    count=st.integers(0, 300),
    pairs=st.lists(st.tuples(_ip, _ip), min_size=1, max_size=4),
    attack_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
# 2,000 rows take 16,000 normals, so the ziggurat's rare slow path is
# taken many times per example.
@example(profile="PORT_SCAN", count=2000, pairs=[("1.1.1.1", "2.2.2.2")], attack_frac=0.25, seed=5)
@example(profile="BENIGN", count=2000, pairs=[("1.1.1.1", "2.2.2.2")], attack_frac=0.25, seed=6)
@example(profile="MIXED", count=2000, pairs=[("1.1.1.1", "2.2.2.2"), ("3.3.3.3", "4.4.4.4")],
         attack_frac=0.6, seed=7)
def test_synth_matches_record_by_record_reference(profile, count, pairs, attack_frac, seed):
    data = synth_traffic(profile, count, pairs, seed, attack_frac)
    records = synth_reference.synth_records(profile, count, pairs, seed, attack_frac)
    assert same_columns(data, Dataset(tuple(records), "SYNTHETIC", seed))


def _column_digest(data: Dataset) -> str:
    sha = hashlib.sha256()
    for column in (data.nrf, data.src_port, data.dst_port):
        sha.update(np.ascontiguousarray(column, "<f8").tobytes())
    for column in (data.label_code, data.src, data.dst):
        sha.update(np.ascontiguousarray(column, "<i8").tobytes())
    sha.update(repr([(label.kind.value, label.name) for label in data.labels]).encode())
    sha.update(repr(data.ips).encode())
    return sha.hexdigest()


_DESK_42_DIGEST = "3c2c61c86321189db2a872d3d2b62dd0bf21c06883c275aea31e0d706f676768"


# Recorded from the generator that drew and built one row at a time.
@pytest.mark.parametrize("make,expected", [
    (lambda: make_desk_dataset(42), _DESK_42_DIGEST),
    (lambda: make_desk_dataset(1042), "b23d6736b627716d69d15a3e29a323edef6a3b46c7606a777d35b5577e975459"),
    (lambda: synth_traffic("MIXED", 3000, [("1.1.1.1", "2.2.2.2"), ("3.3.3.3", "4.4.4.4")], 8),
     "05960113de2b46dc529da1ab00b7704c640740145bccb3d7c8a386d8b7d8e67d"),
], ids=["desk-42", "desk-1042", "mixed-3000"])
def test_synth_columns_are_pinned(make, expected):
    assert _column_digest(make()) == expected


def test_synth_columns_follow_nrf_fields_not_the_stats_tables(monkeypatch):
    """The generator takes its column order from NRF_FIELDS; the stats
    tables are looked up by name, so their key order changes nothing."""
    for table in ("SCAN_FEATURE_STATS", "BENIGN_FEATURE_STATS"):
        monkeypatch.setattr(flows, table, dict(reversed(getattr(flows, table).items())))
    assert _column_digest(make_desk_dataset(42)) == _DESK_42_DIGEST


@pytest.mark.parametrize("edit", [
    {"flow_duration": (0, 10, 0.0, 1.0)},
    {"tot_fwd_pkts": (0, 10, -2.0, 1.0)},
    {"down_up_ratio": (0, 10, math.nan, 1.0)},
    {"tot_bwd_bytes": (0, 10, math.inf, 1.0)},
])
def test_feature_params_reject_a_table_they_cannot_fit(edit):
    """A feature with no fitted log-normal would draw no normal and shift
    the rest of the stream, so its table is refused."""
    with pytest.raises(ValueError, match="mean must be finite and > 0"):
        flows._feature_params({**flows.SCAN_FEATURE_STATS, **edit})


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan])
def test_feature_params_reject_a_scale_that_is_not_positive(scale):
    with pytest.raises(ValueError, match="scale must be > 0"):
        flows._feature_params(flows.SCAN_FEATURE_STATS, {"tot_fwd_pkts": scale})


def test_synth_builds_no_flow_record(monkeypatch):
    built = []
    init = FlowRecord.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FlowRecord, "__init__", counting)
    pairs = [("172.16.0.1", "192.168.10.50"), ("172.16.0.2", "192.168.10.51")]
    sizes = 0
    for profile in ("PORT_SCAN", "BENIGN", "MIXED"):
        data = synth_traffic(profile, 700, pairs, seed=4)
        sizes += len(data)
    assert sizes == 2100 and not built
    assert len(list(data)) == len(built) == len(data)  # the row view counts


_VIEW_SYNTH = ("MIXED", 1500, [("1.1.1.1", "2.2.2.2"), ("3.3.3.3", "4.4.4.4")], 12, 0.4)


def _views(tmp_path) -> dict[str, Dataset]:
    """Datasets from each way the package makes one from columns."""
    synth = synth_traffic(*_VIEW_SYNTH)
    write_csv(synth, tmp_path / "synth.csv")
    ingested, _ = ingest_csv(tmp_path / "synth.csv")
    perm = np.random.default_rng(5).permutation(len(ingested))
    return {
        "synth": synth,
        "ingested": ingested,
        "take": ingested.take(perm),
        "concat": concat(ingested.take(perm[:700]), ingested.take(perm[700:])),
        "remap": remap_ip_pairs(ingested, 6, seed=2),
    }


def test_write_csv_matches_record_writer(tmp_path):
    for name, data in _views(tmp_path).items():
        write_csv(data, tmp_path / f"{name}.csv")
        synth_reference.write_records(data, tmp_path / f"{name}-ref.csv")
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}-ref.csv").read_bytes(), name
    # and the records of the record-by-record generator, not read back
    # through the row view
    synth_reference.write_records(synth_reference.synth_records(*_VIEW_SYNTH), tmp_path / "records.csv")
    assert (tmp_path / "synth.csv").read_bytes() == (tmp_path / "records.csv").read_bytes()


def test_take_and_concat_give_back_the_dataset(tmp_path):
    rng = np.random.default_rng(9)
    for name, d in _views(tmp_path).items():
        p = rng.permutation(len(d))
        assert d.take(p).take(np.argsort(p)) == d, name
        cut = int(rng.integers(0, len(d) + 1))
        head, tail = np.arange(cut), np.arange(cut, len(d))
        assert concat(d.take(head), d.take(tail), provenance=d.provenance, seed=d.seed) == d, name
        # A take lists labels and addresses in first-seen order, as a
        # Dataset made from the same rows does.
        assert same_columns(d.take(p), Dataset(d.take(p).records, d.provenance, d.seed)), name
        swapped = concat(d.take(tail), d.take(head), provenance=d.provenance, seed=d.seed)
        assert swapped == Dataset(d.take(np.r_[tail, head]).records, d.provenance, d.seed), name
        assert class_balance(d.take(p)) == class_balance(d), name


def test_dataset_equality_reads_every_column():
    d = Dataset((make_record("a", "b", 80), make_record("b", "c", 22, SCAN_LABEL)))
    assert d == Dataset(d.records)
    assert d != Dataset(d.records, provenance="SYNTHETIC")
    assert d != Dataset(d.records, seed=1)
    for changed in (
        replace(d.records[0], dst_port=81),
        replace(d.records[0], src_port=40001),
        replace(d.records[0], dst_ip="c"),
        replace(d.records[0], label=SCAN_LABEL),
        replace(d.records[0], down_up_ratio=2.0),
    ):
        assert d != Dataset((changed, d.records[1])), changed


def test_write_csv_writes_numerics_as_floats(tmp_path):
    """The writer reads the float64 columns, so a record built by hand with
    an int feature is written as its float."""
    write_csv(Dataset((make_record(duration=1000),)), tmp_path / "one.csv")
    row = (tmp_path / "one.csv").read_text().splitlines()[1]
    assert row.split(",")[4:6] == ["6", "1000.0"]


def _csv_writer_lines(path: Path) -> list[int]:
    """The lines of a module that call csv.writer."""
    return [
        node.lineno for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "writer" and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "csv"
    ]


def test_only_write_table_builds_a_csv_writer():
    """Every CSV the package writes goes through flows.write_table."""
    package = Path(flows.__file__).parent
    calls = {path.name: lines for path in sorted(package.glob("*.py"))
             if (lines := _csv_writer_lines(path))}
    write_table = next(
        node for node in ast.walk(ast.parse(Path(flows.__file__).read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "write_table"
    )
    assert list(calls) == ["flows.py"]
    assert all(write_table.lineno <= line <= write_table.end_lineno for line in calls["flows.py"])


def test_value_rules_are_written_once():
    """Only flows._reasons reads PROTOCOLS, and only flows._columns raises
    InvalidFlow: ingest and every Dataset built from values share one set
    of rules."""
    package = Path(flows.__file__).parent
    reads, raises = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

        def owner(node) -> tuple[str, str]:
            around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            return path.name, max(around, key=lambda f: f.lineno).name if around else ""

        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "PROTOCOLS" and isinstance(node.ctx, ast.Load):
                reads.add(owner(node))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "InvalidFlow":
                raises.add(owner(node))
    assert reads == {("flows.py", "_reasons")}
    assert raises == {("flows.py", "_columns")}


def test_write_table_preamble_header_rows_and_line_ending(tmp_path):
    flows.write_table(tmp_path / "t.csv", ["a", "b"], [(1, 0.1 + 0.2), ("x,y", 1e-20)], "# note\n")
    assert (tmp_path / "t.csv").read_bytes() == b'# note\na,b\n1,0.30000000000000004\n"x,y",1e-20\n'
    flows.write_table(tmp_path / "crlf.csv", ["a"], [["é"]], lineterminator="\r\n")
    assert (tmp_path / "crlf.csv").read_bytes() == "a\r\né\r\n".encode("utf-8")
