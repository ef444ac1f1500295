import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgnids import flows
from hgnids.flows import (
    ActivityLabel,
    BENIGN_LABEL,
    DataFormatError,
    Dataset,
    FlowRecord,
    LabelKind,
    OTHER_ATTACK_NAMES,
    PROTOCOLS,
    SCAN_LABEL,
    class_balance,
    ingest_csv,
    remap_ip_pairs,
    synth_traffic,
    write_csv,
)

from helpers import make_record

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
