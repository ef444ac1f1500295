"""Flow records, CSV ingestion with cleaning, and synthetic traffic generation.

A flow record carries the nine raw features used for classification
(transport protocol plus eight numeric flow measurements), the endpoint
addresses and ports, and an activity label; it checks its own values.
Ingestion parses each row's text and reports why it dropped a row.
The synthetic generator produces statistics-matched scan and benign
traffic for desk-scale experiments, deterministic under a seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

PROTOCOLS = (0, 6, 17)

POPULAR_PORTS = (80, 443, 53, 22, 21, 25, 110, 8080)

OTHER_ATTACK_NAMES = (
    "DoS Hulk",
    "DoS GoldenEye",
    "DoS slowloris",
    "DoS Slowhttptest",
    "DDoS",
    "FTP-Patator",
    "SSH-Patator",
    "Bot",
    "Web Attack - Brute Force",
    "Web Attack - XSS",
    "Web Attack - Sql Injection",
    "Infiltration",
    "Heartbleed",
)


class LabelKind(Enum):
    BENIGN = "BENIGN"
    PORT_SCAN = "PORT_SCAN"
    OTHER_ATTACK = "OTHER_ATTACK"


@dataclass(frozen=True)
class ActivityLabel:
    kind: LabelKind
    name: str = ""

    @property
    def is_attack(self) -> bool:
        return self.kind is not LabelKind.BENIGN

    @property
    def text(self) -> str:
        if self.kind is LabelKind.BENIGN:
            return "BENIGN"
        if self.kind is LabelKind.PORT_SCAN:
            return "PortScan"
        return self.name

    @staticmethod
    def parse(raw: str) -> "ActivityLabel":
        value = raw.strip()
        folded = value.replace(" ", "").replace("-", "").replace("_", "").lower()
        if folded == "benign":
            return BENIGN_LABEL
        if folded == "portscan":
            return SCAN_LABEL
        return ActivityLabel(LabelKind.OTHER_ATTACK, value)


BENIGN_LABEL = ActivityLabel(LabelKind.BENIGN)
SCAN_LABEL = ActivityLabel(LabelKind.PORT_SCAN)


class DataFormatError(ValueError):
    """Raised for unusable input files (bad header, empty dataset, ...)."""


class InvalidFlow(ValueError):
    """A FlowRecord value that breaks a cleaning rule; `reason` is the
    CleaningReport drop reason."""

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason


@dataclass(frozen=True)
class FlowRecord:
    """One flow. Construction raises InvalidFlow for the first value rule
    it breaks: raw features finite, flow_duration >= 0, protocol in
    PROTOCOLS and ports in 0..65535, raw features >= 0."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int
    flow_duration: float
    tot_fwd_pkts: float
    tot_bwd_pkts: float
    tot_fwd_bytes: float
    tot_bwd_bytes: float
    flow_bytes_per_s: float
    flow_pkts_per_s: float
    down_up_ratio: float
    label: ActivityLabel

    def __post_init__(self):
        numerics = self.numeric_features()
        if not (math.isfinite(self.protocol) and all(map(math.isfinite, numerics))):
            raise InvalidFlow("non_finite", f"raw features {self.nrf()}")
        if self.flow_duration < 0:
            raise InvalidFlow("negative_duration", f"flow_duration {self.flow_duration}")
        if self.protocol not in PROTOCOLS or not (0 <= self.src_port <= 65535 and 0 <= self.dst_port <= 65535):
            raise InvalidFlow("unparseable", f"protocol {self.protocol}, ports {self.src_port} -> {self.dst_port}")
        if min(numerics) < 0:
            raise InvalidFlow("negative_value", f"raw features {self.nrf()}")

    def numeric_features(self) -> tuple[float, ...]:
        return (
            self.flow_duration,
            self.tot_fwd_pkts,
            self.tot_bwd_pkts,
            self.tot_fwd_bytes,
            self.tot_bwd_bytes,
            self.flow_bytes_per_s,
            self.flow_pkts_per_s,
            self.down_up_ratio,
        )

    def nrf(self) -> tuple[float, ...]:
        """The nine raw features: protocol first, then the eight numerics."""
        return (float(self.protocol),) + self.numeric_features()

    @property
    def pair(self) -> tuple[str, str]:
        return (self.src_ip, self.dst_ip)


@dataclass(frozen=True)
class Dataset:
    records: tuple[FlowRecord, ...]
    provenance: str = "INGESTED"
    seed: int | None = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


@dataclass
class CleaningReport:
    total_rows: int = 0
    kept: int = 0
    dropped: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def note_drop(self, reason: str) -> None:
        self.dropped += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def to_text(self) -> str:
        lines = [
            f"total_rows,{self.total_rows}",
            f"kept,{self.kept}",
            f"dropped,{self.dropped}",
        ]
        for reason in sorted(self.reasons):
            lines.append(f"reason:{reason},{self.reasons[reason]}")
        return "\n".join(lines) + "\n"


# Canonical field -> header name as found in the public flow CSVs
# (whitespace around header names varies between files and is stripped).
DEFAULT_COLUMN_MAP: dict[str, str] = {
    "src_ip": "Source IP",
    "dst_ip": "Destination IP",
    "src_port": "Source Port",
    "dst_port": "Destination Port",
    "protocol": "Protocol",
    "flow_duration": "Flow Duration",
    "tot_fwd_pkts": "Total Fwd Packets",
    "tot_bwd_pkts": "Total Backward Packets",
    "tot_fwd_bytes": "Total Length of Fwd Packets",
    "tot_bwd_bytes": "Total Length of Bwd Packets",
    "flow_bytes_per_s": "Flow Bytes/s",
    "flow_pkts_per_s": "Flow Packets/s",
    "down_up_ratio": "Down/Up Ratio",
    "label": "Label",
}

# The nine raw features in NRF layout order (FlowRecord.nrf).
NRF_FIELDS = (
    "protocol",
    "flow_duration",
    "tot_fwd_pkts",
    "tot_bwd_pkts",
    "tot_fwd_bytes",
    "tot_bwd_bytes",
    "flow_bytes_per_s",
    "flow_pkts_per_s",
    "down_up_ratio",
)


def ingest_csv(path, column_map: Mapping[str, str] | None = None) -> tuple[Dataset, CleaningReport]:
    """Read a flow CSV, dropping rows that fail the cleaning rules.

    A row is `unparseable` (short, a number or port that does not parse,
    a blank label), then `missing_value` (a blank IP, a blank or NaN raw
    feature), then dropped by the first FlowRecord value rule it breaks.
    Returns the dataset and a report of drop tallies. A column_map maps
    the fields of DEFAULT_COLUMN_MAP to distinct headers, and the file's
    header must name each of them once. A malformed file is a
    DataFormatError naming its line.
    """
    if column_map is not None:
        _check_column_map(column_map)
    cmap = DEFAULT_COLUMN_MAP if column_map is None else column_map
    report = CleaningReport()
    records: list[FlowRecord] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataFormatError(f"empty file: {path}")
            stripped = [h.strip() for h in header]
            missing_cols = [colname for colname in cmap.values() if colname.strip() not in stripped]
            if missing_cols:
                raise DataFormatError(f"missing mapped columns: {missing_cols}")
            repeated = [h for h in map(str.strip, cmap.values()) if stripped.count(h) > 1]
            if repeated:
                raise DataFormatError(f"{path}: header names mapped column {repeated[0]!r} twice")
            # Column of each field, in FlowRecord field order.
            index = tuple(stripped.index(cmap[name].strip()) for name in DEFAULT_COLUMN_MAP)
            for row in reader:
                report.total_rows += 1
                rec, reason = _parse_row(row, index)
                if rec is None:
                    report.note_drop(reason)
                else:
                    records.append(rec)
                    report.kept += 1
        except csv.Error as exc:
            raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from None
    return Dataset(tuple(records), provenance="INGESTED"), report


def _check_column_map(column_map) -> None:
    if not isinstance(column_map, Mapping):
        raise DataFormatError(
            f"column map must be an object of field -> header, got {type(column_map).__name__}"
        )
    missing = [f for f in DEFAULT_COLUMN_MAP if f not in column_map]
    unknown = [f for f in column_map if f not in DEFAULT_COLUMN_MAP]
    if missing or unknown:
        raise DataFormatError(f"column map: missing field(s) {missing}, unknown field(s) {unknown}")
    not_text = [f for f, header in column_map.items() if not isinstance(header, str)]
    if not_text:
        raise DataFormatError(f"column map: header of {not_text} is not a string")
    headers = [h.strip() for h in column_map.values()]
    for header in headers:
        if headers.count(header) > 1:
            named_by = [f for f, h in column_map.items() if h.strip() == header]
            raise DataFormatError(f"column map: header {header!r} is named by fields {named_by}")


def _parse_row(row: list[str], index: tuple[int, ...]) -> tuple[FlowRecord | None, str]:
    """Turn one row's text into a FlowRecord, or (None, drop reason)."""
    try:
        src_ip, dst_ip, src_port, dst_port, *nrf_cells, label = [row[i].strip() for i in index]
        nrf = [float(cell) if cell else math.nan for cell in nrf_cells]
        ports = float(src_port), float(dst_port)
    except (IndexError, ValueError):
        return None, "unparseable"
    # A port of 80.5 is not truncated to 80: it is unparseable.
    if not (label and ports[0].is_integer() and ports[1].is_integer()):
        return None, "unparseable"
    if not (src_ip and dst_ip) or any(map(math.isnan, nrf)):
        return None, "missing_value"
    protocol = nrf[0]  # stored as an int when whole; FlowRecord rejects any other value
    try:
        rec = FlowRecord(src_ip, dst_ip, int(ports[0]), int(ports[1]),
                         int(protocol) if protocol.is_integer() else protocol,
                         *nrf[1:], ActivityLabel.parse(label))
    except InvalidFlow as exc:
        return None, exc.reason
    return rec, ""


def write_csv(dataset: Dataset, path) -> None:
    """Persist a dataset in the same schema accepted by ingest_csv."""
    columns = list(DEFAULT_COLUMN_MAP.values())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in dataset:
            writer.writerow(
                [r.src_ip, r.dst_ip, r.src_port, r.dst_port, r.protocol]
                + [repr(v) for v in r.numeric_features()]
                + [r.label.text]
            )


def class_balance(dataset: Dataset) -> dict[str, float]:
    """Fraction of records per label, keyed by label text. Sums to 1."""
    if len(dataset) == 0:
        raise DataFormatError("class_balance of an empty dataset")
    counts: dict[str, int] = {}
    for r in dataset:
        counts[r.label.text] = counts.get(r.label.text, 0) + 1
    n = len(dataset)
    return {name: c / n for name, c in counts.items()}


# Per-feature (mode, max, mean, std) describing the scan and benign rows of
# the public port-scan flow data; the generator fits a clipped log-normal to
# the mean/std pair for each feature.
SCAN_FEATURE_STATS: dict[str, tuple[float, float, float, float]] = {
    "flow_duration": (47, 119809735, 82885.94, 2326775.89),
    "tot_fwd_pkts": (1, 150, 1.02, 0.43),
    "tot_bwd_pkts": (1, 30, 1.00, 0.15),
    "tot_fwd_bytes": (0, 1473, 1.09, 5.66),
    "tot_bwd_bytes": (6, 11595, 12.24, 267.40),
    "flow_bytes_per_s": (139535, 8000000, 220359.75, 459863.69),
    "flow_pkts_per_s": (42553, 2000000, 62690.57, 127930.00),
    "down_up_ratio": (1, 2, 0.99, 0.09),
}

BENIGN_FEATURE_STATS: dict[str, tuple[float, float, float, float]] = {
    "flow_duration": (30985, 119999949, 5386984.20, 31562986.85),
    "tot_fwd_pkts": (2, 3119, 6.55, 28.98),
    "tot_bwd_pkts": (2, 3635, 6.67, 42.23),
    "tot_fwd_bytes": (68, 232349, 524.05, 2771.69),
    "tot_bwd_bytes": (142, 7150819, 6079.02, 76351.31),
    "flow_bytes_per_s": (5684, 2070000000, 2241033.31, 38472283.25),
    "flow_pkts_per_s": (113, 3000000, 62501.33, 247879.03),
    "down_up_ratio": (1, 124, 0.67, 0.62),
}

_INT_FEATURES = {
    "flow_duration",
    "tot_fwd_pkts",
    "tot_bwd_pkts",
    "tot_fwd_bytes",
    "tot_bwd_bytes",
}

_DEFAULT_CLIENTS = tuple(f"192.168.10.{i}" for i in range(5, 29))
_DEFAULT_SERVERS = (
    "8.8.8.8",
    "173.194.208.155",
    "104.16.28.34",
    "205.174.165.73",
    "192.168.10.3",
    "23.52.91.27",
)


def _lognormal_draw(rng: np.random.Generator, stats: tuple[float, float, float, float]) -> float:
    _, upper, mean, std = stats
    if mean <= 0:
        return 0.0
    sigma2 = math.log(1.0 + (std / mean) ** 2)
    mu = math.log(mean) - sigma2 / 2.0
    value = float(rng.lognormal(mu, math.sqrt(sigma2)))
    return min(max(value, 0.0), float(upper))


def _draw_features(rng: np.random.Generator, stats: dict, scale: dict | None = None) -> dict[str, float]:
    out = {}
    for name in SCAN_FEATURE_STATS:
        mode, upper, mean, std = stats[name]
        if scale and name in scale:
            mean = mean * scale[name]
            std = std * scale[name]
        value = _lognormal_draw(rng, (mode, upper, mean, std))
        if name in _INT_FEATURES:
            value = float(round(value))
        out[name] = value
    return out


def _scan_record(rng, pair, port) -> FlowRecord:
    feats = _draw_features(rng, SCAN_FEATURE_STATS)
    src_port = int(rng.integers(1024, 65536))
    return FlowRecord(pair[0], pair[1], src_port, port, 6, label=SCAN_LABEL, **feats)


def _benign_record(rng) -> FlowRecord:
    feats = _draw_features(rng, BENIGN_FEATURE_STATS)
    proto = int(rng.choice(np.array([6, 17, 0]), p=[0.53, 0.45, 0.02]))
    src = _DEFAULT_CLIENTS[int(rng.integers(0, len(_DEFAULT_CLIENTS)))]
    dst = _DEFAULT_SERVERS[int(rng.integers(0, len(_DEFAULT_SERVERS)))]
    port = int(POPULAR_PORTS[int(rng.integers(0, len(POPULAR_PORTS)))])
    return FlowRecord(
        src, dst, int(rng.integers(1024, 65536)), port, proto, label=BENIGN_LABEL, **feats
    )


def _other_attack_record(rng, pair, name_idx: int) -> FlowRecord:
    # Scan-like base statistics with a per-type deterministic shift so the
    # thirteen attack families stay mutually distinguishable and non-benign.
    name = OTHER_ATTACK_NAMES[name_idx]
    scale = {
        "flow_duration": 5.0 + 2.0 * name_idx,
        "tot_fwd_pkts": 3.0 + name_idx,
        "tot_bwd_pkts": 3.0 + name_idx,
        "tot_fwd_bytes": 4.0 + name_idx,
    }
    feats = _draw_features(rng, SCAN_FEATURE_STATS, scale)
    port = int(POPULAR_PORTS[name_idx % len(POPULAR_PORTS)])
    return FlowRecord(
        pair[0], pair[1], int(rng.integers(1024, 65536)), port, 6,
        label=ActivityLabel(LabelKind.OTHER_ATTACK, name), **feats,
    )


def synth_traffic(
    profile: str,
    count: int,
    ip_pairs: Sequence[tuple[str, str]],
    seed: int,
    attack_frac: float = 0.25,
) -> Dataset:
    """Generate synthetic traffic matching the published feature statistics.

    profile is one of "PORT_SCAN", "BENIGN", "MIXED". Scan records sweep a
    contiguous destination-port range per IP pair; benign records use a
    small popular-port set. MIXED produces attack_frac attacks (a blend of
    port scans and the thirteen other attack families) and the rest benign.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if not 0.0 <= attack_frac <= 1.0:
        raise ValueError(f"attack_frac must lie in [0, 1], got {attack_frac}")
    if profile not in ("PORT_SCAN", "BENIGN", "MIXED"):
        raise ValueError(f"unknown profile: {profile}")
    if profile in ("PORT_SCAN", "MIXED") and count > 0 and not ip_pairs:
        raise ValueError("scan profiles need at least one ip pair")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF10]))
    records: list[FlowRecord] = []

    if profile == "PORT_SCAN":
        records = _scan_batch(rng, count, ip_pairs)
    elif profile == "BENIGN":
        records = [_benign_record(rng) for _ in range(count)]
    else:
        n_attack = int(math.floor(count * attack_frac + 0.5))
        n_scan = int(math.floor(n_attack * 0.4 + 0.5))
        n_other = n_attack - n_scan
        records.extend(_scan_batch(rng, n_scan, ip_pairs))
        for i in range(n_other):
            pair = ip_pairs[i % len(ip_pairs)]
            records.append(_other_attack_record(rng, pair, i % len(OTHER_ATTACK_NAMES)))
        records.extend(_benign_record(rng) for _ in range(count - n_attack))
        order = rng.permutation(len(records))
        records = [records[i] for i in order]

    return Dataset(tuple(records), provenance="SYNTHETIC", seed=seed)


def _scan_batch(rng, count: int, ip_pairs) -> list[FlowRecord]:
    if count == 0:
        return []
    out = []
    per_pair_pos = [0] * len(ip_pairs)
    for i in range(count):
        p = i % len(ip_pairs)
        base = 1 + (997 * p) % 50000
        port = base + per_pair_pos[p]
        per_pair_pos[p] += 1
        out.append(_scan_record(rng, ip_pairs[p], ((port - 1) % 65535) + 1))
    return out


def remap_ip_pairs(dataset: Dataset, n_pairs: int, seed: int) -> Dataset:
    """Spread the scan records round-robin over n_pairs endpoint pairs.

    Pair 0 is the dominant original scan pair; the remaining pairs are
    fresh synthetic addresses unseen elsewhere in the dataset. Feature
    values are untouched.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    scan_pairs: dict[tuple[str, str], int] = {}
    for r in dataset:
        if r.label.kind is LabelKind.PORT_SCAN:
            scan_pairs[r.pair] = scan_pairs.get(r.pair, 0) + 1
    if not scan_pairs:
        raise ValueError("dataset has no port-scan records to remap")

    original = sorted(scan_pairs.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
    used_ips = {r.src_ip for r in dataset} | {r.dst_ip for r in dataset}
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9A1B]))
    pairs: list[tuple[str, str]] = [original]
    while len(pairs) < n_pairs:
        a = f"10.{int(rng.integers(0, 128))}.{int(rng.integers(0, 256))}.{int(rng.integers(1, 255))}"
        b = f"10.{int(rng.integers(128, 256))}.{int(rng.integers(0, 256))}.{int(rng.integers(1, 255))}"
        if a in used_ips or b in used_ips or a == b:
            continue
        pair = (a, b)
        if pair in pairs:
            continue
        pairs.append(pair)
        used_ips.add(a)
        used_ips.add(b)

    out: list[FlowRecord] = []
    scan_idx = 0
    for r in dataset:
        if r.label.kind is LabelKind.PORT_SCAN:
            src, dst = pairs[scan_idx % n_pairs]
            scan_idx += 1
            out.append(replace(r, src_ip=src, dst_ip=dst))
        else:
            out.append(r)
    return Dataset(tuple(out), provenance=dataset.provenance, seed=seed)


def concat(*datasets: Dataset, provenance: str = "SYNTHETIC", seed: int | None = None) -> Dataset:
    records = tuple(r for d in datasets for r in d.records)
    return Dataset(records, provenance=provenance, seed=seed)
