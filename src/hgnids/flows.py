"""Flow records, CSV ingestion with cleaning, and synthetic traffic generation.

A flow record carries the nine raw features used for classification
(transport protocol plus eight numeric flow measurements), the endpoint
addresses and ports, and an activity label, as plain data. A Dataset
holds flows only as columns: the [n, 9] raw features, the ports, label
codes and integer address ids, with records as a row view built only
when a caller iterates. The flow value rules are one set of whole-column
masks (_reasons): ingestion drops and counts the rows that break them,
and a Dataset built from values raises InvalidFlow for the first such
row. Ingestion reads a CSV in chunks of CHUNK_ROWS rows, converting each
mapped column with float() in one pass. The synthetic generator produces
statistics-matched scan and benign traffic for desk-scale experiments,
deterministic under a seed: it makes each row's random draws in turn, and
turns the draws of a whole block of rows into feature columns at once.
Ingestion, synthesis and write_csv build no record. write_table is the
package's one CSV writer: every table it writes, here and in the other
modules, goes through it.
"""

from __future__ import annotations

import csv
import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, cycle, islice, repeat, starmap
from typing import Iterable, Mapping, Sequence

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
    """A flow value that breaks a cleaning rule; `reason` is the
    CleaningReport drop reason."""

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason


@dataclass(frozen=True)
class FlowRecord:
    """One flow, as plain data: its values are checked when it enters a
    Dataset, by the rules ingestion applies (see _reasons)."""

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

    def numeric_features(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in NRF_FIELDS[1:])

    def nrf(self) -> tuple[float, ...]:
        """The nine raw features: protocol first, then the eight numerics."""
        return (float(self.protocol),) + self.numeric_features()

    @property
    def pair(self) -> tuple[str, str]:
        return (self.src_ip, self.dst_ip)


class Dataset:
    """Flows as columns, with FlowRecords as a row view.

    `nrf` is the float64 [n, 9] raw-feature matrix (the floats of
    `FlowRecord.nrf()`, protocol first), `src_port` and `dst_port` are
    int64 columns, and `label_code` indexes `labels`. `src` and `dst` index
    `ips`: each address once, in the order it first appears when each
    row's source is read before its destination. That is the order
    `build_hypergraph` inserts edges in, so an address's id here is its
    edge id in the dataset's hypergraph. `labels` lists each label once,
    in the order rows first use it. The columns are read-only, and they
    are a Dataset's only state: one made from records derives them at
    once, checks them (InvalidFlow) and keeps no record.

    Iterating yields FlowRecords, built from the columns CHUNK_ROWS rows
    at a time and not kept.
    """

    def __init__(self, records: Sequence[FlowRecord] = (), provenance: str = "INGESTED",
                 seed: int | None = None):
        records = tuple(records)
        fields = [map(operator.attrgetter(name), records) for name in DEFAULT_COLUMN_MAP]
        self._set_columns(*_columns(fields, len(records)), provenance, seed)

    @classmethod
    def _from_columns(cls, nrf, src_port, dst_port, label_code, labels, src, dst, ips,
                      provenance: str = "INGESTED", seed: int | None = None) -> "Dataset":
        self = cls.__new__(cls)
        self._set_columns(nrf, src_port, dst_port, label_code, labels, src, dst, ips,
                          provenance, seed)
        return self

    def _set_columns(self, nrf, src_port, dst_port, label_code, labels, src, dst, ips,
                     provenance, seed) -> None:
        for column in (nrf, src_port, dst_port, label_code, src, dst):
            column.flags.writeable = False
        self.nrf, self.src_port, self.dst_port = nrf, src_port, dst_port
        self.label_code, self.labels = label_code, labels
        self.src, self.dst, self.ips = src, dst, ips
        self.provenance, self.seed = provenance, seed

    def _rows(self, labels: Sequence):
        """Each row as a tuple in FlowRecord field order, with `labels` in
        place of self.labels, read from the columns CHUNK_ROWS rows at a
        time."""
        ips = self.ips
        for start in range(0, len(self), CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            nrf = self.nrf[rows]
            yield from zip(
                map(ips.__getitem__, self.src[rows].tolist()),
                map(ips.__getitem__, self.dst[rows].tolist()),
                self.src_port[rows].tolist(),
                self.dst_port[rows].tolist(),
                nrf[:, 0].astype(np.int64).tolist(),
                *nrf[:, 1:].T.tolist(),
                map(labels.__getitem__, self.label_code[rows].tolist()),
            )

    @property
    def records(self) -> tuple[FlowRecord, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.nrf)

    def __iter__(self):
        return starmap(FlowRecord, self._rows(self.labels))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        arrays = ("nrf", "src_port", "dst_port", "label_code", "src", "dst")
        return (self.provenance, self.seed, self.labels, self.ips) == (
            other.provenance, other.seed, other.labels, other.ips
        ) and all(np.array_equal(getattr(self, name), getattr(other, name)) for name in arrays)

    def __repr__(self) -> str:
        return f"Dataset(<{len(self)} flows>, provenance={self.provenance!r}, seed={self.seed!r})"

    def is_kind(self, kind: LabelKind) -> np.ndarray:
        """Per row: whether its label is of this kind."""
        return np.array([label.kind is kind for label in self.labels], bool)[self.label_code]

    @property
    def is_attack(self) -> np.ndarray:
        return ~self.is_kind(LabelKind.BENIGN)

    def pair_mask(self, pairs) -> np.ndarray:
        """Per row: whether its (src_ip, dst_ip) pair is one of `pairs`."""
        index, n = {ip: i for i, ip in enumerate(self.ips)}, len(self.ips)
        keys = [index[a] * n + index[b] for a, b in pairs if a in index and b in index]
        return np.isin(self.src * n + self.dst, np.array(keys, np.intp))

    def pair_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """The src and dst ids of each distinct address pair, in the order
        the pairs first appear."""
        _, first = np.unique(self.src * len(self.ips) + self.dst, return_index=True)
        first.sort()
        return self.src[first], self.dst[first]

    def take(self, rows) -> "Dataset":
        """The rows at these positions, in this order."""
        rows = np.asarray(rows, np.intp)
        return Dataset._from_columns(
            self.nrf[rows], self.src_port[rows], self.dst_port[rows],
            *_first_seen(self.label_code[rows], self.labels),
            *_first_seen_ends(self.src[rows], self.dst[rows], self.ips),
            self.provenance, self.seed,
        )


def _columns(fields: Sequence[Iterable], n: int) -> tuple:
    """The columns of Dataset, in _from_columns order, of n rows given as
    one iterable per FlowRecord field, in field order. InvalidFlow names
    the first row that breaks a rule of _reasons, and that rule."""
    src_ip, dst_ip, src_port, dst_port, *nrf_fields, label = fields
    nrf = np.empty((n, len(NRF_FIELDS)))
    for j, values in enumerate(nrf_fields):
        nrf[:, j] = np.fromiter(values, np.float64, n)
    ports = np.array([np.fromiter(src_port, np.float64, n), np.fromiter(dst_port, np.float64, n)])
    src_ip, dst_ip = list(src_ip), list(dst_ip)
    reason = _reasons(False, _is_blank(src_ip) | _is_blank(dst_ip), nrf, ports)
    if reason.any():
        row = int(np.flatnonzero(reason)[0])
        raise InvalidFlow(_REASONS[reason[row]], f"row {row}: {src_ip[row]!r} -> {dst_ip[row]!r}, "
                          f"ports {ports[:, row].tolist()}, raw features {nrf[row].tolist()}")
    labels, ips = _numbering(), _numbering()
    label_code = np.fromiter(map(labels.__getitem__, label), np.intp, n)
    src, dst = _end_ids(ips, src_ip, dst_ip)
    return (nrf, *ports.astype(np.int64), label_code, tuple(labels), src, dst, tuple(ips))


def _numbering() -> defaultdict:
    """A dict that gives each new key the next integer id when it is read,
    so ids follow the order in which keys first appear."""
    ids = defaultdict()
    ids.default_factory = ids.__len__
    return ids


def _ids(numbering: defaultdict, keys: Sequence) -> np.ndarray:
    return np.fromiter(map(numbering.__getitem__, keys), np.intp, len(keys))


def _end_ids(numbering: defaultdict, src_ip: Sequence[str], dst_ip: Sequence[str]):
    """The src and dst ids of each row's addresses, numbering each row's
    source before its destination."""
    ends = [""] * (2 * len(src_ip))
    ends[0::2], ends[1::2] = src_ip, dst_ip
    ends = _ids(numbering, ends)
    return ends[0::2], ends[1::2]


def _first_seen(codes: np.ndarray, names: Sequence) -> tuple[np.ndarray, tuple]:
    """codes renumbered so that ids follow the order in which they first
    appear, and the names they use, in that order."""
    used, first = np.unique(codes, return_index=True)
    order = used[np.argsort(first)]
    renumber = np.empty(len(names), np.intp)
    renumber[order] = np.arange(len(order))
    return renumber[codes], tuple(names[i] for i in order.tolist())


def _first_seen_ends(src: np.ndarray, dst: np.ndarray, ips: Sequence[str]):
    """src and dst renumbered by _first_seen, reading each row's src
    before its dst, and the addresses they use."""
    ends, ips = _first_seen(np.column_stack((src, dst)).ravel(), ips)
    return ends[0::2], ends[1::2], ips


@dataclass
class CleaningReport:
    total_rows: int = 0
    kept: int = 0
    dropped: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def note_drop(self, reason: str, count: int = 1) -> None:
        self.dropped += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

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


# Rows read and cleaned per step of ingest_csv; bounds the text held at once.
CHUNK_ROWS = 1024

# Drop reasons by code; code 0 keeps the row.
_REASONS = ("", "unparseable", "missing_value", "non_finite", "negative_duration",
            "unparseable", "negative_value")
# The columns of no rows: nrf, src_port, dst_port, label (or label-text)
# code, src, dst.
_NO_ROWS = (np.empty((0, len(NRF_FIELDS))), np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0, np.intp))


def ingest_csv(path, column_map: Mapping[str, str] | None = None) -> tuple[Dataset, CleaningReport]:
    """Read a flow CSV, dropping rows that fail the cleaning rules.

    A row is `unparseable` (short, a number or port that does not parse,
    a blank label), then `missing_value` (a blank IP, a blank or NaN raw
    feature), then dropped by the first flow value rule it breaks.
    Returns the dataset and a report of drop tallies. A column_map maps
    the fields of DEFAULT_COLUMN_MAP to distinct headers, and the file's
    header must name each of them once. A malformed file is a
    DataFormatError naming its line, and a file that is not UTF-8 text one
    naming the file.
    """
    if column_map is not None:
        _check_column_map(column_map)
    cmap = DEFAULT_COLUMN_MAP if column_map is None else column_map
    report = CleaningReport()
    chunks: list[tuple] = []
    ip_ids, label_ids = _numbering(), _numbering()
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
            while rows := list(islice(reader, CHUNK_ROWS)):
                chunks.append(_clean_chunk(rows, index, ip_ids, label_ids, report))
        except csv.Error as exc:
            raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    # Distinct label texts may parse to one label ("PortScan", "Port Scan").
    labels = _numbering()
    label_of_text = _ids(labels, [ActivityLabel.parse(text) for text in label_ids])
    nrf, src_port, dst_port, text_code, src, dst = map(np.concatenate, zip(_NO_ROWS, *chunks))
    dataset = Dataset._from_columns(
        nrf, src_port, dst_port, label_of_text[text_code], tuple(labels), src, dst, tuple(ip_ids)
    )
    return dataset, report



def _clean_chunk(rows: list[list[str]], index: tuple[int, ...], ip_ids: defaultdict,
                 label_ids: defaultdict, report: CleaningReport) -> tuple:
    """Parse one chunk of rows column by column, tally each dropped row's
    reason in the report, and return the kept rows' NRF matrix, ports,
    label-text ids and source and destination ids, numbered by ip_ids and
    label_ids.
    """
    n = len(rows)
    width = max(index) + 1
    short = np.fromiter(map(len, rows), np.intp, n) < width
    if short.any():
        blank = [""] * width
        rows = [blank if cut else row for row, cut in zip(rows, short.tolist())]
    src_ip, dst_ip, src_cells, dst_cells, *nrf_cells, label = zip(*map(operator.itemgetter(*index), rows))
    src_ip, dst_ip, label = (list(map(str.strip, cells)) for cells in (src_ip, dst_ip, label))
    nrf = np.empty((n, len(NRF_FIELDS)))
    unparseable = short | _is_blank(label)
    for j, cells in enumerate(nrf_cells):
        nrf[:, j], not_number = _floats(cells)
        unparseable |= not_number
    ports = np.array([_floats(cells)[0] for cells in (src_cells, dst_cells)])  # a blank port is NaN
    missing = _is_blank(src_ip) | _is_blank(dst_ip) | np.isnan(nrf).any(axis=1)
    reason = _reasons(unparseable, missing, nrf, ports)
    counts = np.bincount(reason, minlength=len(_REASONS)).tolist()
    report.total_rows += n
    report.kept += counts[0]
    for name, count in zip(_REASONS[1:], counts[1:]):
        if count:
            report.note_drop(name, count)

    keep = reason == 0
    if counts[0] < n:
        nrf, ports = nrf[keep], ports[:, keep]
        src_ip, dst_ip, label = (list(compress(cells, keep.tolist())) for cells in (src_ip, dst_ip, label))
    nrf[:, 0] = np.abs(nrf[:, 0])  # a protocol cell of -0.0 is protocol 0
    src_port, dst_port = ports.astype(np.int64)
    return nrf, src_port, dst_port, _ids(label_ids, label), *_end_ids(ip_ids, src_ip, dst_ip)


def _reasons(unparseable, missing, nrf: np.ndarray, ports: np.ndarray) -> np.ndarray:
    """Each row's drop-reason code: the first flow value rule it breaks,
    in _REASONS order after the caller's parse-stage `unparseable` and
    `missing` masks (or False); 0 keeps the row. A port that is not a
    whole number joins `unparseable`, so 80.5 is never truncated to 80.
    nrf is [n, 9] and ports [2, n], both float."""
    numerics = nrf[:, 1:]
    return np.select(
        [
            unparseable | ~(np.isfinite(ports) & (np.floor(ports) == ports)).all(axis=0),  # unparseable
            missing,  # missing_value
            ~np.isfinite(nrf).all(axis=1),  # non_finite
            numerics[:, 0] < 0,  # negative_duration
            ~np.isin(nrf[:, 0], PROTOCOLS) | ((ports < 0) | (ports > 65535)).any(axis=0),  # unparseable
            (numerics < 0).any(axis=1),  # negative_value
        ],
        list(range(1, len(_REASONS))),
    )


def _is_blank(cells: list[str]) -> np.ndarray:
    return np.fromiter(map(operator.not_, cells), bool, len(cells))


def _floats(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """float() of each cell, NaN for a blank one, and a mask of the cells
    that are neither blank nor a number."""
    n = len(cells)
    try:
        return np.fromiter(map(float, cells), np.float64, n), np.zeros(n, bool)
    except ValueError:
        pass
    values, not_number = np.full(n, math.nan), np.zeros(n, bool)
    for i, cell in enumerate(cells):
        cell = cell.strip()
        if cell:
            try:
                values[i] = float(cell)
            except ValueError:
                not_number[i] = True
    return values, not_number


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


def write_table(path, header: Iterable, rows: Iterable[Iterable], preamble: str = "",
                lineterminator: str = "\n") -> None:
    """Write a UTF-8 CSV: the preamble text as is, then the header row,
    then every row. The csv module writes a float cell as its repr, so a
    caller passes Python floats (`.tolist()` values) and formats nothing."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(preamble)
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(dataset: Dataset, path) -> None:
    """Persist a dataset in the same schema accepted by ingest_csv: ports
    and protocol as integers, the other raw features as float reprs."""
    write_table(path, DEFAULT_COLUMN_MAP.values(),
                dataset._rows([label.text for label in dataset.labels]), lineterminator="\r\n")


def class_balance(dataset: Dataset) -> dict[str, float]:
    """Fraction of records per label, keyed by label text. Sums to 1."""
    if len(dataset) == 0:
        raise DataFormatError("class_balance of an empty dataset")
    counts: dict[str, int] = {}
    for label, count in zip(dataset.labels, np.bincount(dataset.label_code, minlength=len(dataset.labels)).tolist()):
        if count:
            counts[label.text] = counts.get(label.text, 0) + count
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

# Per numeric feature, in NRF_FIELDS order: whether it is a whole number.
_IS_INT_FEATURE = np.array([
    name in ("flow_duration", "tot_fwd_pkts", "tot_bwd_pkts", "tot_fwd_bytes", "tot_bwd_bytes")
    for name in NRF_FIELDS[1:]
])

_DEFAULT_CLIENTS = tuple(f"192.168.10.{i}" for i in range(5, 29))
_DEFAULT_SERVERS = (
    "8.8.8.8",
    "173.194.208.155",
    "104.16.28.34",
    "205.174.165.73",
    "192.168.10.3",
    "23.52.91.27",
)


def _feature_params(stats: dict, scale: dict | None = None) -> np.ndarray:
    """(mu, sigma, upper) [3, 8] of the eight numeric features, in
    NRF_FIELDS order: the log-normal fitted to each feature's mean
    and std (both times its scale, if it has one), clipped to [0, upper].

    Every feature takes exactly one normal draw per row, so a table this
    cannot fit is a ValueError (a mean that is not finite and > 0, a scale
    that is not > 0) rather than a shift of the random stream.
    """
    params = []
    for name in NRF_FIELDS[1:]:
        _, upper, mean, std = stats[name]
        if scale and name in scale:
            if not scale[name] > 0:
                raise ValueError(f"{name}: scale must be > 0, got {scale[name]}")
            mean = mean * scale[name]
            std = std * scale[name]
        if not (math.isfinite(mean) and mean > 0):
            raise ValueError(f"{name}: mean must be finite and > 0, got {mean}")
        sigma2 = math.log(1.0 + (std / mean) ** 2)
        params.append((math.log(mean) - sigma2 / 2.0, math.sqrt(sigma2), float(upper)))
    return np.array(params).T


def _features(z: np.ndarray, params: np.ndarray) -> np.ndarray:
    """The [n, 8] numeric features of rows whose standard normals are z:
    exp(mu + sigma * z), numpy's lognormal(mu, sigma) of the same draw,
    clipped to [0, upper], with whole-number features rounded half to
    even. params is _feature_params' [3, 8], or [n, 3, 8] with one table
    per row. exp is math.exp of each value, the libm call numpy's sampler
    makes: numpy's vector exp may differ from it in the last bit."""
    mu, sigma, upper = np.moveaxis(params, -2, 0)
    x = (mu + sigma * z).ravel().tolist()
    values = np.fromiter(map(math.exp, x), np.float64, len(x)).reshape(z.shape)
    values = np.minimum(np.maximum(values, 0.0), upper)
    return np.where(_IS_INT_FEATURE, np.round(values), values)


# Each block builder draws its rows in the generator's order: per row, the
# eight standard normals of its features, then its own draws. It returns
# the rows' columns, one per FlowRecord field in field order, and every
# value it gives passes the flow value rules.
def _scan_block(rng, count: int, ip_pairs) -> list:
    """Port-scan rows on the pairs in turn; each pair sweeps a contiguous
    destination-port range from its own base port."""
    z, src_port = _attack_draws(rng, count)
    step, pair = np.divmod(np.arange(count), len(ip_pairs))
    port = 1 + (997 * pair) % 50000 + step
    return [*_on_pairs(ip_pairs, count), src_port, (port - 1) % 65535 + 1, repeat(6, count),
            *_features(z, _feature_params(SCAN_FEATURE_STATS)).T, repeat(SCAN_LABEL, count)]


def _other_attack_block(rng, count: int, ip_pairs) -> list:
    """Rows of the thirteen other attack families in turn, on the pairs in
    turn. They keep the scan statistics, with a per-family shift so the
    families stay mutually distinguishable and non-benign."""
    z, src_port = _attack_draws(rng, count)
    families = range(len(OTHER_ATTACK_NAMES))
    params = np.array([_feature_params(SCAN_FEATURE_STATS, {
        "flow_duration": 5.0 + 2.0 * f,
        "tot_fwd_pkts": 3.0 + f,
        "tot_bwd_pkts": 3.0 + f,
        "tot_fwd_bytes": 4.0 + f,
    }) for f in families])
    labels = [ActivityLabel(LabelKind.OTHER_ATTACK, name) for name in OTHER_ATTACK_NAMES]
    family = np.arange(count) % len(families)
    return [*_on_pairs(ip_pairs, count), src_port,
            np.array(POPULAR_PORTS)[family % len(POPULAR_PORTS)], repeat(6, count),
            *_features(z, params[family]).T, map(labels.__getitem__, family.tolist())]


def _benign_block(rng, count: int) -> list:
    """Benign rows from the default clients to the default servers on a
    popular port, with protocol 6, 17 or 0 drawn as rng.choice would."""
    z = np.empty((count, len(SCAN_FEATURE_STATS)))
    u, client, server, service, src_port = [], [], [], [], []
    for row in z:
        rng.standard_normal(out=row)
        u.append(rng.random())
        client.append(rng.integers(0, len(_DEFAULT_CLIENTS)))
        server.append(rng.integers(0, len(_DEFAULT_SERVERS)))
        service.append(rng.integers(0, len(POPULAR_PORTS)))
        src_port.append(rng.integers(1024, 65536))
    # rng.choice([6, 17, 0], p=p) looks one rng.random() up in this cdf.
    cdf = np.array([0.53, 0.45, 0.02]).cumsum()
    cdf /= cdf[-1]
    return [map(_DEFAULT_CLIENTS.__getitem__, client), map(_DEFAULT_SERVERS.__getitem__, server),
            src_port, np.array(POPULAR_PORTS)[np.array(service, np.intp)],
            np.array([6, 17, 0])[cdf.searchsorted(u, side="right")],
            *_features(z, _feature_params(BENIGN_FEATURE_STATS)).T, repeat(BENIGN_LABEL, count)]


def _attack_draws(rng, count: int) -> tuple[np.ndarray, list]:
    """The draws of count attack rows: per row, the eight normals, then a
    source port."""
    z, src_port = np.empty((count, len(SCAN_FEATURE_STATS))), []
    for row in z:
        rng.standard_normal(out=row)
        src_port.append(rng.integers(1024, 65536))
    return z, src_port


def _on_pairs(ip_pairs, count: int) -> tuple[list[str], list[str]]:
    """The src and dst addresses of count rows that take the pairs in turn."""
    return ([a for a, _ in islice(cycle(ip_pairs), count)],
            [b for _, b in islice(cycle(ip_pairs), count)])


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
    port scans and the thirteen other attack families) and the rest benign,
    in a random order. Rows are drawn block by block (scans, other attacks,
    benign), each row's draws in turn; only the arithmetic on the draws
    runs on whole columns.
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
    if profile == "MIXED":
        n_attack = int(math.floor(count * attack_frac + 0.5))
        n_scan = int(math.floor(n_attack * 0.4 + 0.5))
    else:
        n_attack = n_scan = count if profile == "PORT_SCAN" else 0
    blocks = (
        _scan_block(rng, n_scan, ip_pairs),
        _other_attack_block(rng, n_attack - n_scan, ip_pairs),
        _benign_block(rng, count - n_attack),
    )
    fields = [chain.from_iterable(column) for column in zip(*blocks)]
    data = Dataset._from_columns(*_columns(fields, count), provenance="SYNTHETIC", seed=seed)
    return data.take(rng.permutation(count)) if profile == "MIXED" else data


def remap_ip_pairs(dataset: Dataset, n_pairs: int, seed: int) -> Dataset:
    """Spread the scan records round-robin over n_pairs endpoint pairs.

    Pair 0 is the dominant original scan pair; the remaining pairs are
    fresh synthetic addresses unseen elsewhere in the dataset. Feature
    values are untouched. A dataset with no scan records is a
    DataFormatError.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    scans = np.flatnonzero(dataset.is_kind(LabelKind.PORT_SCAN))
    if not len(scans):
        raise DataFormatError("dataset has no port-scan records to remap")

    ips, n_ips = dataset.ips, len(dataset.ips)
    keys, counts = np.unique(dataset.src[scans] * n_ips + dataset.dst[scans], return_counts=True)
    original = min(
        (-count, (ips[key // n_ips], ips[key % n_ips])) for key, count in zip(keys.tolist(), counts.tolist())
    )[1]
    used_ips = set(ips)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9A1B]))
    pairs: list[tuple[str, str]] = [original]
    while len(pairs) < n_pairs:
        a = f"10.{int(rng.integers(0, 128))}.{int(rng.integers(0, 256))}.{int(rng.integers(1, 255))}"
        b = f"10.{int(rng.integers(128, 256))}.{int(rng.integers(0, 256))}.{int(rng.integers(1, 255))}"
        if a in used_ips or b in used_ips:
            continue
        pairs.append((a, b))
        used_ips.add(a)
        used_ips.add(b)

    ips += tuple(ip for pair in pairs[1:] for ip in pair)
    index = {ip: i for i, ip in enumerate(ips)}
    turn = np.arange(len(scans)) % n_pairs
    src, dst = dataset.src.copy(), dataset.dst.copy()
    src[scans] = np.array([index[a] for a, _ in pairs], np.intp)[turn]
    dst[scans] = np.array([index[b] for _, b in pairs], np.intp)[turn]
    return Dataset._from_columns(
        dataset.nrf, dataset.src_port, dataset.dst_port, dataset.label_code, dataset.labels,
        *_first_seen_ends(src, dst, ips), dataset.provenance, seed,
    )


def concat(*datasets: Dataset, provenance: str = "SYNTHETIC", seed: int | None = None) -> Dataset:
    """The rows of each dataset in turn. Each address and label keeps the
    first-seen order, since every part lists its own in that order."""
    ip_ids, label_ids = _numbering(), _numbering()
    parts = [_NO_ROWS]
    for d in datasets:
        label_id, ip_id = _ids(label_ids, d.labels), _ids(ip_ids, d.ips)
        parts.append((d.nrf, d.src_port, d.dst_port, label_id[d.label_code], ip_id[d.src], ip_id[d.dst]))
    nrf, src_port, dst_port, label_code, src, dst = map(np.concatenate, zip(*parts))
    return Dataset._from_columns(
        nrf, src_port, dst_port, label_code, tuple(label_ids), src, dst, tuple(ip_ids), provenance, seed
    )
