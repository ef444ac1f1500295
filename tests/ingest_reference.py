"""The row-by-row ingest that the columnar `flows.ingest_csv` replaced: each
row's mapped cells are read by position and parsed, one FlowRecord is
built per row, and `value_rule_broken` applies the flow value rules to it
one record at a time. Kept as the reference for differential tests: the
columnar ingest must keep and drop the same rows, for the same reasons,
and its row view must give records with the same field values and types.
"""

from __future__ import annotations

import csv
import math

from hgnids.flows import DEFAULT_COLUMN_MAP, PROTOCOLS, ActivityLabel, CleaningReport, FlowRecord


def ingest_rows(path) -> tuple[list[FlowRecord], CleaningReport]:
    """The kept records and the report of a CSV whose header names every
    column of DEFAULT_COLUMN_MAP once."""
    report = CleaningReport()
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        index = tuple(header.index(name) for name in DEFAULT_COLUMN_MAP.values())
        for row in reader:
            report.total_rows += 1
            rec, reason = _parse_row(row, index)
            if rec is None:
                report.note_drop(reason)
            else:
                records.append(rec)
                report.kept += 1
    return records, report


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
    protocol = nrf[0]  # stored as an int when whole; the rules reject any other value
    rec = FlowRecord(src_ip, dst_ip, int(ports[0]), int(ports[1]),
                     int(protocol) if protocol.is_integer() else protocol,
                     *nrf[1:], ActivityLabel.parse(label))
    reason = value_rule_broken(rec)
    return (None, reason) if reason else (rec, "")


def value_rule_broken(rec: FlowRecord) -> str:
    """The drop reason of the first value rule the record breaks, or "":
    raw features finite, flow_duration >= 0, protocol in PROTOCOLS and
    ports in 0..65535, raw features >= 0."""
    numerics = rec.numeric_features()
    if not (math.isfinite(rec.protocol) and all(map(math.isfinite, numerics))):
        return "non_finite"
    if rec.flow_duration < 0:
        return "negative_duration"
    if rec.protocol not in PROTOCOLS or not (0 <= rec.src_port <= 65535 and 0 <= rec.dst_port <= 65535):
        return "unparseable"
    if min(numerics) < 0:
        return "negative_value"
    return ""
