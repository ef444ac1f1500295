"""The row parser that `flows._parse_row` replaced: it builds a dict of the
mapped cells, parses them, and then checks every value rule itself before
the record's own constructor checks them again. Kept as the reference for
differential tests: the current parser must keep and drop the same rows,
for the same reasons, and build records with the same field values.

`index` maps each field of `flows.DEFAULT_COLUMN_MAP` to its column.
"""

from __future__ import annotations

import math

from hgnids.flows import NRF_FIELDS, PROTOCOLS, ActivityLabel, FlowRecord


def _parse_row(row: list[str], index: dict[str, int]) -> tuple[FlowRecord | None, str]:
    try:
        cells = {name: row[i].strip() for name, i in index.items()}
    except IndexError:
        return None, "unparseable"

    raw_numeric: dict[str, float] = {}
    missing = cells["src_ip"] == "" or cells["dst_ip"] == ""
    for name in NRF_FIELDS:
        cell = cells[name]
        if cell == "":
            missing = True
            continue
        try:
            value = float(cell)
        except ValueError:
            return None, "unparseable"
        if math.isnan(value):
            missing = True
        raw_numeric[name] = value
    try:
        src_port = _integral(float(cells["src_port"]))
        dst_port = _integral(float(cells["dst_port"]))
    except ValueError:
        return None, "unparseable"
    if cells["label"] == "":
        return None, "unparseable"
    if missing:
        return None, "missing_value"
    if any(math.isinf(v) for v in raw_numeric.values()):
        return None, "non_finite"
    if raw_numeric["flow_duration"] < 0:
        return None, "negative_duration"
    protocol = raw_numeric["protocol"]
    if not protocol.is_integer() or int(protocol) not in PROTOCOLS or not (0 <= src_port <= 65535) or not (0 <= dst_port <= 65535):
        return None, "unparseable"
    if any(v < 0 for v in raw_numeric.values()):
        return None, "negative_value"

    rec = FlowRecord(
        cells["src_ip"], cells["dst_ip"], src_port, dst_port,
        **{**raw_numeric, "protocol": int(protocol)},
        label=ActivityLabel.parse(cells["label"]),
    )
    return rec, ""


def _integral(value: float) -> int:
    """A port number; ValueError for a non-integral cell such as 80.5, which
    int() would silently truncate."""
    if not value.is_integer():
        raise ValueError(f"non-integral value: {value!r}")
    return int(value)
