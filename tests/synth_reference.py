"""The record-by-record synthesis and CSV writer that the columnar
`flows.synth_traffic` and `flows.write_csv` replaced: each draw builds one
FlowRecord, and the writer formats one record per row. Kept as the
reference for differential tests: the columnar generator must give the
same columns from the same draws, and the writer the same bytes.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from hgnids.flows import (
    BENIGN_FEATURE_STATS,
    BENIGN_LABEL,
    DEFAULT_COLUMN_MAP,
    OTHER_ATTACK_NAMES,
    POPULAR_PORTS,
    SCAN_FEATURE_STATS,
    SCAN_LABEL,
    ActivityLabel,
    FlowRecord,
    LabelKind,
)

_INT_FEATURES = {"flow_duration", "tot_fwd_pkts", "tot_bwd_pkts", "tot_fwd_bytes", "tot_bwd_bytes"}
_CLIENTS = tuple(f"192.168.10.{i}" for i in range(5, 29))
_SERVERS = ("8.8.8.8", "173.194.208.155", "104.16.28.34", "205.174.165.73", "192.168.10.3",
            "23.52.91.27")


def _lognormal_draw(rng, stats) -> float:
    _, upper, mean, std = stats
    if mean <= 0:
        return 0.0
    sigma2 = math.log(1.0 + (std / mean) ** 2)
    mu = math.log(mean) - sigma2 / 2.0
    value = float(rng.lognormal(mu, math.sqrt(sigma2)))
    return min(max(value, 0.0), float(upper))


def _draw_features(rng, stats, scale=None) -> dict[str, float]:
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
    src = _CLIENTS[int(rng.integers(0, len(_CLIENTS)))]
    dst = _SERVERS[int(rng.integers(0, len(_SERVERS)))]
    port = int(POPULAR_PORTS[int(rng.integers(0, len(POPULAR_PORTS)))])
    return FlowRecord(
        src, dst, int(rng.integers(1024, 65536)), port, proto, label=BENIGN_LABEL, **feats
    )


def _other_attack_record(rng, pair, name_idx: int) -> FlowRecord:
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


def _scan_batch(rng, count: int, ip_pairs) -> list[FlowRecord]:
    out = []
    per_pair_pos = [0] * len(ip_pairs)
    for i in range(count):
        p = i % len(ip_pairs)
        base = 1 + (997 * p) % 50000
        port = base + per_pair_pos[p]
        per_pair_pos[p] += 1
        out.append(_scan_record(rng, ip_pairs[p], ((port - 1) % 65535) + 1))
    return out


def synth_records(profile: str, count: int, ip_pairs, seed: int,
                  attack_frac: float = 0.25) -> list[FlowRecord]:
    """The records `flows.synth_traffic` gives for valid arguments, in order."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF10]))
    if profile == "PORT_SCAN":
        return _scan_batch(rng, count, ip_pairs)
    if profile == "BENIGN":
        return [_benign_record(rng) for _ in range(count)]
    n_attack = int(math.floor(count * attack_frac + 0.5))
    n_scan = int(math.floor(n_attack * 0.4 + 0.5))
    records = _scan_batch(rng, n_scan, ip_pairs)
    for i in range(n_attack - n_scan):
        pair = ip_pairs[i % len(ip_pairs)]
        records.append(_other_attack_record(rng, pair, i % len(OTHER_ATTACK_NAMES)))
    records.extend(_benign_record(rng) for _ in range(count - n_attack))
    order = rng.permutation(len(records))
    return [records[i] for i in order]


def write_records(records, path) -> None:
    """The CSV `flows.write_csv` writes, one record per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(DEFAULT_COLUMN_MAP.values()))
        for r in records:
            writer.writerow(
                [r.src_ip, r.dst_ip, r.src_port, r.dst_port, r.protocol]
                + [repr(v) for v in r.numeric_features()]
                + [r.label.text]
            )
