"""Online behavioural port-scan detection over traffic windows.

Each window of unlabeled records is abstracted into the port hypergraph;
for every edge the 11 evenly spaced s-closeness centralities are
computed, spacing chosen so the schedule tops out near the largest edge
size. The last six centralities are binarised at 0.95, and an endpoint
pair is flagged when both of its edges agree (element-wise minimum) on at
least two of the six tail bits. A pair is flagged at most once per flag
memory lifetime.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable

from .flows import Dataset
from .hypergraph import build_hypergraph, detector_skip_interval, edge_profiles

BINARIZE_THRESHOLD = 0.95
TAIL_LENGTH = 6
FLAG_MIN_SUM = 2

IPPair = tuple[str, str]


@dataclass(frozen=True)
class ScanFlag:
    pair: IPPair
    binarized_tail: tuple[int, ...]
    tail_sum: int
    window_id: int


def detect_window(
    window: Dataset, flagged: set[IPPair], window_id: int = 0
) -> tuple[list[ScanFlag], set[IPPair]]:
    """Flag new endpoint pairs showing the concentric-scan signature."""
    updated = set(flagged)
    if len(window) == 0:
        return [], updated

    h = build_hypergraph(window)
    k = detector_skip_interval(h.max_edge_size())
    profiles = edge_profiles(h, k)

    tails: dict[str, tuple[int, ...]] = {}
    for ip, profile in profiles.items():
        tail = profile.values[-TAIL_LENGTH:]
        tails[ip] = tuple(1 if v >= BINARIZE_THRESHOLD else 0 for v in tail)

    flags: list[ScanFlag] = []
    seen_pairs: set[IPPair] = set()
    for rec in window:
        pair = rec.pair
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        if pair in updated:
            continue
        src_tail = tails.get(pair[0])
        dst_tail = tails.get(pair[1])
        if src_tail is None or dst_tail is None:
            continue
        combined = tuple(min(a, b) for a, b in zip(src_tail, dst_tail))
        tail_sum = sum(combined)
        if tail_sum >= FLAG_MIN_SUM:
            flags.append(ScanFlag(pair, combined, tail_sum, window_id))
            updated.add(pair)
    return flags, updated


def write_flags_csv(flags: Iterable[ScanFlag], path) -> None:
    """One `window_id,src_ip,dst_ip,tail_sum` row per flag."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["window_id", "src_ip", "dst_ip", "tail_sum"])
        for f in flags:
            writer.writerow([f.window_id, f.pair[0], f.pair[1], f.tail_sum])


def reset(flagged: set[IPPair]) -> set[IPPair]:
    """Fresh, empty flag memory."""
    return set()
