"""The per-IP tail loop that flagged scan pairs before `detect_window` read
the profile table: every edge's profile is computed edge by edge with
`centrality_profile`, its tail is binarised into an IP-keyed dict, and each
new pair combines its two tails in Python. Kept as the reference for
differential tests of `hgnids.detector`; too slow for large windows.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from hgnids.detector import BINARIZE_THRESHOLD, FLAG_MIN_SUM, TAIL_LENGTH, IPPair, ScanFlag
from hgnids.flows import Dataset
from hgnids.hypergraph import build_hypergraph, centrality_profile, detector_skip_interval


def detect_window(
    window: Dataset,
    flagged: set[IPPair],
    window_id: int = 0,
    values: Mapping[str, Sequence[float]] | None = None,
) -> tuple[list[ScanFlag], set[IPPair]]:
    """`values`, when given, replaces the computed 11 centralities per IP."""
    updated = set(flagged)
    if len(window) == 0:
        return [], updated

    h = build_hypergraph(window)
    if values is None:
        k = detector_skip_interval(h.max_edge_size())
        values = {ip: centrality_profile(h, ip, k).values for ip in h.edges}

    tails: dict[str, tuple[int, ...]] = {}
    for ip, profile in values.items():
        tail = profile[-TAIL_LENGTH:]
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
