"""Online behavioural port-scan detection over traffic windows.

Each window of unlabeled records is abstracted into the port hypergraph,
whose [n_edges, 11] profile table holds every edge's 11 evenly spaced
s-closeness centralities, spacing chosen so the schedule tops out near
the largest edge size. The table's last six columns are binarised at 0.95
once; each new endpoint pair takes the element-wise minimum of its two
edges' rows and is flagged when at least two of the six tail bits
survive. Pairs and edges are read by integer id from the window's
address columns. A pair is flagged at most once per flag memory lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .flows import Dataset, write_table
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
    table = edge_profiles(h, detector_skip_interval(h.max_edge_size()))
    bits = (table[:, -TAIL_LENGTH:] >= BINARIZE_THRESHOLD).astype(np.int64)
    # a window's address ids are its hypergraph's edge ids
    src, dst = window.pair_ids()
    combined = np.minimum(bits[src], bits[dst])
    tail_sums = combined.sum(axis=1)

    flags = []
    for i in np.flatnonzero(tail_sums >= FLAG_MIN_SUM).tolist():
        pair = (window.ips[src[i]], window.ips[dst[i]])
        if pair not in flagged:
            flags.append(ScanFlag(pair, tuple(combined[i].tolist()), int(tail_sums[i]), window_id))
    updated.update(f.pair for f in flags)
    return flags, updated


def write_flags_csv(flags: Iterable[ScanFlag], path) -> None:
    """One `window_id,src_ip,dst_ip,tail_sum` row per flag."""
    write_table(path, ["window_id", "src_ip", "dst_ip", "tail_sum"],
                ((f.window_id, *f.pair, f.tail_sum) for f in flags))
