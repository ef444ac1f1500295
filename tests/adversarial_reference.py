"""The record-by-record builder that the columnar `adversarial.to_dataset`
replaced: each kept example becomes one FlowRecord, with one scalar
source-port draw per record. Kept as the reference for differential
tests: the columnar builder must give the same columns, labels and
address order from the same draws.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from hgnids.adversarial import _ADV_DST_POOL, _ADV_SRC_POOL, AdversarialExample
from hgnids.flows import SCAN_LABEL, FlowRecord


def to_flow_records(examples: Sequence[AdversarialExample], seed: int = 0) -> list[FlowRecord]:
    """Materialise kept examples as scan-labelled flow records carrying
    fresh endpoint pairs unseen in the base traffic."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xADE]))
    out = []
    for i, ex in enumerate(examples):
        v = ex.vector.values
        pool_idx = i % len(_ADV_SRC_POOL)
        parent = ex.vector.origin
        dst_port = parent.dst_port if parent is not None else 80
        out.append(
            FlowRecord(
                src_ip=_ADV_SRC_POOL[pool_idx],
                dst_ip=_ADV_DST_POOL[pool_idx],
                src_port=int(rng.integers(1024, 65536)),
                dst_port=dst_port,
                protocol=int(v[0]),
                flow_duration=float(v[1]),
                tot_fwd_pkts=float(v[2]),
                tot_bwd_pkts=float(v[3]),
                tot_fwd_bytes=float(v[4]),
                tot_bwd_bytes=float(v[5]),
                flow_bytes_per_s=float(v[6]),
                flow_pkts_per_s=float(v[7]),
                down_up_ratio=float(v[8]),
                label=SCAN_LABEL,
            )
        )
    return out
