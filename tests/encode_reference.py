"""The per-record encoder that built feature rows before `features.encode`:
one Python pass per record, with `record_profile` as the endpoint
lookup. Kept as the reference for differential tests of
`hgnids.features`; too slow for streaming batches.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from hgnids.features import ATTACK, NORMAL, FeatureMode, FeatureVector, IPPair, record_profile
from hgnids.flows import FlowRecord
from hgnids.hypergraph import (
    SCHEDULE_STEPS,
    CentralityProfile,
    Hypergraph,
    edge_profiles,
    feature_skip_interval,
)


def encode_record(
    rec: FlowRecord,
    mode: FeatureMode,
    hypergraph: Hypergraph | None = None,
    profiles: Mapping[str, CentralityProfile] | None = None,
    hackers: frozenset[IPPair] | set[IPPair] = frozenset(),
    weights: Sequence[float] | None = None,
) -> FeatureVector:
    label = ATTACK if rec.label.is_attack else NORMAL
    nrf = rec.nrf()
    if mode is FeatureMode.NRF:
        return FeatureVector(mode, nrf, label, rec)

    if hypergraph is None or len(hypergraph) == 0:
        raise ValueError(f"{mode.value} encoding needs a non-empty hypergraph")
    if profiles is None:
        profiles = edge_profiles(hypergraph, feature_skip_interval(hypergraph))

    if weights is not None and rec.pair not in hackers:
        centralities = tuple(float(w) for w in weights)
    else:
        centralities = record_profile(rec, profiles).values
    if len(centralities) != SCHEDULE_STEPS:
        raise ValueError("profile schedule must have 11 entries")
    total = float(sum(centralities))

    if mode is FeatureMode.HGI:
        return FeatureVector(mode, nrf + centralities + (total,), label, rec)

    src_size = float(hypergraph.edge_size(rec.src_ip))
    dst_size = float(hypergraph.edge_size(rec.dst_ip))
    values = nrf + (centralities[-1], total, src_size, dst_size, src_size + dst_size)
    return FeatureVector(FeatureMode.HGA, values, label, rec)
