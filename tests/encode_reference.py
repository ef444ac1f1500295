"""The per-record encoder that built feature rows before `features.encode`:
one Python pass per record, with `record_profile` as the endpoint
lookup over a profile map built edge by edge with `centrality_profile`,
so it does not read the profile table that `encode` gathers from. Kept as
the reference for differential tests of `hgnids.features`; too slow for
streaming batches.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from hgnids.features import ATTACK, NORMAL, FeatureMode, FeatureVector, IPPair
from hgnids.flows import FlowRecord
from hgnids.hypergraph import (
    SCHEDULE_STEPS,
    CentralityProfile,
    Hypergraph,
    centrality_profile,
    centrality_schedule,
    feature_skip_interval,
)


def record_profile(
    rec: FlowRecord, profiles: Mapping[str, CentralityProfile]
) -> CentralityProfile:
    """Element-wise maximum of the source and destination edge profiles.

    An IP absent from the map contributes zeros, so a record between two
    unseen endpoints yields an all-zero profile.
    """
    src = profiles.get(rec.src_ip)
    dst = profiles.get(rec.dst_ip)
    edge = f"{rec.src_ip}|{rec.dst_ip}"
    if src is None and dst is None:
        schedule = next((p.schedule for p in profiles.values()), centrality_schedule(1))
        return CentralityProfile(edge, schedule, (0.0,) * len(schedule))
    schedule = (src or dst).schedule
    a = src.values if src is not None else (0.0,) * len(schedule)
    b = dst.values if dst is not None else (0.0,) * len(schedule)
    return CentralityProfile(edge, schedule, tuple(max(x, y) for x, y in zip(a, b)))


def profile_map(hypergraph: Hypergraph) -> dict[str, CentralityProfile]:
    """Every edge's profile at the feature skip interval, one edge at a time."""
    k = feature_skip_interval(hypergraph)
    return {ip: centrality_profile(hypergraph, ip, k) for ip in hypergraph.edges}


def encode_records(
    records: Sequence[FlowRecord],
    mode: FeatureMode,
    hypergraph: Hypergraph | None = None,
    hackers: frozenset[IPPair] | set[IPPair] = frozenset(),
    weights: Sequence[float] | None = None,
) -> list[FeatureVector]:
    profiles = None
    if mode is not FeatureMode.NRF and hypergraph is not None and len(hypergraph):
        profiles = profile_map(hypergraph)
    return [encode_record(r, mode, hypergraph, profiles, hackers, weights) for r in records]


def encode_record(
    rec: FlowRecord,
    mode: FeatureMode,
    hypergraph: Hypergraph | None,
    profiles: Mapping[str, CentralityProfile] | None,
    hackers: frozenset[IPPair] | set[IPPair] = frozenset(),
    weights: Sequence[float] | None = None,
) -> FeatureVector:
    label = ATTACK if rec.label.is_attack else NORMAL
    nrf = rec.nrf()
    if mode is FeatureMode.NRF:
        return FeatureVector(mode, nrf, label, rec)

    if hypergraph is None or len(hypergraph) == 0:
        raise ValueError(f"{mode.value} encoding needs a non-empty hypergraph")

    if weights is not None and rec.pair not in hackers:
        centralities = tuple(float(w) for w in weights)
    else:
        centralities = record_profile(rec, profiles).values
    if len(centralities) != SCHEDULE_STEPS:
        raise ValueError("profile schedule must have 11 entries")
    total = float(sum(centralities))

    if mode is FeatureMode.HGI:
        return FeatureVector(mode, nrf + centralities + (total,), label, rec)

    src_size = float(len(hypergraph.edges.get(rec.src_ip, ())))
    dst_size = float(len(hypergraph.edges.get(rec.dst_ip, ())))
    values = nrf + (centralities[-1], total, src_size, dst_size, src_size + dst_size)
    return FeatureVector(FeatureMode.HGA, values, label, rec)
