"""Feature matrices for the detection models.

Three layouts share the nine raw flow features (NRF). The HGI layout
appends the 11 scheduled s-closeness centralities of the record's
endpoints plus their sum; the HGA layout appends the last scheduled
centrality and four aggregates (centrality sum, source-edge size,
destination-edge size, and their sum).

`encode` is the one implementation of all three. Every profiled IP gets
an int row id in a [n_profiles + 1, 11] table whose last row is zeros and
stands for an unseen IP; a record's centralities are the element-wise
maximum of its source and destination rows, gathered for the whole batch
at once. In full-dataset mode, records whose endpoint pair is not in the
known-hacker set take a fixed weight vector in the centrality slots
instead. `build_matrix` and `encode_record` wrap the same arrays as
FeatureVector rows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .flows import NRF_FIELDS, FlowRecord
from .hypergraph import (
    CentralityProfile,
    Hypergraph,
    SCHEDULE_STEPS,
    centrality_schedule,
    edge_profiles,
    feature_skip_interval,
)

ATTACK = 1
NORMAL = 0

NRF_WIDTH = 9
HGI_WIDTH = 21
HGA_WIDTH = 14

# Fixed encoding for endpoint pairs not attributed to a hacker, shaped
# like the falling trend of mean benign s-closeness centralities.
NON_HACKER_WEIGHTS: tuple[float, ...] = (
    0.2, 0.15, 0.1, 0.05, 0.04, 0.03, 0.02, 0.01, 0.008, 0.006, 0.005,
)

IPPair = tuple[str, str]


class FeatureMode(str, Enum):
    NRF = "NRF"
    HGI = "HGI"
    HGA = "HGA"


MODE_WIDTH = {FeatureMode.NRF: NRF_WIDTH, FeatureMode.HGI: HGI_WIDTH, FeatureMode.HGA: HGA_WIDTH}


@dataclass(frozen=True)
class FeatureVector:
    mode: FeatureMode
    values: tuple[float, ...]
    label: int
    origin: FlowRecord | None = None

    def __post_init__(self):
        if len(self.values) != MODE_WIDTH[self.mode]:
            raise ValueError(
                f"{self.mode.value} vector needs {MODE_WIDTH[self.mode]} values, got {len(self.values)}"
            )


def zero_profile(schedule: tuple[int, ...], edge: str = "") -> CentralityProfile:
    return CentralityProfile(edge, schedule, (0.0,) * len(schedule))


def record_profile(
    rec: FlowRecord, profiles: Mapping[str, CentralityProfile]
) -> CentralityProfile:
    """Element-wise maximum of the source and destination edge profiles.

    An IP absent from the map contributes zeros, so a record between two
    unseen endpoints yields an all-zero profile.
    """
    src = profiles.get(rec.src_ip)
    dst = profiles.get(rec.dst_ip)
    if src is None and dst is None:
        schedule = _any_schedule(profiles)
        return zero_profile(schedule, f"{rec.src_ip}|{rec.dst_ip}")
    schedule = (src or dst).schedule
    a = src.values if src is not None else (0.0,) * len(schedule)
    b = dst.values if dst is not None else (0.0,) * len(schedule)
    values = tuple(max(x, y) for x, y in zip(a, b))
    return CentralityProfile(f"{rec.src_ip}|{rec.dst_ip}", schedule, values)


def _any_schedule(profiles: Mapping[str, CentralityProfile]) -> tuple[int, ...]:
    for p in profiles.values():
        return p.schedule
    return centrality_schedule(1)


def encode(
    records: Iterable[FlowRecord],
    mode: FeatureMode,
    hypergraph: Hypergraph | None = None,
    profiles: Mapping[str, CentralityProfile] | None = None,
    hackers: frozenset[IPPair] | set[IPPair] = frozenset(),
    weights: Sequence[float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode records in the requested layout: (X [n, width], y [n]).

    Centrality slots are the endpoints' profile rows gathered from one
    table, except that a record whose pair is outside the hacker set takes
    the weight vector when one is supplied. Edge-size aggregates are
    structural lookups in the hypergraph regardless of the weight rule.
    """
    records = tuple(records)
    n = len(records)
    y = np.fromiter((ATTACK if r.label.is_attack else NORMAL for r in records), np.int64, n)
    nrf = np.array([r.nrf() for r in records], dtype=np.float64).reshape(n, NRF_WIDTH)
    if mode is FeatureMode.NRF:
        return nrf, y

    if hypergraph is None or len(hypergraph) == 0:
        raise ValueError(f"{mode.value} encoding needs a non-empty hypergraph")
    if profiles is None:
        profiles = edge_profiles(hypergraph, feature_skip_interval(hypergraph))
    if weights is not None and len(weights) != SCHEDULE_STEPS:
        raise ValueError("weight vector must have 11 entries")
    if any(len(p.values) != SCHEDULE_STEPS for p in profiles.values()):
        raise ValueError("profile schedule must have 11 entries")

    row = {ip: i for i, ip in enumerate(profiles)}
    unseen = len(row)
    table = np.array([p.values for p in profiles.values()] + [(0.0,) * SCHEDULE_STEPS])
    src = np.fromiter((row.get(r.src_ip, unseen) for r in records), np.intp, n)
    dst = np.fromiter((row.get(r.dst_ip, unseen) for r in records), np.intp, n)
    c = np.maximum(table[src], table[dst])
    if weights is not None:
        c[np.fromiter((r.pair not in hackers for r in records), bool, n)] = weights
    # left-to-right column sum, bit-equal to sum() over each row
    total = c[:, 0].copy()
    for j in range(1, SCHEDULE_STEPS):
        total += c[:, j]

    if mode is FeatureMode.HGI:
        return np.column_stack([nrf, c, total]), y
    src_size = np.fromiter((hypergraph.edge_size(r.src_ip) for r in records), np.float64, n)
    dst_size = np.fromiter((hypergraph.edge_size(r.dst_ip) for r in records), np.float64, n)
    return np.column_stack([nrf, c[:, -1], total, src_size, dst_size, src_size + dst_size]), y


def build_matrix(
    dataset: Iterable[FlowRecord],
    hypergraph: Hypergraph | None,
    mode: FeatureMode,
    hackers: frozenset[IPPair] | set[IPPair] = frozenset(),
    weights: Sequence[float] | None = None,
    profiles: Mapping[str, CentralityProfile] | None = None,
) -> list[FeatureVector]:
    """Encode every record of the dataset as a FeatureVector; see encode."""
    records = tuple(dataset)
    X, y = encode(records, mode, hypergraph, profiles, hackers, weights)
    return [
        FeatureVector(mode, tuple(values), label, rec)
        for values, label, rec in zip(X.tolist(), y.tolist(), records)
    ]


def encode_record(
    rec: FlowRecord,
    mode: FeatureMode,
    hypergraph: Hypergraph | None = None,
    profiles: Mapping[str, CentralityProfile] | None = None,
    hackers: frozenset[IPPair] | set[IPPair] = frozenset(),
    weights: Sequence[float] | None = None,
) -> FeatureVector:
    """Encode one record in the requested layout; see encode."""
    return build_matrix((rec,), hypergraph, mode, hackers, weights, profiles)[0]


def rows_to_arrays(rows: Sequence[FeatureVector]) -> tuple[np.ndarray, np.ndarray]:
    X = np.array([r.values for r in rows], dtype=np.float64)
    y = np.array([r.label for r in rows], dtype=np.int64)
    return X, y


def train_test_split(
    rows: Sequence[FeatureVector], frac: float, seed: int
) -> tuple[list[FeatureVector], list[FeatureVector]]:
    """Deterministic stratified split; the train side gets round(frac * n)
    rows overall, allocated per label by largest remainder."""
    if not (0.0 < frac < 1.0):
        raise ValueError("frac must be in (0, 1)")
    if len(rows) < 2:
        raise ValueError("need at least 2 rows to split")

    groups: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(row.label, []).append(i)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5117]))

    target_train = int(math.floor(frac * len(rows) + 0.5))
    labels = sorted(groups)
    quotas = {}
    fractional = []
    for label in labels:
        exact = frac * len(groups[label])
        quotas[label] = int(math.floor(exact))
        fractional.append((exact - math.floor(exact), len(groups[label]), label))
    short = target_train - sum(quotas.values())
    for _, _, label in sorted(fractional, key=lambda t: (-t[0], -t[1], t[2])):
        if short <= 0:
            break
        if quotas[label] < len(groups[label]):
            quotas[label] += 1
            short -= 1

    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in labels:
        order = rng.permutation(len(groups[label]))
        shuffled = [groups[label][j] for j in order]
        train_idx.extend(shuffled[: quotas[label]])
        test_idx.extend(shuffled[quotas[label] :])
    train_order = rng.permutation(len(train_idx))
    test_order = rng.permutation(len(test_idx))
    train = [rows[train_idx[j]] for j in train_order]
    test = [rows[test_idx[j]] for j in test_order]
    return train, test


def matrix_header(mode: FeatureMode) -> list[str]:
    names = list(NRF_FIELDS)
    if mode is FeatureMode.HGI:
        names += [f"scc_{n}" for n in range(SCHEDULE_STEPS)] + ["scc_sum"]
    elif mode is FeatureMode.HGA:
        names += ["scc_last", "scc_sum", "src_edge_size", "dst_edge_size", "edge_size_sum"]
    return names + ["label"]


def write_matrix_csv(rows: Sequence[FeatureVector], path) -> None:
    if not rows:
        raise ValueError("no rows to write")
    mode = rows[0].mode
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(matrix_header(mode))
        for row in rows:
            writer.writerow([repr(v) for v in row.values] + [row.label])
