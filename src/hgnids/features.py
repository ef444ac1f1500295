"""Feature matrices for the detection models.

Three layouts share the nine raw flow features (NRF). The HGI layout
appends the 11 scheduled s-closeness centralities of the record's
endpoints plus their sum; the HGA layout appends the last scheduled
centrality and four aggregates (centrality sum, source-edge size,
destination-edge size, and their sum).

`encode` builds one 24-column table per record set: the 9 NRF values,
the 11 centralities, their sum, and the source, destination and summed
edge sizes. Each layout is a fixed set of its columns,
`LAYOUT_COLUMNS[mode]`, so a caller that needs several layouts of the
same records encodes them once (`mode=None`) and each model reads its
own columns. `encode` reads a Dataset's columns: it maps each of the
dataset's addresses to its hypergraph edge id once, then gathers each
record's source and destination rows from the hypergraph's [n_edges, 11]
profile table (`edge_profiles`) through the dataset's integer address
ids, with a zero row appended for an IP the hypergraph has not seen; a
record's centralities are the element-wise maximum of the two rows, for
the whole batch at once. Edge sizes are gathered with the same ids. In
full-dataset mode with the weights on, records whose endpoint pair is not
in the known-hacker set take NON_HACKER_WEIGHTS in the centrality slots
instead. Models are trained, evaluated and attacked on the `(X, y)`
arrays, and `stratified_split` splits them by label into index arrays,
so a caller that needs a row's origin record takes it from its Dataset.
`build_matrix`, `encode_record`, `rows_to_arrays` and `train_test_split`
are adapters over these for FeatureVector rows; no pipeline of the
package calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .flows import NRF_FIELDS, DataFormatError, Dataset, FlowRecord, write_table
from .hypergraph import Hypergraph, SCHEDULE_STEPS, edge_profiles, feature_skip_interval

ATTACK = 1
NORMAL = 0

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


# Each layout's columns of encode's full table: NRF 0:9, centralities
# 9:20, their sum 20, source, destination and summed edge sizes 21:24.
# The NRF and HGI layouts are slices, so selecting them copies nothing.
LAYOUT_COLUMNS = {
    FeatureMode.NRF: slice(0, 9),
    FeatureMode.HGI: slice(0, 21),
    FeatureMode.HGA: np.r_[0:9, 19:24],
}

MODE_WIDTH = {mode: np.arange(24)[columns].size for mode, columns in LAYOUT_COLUMNS.items()}
NRF_WIDTH = MODE_WIDTH[FeatureMode.NRF]


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


def encode(
    data: Dataset,
    mode: FeatureMode | None,
    hypergraph: Hypergraph | None = None,
    hackers: frozenset[IPPair] | set[IPPair] = frozenset(),
    use_weights: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode records in the requested layout: (X [n, width], y [n]);
    mode=None gives the full 24-column table that every layout's
    LAYOUT_COLUMNS index.

    Centrality slots are the endpoints' rows of the hypergraph's profile
    table, except that with use_weights a record whose pair is outside the
    hacker set takes NON_HACKER_WEIGHTS. Edge-size aggregates are
    structural lookups in the hypergraph regardless of the weight rule.
    """
    y = data.is_attack.astype(np.int64)  # ATTACK is 1, NORMAL 0
    if mode is FeatureMode.NRF:
        return data.nrf.copy(), y

    if hypergraph is None or len(hypergraph) == 0:
        layout = "full" if mode is None else mode.value
        raise ValueError(f"{layout} encoding needs a non-empty hypergraph")

    ids = hypergraph.edge_ids()
    unseen = len(ids)  # the appended zero row
    edge_of = np.array([ids.get(ip, unseen) for ip in data.ips], np.intp)
    src, dst = edge_of[data.src], edge_of[data.dst]
    table = edge_profiles(hypergraph, feature_skip_interval(hypergraph))
    table = np.vstack([table, np.zeros(SCHEDULE_STEPS)])
    c = np.maximum(table[src], table[dst])
    if use_weights:
        c[~data.pair_mask(hackers)] = NON_HACKER_WEIGHTS
    # left-to-right column sum, bit-equal to sum() over each row
    total = c[:, 0].copy()
    for j in range(1, SCHEDULE_STEPS):
        total += c[:, j]
    size = np.append(hypergraph.sizes, 0).astype(np.float64)
    src_size, dst_size = size[src], size[dst]
    X = np.column_stack([data.nrf, c, total, src_size, dst_size, src_size + dst_size])
    return (X if mode is None else X[:, LAYOUT_COLUMNS[mode]]), y


def build_matrix(
    data: Dataset,
    hypergraph: Hypergraph | None,
    mode: FeatureMode,
    hackers: frozenset[IPPair] | set[IPPair] = frozenset(),
    use_weights: bool = False,
) -> list[FeatureVector]:
    """Encode every record of the dataset as a FeatureVector; see encode."""
    X, y = encode(data, mode, hypergraph, hackers, use_weights)
    return [
        FeatureVector(mode, tuple(values), label, rec)
        for values, label, rec in zip(X.tolist(), y.tolist(), data)
    ]


def encode_record(
    rec: FlowRecord,
    mode: FeatureMode,
    hypergraph: Hypergraph | None = None,
    hackers: frozenset[IPPair] | set[IPPair] = frozenset(),
    use_weights: bool = False,
) -> FeatureVector:
    """Encode one record in the requested layout; see encode."""
    return build_matrix(Dataset((rec,)), hypergraph, mode, hackers, use_weights)[0]


def rows_to_arrays(rows: Sequence[FeatureVector]) -> tuple[np.ndarray, np.ndarray]:
    X = np.array([r.values for r in rows], dtype=np.float64)
    y = np.array([r.label for r in rows], dtype=np.int64)
    return X, y


def stratified_split(labels: np.ndarray, frac: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic stratified split of rows by label, as (train, test)
    index arrays: the train side gets round(frac * n) rows overall,
    allocated per label by largest remainder. Each label's rows are
    shuffled in sorted label order, then each side is shuffled."""
    if not (0.0 < frac < 1.0):
        raise ValueError("frac must be in (0, 1)")
    if len(labels) < 2:
        raise DataFormatError("need at least 2 rows to split")

    _, label_of, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    exact = frac * sizes
    quotas = np.floor(exact).astype(np.intp)
    # the rows still short go one each to the labels of largest remainder;
    # ties go to the label with more rows, then to the smaller label
    short = int(math.floor(frac * len(labels) + 0.5)) - int(quotas.sum())
    order = np.lexsort((np.arange(len(sizes)), -sizes, -(exact - quotas)))
    quotas[order[quotas[order] < sizes[order]][: max(short, 0)]] += 1

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5117]))
    train, test = [], []
    for k, quota in enumerate(quotas):
        rows = np.flatnonzero(label_of == k)
        rows = rows[rng.permutation(rows.size)]
        train.append(rows[:quota])
        test.append(rows[quota:])
    train, test = np.concatenate(train), np.concatenate(test)
    return train[rng.permutation(train.size)], test[rng.permutation(test.size)]


def train_test_split(
    rows: Sequence[FeatureVector], frac: float, seed: int
) -> tuple[list[FeatureVector], list[FeatureVector]]:
    """`stratified_split` over the rows' labels, as row lists."""
    train, test = stratified_split(np.array([row.label for row in rows]), frac, seed)
    return [rows[i] for i in train], [rows[i] for i in test]


def matrix_header(mode: FeatureMode) -> list[str]:
    names = list(NRF_FIELDS)
    if mode is FeatureMode.HGI:
        names += [f"scc_{n}" for n in range(SCHEDULE_STEPS)] + ["scc_sum"]
    elif mode is FeatureMode.HGA:
        names += ["scc_last", "scc_sum", "src_edge_size", "dst_edge_size", "edge_size_sum"]
    return names + ["label"]


def write_matrix_csv(X: np.ndarray, y: np.ndarray, mode: FeatureMode, path) -> None:
    if len(y) == 0:
        raise ValueError("no rows to write")
    rows = (values + [label] for values, label in zip(X.tolist(), y.tolist()))
    write_table(path, matrix_header(mode), rows, lineterminator="\r\n")
