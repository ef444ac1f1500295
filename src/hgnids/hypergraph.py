"""IP/port hypergraph construction and s-closeness-centrality metrics.

The hypergraph abstracts a window of flow records: every destination port
is a vertex, and every IP address (source or destination) is a hyperedge
containing the ports it touched. Two hyperedges are s-adjacent when they
share at least s vertices; s-paths, s-distances, s-components and the
s-closeness centrality

    C_s(e) = (|E| - 1) / sum of s-distances from e to the edges of its
             s-component E

all derive from that relation. A scanning source/target pair shows up as
two near-identical large hyperedges whose tail centralities (large s)
lock to 1, which is the signature the rest of the package exploits.

All metrics come from one kernel over integer edge ids. A hypergraph's
state is its sorted incidence arrays: edge names in id order, a CSR
`ptr`/`ports` pair with each edge's ports ascending, and one role per
edge; `edges` is a name -> port set view built on read. An edge's id is
its row in every per-edge array, `edge_profiles` included, and
`build_hypergraph` takes a dataset's address ids as edge ids.
Edges with one port set are twins: on first use they are grouped into
classes numbered by first edge id. The overlap relation is one int32
table of (a, b, shared) rows, built once per hypergraph by counting, for
the first edge of each class, the edges at each of its ports, in
O(pairs + incidences) memory; its twins reuse that count. The kernel
reads only the rows between first edges, the class overlap table. For
each s, the BFS nodes are the classes of size >= s with a class
neighbour at s or at least two members (twins of size >= s are 1
apart), and an edge of class A, whose m_A edges lie at class distance
d(A, B) from the m_B edges of class B, has

    C_s = (sum of m_B over A's component - 1)
          / ((m_A - 1) + sum over B != A of m_B * d(A, B)),

the two integers the edge-level BFS divided. A level-synchronous BFS
from a chunk of sources at once takes one product per level with the
transient dense adjacency of the n_s node classes. Per s, memory is that
[n_s, n_s] adjacency plus BFS blocks of chunk * n_s cells (chunk is
_CHUNK_CELLS // n_s sources, or n_s // 16 when that is more, so a large
sweep reads the adjacency at most 17 times per level), and no distance
matrix is kept: what stays cached is two per-edge arrays, C_s and the
component id, numbered by the smallest edge id in each component.
`s_distance` runs a one-source BFS over the class graph on demand.
`edge_profiles` stacks the cached closeness arrays of the 11 scheduled s
into one [n_edges, 11] table, the only form in which the feature encoder
and the detector read centralities; `centrality_profile` is the one-edge
view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .flows import Dataset

SCHEDULE_BASE = 3
SCHEDULE_STEPS = 11
# Bound on the cells of one source chunk's frontier and distance blocks,
# for graphs of up to 512 edges; a larger graph sweeps in about 16 chunks.
_CHUNK_CELLS = 1 << 14
# Ports lie in 0..65535, so edge * _PORT_SPAN + port packs an incidence.
_PORT_SPAN = 1 << 16


class EdgeRole(Enum):
    SOURCE = "SOURCE"
    DEST = "DEST"
    BOTH = "BOTH"


class Hypergraph:
    """Immutable incidence arrays over integer edge ids, and nothing else:
    edge i is the IP names[i] with role roles[i] and the ascending ports
    ports[ptr[i]:ptr[i + 1]]. The constructor takes the (edge[j], port[j])
    incidences in any order, with repeats."""

    def __init__(self, names: Sequence[str], edge, port, roles: Sequence[EdgeRole]):
        key = np.sort(np.asarray(edge, np.int64) * _PORT_SPAN + np.asarray(port, np.int64))
        key = key[np.diff(key, prepend=-1) > 0]  # each (edge, port) incidence once
        edge_of, self.ports = np.divmod(key, _PORT_SPAN)
        self.ptr = np.searchsorted(edge_of, np.arange(len(names) + 1))
        self.ports.flags.writeable = self.ptr.flags.writeable = False
        self.names = tuple(names)
        self.roles = tuple(roles)
        self._table: np.ndarray | None = None
        self._row_ptr: np.ndarray | None = None
        self._ids: dict[str, int] | None = None
        self._classes: tuple[np.ndarray, ...] | None = None
        self._class_table: np.ndarray | None = None
        self._lines: dict[int, _SLineGraph] = {}

    def __len__(self) -> int:
        return len(self.names)

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.ptr)

    @property
    def vertices(self) -> set[int]:
        return set(self.ports.tolist())

    @property
    def edges(self) -> Mapping[str, frozenset[int]]:
        """Each IP's port set, as a read-only view built on every read."""
        ports, ptr = self.ports.tolist(), self.ptr.tolist()
        return MappingProxyType({ip: frozenset(ports[lo:hi]) for ip, lo, hi in zip(self.names, ptr, ptr[1:])})

    def edge_ids(self) -> dict[str, int]:
        """Each IP's integer edge id: its index in `names`."""
        if self._ids is None:
            self._ids = {ip: i for i, ip in enumerate(self.names)}
        return self._ids

    def max_edge_size(self) -> int:
        return int(self.sizes.max()) if len(self) else 0

    def overlaps(self) -> np.ndarray:
        """Every pair of edges sharing >= 1 port, as a cached read-only
        [n_pairs, 3] int32 table of (a, b, shared) rows sorted by (a, b):
        a < b are edge ids and shared is the number of ports the two edges
        have in common. Twins share one count."""
        if self._table is None:
            n = len(self)
            # incidences by port, then edge id; each spans its port's group
            by_port = np.argsort(self.ports, kind="stable")
            incident = np.repeat(np.arange(n), self.sizes)[by_port]
            start, end = (np.searchsorted(self.ports[by_port], self.ports, side) for side in ("left", "right"))
            of_edge, first, _ = _twin_classes(self)
            lead, ptr = (first[of_edge] == np.arange(n)).tolist(), self.ptr.tolist()
            rows = [np.empty((0, 3), np.int32)] * (n + 1)
            for a in np.argsort(of_edge, kind="stable").tolist():  # each class's first edge leads it
                if lead[a]:
                    # shared[b]: the number of ports edge a and each of its twins share with edge b
                    shared = np.bincount(incident[_ranges(start[ptr[a]:ptr[a + 1]], end[ptr[a]:ptr[a + 1]])],
                                         minlength=n)
                    b = a + 1 + np.flatnonzero(shared[a + 1:])
                    rows[a + 1] = block = np.column_stack((np.full(len(b), a), b, shared[b])).astype(np.int32)
                else:  # a twin's rows are its leader's rows past it
                    rows[a + 1] = row = block[np.searchsorted(b, a, "right"):].copy()
                    row[:, 0] = a
            self._table = np.concatenate(rows)
            self._row_ptr = np.cumsum([0, *map(len, rows[1:])])  # edge a's rows start at _row_ptr[a]
            self._table.flags.writeable = False
        return self._table


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The concatenation of arange(lo[i], hi[i]) over i."""
    n = hi - lo
    return np.repeat(lo + n - np.cumsum(n), n) + np.arange(n.sum())


@dataclass
class SComponentMap:
    s: int
    assignment: dict[str, int]

    def groups(self) -> list[set[str]]:
        byid: dict[int, set[str]] = {}
        for edge, cid in self.assignment.items():
            byid.setdefault(cid, set()).add(edge)
        return [byid[k] for k in sorted(byid)]


@dataclass(frozen=True)
class CentralityProfile:
    edge: str
    schedule: tuple[int, ...]
    values: tuple[float, ...]

    @property
    def total(self) -> float:
        return float(sum(self.values))


@dataclass
class _SLineGraph:
    """One s-line graph swept from every source, indexed by edge id."""

    closeness: np.ndarray  # per edge: C_s, 0 for a singleton
    component: np.ndarray  # per edge: s-component id, numbered in edge id order


def build_hypergraph(data: Dataset) -> Hypergraph:
    """Build the port hypergraph: each record adds its destination port to
    both its source-IP edge and its destination-IP edge. Each edge id is
    the address's id in the dataset."""
    source = np.zeros(len(data.ips), bool)
    dest = np.zeros(len(data.ips), bool)
    source[data.src] = dest[data.dst] = True
    roles = [
        EdgeRole.BOTH if s and d else EdgeRole.SOURCE if s else EdgeRole.DEST
        for s, d in zip(source.tolist(), dest.tolist())
    ]
    return Hypergraph(data.ips, np.concatenate([data.src, data.dst]), np.tile(data.dst_port, 2), roles)


def _bfs(adjacency: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Level-synchronous BFS from every source row at once: the hop count
    from sources[i] to row j at [i, j], -1 where unreachable."""
    at = (np.arange(len(sources)), sources)
    dist = np.full((len(sources), len(adjacency)), -1, np.int32)
    dist[at] = 0
    frontier = np.zeros(dist.shape, np.float32)
    frontier[at] = 1.0
    depth = 0
    while frontier.any():
        depth += 1
        reached = (frontier @ adjacency > 0) & (dist < 0)
        dist[reached] = depth
        frontier = reached.astype(np.float32)
    return dist


def _twin_classes(h: Hypergraph) -> tuple[np.ndarray, ...]:
    """h's edges grouped by port set, once: each edge's class id, then each
    class's first edge id and member count; classes are numbered by first
    edge id."""
    if h._classes is None:
        ports, ptr = h.ports, h.ptr.tolist()
        ids: dict[bytes, int] = {}
        of_edge = np.array([ids.setdefault(ports[lo:hi].tobytes(), len(ids)) for lo, hi in zip(ptr, ptr[1:])],
                           np.int64)
        h._classes = of_edge, *np.unique(of_edge, return_index=True, return_counts=True)[1:]
    return h._classes


def _class_overlaps(h: Hypergraph) -> np.ndarray:
    """The twin classes' overlap table, once: the rows of `overlaps()`
    between first edges, as (A, B, shared) rows over class ids A < B."""
    if h._class_table is None:
        of_edge, first, _ = _twin_classes(h)
        table = h.overlaps()  # sets h._row_ptr
        rows = table[_ranges(h._row_ptr[first], h._row_ptr[first + 1])]
        rows = rows[first[of_edge[rows[:, 1]]] == rows[:, 1]]
        h._class_table = np.column_stack((of_edge[rows[:, 0]], of_edge[rows[:, 1]], rows[:, 2]))
    return h._class_table


def _class_graph(h: Hypergraph, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Each twin class's BFS row at s, -1 for a class of singletons, and
    the float32 adjacency of the rows."""
    _, first, members = _twin_classes(h)
    ia, ib, shared = _class_overlaps(h).T
    keep = shared >= s
    ia, ib = ia[keep], ib[keep]
    row = np.where((h.sizes[first] >= s) & (members > 1), 0, -1)
    row[ia] = row[ib] = 0
    nodes = np.flatnonzero(row == 0)
    row[nodes] = np.arange(len(nodes))
    ra, rb = row[ia], row[ib]
    adjacency = np.zeros((len(nodes), len(nodes)), np.float32)
    adjacency[ra, rb] = adjacency[rb, ra] = 1.0
    return row, adjacency


def _s_line_graph(h: Hypergraph, s: int) -> _SLineGraph:
    """The s-line graph of h, swept from every class once and cached as
    per-edge arrays."""
    if s < 1:
        raise ValueError("s must be >= 1")
    cached = h._lines.get(s)
    if cached is not None:
        return cached
    of_edge, first, members = _twin_classes(h)
    row, adjacency = _class_graph(h, s)
    nodes = np.flatnonzero(row >= 0)
    n = len(nodes)
    weight = members[nodes]
    closeness = np.zeros(len(row))
    root = np.zeros(len(row), np.int64)  # per node class: the smallest edge id in its component
    chunk = max(1, _CHUNK_CELLS // max(n, 1), n // 16)
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        block = _bfs(adjacency, np.arange(n)[rows])
        reached = block >= 0
        # a source's twins lie at distance 1, class B's members at d(A, B)
        hops = block.clip(0) @ weight + weight[rows] - 1
        closeness[nodes[rows]] = (reached @ weight - 1) / hops
        root[nodes[rows]] = first[nodes[reached.argmax(1)]]
    edges = np.arange(len(h))
    root = np.where(row[of_edge] >= 0, root[of_edge], edges)
    component = np.cumsum(root == edges)[root] - 1
    line = h._lines[s] = _SLineGraph(closeness[of_edge], component)
    return line


def s_distance(h: Hypergraph, e: str, f: str, s: int) -> int | None:
    """Length of the shortest s-path from e to f; None when unreachable.
    Twins are 1 apart; other pairs of one component take a one-source BFS
    over the class graph."""
    line = _s_line_graph(h, s)
    ids = h.edge_ids()
    a, b = ids[e], ids[f]
    if a == b:
        return 0
    if line.component[a] != line.component[b]:
        return None
    of_edge = _twin_classes(h)[0]
    if of_edge[a] == of_edge[b]:
        return 1
    row, adjacency = _class_graph(h, s)
    return int(_bfs(adjacency, row[of_edge[[a]]])[0, row[of_edge[b]]])


def s_components(h: Hypergraph, s: int) -> SComponentMap:
    """Connected components of the s-adjacency relation, ids assigned in
    edge id order."""
    line = _s_line_graph(h, s)
    return SComponentMap(s, dict(zip(h.names, line.component.tolist())))


def s_closeness_centrality(h: Hypergraph, e: str, s: int) -> float:
    """C_s(e) over e's s-component; 0 by convention for a singleton."""
    return float(_s_line_graph(h, s).closeness[h.edge_ids()[e]])


def centrality_schedule(k: int) -> tuple[int, ...]:
    if k < 1:
        raise ValueError("skip interval k must be >= 1")
    return tuple(SCHEDULE_BASE + n * k for n in range(SCHEDULE_STEPS))


def centrality_profile(h: Hypergraph, e: str, k: int) -> CentralityProfile:
    """The 11 scheduled s-closeness centralities of e at s = 3, 3+k, ..., 3+10k.

    Scheduled values with s larger than the edge size are zero, since such
    an edge has no s-neighbour.
    """
    schedule = centrality_schedule(k)
    values = tuple(s_closeness_centrality(h, e, s) for s in schedule)
    return CentralityProfile(e, schedule, values)


def edge_profiles(h: Hypergraph, k: int) -> np.ndarray:
    """The profiles of every edge as one float64 [n_edges, 11] table: row i
    is edge id i, column n is C_s at s = 3 + n*k. Each column is a cached
    s-line graph's closeness array, so a repeat call only stacks them."""
    return np.column_stack([_s_line_graph(h, s).closeness for s in centrality_schedule(k)])


def feature_skip_interval(h: Hypergraph) -> int:
    """Spacing k such that the last scheduled s lands near 70% of the
    largest edge size; never below 1."""
    d = h.max_edge_size()
    if d == 0:
        raise ValueError("empty hypergraph has no skip interval")
    return max(1, math.floor((0.7 * d - SCHEDULE_BASE) / (SCHEDULE_STEPS - 1) + 0.5))


def detector_skip_interval(max_size: int) -> int:
    """Spacing used by the online detector: the schedule tops out just
    under the largest edge size."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    return max(1, (max_size - SCHEDULE_BASE) // (SCHEDULE_STEPS - 1))


def incidence_rows(h: Hypergraph) -> list[tuple[str, str, int]]:
    """(edge, role, port) rows for CSV export, by edge id, then port."""
    edge = np.repeat(np.arange(len(h)), h.sizes).tolist()
    return [(h.names[e], h.roles[e].value, port) for e, port in zip(edge, h.ports.tolist())]
