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
table of (a, b, shared) rows, one per pair of overlapping classes, a and
b their first edges; a twin shares its first edge's rows. It is built
once per hypergraph by counting, for each class, the classes at each of
its ports, in O(class pairs + class incidences) memory. For each s, its
rows with shared >= s, selected once, give the s-adjacent class pairs.
The BFS nodes are the classes in a pair and the classes of size >= s
with two or more members (twins of size >= s are 1 apart), and an edge
of class A, whose m_A edges lie at class distance d(A, B) from the m_B
edges of class B, has

    C_s = (sum of m_B over A's component - 1)
          / ((m_A - 1) + sum over B != A of m_B * d(A, B)),

the two integers the edge-level BFS divided. The sweep builds from the
pairs a transient dense adjacency of the n_s nodes, and a BFS from a
chunk of sources at once takes one product per level with it. Per s,
memory is that [n_s, n_s] adjacency plus BFS blocks of up to about
max(_CHUNK_CELLS, n_s**2 / 16) cells, so a large sweep reads the
adjacency at most 17 times per level. No distance matrix is kept: what
stays cached is two per-edge arrays, C_s and the component id, numbered
by the smallest edge id in each component.
`s_distance` runs a one-source BFS over a CSR form, built from the same
pairs on its first call at each s and cached as two 1-D arrays. Each
BFS loses the other's workload: a sparse all-sources sweep took 66.9 s
where the dense one took 0.54 s (1,979 nodes), and a dense rebuild per
`s_distance` call added about 25 s to the test suite.
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
    incidences in any order, with repeats. It raises ValueError when a
    name repeats, edge and port differ in length, roles is not one per
    name, an edge id lies outside names, or a port outside 0..65535."""

    def __init__(self, names: Sequence[str], edge, port, roles: Sequence[EdgeRole]):
        if len(set(names)) != len(names):  # every name-keyed answer reads one edge per name
            raise ValueError(f"{len(names) - len(set(names))} repeated edge names")
        edge, port = np.asarray(edge, np.int64), np.asarray(port, np.int64)
        if edge.shape != port.shape or len(roles) != len(names):
            raise ValueError(f"{edge.size} edge ids for {port.size} ports, {len(roles)} roles for {len(names)} names")
        if edge.size and not (0 <= edge.min() <= edge.max() < len(names)
                              and 0 <= port.min() <= port.max() < _PORT_SPAN):
            raise ValueError(f"edge ids must lie in 0..{len(names) - 1} and ports in 0..{_PORT_SPAN - 1}")
        key = np.sort(edge * _PORT_SPAN + port)
        key = key[np.diff(key, prepend=-1) > 0]  # each (edge, port) incidence once
        edge_of, self.ports = np.divmod(key, _PORT_SPAN)
        self.ptr = np.searchsorted(edge_of, np.arange(len(names) + 1))
        self.ports.flags.writeable = self.ptr.flags.writeable = False
        self.names = tuple(names)
        self.roles = tuple(roles)
        self._table: np.ndarray | None = None
        self._ids: dict[str, int] | None = None
        self._classes: tuple[np.ndarray, ...] | None = None
        self._lines: dict[int, _SLineGraph] = {}
        self._csr: dict[int, tuple[np.ndarray, np.ndarray]] = {}

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
        """Every pair of port sets sharing >= 1 port, as a cached read-only
        [n_pairs, 3] int32 table of (a, b, shared) rows sorted by (a, b):
        a < b are the first edges with each port set, and shared is the
        number of ports the two sets have in common. A twin shares its
        first edge's rows."""
        if self._table is None:
            first = _twin_classes(self)[1]
            lo, hi = self.ptr[first], self.ptr[first + 1]
            ports = self.ports[_ranges(lo, hi)]  # each class's ports, by class id
            # incidences by port, then class id; each spans its port's group
            by_port = np.argsort(ports, kind="stable")
            incident = np.repeat(np.arange(len(first)), hi - lo)[by_port]
            start, end = (np.searchsorted(ports[by_port], ports, side) for side in ("left", "right"))
            bounds = [0, *np.cumsum(hi - lo).tolist()]  # class a's incidences are [bounds[a], bounds[a + 1])
            rows = [np.empty((0, 3), np.int64)]
            for a, (i, j) in enumerate(zip(bounds, bounds[1:])):
                shared = np.bincount(incident[_ranges(start[i:j], end[i:j])], minlength=len(first))
                b = a + 1 + np.flatnonzero(shared[a + 1:])
                rows.append(np.column_stack((np.full(len(b), first[a]), first[b], shared[b])))
            self._table = np.concatenate(rows).astype(np.int32)
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


def _class_pairs(h: Hypergraph, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The class ids a < b of every pair of twin classes that share at
    least s ports, in overlap-table order."""
    of_edge = _twin_classes(h)[0]
    ia, ib, shared = h.overlaps().T
    keep = shared >= s
    return of_edge[ia[keep]], of_edge[ib[keep]]


def _s_line_graph(h: Hypergraph, s: int) -> _SLineGraph:
    """The s-line graph of h, swept from every class once and cached as
    per-edge arrays."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if s in h._lines:
        return h._lines[s]
    of_edge, first, members = _twin_classes(h)
    a, b = _class_pairs(h, s)
    node = (h.sizes[first] >= s) & (members > 1)  # per class: whether it is a BFS node
    node[a] = node[b] = True
    row = np.cumsum(node) - 1  # each node class's BFS row, in class order
    nodes = np.flatnonzero(node)
    n = len(nodes)
    adjacency = np.zeros((n, n), np.float32)
    adjacency[row[a], row[b]] = adjacency[row[b], row[a]] = 1.0
    weight = members[nodes]
    closeness = np.zeros(len(first))
    root = np.zeros(len(first), np.int64)  # per node class: the smallest edge id in its component
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
    root = np.where(node[of_edge], root[of_edge], edges)
    component = np.cumsum(root == edges)[root] - 1
    h._lines[s] = _SLineGraph(closeness[of_edge], component)
    return h._lines[s]


def _class_csr(h: Hypergraph, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The class graph at s in CSR form, cached: class c's neighbours are
    nbr[ptr[c]:ptr[c + 1]], from the class pairs at s."""
    if s not in h._csr:
        a, b = _class_pairs(h, s)
        tail, head = np.concatenate([a, b]), np.concatenate([b, a])
        by_tail = np.argsort(tail, kind="stable")
        ptr = np.searchsorted(tail[by_tail], np.arange(len(_twin_classes(h)[1]) + 1))
        h._csr[s] = ptr, head[by_tail]
    return h._csr[s]


def _csr_hops(ptr: np.ndarray, nbr: np.ndarray, a: int, b: int) -> int | None:
    """Hops from node a to node b by a one-source level-synchronous BFS
    over the CSR graph (ptr, nbr); None when b is unreachable."""
    seen = np.zeros(len(ptr) - 1, bool)
    seen[a] = True
    frontier, depth = np.array([a]), 0
    while frontier.size and not seen[b]:
        near = np.zeros_like(seen)
        near[nbr[_ranges(ptr[frontier], ptr[frontier + 1])]] = True
        frontier = np.flatnonzero(near & ~seen)
        seen[frontier] = True
        depth += 1
    return depth if seen[b] else None


def s_distance(h: Hypergraph, e: str, f: str, s: int) -> int | None:
    """Length of the shortest s-path from e to f; None when unreachable.
    Twins are 1 apart; other pairs of one component take a one-source BFS
    over the CSR class graph."""
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
    return _csr_hops(*_class_csr(h, s), of_edge[a], of_edge[b])


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
