"""The string-keyed BFS that computed s-closeness before the integer
kernel: one Python BFS per edge per s over neighbour lists built from the
(a, b, shared) rows of every overlapping edge pair, counted by raw set
intersections (`hypergraph_reference.overlap_rows`) once per hypergraph,
with edge ids mapped back to IPs in insertion order. Kept as the reference
for differential tests of `hgnids.hypergraph`; too slow for large windows.
"""

from __future__ import annotations

import weakref
from collections import deque

from hgnids.hypergraph import SCHEDULE_STEPS, Hypergraph, centrality_schedule

import hypergraph_reference

# hypergraph -> its overlap rows between every pair of edges
_ROWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def adjacency_at(h: Hypergraph, s: int) -> dict[str, list[str]]:
    neighbours: dict[str, list[str]] = {ip: [] for ip in h.edges}
    names = list(h.edges)
    if h not in _ROWS:
        _ROWS[h] = hypergraph_reference.overlap_rows(h.edges)
    for ia, ib, count in _ROWS[h]:
        if count >= s:
            a, b = names[ia], names[ib]
            neighbours[a].append(b)
            neighbours[b].append(a)
    return neighbours


def bfs_distances(adjacency: dict[str, list[str]], start: str) -> dict[str, int]:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in adjacency[cur]:
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


def components(h: Hypergraph, s: int) -> dict[str, int]:
    """Component ids assigned in edge insertion order."""
    adjacency = adjacency_at(h, s)
    assignment: dict[str, int] = {}
    n_components = 0
    for edge in h.edges:
        if edge not in assignment:
            for member in bfs_distances(adjacency, edge):
                assignment[member] = n_components
            n_components += 1
    return assignment


def profile_values(h: Hypergraph, k: int) -> dict[str, tuple[float, ...]]:
    """The 11 scheduled s-closeness centralities of every edge."""
    values = {ip: [0.0] * SCHEDULE_STEPS for ip in h.edges}
    for i, s in enumerate(centrality_schedule(k)):
        adjacency = adjacency_at(h, s)
        for ip, members in h.edges.items():
            if len(members) < s:
                continue
            dist = bfs_distances(adjacency, ip)
            n = len(dist)
            if n > 1:
                values[ip][i] = (n - 1) / sum(dist.values())
    return {ip: tuple(vals) for ip, vals in values.items()}
