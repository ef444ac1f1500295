"""Slow reference implementations of the hypergraph metrics.

Independent of the BFS/overlap-cache code paths: adjacency is recomputed
from raw set intersections, components come from a transitive closure of
the adjacency matrix, and distances from exhaustive enumeration of simple
hyperedge sequences by increasing length. A hypergraph is immutable, so
the adjacency and components of each (hypergraph, s) are computed once
and kept here, apart from the fast kernel's own caches, for as long as
the hypergraph lives. Only suitable for small hypergraphs; used to verify
the fast implementations.
"""

from __future__ import annotations

import weakref

from .hypergraph import Hypergraph

# hypergraph -> s -> (its s-adjacency, its s-components)
_GRAPHS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _graph(h: Hypergraph, s: int) -> tuple[dict[str, set[str]], list[set[str]]]:
    per_s = _GRAPHS.setdefault(h, {})
    if s not in per_s:
        adj = oracle_adjacency(h, s)
        per_s[s] = (adj, _components(h, adj))
    return per_s[s]


def oracle_components(h: Hypergraph, s: int) -> list[set[str]]:
    """Components via transitive closure of the boolean adjacency matrix."""
    return [set(group) for group in _graph(h, s)[1]]


def oracle_adjacency(h: Hypergraph, s: int) -> dict[str, set[str]]:
    edges = h.edges
    names = list(edges)
    adj: dict[str, set[str]] = {ip: set() for ip in names}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if len(edges[a] & edges[b]) >= s:
                adj[a].add(b)
                adj[b].add(a)
    return adj


def _components(h: Hypergraph, adj: dict[str, set[str]]) -> list[set[str]]:
    names = list(h.names)
    n = len(names)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if b in adj[a]:
                reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i = reach[i]
                row_k = reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    groups: list[set[str]] = []
    seen: set[int] = set()
    for i in range(n):
        if i in seen:
            continue
        group = {j for j in range(n) if reach[i][j]}
        seen |= group
        groups.append({names[j] for j in group})
    return groups


def _sequence_exists(adj, cur, target, remaining, visited) -> bool:
    if remaining == 0:
        return cur == target
    for nxt in adj[cur]:
        if nxt not in visited:
            visited.add(nxt)
            if _sequence_exists(adj, nxt, target, remaining - 1, visited):
                visited.discard(nxt)
                return True
            visited.discard(nxt)
    return False


def oracle_distance(h: Hypergraph, e: str, f: str, s: int) -> int | None:
    """Shortest s-path length by enumerating simple sequences of
    increasing length; None when e and f share no component."""
    if e == f:
        return 0
    adj, groups = _graph(h, s)
    for group in groups:
        if e in group:
            if f not in group:
                return None
            break
    for length in range(1, len(h)):
        if _sequence_exists(adj, e, f, length, {e}):
            return length
    return None


def oracle_centrality(h: Hypergraph, e: str, s: int) -> float:
    component = None
    for group in _graph(h, s)[1]:
        if e in group:
            component = group
            break
    assert component is not None
    if len(component) == 1:
        return 0.0
    total = 0
    for f in component:
        d = oracle_distance(h, e, f, s)
        assert d is not None
        total += d
    return (len(component) - 1) / total
