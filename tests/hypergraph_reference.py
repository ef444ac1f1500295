"""The per-record builder that made the port hypergraph before
`build_hypergraph` sorted incidence arrays: each record adds its
destination port to its source edge and then to its destination edge,
one set insertion at a time, and an edge seen in both roles becomes
BOTH. Kept as the reference for differential tests of
`hgnids.hypergraph`; too slow for large windows.
"""

from __future__ import annotations

from typing import AbstractSet, Mapping

from hgnids.flows import Dataset
from hgnids.hypergraph import EdgeRole


def build(data: Dataset) -> tuple[dict[str, set[int]], dict[str, EdgeRole]]:
    """Each IP's port set and role, in first-seen order."""
    edges: dict[str, set[int]] = {}
    roles: dict[str, EdgeRole] = {}

    def add(ip: str, port: int, role: EdgeRole) -> None:
        members = edges.get(ip)
        if members is None:
            edges[ip] = {port}
            roles[ip] = role
        else:
            members.add(port)
            if roles[ip] is not role:
                roles[ip] = EdgeRole.BOTH

    for rec in data:
        add(rec.src_ip, rec.dst_port, EdgeRole.SOURCE)
        add(rec.dst_ip, rec.dst_port, EdgeRole.DEST)
    return edges, roles


def overlap_rows(edges: Mapping[str, AbstractSet[int]]) -> list[tuple[int, int, int]]:
    """(a, b, shared) for every pair of edges a < b, by position, that
    share a port, from set intersections."""
    members = list(edges.values())
    return [
        (a, b, len(members[a] & members[b]))
        for a in range(len(members))
        for b in range(a + 1, len(members))
        if members[a] & members[b]
    ]
