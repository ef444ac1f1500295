"""Seeded generator for the detect-window workload.

One traffic window with a known answer: a few endpoint pairs run port
scans (each sweeping a contiguous port range), and the benign rest talks
to a small set of popular ports across many clients and servers. The
benign endpoints all share those ports, so the window has hundreds of
edges that overlap pairwise, which is what makes s-closeness expensive.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from hgnids.flows import Dataset, synth_traffic

N_PAIRS = 8
SCANS_PER_PAIR = 300
N_BENIGN = 7_600
N_CLIENTS = 300
N_SERVERS = 50

IPPair = tuple[str, str]


@dataclass(frozen=True)
class Window:
    dataset: Dataset
    planted: tuple[IPPair, ...]


def planted_pairs(n_pairs: int) -> tuple[IPPair, ...]:
    return tuple((f"172.16.{i}.1", f"192.168.{100 + i}.50") for i in range(n_pairs))


def _host(prefix: str, i: int) -> str:
    return f"{prefix}.{i // 250}.{i % 250 + 1}"


def make_window(
    seed: int,
    n_pairs: int = N_PAIRS,
    scans_per_pair: int = SCANS_PER_PAIR,
    n_benign: int = N_BENIGN,
    n_clients: int = N_CLIENTS,
    n_servers: int = N_SERVERS,
) -> Window:
    """The window for one seed; the same seed gives the same records in the
    same order. Benign records get endpoints drawn uniformly from the
    client and server pools, and the whole window is shuffled."""
    pairs = planted_pairs(n_pairs)
    scans = synth_traffic("PORT_SCAN", n_pairs * scans_per_pair, pairs, seed)
    benign = synth_traffic("BENIGN", n_benign, [], seed + 1)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x3D7]))
    clients = rng.integers(0, n_clients, size=n_benign)
    servers = rng.integers(0, n_servers, size=n_benign)
    spread = [
        dataclasses.replace(r, src_ip=_host("10.1", int(c)), dst_ip=_host("10.200", int(s)))
        for r, c, s in zip(benign, clients, servers)
    ]
    records = list(scans) + spread
    order = rng.permutation(len(records))
    shuffled = tuple(records[int(i)] for i in order)
    return Window(Dataset(shuffled, provenance="SYNTHETIC", seed=seed), pairs)
