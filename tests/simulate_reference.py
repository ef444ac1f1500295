"""The record-based record-set helpers that `simulate`'s id-based ones
replaced: the stratified split, the ballast sample, the retrain set and
the per-batch plan, each passing FlowRecord lists. Kept as the reference
for differential tests: the id versions must pick the same records in
the same order from the same random draws.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from hgnids.flows import Dataset, FlowRecord, remap_ip_pairs
from hgnids.simulate import ConfigError, SimConfig


def build_retrain_set(
    base_pool: Dataset, evaded: Sequence[FlowRecord], ballast_size: int, seed: int
) -> Dataset:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD8]))
    benign_pool = [r for r in base_pool if not r.label.is_attack]
    benign: list[FlowRecord] = []
    if benign_pool and evaded:
        idx = rng.choice(
            len(benign_pool), size=len(evaded), replace=len(benign_pool) < len(evaded)
        )
        benign = [benign_pool[int(i)] for i in idx]
    ballast = stratified_sample(list(base_pool), min(ballast_size, len(base_pool)), rng)
    return Dataset((*evaded, *benign, *ballast), provenance="SYNTHETIC", seed=seed)


def stratified_sample(records: list[FlowRecord], n: int, rng) -> list[FlowRecord]:
    if n >= len(records):
        return list(records)
    attack_idx = [i for i, r in enumerate(records) if r.label.is_attack]
    benign_idx = [i for i, r in enumerate(records) if not r.label.is_attack]
    n_attack = int(math.floor(n * len(attack_idx) / len(records) + 0.5))
    n_attack = min(n_attack, len(attack_idx))
    n_benign = min(n - n_attack, len(benign_idx))
    picked = []
    if attack_idx and n_attack:
        sel = rng.choice(len(attack_idx), size=n_attack, replace=False)
        picked += [attack_idx[int(i)] for i in sel]
    if benign_idx and n_benign:
        sel = rng.choice(len(benign_idx), size=n_benign, replace=False)
        picked += [benign_idx[int(i)] for i in sel]
    return [records[i] for i in sorted(picked)]


def split_records(dataset: Dataset, frac: float, seed: int) -> tuple[Dataset, Dataset]:
    records = list(dataset)
    groups: dict[bool, list[int]] = {}
    for i, r in enumerate(records):
        groups.setdefault(r.label.is_attack, []).append(i)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x51D]))
    head_idx: list[int] = []
    tail_idx: list[int] = []
    for key in sorted(groups):
        idx = groups[key]
        order = rng.permutation(len(idx))
        take = int(math.floor(frac * len(idx) + 0.5))
        shuffled = [idx[int(j)] for j in order]
        head_idx += shuffled[:take]
        tail_idx += shuffled[take:]
    head = Dataset(tuple(records[i] for i in sorted(head_idx)), dataset.provenance, seed)
    tail = Dataset(tuple(records[i] for i in sorted(tail_idx)), dataset.provenance, seed)
    return head, tail


def build_batches_plan(cfg: SimConfig, data: Dataset, adv_records: list[FlowRecord]):
    if cfg.policy.ip_pairs > 1:
        stream_source = remap_ip_pairs(data, cfg.policy.ip_pairs, cfg.seed * 7 + 5)
    else:
        stream_source = data
    attack_pool = [r for r in stream_source.records if r.label.is_attack]
    benign_pool = [r for r in stream_source.records if not r.label.is_attack]
    if not benign_pool:
        raise ConfigError("base data has no benign records to stream")
    if cfg.attack_frac > 0 and not attack_pool:
        raise ConfigError("base data has no attack records to stream")

    def batch(b: int) -> list[FlowRecord]:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xBA7C, b]))
        n_attack = int(math.floor(cfg.batch_size * cfg.attack_frac + 0.5))
        records: list[FlowRecord] = []
        if n_attack:
            idx = rng.integers(0, len(attack_pool), size=n_attack)
            records += [attack_pool[int(i)] for i in idx]
        n_benign = cfg.batch_size - n_attack
        if n_benign:
            idx = rng.integers(0, len(benign_pool), size=n_benign)
            records += [benign_pool[int(i)] for i in idx]
        if adv_records and cfg.adv_per_batch > 0:
            idx = rng.integers(0, len(adv_records), size=cfg.adv_per_batch)
            records += [adv_records[int(i)] for i in idx]
        order = rng.permutation(len(records))
        return [records[int(i)] for i in order]

    return batch
