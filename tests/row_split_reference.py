"""The stratified split over FeatureVector rows that `features.train_test_split`
computed before `features.stratified_split` took its place: per-label row
lists, largest-remainder quotas and the same seeded permutations, returning
the rows themselves. Kept as the reference for the split's differential
test.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from hgnids.features import FeatureVector
from hgnids.flows import DataFormatError


def train_test_split(
    rows: Sequence[FeatureVector], frac: float, seed: int
) -> tuple[list[FeatureVector], list[FeatureVector]]:
    """Deterministic stratified split; the train side gets round(frac * n)
    rows overall, allocated per label by largest remainder."""
    if not (0.0 < frac < 1.0):
        raise ValueError("frac must be in (0, 1)")
    if len(rows) < 2:
        raise DataFormatError("need at least 2 rows to split")

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
