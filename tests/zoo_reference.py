"""The per-row ZOO attack that `adversarial.zoo_attack_batch` replaced:
one coordinate descent per row, two single-row scorer calls per probed
coordinate and one rescore per iteration, and a `generate_examples` that
attacks and rescores each scan row on its own. Kept as the reference for
differential tests of the lockstep attack; about 1,700 scorer calls of
1-2 rows each for the 180 desk scan rows.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from hgnids.adversarial import (
    PROTOCOL_SLOT, AdversarialExample, NormalizationParams, Scorer, ZooBudget, ZooResult,
)
from hgnids.features import ATTACK, FeatureMode, FeatureVector
from hgnids.trees import TreeModel, predict_proba_batch


def _score_one(score: Scorer, x: np.ndarray) -> float:
    return float(score(x[None, :])[0])


def estimate_gradient(score: Scorer, x: np.ndarray, coords: Sequence[int], h: float) -> np.ndarray:
    probes = np.repeat(x[None, :], 2 * len(coords), axis=0)
    for i, c in enumerate(coords):
        probes[2 * i, c] = x[c] + h
        probes[2 * i + 1, c] = x[c] - h
    values = np.asarray(score(probes), dtype=np.float64)
    return (values[0::2] - values[1::2]) / (2.0 * h)


def zoo_attack(
    score: Scorer,
    x: Sequence[float],
    budget: ZooBudget | None = None,
    seed: int = 0,
    skip_coords: Sequence[int] = (PROTOCOL_SLOT,),
) -> ZooResult:
    budget = budget or ZooBudget()
    x0 = np.asarray(x, dtype=np.float64)
    current = x0.copy()
    queries = 0
    skip = set(skip_coords)
    coords = [i for i in range(current.size) if i not in skip]
    if not coords or budget.max_iters <= 0:
        return ZooResult(current, 0, _score_one(score, current), False)

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x200]))
    weights = np.ones(len(coords), dtype=np.float64)
    last_score = _score_one(score, current)
    if last_score < 0.5:
        return ZooResult(current, 0, last_score, False)

    batch = min(budget.per_coord_batch, len(coords))
    for _ in range(budget.max_iters):
        p = weights / weights.sum()
        picked = rng.choice(len(coords), size=batch, replace=False, p=p)
        for w_idx in picked:
            c = coords[int(w_idx)]
            grad = estimate_gradient(score, current, [c], budget.h)[0]
            queries += 2
            weights[int(w_idx)] = abs(grad) + 1e-6
            if grad != 0.0:
                current[c] = min(1.0, max(0.0, current[c] - budget.step * np.sign(grad)))
        last_score = _score_one(score, current)
        if last_score < 0.5:
            break

    moved = bool(np.any(current != x0))
    return ZooResult(current, queries, last_score, moved)


def generate_examples(
    scan_test_rows: Sequence[FeatureVector],
    substitute: TreeModel,
    params: NormalizationParams,
    keep_threshold: float = 0.55,
    budget: ZooBudget | None = None,
    seed: int = 0,
) -> list[AdversarialExample]:
    if not scan_test_rows:
        raise ValueError("no rows to attack")
    budget = budget or ZooBudget()
    score = partial(predict_proba_batch, substitute)
    kept: list[AdversarialExample] = []
    for i, row in enumerate(scan_test_rows):
        z = params.forward(row.values)
        result = zoo_attack(score, z, budget, seed=seed * 100003 + i)
        raw = params.inverse(result.x)
        raw = np.maximum(raw, 0.0)
        raw[PROTOCOL_SLOT] = row.values[PROTOCOL_SLOT]
        rescore = _score_one(score, params.forward(raw))
        if rescore >= keep_threshold:
            vector = FeatureVector(FeatureMode.NRF, tuple(raw.tolist()), ATTACK, row.origin)
            kept.append(AdversarialExample(vector, rescore, result.query_count))
    return kept
