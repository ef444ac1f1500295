"""Black-box adversarial example generation against a substitute model.

The attacker sees only the nine raw flow features: a gradient-boosted
substitute is fitted on min-max normalised features, then each scan row
is perturbed by zeroth-order coordinate descent. Gradients are estimated
with symmetric differences on the substitute's attack score and the
update steps descend that score inside the unit box; the categorical
protocol coordinate is never touched. Perturbed rows are rescaled to the
original feature ranges, re-scored, and kept only while the substitute
still rates them at or above the keep threshold, labelled as attacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .flows import Dataset, FlowRecord, LabelKind, SCAN_LABEL
from .features import (
    ATTACK, NRF_WIDTH, FeatureMode, FeatureVector, build_matrix, rows_to_arrays, train_test_split,
)
from .trees import ModelKind, TreeModel, default_hyperparams, fit, predict_proba_batch

PROTOCOL_SLOT = 0


@dataclass(frozen=True)
class NormalizationParams:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    @classmethod
    def fit(cls, X: np.ndarray) -> "NormalizationParams":
        return cls(tuple(X.min(axis=0).tolist()), tuple(X.max(axis=0).tolist()))

    def forward(self, values: Sequence[float]) -> np.ndarray:
        x = np.asarray(values, dtype=np.float64)
        lo = np.asarray(self.lo)
        span = np.asarray(self.hi) - lo
        return np.where(span > 0, (x - lo) / np.where(span > 0, span, 1.0), 0.0)

    def inverse(self, values: Sequence[float]) -> np.ndarray:
        z = np.asarray(values, dtype=np.float64)
        lo = np.asarray(self.lo)
        span = np.asarray(self.hi) - lo
        return z * span + lo


@dataclass(frozen=True)
class ZooBudget:
    max_iters: int = 200
    step: float = 0.02
    h: float = 1e-3
    per_coord_batch: int = 2

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.per_coord_batch < 1:
            raise ValueError(f"per_coord_batch must be >= 1, got {self.per_coord_batch}")
        for name in ("step", "h"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass
class ZooResult:
    x: np.ndarray
    query_count: int
    score: float
    moved: bool


@dataclass(frozen=True)
class AdversarialExample:
    vector: FeatureVector
    substitute_score: float
    query_count: int


def fit_substitute(X: np.ndarray, y: np.ndarray, seed: int, hyperparams=None) -> TreeModel:
    """Gradient-boosted substitute on an (already normalised) NRF matrix."""
    if X.ndim != 2 or X.shape[1] != NRF_WIDTH:
        raise ValueError("substitute is trained on NRF rows only")
    params = replace(hyperparams or default_hyperparams(ModelKind.GRADIENT_BOOSTED), seed=seed)
    return fit(X, y, ModelKind.GRADIENT_BOOSTED, params)


# An attack-score oracle: maps a [k, d] array of normalised rows to k scores.
Scorer = Callable[[np.ndarray], np.ndarray]


def _score_one(score: Scorer, x: np.ndarray) -> float:
    return float(score(x[None, :])[0])


def estimate_gradient(score: Scorer, x: np.ndarray, coords: Sequence[int], h: float) -> np.ndarray:
    """Symmetric-difference estimates of d(score)/dx for chosen coords."""
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
    """Coordinate-descent attack on an attack score.

    Coordinates are sampled by importance (recent gradient magnitude);
    each probed coordinate costs two score queries, counted in
    query_count. Updates move against the estimated gradient sign by the
    configured step, clipped to [0, 1]. Stops when the score falls below
    0.5 or the iteration budget runs out; a run that never changes the
    input is reported via the moved flag rather than an error.
    """
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
    """Attack each row, rescale to the original ranges, and keep the
    results the substitute still scores at or above keep_threshold."""
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


def attack_pipeline(
    data: Dataset,
    seed: int = 0,
    budget: ZooBudget | None = None,
    keep_threshold: float = 0.55,
    split_frac: float = 0.85,
    substitute_hyperparams=None,
) -> tuple[list[AdversarialExample], TreeModel, NormalizationParams]:
    """End-to-end generation from a labeled dataset.

    Normalises the raw features, splits 85/15, fits the substitute on the
    train side, and attacks the scan rows of the test side.
    """
    rows = build_matrix(data, None, FeatureMode.NRF)
    params = NormalizationParams.fit(rows_to_arrays(rows)[0])
    train_rows, test_rows = train_test_split(rows, split_frac, seed)
    X, y = rows_to_arrays(train_rows)
    substitute = fit_substitute(params.forward(X), y, seed, substitute_hyperparams)
    scan_rows = [
        r for r in test_rows
        if r.origin is not None and r.origin.label.kind is LabelKind.PORT_SCAN
    ]
    examples = generate_examples(scan_rows, substitute, params, keep_threshold, budget, seed)
    return examples, substitute, params


_ADV_SRC_POOL = tuple(f"203.0.113.{i}" for i in range(1, 17))
_ADV_DST_POOL = tuple(f"198.51.100.{i}" for i in range(1, 17))


def to_flow_records(examples: Sequence[AdversarialExample], seed: int = 0) -> list[FlowRecord]:
    """Materialise kept examples as scan-labelled flow records carrying
    fresh endpoint pairs unseen in the base traffic."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xADE]))
    out = []
    for i, ex in enumerate(examples):
        v = ex.vector.values
        pool_idx = i % len(_ADV_SRC_POOL)
        parent = ex.vector.origin
        dst_port = parent.dst_port if parent is not None else 80
        out.append(
            FlowRecord(
                src_ip=_ADV_SRC_POOL[pool_idx],
                dst_ip=_ADV_DST_POOL[pool_idx],
                src_port=int(rng.integers(1024, 65536)),
                dst_port=dst_port,
                protocol=int(v[0]),
                flow_duration=float(v[1]),
                tot_fwd_pkts=float(v[2]),
                tot_bwd_pkts=float(v[3]),
                tot_fwd_bytes=float(v[4]),
                tot_bwd_bytes=float(v[5]),
                flow_bytes_per_s=float(v[6]),
                flow_pkts_per_s=float(v[7]),
                down_up_ratio=float(v[8]),
                label=SCAN_LABEL,
            )
        )
    return out


def score_distribution(
    entries: Sequence[tuple[str, TreeModel, Callable[[AdversarialExample], Sequence[float]]]],
    examples: Sequence[AdversarialExample],
) -> dict[str, dict]:
    """Sorted score curve and detection fraction per model.

    Each entry carries an encoder mapping an example to that model's
    feature layout, since the models disagree on normalisation and on
    hypergraph context.
    """
    if not examples:
        raise ValueError("no examples to score")
    out: dict[str, dict] = {}
    for name, model, encode in entries:
        X = np.asarray([encode(ex) for ex in examples], dtype=np.float64)
        if X.shape[1] != model.n_features:
            raise ValueError(f"encoder for {name} produced {X.shape[1]} features, "
                             f"model expects {model.n_features}")
        scores = predict_proba_batch(model, X)
        ordered = np.sort(scores)
        out[name] = {
            "scores": ordered.tolist(),
            "detect_fraction": float(np.mean(scores >= 0.5)),
        }
    return out
