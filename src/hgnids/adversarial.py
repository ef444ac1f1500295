"""Black-box adversarial example generation against a substitute model.

The attacker sees only the nine raw flow features. attack_pipeline
splits a dataset's rows by label into index arrays
(`features.stratified_split`), fits a gradient-boosted substitute on the
min-max normalised features of the train side, and hands the test side's
scan rows to generate_examples as one Dataset (`data.take(ids)`). Each
row is perturbed by zeroth-order coordinate descent. The rows descend in
lockstep, one scorer call per step for all of them, and each row's query
count counts its own probes. Gradients are estimated with symmetric
differences on the substitute's attack score and the update steps descend
that score inside the unit box; the categorical protocol coordinate is
never touched. Perturbed rows are rescaled to the original feature ranges,
re-scored, and kept only while the substitute still rates them at or
above the keep threshold, labelled as attacks; a kept example holds its
values and origin record as an NRF FeatureVector. to_dataset turns the
kept examples into a columnar Dataset of scan flows without building a
record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .flows import NRF_FIELDS, DataFormatError, Dataset, LabelKind, SCAN_LABEL, _columns
from .features import ATTACK, NRF_WIDTH, FeatureMode, FeatureVector, encode, stratified_split
from .trees import DECISION_THRESHOLD, ModelKind, TreeModel, default_hyperparams, fit, predict_proba_batch

PROTOCOL_SLOT = NRF_FIELDS.index("protocol")
KEEP_THRESHOLD = 0.55


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


def estimate_gradient(score: Scorer, x: np.ndarray, coords: Sequence[int], h: float) -> np.ndarray:
    """Symmetric-difference estimates of d(score)/dx for chosen coords; a
    [k, d] x gives row i's derivative along coords[i], in one scorer call."""
    coords = np.asarray(coords, dtype=np.intp)
    rows = np.arange(coords.size)
    probes = np.repeat(np.broadcast_to(x, (coords.size, np.shape(x)[-1])), 2, axis=0)
    probes[2 * rows, coords] += h
    probes[2 * rows + 1, coords] -= h
    values = np.asarray(score(probes), dtype=np.float64)
    return (values[0::2] - values[1::2]) / (2.0 * h)


def zoo_attack_batch(
    score: Scorer,
    Z: np.ndarray,
    budget: ZooBudget | None,
    seeds: Sequence[int],
) -> list[ZooResult]:
    """`zoo_attack` on every row of Z at once, row i seeded by seeds[i].

    Each row keeps its own generator and importance weights. For each
    picked coordinate slot one scorer call probes all rows still at or
    above 0.5, and one rescore per iteration drops those now below it.
    Rows are scored independently, so result i equals a one-row run.
    """
    Z0 = np.asarray(Z, dtype=np.float64)
    if Z0.ndim != 2:
        raise ValueError(f"Z must be a 2-D array of rows, got shape {Z0.shape}")
    if len(seeds) != len(Z0):
        raise ValueError(f"need one seed per row, got {len(seeds)} seeds for {len(Z0)} rows")
    budget = budget or ZooBudget()
    cur = Z0.copy()
    coords = np.array([i for i in range(cur.shape[1]) if i != PROTOCOL_SLOT], dtype=np.intp)
    scores = np.asarray(score(cur), dtype=np.float64)
    queries = np.zeros(len(cur), dtype=np.int64)
    active = np.flatnonzero(scores >= DECISION_THRESHOLD) if coords.size else np.empty(0, dtype=np.intp)
    rngs = [np.random.default_rng(np.random.SeedSequence([s, 0x200])) for s in seeds]
    weights = np.ones((len(cur), coords.size), dtype=np.float64)
    batch = min(budget.per_coord_batch, coords.size)
    for _ in range(budget.max_iters):
        if not active.size:
            break
        picked = np.array([rngs[r].choice(coords.size, size=batch, replace=False,
                                          p=weights[r] / weights[r].sum()) for r in active])
        for slot in picked.T:
            cols = coords[slot]
            grad = estimate_gradient(score, cur[active], cols, budget.h)
            queries[active] += 2
            weights[active, slot] = np.abs(grad) + 1e-6
            stepped = np.clip(cur[active, cols] - budget.step * np.sign(grad), 0.0, 1.0)
            cur[active, cols] = np.where(grad != 0.0, stepped, cur[active, cols])
        scores[active] = score(cur[active])
        active = active[scores[active] >= DECISION_THRESHOLD]
    moved = np.any(cur != Z0, axis=1)
    return [ZooResult(cur[i], int(queries[i]), float(scores[i]), bool(moved[i])) for i in range(len(cur))]


def zoo_attack(
    score: Scorer,
    x: Sequence[float],
    budget: ZooBudget | None = None,
    seed: int = 0,
) -> ZooResult:
    """Coordinate-descent attack on an attack score: the one-row case of
    `zoo_attack_batch`, whose rows descend in lockstep.

    Coordinates are sampled by importance (recent gradient magnitude);
    each probed coordinate costs two score queries, counted in
    query_count (in a batch, only the row's own probes). Updates move
    against the estimated gradient sign by the configured step, clipped to
    [0, 1]. Stops when the score falls below 0.5 or the iteration budget
    runs out; a run that never changes the input is reported via the moved
    flag rather than an error.
    """
    return zoo_attack_batch(score, np.atleast_2d(x), budget, [seed])[0]


def generate_examples(
    scans: Dataset,
    substitute: TreeModel,
    params: NormalizationParams,
    keep_threshold: float = KEEP_THRESHOLD,
    budget: ZooBudget | None = None,
    seed: int = 0,
) -> list[AdversarialExample]:
    """Attack the raw features of every row of scans in lockstep, rescale
    to the original ranges, and keep the results the substitute still
    scores at or above keep_threshold."""
    if not len(scans):
        raise ValueError("no rows to attack")
    score = partial(predict_proba_batch, substitute)
    X = scans.nrf
    results = zoo_attack_batch(score, params.forward(X), budget,
                               [seed * 100003 + i for i in range(len(X))])
    raw = np.maximum(params.inverse(np.stack([r.x for r in results])), 0.0)
    raw[:, PROTOCOL_SLOT] = X[:, PROTOCOL_SLOT]
    rescores = score(params.forward(raw))
    return [
        AdversarialExample(FeatureVector(FeatureMode.NRF, tuple(v.tolist()), ATTACK, origin),
                           float(s), result.query_count)
        for origin, result, v, s in zip(scans, results, raw, rescores)
        if s >= keep_threshold
    ]


def attack_pipeline(
    data: Dataset,
    seed: int = 0,
    budget: ZooBudget | None = None,
    keep_threshold: float = KEEP_THRESHOLD,
    substitute_hyperparams=None,
) -> tuple[list[AdversarialExample], TreeModel, NormalizationParams]:
    """End-to-end generation from a labeled dataset.

    Normalises the raw features, splits 85/15, fits the substitute on the
    train side, and attacks the scan rows of the test side.
    """
    X, y = encode(data, FeatureMode.NRF)
    params = NormalizationParams.fit(X)
    train, test = stratified_split(y, 0.85, seed)
    scans = test[data.is_kind(LabelKind.PORT_SCAN)[test]]
    if not scans.size:
        raise DataFormatError("the 85/15 split leaves no port-scan row to attack")
    substitute = fit_substitute(params.forward(X[train]), y[train], seed, substitute_hyperparams)
    examples = generate_examples(data.take(scans), substitute, params, keep_threshold, budget, seed)
    return examples, substitute, params


_ADV_SRC_POOL = tuple(f"203.0.113.{i}" for i in range(1, 17))
_ADV_DST_POOL = tuple(f"198.51.100.{i}" for i in range(1, 17))


def to_dataset(examples: Sequence[AdversarialExample], seed: int = 0) -> Dataset:
    """Kept examples as scan-labelled flows carrying fresh endpoint pairs
    unseen in the base traffic, built as columns: example i takes pair
    i mod 16 of the pools, a random source port and its origin's
    destination port (80 without one)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xADE]))
    n = len(examples)
    pool = [i % len(_ADV_SRC_POOL) for i in range(n)]
    nrf = np.array([ex.vector.values for ex in examples], np.float64).reshape(n, NRF_WIDTH)
    nrf[:, PROTOCOL_SLOT] = np.trunc(nrf[:, PROTOCOL_SLOT])  # an integer protocol
    fields = [
        map(_ADV_SRC_POOL.__getitem__, pool),
        map(_ADV_DST_POOL.__getitem__, pool),
        rng.integers(1024, 65536, size=n),
        [80 if ex.vector.origin is None else ex.vector.origin.dst_port for ex in examples],
        *nrf.T,
        [SCAN_LABEL] * n,
    ]
    return Dataset._from_columns(*_columns(fields, n), provenance="SYNTHETIC", seed=seed)
