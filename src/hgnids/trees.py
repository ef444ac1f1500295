"""Native tree learners: bagged random forests and gradient-boosted trees.

Both learners grow exact greedy binary trees with a vectorised split
search (per-node column sort + prefix sums). Random forests bag bootstrap
samples, subsample features at every split, and average leaf class
fractions; boosted trees fit logistic-loss gradient/hessian gains with
shrinkage, starting from a zero base score so an empty model predicts
0.5. Ties in the split search break toward the lower feature index and
then the lower threshold, which together with per-tree seeded streams
makes training bit-reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from enum import Enum
from typing import Sequence

import numpy as np

from .features import FeatureMode, FeatureVector, rows_to_arrays

_GB_LAMBDA = 1.0  # L2 stabiliser on leaf scores
_MIN_GAIN = 1e-12


class ModelKind(str, Enum):
    RANDOM_FOREST = "RANDOM_FOREST"
    GRADIENT_BOOSTED = "GRADIENT_BOOSTED"


@dataclass(frozen=True)
class Hyperparams:
    n_trees: int
    max_depth: int
    min_leaf: int
    learning_rate: float | None
    feature_subsample: int | None
    seed: int

    def replace_seed(self, seed: int) -> "Hyperparams":
        return Hyperparams(
            self.n_trees, self.max_depth, self.min_leaf,
            self.learning_rate, self.feature_subsample, seed,
        )


def default_hyperparams(kind: ModelKind, seed: int = 0) -> Hyperparams:
    if kind is ModelKind.RANDOM_FOREST:
        return Hyperparams(100, 12, 1, None, None, seed)
    return Hyperparams(200, 6, 20, 0.1, None, seed)


@dataclass
class _Tree:
    feature: np.ndarray   # int32, -1 marks a leaf
    threshold: np.ndarray  # float64
    left: np.ndarray      # int32
    right: np.ndarray     # int32
    value: np.ndarray     # float64 leaf payload


@dataclass
class TreeModel:
    kind: ModelKind
    feature_mode: FeatureMode
    hyperparams: Hyperparams
    n_features: int
    trees: list[_Tree]


@dataclass(frozen=True)
class EvalReport:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    fnp: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, tn: int, fn: int) -> "EvalReport":
        total = tp + fp + tn + fn
        accuracy = (tp + tn) / total if total else 0.0
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        recall = tp / (tp + fn) if (tp + fn) else 0.0
        f1 = (2 * precision * recall / (precision + recall)) if (precision + recall) else 0.0
        fnp = fn / (tp + fn) if (tp + fn) else 0.0
        return cls(tp, fp, tn, fn, accuracy, precision, recall, f1, fnp)

    @classmethod
    def from_predictions(cls, pred, actual) -> "EvalReport":
        """Confusion counts of boolean attack predictions against the truth."""
        pred = np.asarray(pred, dtype=bool)
        actual = np.asarray(actual, dtype=bool)
        return cls.from_counts(
            int(np.sum(pred & actual)),
            int(np.sum(pred & ~actual)),
            int(np.sum(~pred & ~actual)),
            int(np.sum(~pred & actual)),
        )


class TrainingError(ValueError):
    pass


def _best_split_gini(Xs: np.ndarray, ys: np.ndarray, min_leaf: int):
    n, m = Xs.shape
    if n < 2 * min_leaf:
        return None
    order = np.argsort(Xs, axis=0, kind="stable")
    sv = np.take_along_axis(Xs, order, axis=0)
    sy = ys[order]
    cum_pos = np.cumsum(sy, axis=0)
    total_pos = cum_pos[-1, 0]
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    nr = n - nl
    pos_l = cum_pos[:-1]
    pos_r = total_pos - pos_l
    pl = pos_l / nl
    pr = pos_r / nr
    weighted = nl * 2.0 * pl * (1.0 - pl) + nr * 2.0 * pr * (1.0 - pr)
    p0 = total_pos / n
    decrease = n * 2.0 * p0 * (1.0 - p0) - weighted
    valid = (sv[:-1] < sv[1:]) & (nl >= min_leaf) & (nr >= min_leaf)
    decrease = np.where(valid, decrease, -np.inf)
    return _pick_best(decrease, sv)


def _best_split_gain(Xs: np.ndarray, g: np.ndarray, h: np.ndarray, min_leaf: int):
    n, m = Xs.shape
    if n < 2 * min_leaf:
        return None
    order = np.argsort(Xs, axis=0, kind="stable")
    sv = np.take_along_axis(Xs, order, axis=0)
    cg = np.cumsum(g[order], axis=0)
    ch = np.cumsum(h[order], axis=0)
    G = cg[-1, 0]
    H = ch[-1, 0]
    GL, HL = cg[:-1], ch[:-1]
    GR, HR = G - GL, H - HL
    gain = GL * GL / (HL + _GB_LAMBDA) + GR * GR / (HR + _GB_LAMBDA) - G * G / (H + _GB_LAMBDA)
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    valid = (sv[:-1] < sv[1:]) & (nl >= min_leaf) & ((n - nl) >= min_leaf)
    gain = np.where(valid, gain, -np.inf)
    return _pick_best(gain, sv)


def _pick_best(score: np.ndarray, sv: np.ndarray):
    # argmax picks the first (lowest-threshold) row per column and the first
    # (lowest-index) column overall, which fixes the tie-break order
    per_col_row = np.argmax(score, axis=0)
    per_col = score[per_col_row, np.arange(score.shape[1])]
    col = int(np.argmax(per_col))
    best = per_col[col]
    if not np.isfinite(best) or best <= _MIN_GAIN:
        return None
    row = int(per_col_row[col])
    threshold = (sv[row, col] + sv[row + 1, col]) / 2.0
    return col, float(threshold), float(best)


class _TreeBuilder:
    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def add(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def done(self) -> _Tree:
        return _Tree(
            np.asarray(self.feature, dtype=np.int32),
            np.asarray(self.threshold, dtype=np.float64),
            np.asarray(self.left, dtype=np.int32),
            np.asarray(self.right, dtype=np.int32),
            np.asarray(self.value, dtype=np.float64),
        )


def _grow_tree(X, idx, params, rng, kind, y=None, g=None, h=None, lr=1.0):
    d = X.shape[1]
    builder = _TreeBuilder()
    root = builder.add()
    stack = [(root, idx, 0)]
    while stack:
        node, rows, depth = stack.pop()
        if kind is ModelKind.RANDOM_FOREST:
            yn = y[rows]
            leaf_value = float(yn.mean())
            pure = yn.min() == yn.max()
        else:
            gn, hn = g[rows], h[rows]
            leaf_value = lr * float(-gn.sum() / (hn.sum() + _GB_LAMBDA))
            pure = False

        split = None
        if depth < params.max_depth and not pure and rows.size >= 2 * params.min_leaf:
            if kind is ModelKind.RANDOM_FOREST:
                m = params.feature_subsample or max(1, int(math.sqrt(d)))
                feats = np.sort(rng.choice(d, size=min(m, d), replace=False))
                found = _best_split_gini(X[np.ix_(rows, feats)], yn, params.min_leaf)
                if found is not None:
                    split = (int(feats[found[0]]), found[1])
            else:
                found = _best_split_gain(X[rows], gn, hn, params.min_leaf)
                if found is not None:
                    split = (found[0], found[1])

        if split is None:
            builder.value[node] = leaf_value
            continue
        feat, thr = split
        mask = X[rows, feat] <= thr
        builder.feature[node] = feat
        builder.threshold[node] = thr
        left = builder.add()
        right = builder.add()
        builder.left[node] = left
        builder.right[node] = right
        stack.append((right, rows[~mask], depth + 1))
        stack.append((left, rows[mask], depth + 1))
    return builder.done()


def train(
    rows: Sequence[FeatureVector],
    kind: ModelKind,
    hyperparams: Hyperparams | None = None,
) -> TreeModel:
    """Train a model on feature vectors; deterministic under the seed."""
    if len(rows) == 0:
        raise TrainingError("empty training set")
    if len(rows) < 2:
        raise TrainingError("need at least 2 rows")
    X, y = rows_to_arrays(rows)
    if y.min() == y.max():
        raise TrainingError("training set contains a single class")
    params = hyperparams or default_hyperparams(kind)
    mode = rows[0].mode
    n, d = X.shape

    trees: list[_Tree] = []
    if kind is ModelKind.RANDOM_FOREST:
        children = np.random.SeedSequence([params.seed, 0x8F]).spawn(params.n_trees)
        for child in children:
            rng = np.random.default_rng(child)
            boot = rng.integers(0, n, size=n)
            trees.append(_grow_tree(X, boot, params, rng, kind, y=y.astype(np.float64)))
    else:
        rng = np.random.default_rng(np.random.SeedSequence([params.seed, 0x6B]))
        lr = params.learning_rate if params.learning_rate is not None else 0.1
        F = np.zeros(n, dtype=np.float64)
        yf = y.astype(np.float64)
        all_rows = np.arange(n)
        for _ in range(params.n_trees):
            p = 1.0 / (1.0 + np.exp(-F))
            g = p - yf
            h = p * (1.0 - p)
            tree = _grow_tree(X, all_rows, params, rng, kind, g=g, h=h, lr=lr)
            F += _apply_tree(tree, X)
            trees.append(tree)

    return TreeModel(kind, mode, params, d, trees)


def _apply_tree(tree: _Tree, X: np.ndarray) -> np.ndarray:
    node = np.zeros(X.shape[0], dtype=np.int32)
    while True:
        feat = tree.feature[node]
        active = feat >= 0
        if not active.any():
            break
        rows = np.nonzero(active)[0]
        cur = node[rows]
        goleft = X[rows, feat[rows]] <= tree.threshold[cur]
        node[rows] = np.where(goleft, tree.left[cur], tree.right[cur])
    return tree.value[node]


def predict_proba_batch(model: TreeModel, X: np.ndarray) -> np.ndarray:
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got shape {X.shape}")
    if model.kind is ModelKind.RANDOM_FOREST:
        if not model.trees:
            return np.full(X.shape[0], 0.5)
        acc = np.zeros(X.shape[0], dtype=np.float64)
        for tree in model.trees:
            acc += _apply_tree(tree, X)
        return acc / len(model.trees)
    acc = np.zeros(X.shape[0], dtype=np.float64)
    for tree in model.trees:
        acc += _apply_tree(tree, X)
    return 1.0 / (1.0 + np.exp(-acc))


def predict_proba(model: TreeModel, row: FeatureVector | Sequence[float]) -> float:
    values = row.values if isinstance(row, FeatureVector) else tuple(row)
    X = np.asarray([values], dtype=np.float64)
    return float(predict_proba_batch(model, X)[0])


def evaluate(model: TreeModel, rows: Sequence[FeatureVector], threshold: float = 0.5) -> EvalReport:
    """Score rows and report the confusion matrix and derived metrics.

    A probability exactly at the threshold counts as an attack.
    """
    if not rows:
        raise ValueError("cannot evaluate on empty rows")
    X, y = rows_to_arrays(rows)
    return EvalReport.from_predictions(predict_proba_batch(model, X) >= threshold, y == 1)


_FORMAT = "hgnids.tree-model"
_VERSION = 1


def serialize_model(model: TreeModel) -> bytes:
    payload = {
        "format": _FORMAT,
        "version": _VERSION,
        "kind": model.kind.value,
        "feature_mode": model.feature_mode.value,
        "n_features": model.n_features,
        "hyperparams": asdict(model.hyperparams),
        "trees": [
            {
                "feature": t.feature.tolist(),
                "threshold": t.threshold.tolist(),
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "value": t.value.tolist(),
            }
            for t in model.trees
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def deserialize_model(blob: bytes) -> TreeModel:
    payload = json.loads(blob.decode("utf-8"))
    if payload.get("format") != _FORMAT or payload.get("version") != _VERSION:
        raise ValueError("not a recognised model payload")
    params = Hyperparams(**payload["hyperparams"])
    trees = [
        _Tree(
            np.asarray(t["feature"], dtype=np.int32),
            np.asarray(t["threshold"], dtype=np.float64),
            np.asarray(t["left"], dtype=np.int32),
            np.asarray(t["right"], dtype=np.int32),
            np.asarray(t["value"], dtype=np.float64),
        )
        for t in payload["trees"]
    ]
    return TreeModel(
        ModelKind(payload["kind"]),
        FeatureMode(payload["feature_mode"]),
        params,
        int(payload["n_features"]),
        trees,
    )
