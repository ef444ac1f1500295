"""Native tree learners: bagged random forests and gradient-boosted trees.

Models learn from matrices: `fit(X, y, kind)` takes the arrays of
`features.encode` and reads the feature layout from the width of X;
`train` is its form for FeatureVector rows. Both learners grow exact
greedy binary trees with one vectorised split search (per-node column
sort + prefix sums); each kind brings only its split score. Random
forests bag bootstrap samples, subsample features at every split, and
average leaf class fractions; boosted trees fit logistic-loss
gradient/hessian gains with shrinkage, starting from a zero base score
so an empty model predicts 0.5. Ties in the split search break toward
the lower feature index and then the lower threshold, which together
with per-tree seeded streams makes training bit-reproducible."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import Sequence

import numpy as np

from .features import MODE_WIDTH, FeatureMode, FeatureVector, rows_to_arrays
from .flows import DataFormatError

_GB_LAMBDA = 1.0  # L2 stabiliser on leaf scores
_MIN_GAIN = 1e-12
_WIDTH_MODE = {width: mode for mode, width in MODE_WIDTH.items()}


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


def _best_split(Xs: np.ndarray, stats, score, min_leaf: int):
    """Best (column, threshold, score) over the columns of Xs, or None.

    score(n, nl, *sums) rates every cut from the left-child row counts nl
    and, per 1-D statistic in stats, its (left prefix sums, total) pair.
    """
    n = Xs.shape[0]
    if n < 2 * min_leaf:
        return None
    order = np.argsort(Xs, axis=0, kind="stable")
    sv = np.take_along_axis(Xs, order, axis=0)
    sums = [np.cumsum(s[order], axis=0) for s in stats]
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    rated = score(n, nl, *[(c[:-1], c[-1, 0]) for c in sums])
    valid = (sv[:-1] < sv[1:]) & (nl >= min_leaf) & ((n - nl) >= min_leaf)
    return _pick_best(np.where(valid, rated, -np.inf), sv)


def _gini_decrease(n, nl, pos):
    """Random-forest score: the Gini impurity decrease; pos sums labels."""
    pos_l, total_pos = pos
    nr = n - nl
    pl = pos_l / nl
    pr = (total_pos - pos_l) / nr
    weighted = nl * 2.0 * pl * (1.0 - pl) + nr * 2.0 * pr * (1.0 - pr)
    p0 = total_pos / n
    return n * 2.0 * p0 * (1.0 - p0) - weighted


def _gain(n, nl, g, h):
    """Boosted-tree score: the regularised gradient/hessian gain."""
    (GL, G), (HL, H) = g, h
    GR, HR = G - GL, H - HL
    return GL * GL / (HL + _GB_LAMBDA) + GR * GR / (HR + _GB_LAMBDA) - G * G / (H + _GB_LAMBDA)


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

        found = None
        if depth < params.max_depth and not pure and rows.size >= 2 * params.min_leaf:
            if kind is ModelKind.RANDOM_FOREST:
                m = params.feature_subsample or max(1, int(math.sqrt(d)))
                feats = np.sort(rng.choice(d, size=min(m, d), replace=False))
                found = _best_split(X[np.ix_(rows, feats)], (yn,), _gini_decrease, params.min_leaf)
            else:
                feats = np.arange(d)
                found = _best_split(X[rows], (gn, hn), _gain, params.min_leaf)

        if found is None:
            builder.value[node] = leaf_value
            continue
        feat, thr = int(feats[found[0]]), found[1]
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


def fit(
    X: np.ndarray,
    y: np.ndarray,
    kind: ModelKind,
    hyperparams: Hyperparams | None = None,
) -> TreeModel:
    """Train a model on an encoded matrix and its 0/1 labels;
    deterministic under the seed."""
    if len(y) == 0:
        raise TrainingError("empty training set")
    if len(y) < 2:
        raise TrainingError("need at least 2 rows")
    if y.min() == y.max():
        raise TrainingError("training set contains a single class")
    if X.ndim != 2 or len(X) != len(y) or X.shape[1] not in _WIDTH_MODE:
        raise TrainingError(f"no feature layout fits a {X.shape} matrix with {len(y)} labels")
    params = hyperparams or default_hyperparams(kind)
    mode = _WIDTH_MODE[X.shape[1]]
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


def train(
    rows: Sequence[FeatureVector],
    kind: ModelKind,
    hyperparams: Hyperparams | None = None,
) -> TreeModel:
    """`fit` on FeatureVector rows."""
    return fit(*rows_to_arrays(rows), kind, hyperparams)


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
    if not model.trees:
        return np.full(X.shape[0], 0.5)
    acc = np.zeros(X.shape[0], dtype=np.float64)
    for tree in model.trees:
        acc += _apply_tree(tree, X)
    if model.kind is ModelKind.RANDOM_FOREST:
        return acc / len(model.trees)
    return 1.0 / (1.0 + np.exp(-acc))


def predict_proba(model: TreeModel, values: Sequence[float]) -> float:
    X = np.asarray([values], dtype=np.float64)
    return float(predict_proba_batch(model, X)[0])


def evaluate(model: TreeModel, X: np.ndarray, y: np.ndarray, threshold: float = 0.5) -> EvalReport:
    """Score a matrix and report the confusion matrix and derived metrics.

    A probability exactly at the threshold counts as an attack.
    """
    if len(y) == 0:
        raise ValueError("cannot evaluate on empty rows")
    return EvalReport.from_predictions(predict_proba_batch(model, X) >= threshold, y == 1)


_FORMAT = "hgnids.tree-model"
_VERSION = 1

_PAYLOAD_KEYS = ("format", "version", "kind", "feature_mode", "n_features", "hyperparams", "trees")
_HYPERPARAM_FIELDS = tuple(f.name for f in fields(Hyperparams))
_TREE_ARRAYS = (
    ("feature", np.int32), ("threshold", np.float64), ("left", np.int32), ("right", np.int32),
    ("value", np.float64),
)


def serialize_model(model: TreeModel) -> bytes:
    payload = {
        "format": _FORMAT,
        "version": _VERSION,
        "kind": model.kind.value,
        "feature_mode": model.feature_mode.value,
        "n_features": model.n_features,
        "hyperparams": asdict(model.hyperparams),
        "trees": [{key: getattr(t, key).tolist() for key, _ in _TREE_ARRAYS} for t in model.trees],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def deserialize_model(blob: bytes) -> TreeModel:
    """Parse serialize_model's bytes. A DataFormatError unless the payload
    has every key and the six hyperparams, n_features is the width of its
    feature_mode, each tree's five arrays have one length, a leaf has
    feature, left and right all -1, and an internal node i splits on a
    feature below n_features with i < left, right < n_nodes, as _grow_tree
    builds them, so every walk down a tree ends at a leaf."""
    payload = json.loads(blob.decode("utf-8"))
    if not isinstance(payload, dict):
        raise DataFormatError("model payload is not a JSON object")
    if payload.get("format") != _FORMAT or payload.get("version") != _VERSION:
        raise DataFormatError("not a recognised model payload")
    missing = [key for key in _PAYLOAD_KEYS if key not in payload]
    if missing:
        raise DataFormatError(f"model payload lacks {missing}")
    hp = payload["hyperparams"]
    if not isinstance(hp, dict) or set(hp) != set(_HYPERPARAM_FIELDS):
        raise DataFormatError(f"model hyperparams need exactly {list(_HYPERPARAM_FIELDS)}")
    try:
        kind, mode = ModelKind(payload["kind"]), FeatureMode(payload["feature_mode"])
        n_features = int(payload["n_features"])
        trees = [
            _Tree(**{key: np.asarray(t[key], dtype=dtype) for key, dtype in _TREE_ARRAYS})
            for t in payload["trees"]
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"malformed model payload: {exc!r}") from None
    if n_features != MODE_WIDTH[mode]:
        raise DataFormatError(
            f"model reads {n_features} features, but the {mode.value} layout has {MODE_WIDTH[mode]}"
        )
    for i, tree in enumerate(trees):
        _check_tree(tree, i, n_features)
    return TreeModel(kind, mode, Hyperparams(**hp), n_features, trees)


def _check_tree(tree: _Tree, i: int, n_features: int) -> None:
    where = f"model tree {i}"
    n = tree.feature.size
    if n == 0 or any(getattr(tree, key).shape != (n,) for key, _ in _TREE_ARRAYS):
        raise DataFormatError(f"{where}: its five arrays need one non-zero length")
    leaf = tree.feature == -1
    if np.any(leaf & ((tree.left != -1) | (tree.right != -1))):
        raise DataFormatError(f"{where}: a leaf (feature -1) must have left and right -1")
    ids = np.arange(n)
    bad = ~leaf & (
        (tree.feature < 0) | (tree.feature >= n_features)
        | (tree.left <= ids) | (tree.left >= n) | (tree.right <= ids) | (tree.right >= n)
    )
    if np.any(bad):
        raise DataFormatError(
            f"{where}: node {int(np.argmax(bad))} needs 0 <= feature < {n_features} "
            f"and children i < left, right < {n}"
        )
