"""Native tree learners: bagged random forests and gradient-boosted trees.

Models learn from matrices: `fit(X, y, kind)` takes the arrays of
`features.encode` and reads the feature layout from the width of X;
`train` is its form for FeatureVector rows, an adapter that no pipeline
of the package calls. Both learners grow exact
greedy binary trees with one vectorised split search: columns are
sorted once per fit or tree and partitioned at each split, and the
split statistics (labels, or gradients and hessians) are gathered and
prefix-summed as one array over the valid cuts; each kind brings only
its split score. What does not change is computed once per fit: every
boosting round grows on all rows, so the rounds share the root's sorted
values and valid cuts, and each forest tree takes its bootstrap orders
from a stable sort of the columns' dense integer ranks. Random
forests bag bootstrap samples, subsample features at every split, and
average leaf class fractions; boosted trees fit logistic-loss
gradient/hessian gains with shrinkage, starting from a zero base score
so an empty model predicts 0.5. Ties in the split search break toward
the lower feature index and then the lower threshold, which together
with per-tree seeded streams makes training bit-reproducible. Scoring
walks all of a model's trees at once through one packed node table.

Growth skips work whose result is already fixed, each skip exact: a
boosted node of one gradient and one hessian is a leaf, as a forest node
of one label is (x**2 / (x*h + λ) is convex and 0 at 0, so no cut
gains); boosted columns with equal root orders share one order row
(equal sequences give equal prefix sums); and only a child that will be
searched has its orders partitioned."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import Sequence

import numpy as np

from .features import MODE_WIDTH, FeatureMode, FeatureVector
from .flows import DataFormatError

_GB_LAMBDA = 1.0  # L2 stabiliser on leaf scores
_MIN_GAIN = 1e-12
_WIDTH_MODE = {width: mode for mode, width in MODE_WIDTH.items()}

# A score at or above this calls a flow an attack.
DECISION_THRESHOLD = 0.5


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

    def __post_init__(self):
        """Reject what no fit can use: a count or seed that is not an
        integer, min_leaf 0 grows a degenerate stump, feature_subsample 0
        would silently mean sqrt(d), and a NaN learning rate gives NaN
        scores."""
        lr, sub = self.learning_rate, self.feature_subsample
        whole = [self.n_trees, self.max_depth, self.min_leaf, self.seed] + ([] if sub is None else [sub])
        rules = {
            "integer n_trees, max_depth, min_leaf, seed and feature_subsample":
                all(isinstance(v, int) and not isinstance(v, bool) for v in whole),
            "n_trees >= 0": self.n_trees >= 0,
            "max_depth >= 0": self.max_depth >= 0,
            "min_leaf >= 1": self.min_leaf >= 1,
            "feature_subsample None or >= 1": sub is None or sub >= 1,
            "learning_rate None, or finite and > 0": lr is None or (math.isfinite(lr) and lr > 0),
        }
        broken = [rule for rule, ok in rules.items() if not ok]
        if broken:
            raise ValueError(f"hyperparams need {'; '.join(broken)}: {self}")


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


def _valid_cuts(sv: np.ndarray, min_leaf: int, group: np.ndarray | None = None):
    """(col, cut, flat) of every valid cut of sv, in (column, position)
    order, or None if there is none.

    Row j of sv holds one column's values in stable ascending order. The
    cut after sorted position i of column j must fall between two
    distinct values and leave min_leaf rows on each side; its flat index
    is j * n + i into a row-major [d, n] array, or group[j] * n + i when
    column j's rows are ordered by row group[j] of a shared array.
    """
    n = sv.shape[1]
    if n < 2 * min_leaf:
        return None
    lo, hi = min_leaf - 1, n - min_leaf
    col, cut = np.divmod(np.flatnonzero(sv[:, lo:hi] < sv[:, lo + 1 : hi + 1]), hi - lo)
    if col.size == 0:
        return None
    cut += lo
    return col, cut, (col if group is None else group[col]) * n + cut


def _best_split(sv: np.ndarray, cuts, stats: np.ndarray, score):
    """Best (column, threshold, score) among the valid cuts of sv, or None.

    cuts is _valid_cuts(sv, min_leaf[, group]), not None. stats[k, r]
    holds statistic k of the rows in order row r (the order of sv[j] is
    row j, or group[j]), and is overwritten by its prefix sums; the
    totals come from row 0. score(n, nl, *sums) rates the cuts from their
    left-child row counts nl and, per statistic, the (left prefix sums,
    total) pair.
    """
    col, cut, flat = cuts
    n = sv.shape[1]
    sums = np.cumsum(stats, axis=2, out=stats)
    rated = score(n, cut + 1.0, *[(c.take(flat), c[0, -1]) for c in sums])
    # the first best cut in (column, position) order: ties break toward
    # the lower feature index, then the lower threshold
    best = int(np.argmax(rated))
    if not np.isfinite(rated[best]) or rated[best] <= _MIN_GAIN:
        return None
    j, i = col[best], cut[best]
    return int(j), float((sv[j, i] + sv[j, i + 1]) / 2.0), float(rated[best])


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
    """Boosted-tree score: the regularised gradient/hessian gain
    GL²/(HL+λ) + GR²/(HR+λ) - G²/(H+λ), built in place where it can be:
    fewer cut-sized temporaries to give back to the OS and fault in again."""
    (GL, G), (HL, H) = g, h
    GR, HR = G - GL, H - HL
    gain = GL * GL
    gain /= HL + _GB_LAMBDA
    gain += np.divide(np.multiply(GR, GR, out=GR), np.add(HR, _GB_LAMBDA, out=HR), out=GR)
    gain -= G * G / (H + _GB_LAMBDA)
    return gain


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


def _grow_tree(XT, order, params, rng, kind, stats, buf, lr=1.0, F=None, root=None, group=None):
    """Grow one tree on its root rows, the columns 0..N-1 of XT (one row
    per feature). order[j] lists those positions stably sorted by XT[j],
    and stats[k] holds split statistic k of each position: the labels of
    a forest tree, or a boosting round's gradients and hessians; buf
    holds a node's gathered statistics (len(stats) * order.size). root,
    when given, is the root's sorted values and _valid_cuts, which every
    boosting round shares. group, when given, maps each feature to its
    row of order, which columns of one stable order share. A split
    stable-partitions every row of the node's order, so a child's order
    equals a fresh stable argsort of its rows, ties included; only a
    child that is searched is partitioned. Given the boosting margins F,
    each leaf adds its value to its rows' margins."""
    d, N = XT.shape
    forest = kind is ModelKind.RANDOM_FOREST
    builder = _TreeBuilder()

    def searched(rows, depth):
        """Whether a node is split-searched: not too deep or small, and not
        pure. A forest tests every node, so an empty child still raises."""
        if forest and (yn := stats[0][rows]).min() == yn.max():
            return False
        if depth >= params.max_depth or rows.size < 2 * params.min_leaf:
            return False
        return forest or any(np.count_nonzero(s[rows] != s[rows[0]]) for s in stats)

    rows = np.arange(N)
    stack = [(builder.add(), rows, order if searched(rows, 0) else None, 0)]
    while stack:
        node, rows, order, depth = stack.pop()
        found = None
        if order is not None:
            if forest:
                m = params.feature_subsample or max(1, int(math.sqrt(d)))
                feats = np.sort(rng.choice(d, size=min(m, d), replace=False))
                sub, score = order[feats], _gini_decrease
            else:
                feats, sub, score = np.arange(d), order, _gain
            if depth == 0 and root is not None:
                sv, cuts = root
            else:
                sv = XT.take((sub if group is None else sub[group]) + N * feats[:, None])
                cuts = _valid_cuts(sv, params.min_leaf, group)
            if cuts is not None:
                # one buffer per fit, not a fresh array per node that is freed
                # and faulted in again; "clip" (no index is out of range) is unbuffered
                held = buf[: len(stats) * sub.size].reshape(len(stats), *sub.shape)
                stats.take(sub, axis=1, out=held, mode="clip")
                found = _best_split(sv, cuts, held, score)

        if found is None:
            if forest:
                leaf_value = float(stats[0][rows].mean())
            else:
                leaf_value = lr * float(-stats[0][rows].sum() / (stats[1][rows].sum() + _GB_LAMBDA))
            builder.value[node] = leaf_value
            if F is not None:
                F[rows] += leaf_value
            continue
        feat, thr = int(feats[found[0]]), found[1]
        goes_left = XT[feat] <= thr
        mask = goes_left.take(rows)
        builder.feature[node] = feat
        builder.threshold[node] = thr
        left = builder.add()
        right = builder.add()
        builder.left[node] = left
        builder.right[node] = right
        right_rows, left_rows = rows[~mask], rows[mask]
        search_right, search_left = searched(right_rows, depth + 1), searched(left_rows, depth + 1)
        if search_right or search_left:
            sides = goes_left.take(order).ravel()
        stack.append((right, right_rows, _partition(order, ~sides) if search_right else None, depth + 1))
        stack.append((left, left_rows, _partition(order, sides) if search_left else None, depth + 1))
    return builder.done()


def _partition(order: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Each row of order, stably cut down to the positions keep marks."""
    return order.compress(keep).reshape(len(order), -1)


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """[d, n] ranks of X's columns: equal values (-0.0 and 0.0 included)
    share a rank and ranks follow value order, so a stable argsort of
    any selection of a column's ranks orders those rows as a stable
    argsort of their values does. The key is the smallest unsigned type
    that holds every rank, which numpy sorts by radix below 17 bits."""
    ranks = np.stack([np.unique(col, return_inverse=True)[1] for col in X.T])
    return ranks.astype(np.min_scalar_type(int(ranks.max())))


def fit(
    X: np.ndarray,
    y: np.ndarray,
    kind: ModelKind,
    hyperparams: Hyperparams | None = None,
) -> TreeModel:
    """Train a model on an encoded matrix and its 0/1 labels;
    deterministic under the seed. Only a forest draws from its seed, so a
    boosted model's seed changes no tree."""
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
    yf = y.astype(np.float64)
    if kind is ModelKind.RANDOM_FOREST:
        children = np.random.SeedSequence([params.seed, 0x8F]).spawn(params.n_trees)
        ranks, buf = _dense_ranks(X), np.empty(d * n)
        for child in children:
            rng = np.random.default_rng(child)
            boot = rng.integers(0, n, size=n)
            XT = np.ascontiguousarray(X[boot].T)
            order = np.argsort(ranks[:, boot], axis=1, kind="stable")
            trees.append(_grow_tree(XT, order, params, rng, kind, yf[None, boot], buf))
    else:
        lr = params.learning_rate or default_hyperparams(kind).learning_rate
        F = np.zeros(n, dtype=np.float64)
        XT = np.ascontiguousarray(X.T)
        # every round grows on all rows: the root's orders, sorted values
        # and valid cuts are the same in each
        order = np.argsort(XT, axis=1, kind="stable")
        sv = np.take_along_axis(XT, order, axis=1)
        # group[j]: column j's row of order, one row per distinct order
        ids: dict[bytes, int] = {}
        group = np.array([ids.setdefault(row.tobytes(), len(ids)) for row in order])
        if len(ids) < d:
            order = order[np.unique(group, return_index=True)[1]]
        else:
            group = None
        root, buf = (sv, _valid_cuts(sv, params.min_leaf, group)), np.empty(2 * order.size)
        for _ in range(params.n_trees):
            p = 1.0 / (1.0 + np.exp(-F))
            gh = np.stack([p - yf, p * (1.0 - p)])  # gradients, hessians
            trees.append(_grow_tree(XT, order, params, None, kind, gh, buf, lr, F, root, group))

    return TreeModel(kind, mode, params, d, trees)


def train(
    rows: Sequence[FeatureVector],
    kind: ModelKind,
    hyperparams: Hyperparams | None = None,
) -> TreeModel:
    """`fit` on FeatureVector rows."""
    X = np.array([r.values for r in rows], dtype=np.float64)
    return fit(X, np.array([r.label for r in rows], dtype=np.int64), kind, hyperparams)


_WALK_CELLS = 1 << 16  # (row, tree) cells walked at a time


def _packed(trees: list[_Tree]):
    """The trees as one node table: each tree's children shifted by its
    offset, and each leaf its own child, so a walk may step past it."""
    sizes = [t.feature.size for t in trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature, threshold, left, right, value = (
        np.concatenate([getattr(t, key) for t in trees]) for key, _ in _TREE_ARRAYS
    )
    shift = np.repeat(roots, sizes)
    kids = np.where(feature < 0, np.arange(feature.size), np.stack([left + shift, right + shift]))
    return roots, feature, threshold, kids.T.ravel(), value


def predict_proba_batch(model: TreeModel, X: np.ndarray) -> np.ndarray:
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got shape {X.shape}")
    if not model.trees:
        return np.full(X.shape[0], 0.5)
    roots, feature, threshold, kids, value = _packed(model.trees)
    acc = np.zeros(X.shape[0], dtype=np.float64)
    step = max(1, _WALK_CELLS // len(roots))
    for start in range(0, X.shape[0], step):
        Xc = np.ascontiguousarray(X[start : start + step])
        node = np.tile(roots, (Xc.shape[0], 1))
        row_start = np.arange(0, Xc.size, Xc.shape[1])[:, None]
        while True:
            feat = feature.take(node)
            if not (feat >= 0).any():
                break
            goleft = Xc.take(row_start + feat) <= threshold.take(node)
            node = kids.take(2 * node + ~goleft)
        leaves = value.take(node)
        part = acc[start : start + step]
        for t in range(len(roots)):
            part += leaves[:, t]
    if model.kind is ModelKind.RANDOM_FOREST:
        return acc / len(model.trees)
    return 1.0 / (1.0 + np.exp(-acc))


def evaluate(
    model: TreeModel, X: np.ndarray, y: np.ndarray, threshold: float = DECISION_THRESHOLD
) -> EvalReport:
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
    has every key and the six hyperparams, n_features is the integer width
    of its feature_mode, each tree's five arrays have one length and no NaN,
    a leaf has feature, left and right all -1, and an internal node i
    splits on a feature below n_features with i < left, right < n_nodes, as
    _grow_tree builds them, so every walk down a tree ends at a leaf."""
    try:
        payload = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataFormatError(f"model payload is not JSON: {exc}") from None
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
        params = Hyperparams(**hp)
        trees = [
            _Tree(**{key: np.asarray(t[key], dtype=dtype) for key, dtype in _TREE_ARRAYS})
            for t in payload["trees"]
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"malformed model payload: {exc!r}") from None
    n_features = payload["n_features"]
    if not isinstance(n_features, int) or isinstance(n_features, bool):
        raise DataFormatError(f"model n_features must be an integer, got {n_features!r}")
    if n_features != MODE_WIDTH[mode]:
        raise DataFormatError(
            f"model reads {n_features} features, but the {mode.value} layout has {MODE_WIDTH[mode]}"
        )
    for i, tree in enumerate(trees):
        _check_tree(tree, i, n_features)
    return TreeModel(kind, mode, params, n_features, trees)


def _check_tree(tree: _Tree, i: int, n_features: int) -> None:
    where = f"model tree {i}"
    n = tree.feature.size
    if n == 0 or any(getattr(tree, key).shape != (n,) for key, _ in _TREE_ARRAYS):
        raise DataFormatError(f"{where}: its five arrays need one non-zero length")
    if np.isnan(tree.threshold).any() or np.isnan(tree.value).any():
        raise DataFormatError(f"{where}: a threshold or leaf value is NaN")
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
