"""The tree learner that the presorted one in `hgnids.trees` replaced: a
split search that stable-argsorts every column at every node, a grower
that routes original row ids, boosting margins updated by walking each
new tree over the whole matrix, and scoring that walks one tree at a
time. Its split scores are the float ones the complex-packed boosted
search replaced: gradients and hessians summed as separate float arrays.
Kept as the reference for differential tests of the presorted search,
the leaf-row margins and the packed walk.
"""

from __future__ import annotations

import math

import numpy as np

from hgnids.trees import (
    _GB_LAMBDA,
    _TREE_ARRAYS,
    _WIDTH_MODE,
    ModelKind,
    TreeModel,
    _Tree,
)
from split_reference import pick_best


def gini_decrease(n, nl, pos):
    """Gini impurity decrease; pos is the (left label sums, total) pair."""
    pos_l, total_pos = pos
    nr = n - nl
    pl = pos_l / nl
    pr = (total_pos - pos_l) / nr
    weighted = nl * 2.0 * pl * (1.0 - pl) + nr * 2.0 * pr * (1.0 - pr)
    p0 = total_pos / n
    return n * 2.0 * p0 * (1.0 - p0) - weighted


def gain(n, nl, g, h):
    """Gradient/hessian gain; g and h are (left prefix sums, total) pairs."""
    (GL, G), (HL, H) = g, h
    GR, HR = G - GL, H - HL
    return GL * GL / (HL + _GB_LAMBDA) + GR * GR / (HR + _GB_LAMBDA) - G * G / (H + _GB_LAMBDA)


def best_split(Xs: np.ndarray, stats, score, min_leaf: int):
    n = Xs.shape[0]
    if n < 2 * min_leaf:
        return None
    order = np.argsort(Xs, axis=0, kind="stable")
    sv = np.take_along_axis(Xs, order, axis=0)
    sums = [np.cumsum(s[order], axis=0) for s in stats]
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    rated = score(n, nl, *[(c[:-1], c[-1, 0]) for c in sums])
    valid = (sv[:-1] < sv[1:]) & (nl >= min_leaf) & ((n - nl) >= min_leaf)
    return pick_best(np.where(valid, rated, -np.inf), sv)


def grow_tree(X, idx, params, rng, kind, y=None, g=None, h=None, lr=1.0):
    d = X.shape[1]
    nodes = [[-1, 0.0, -1, -1, 0.0]]  # [feature, threshold, left, right, value] per node
    stack = [(0, idx, 0)]
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
                found = best_split(X[np.ix_(rows, feats)], (yn,), gini_decrease, params.min_leaf)
            else:
                feats = np.arange(d)
                found = best_split(X[rows], (gn, hn), gain, params.min_leaf)

        if found is None:
            nodes[node][4] = leaf_value
            continue
        feat, thr = int(feats[found[0]]), found[1]
        mask = X[rows, feat] <= thr
        left, right = len(nodes), len(nodes) + 1
        nodes[node][:4] = feat, thr, left, right
        nodes += [-1, 0.0, -1, -1, 0.0], [-1, 0.0, -1, -1, 0.0]
        stack.append((right, rows[~mask], depth + 1))
        stack.append((left, rows[mask], depth + 1))
    return _Tree(**{key: np.array(col, dtype) for col, (key, dtype) in zip(zip(*nodes), _TREE_ARRAYS)})


def apply_tree(tree: _Tree, X: np.ndarray) -> np.ndarray:
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


def fit(X: np.ndarray, y: np.ndarray, kind: ModelKind, params) -> TreeModel:
    """`trees.fit`'s training loop over the grower above, without its
    input checks."""
    n, d = X.shape
    trees = []
    if kind is ModelKind.RANDOM_FOREST:
        children = np.random.SeedSequence([params.seed, 0x8F]).spawn(params.n_trees)
        for child in children:
            rng = np.random.default_rng(child)
            boot = rng.integers(0, n, size=n)
            trees.append(grow_tree(X, boot, params, rng, kind, y=y.astype(np.float64)))
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
            tree = grow_tree(X, all_rows, params, rng, kind, g=g, h=h, lr=lr)
            F += apply_tree(tree, X)
            trees.append(tree)
    return TreeModel(kind, _WIDTH_MODE[d], params, d, trees)


def predict_proba_batch(model: TreeModel, X: np.ndarray) -> np.ndarray:
    if not model.trees:
        return np.full(X.shape[0], 0.5)
    acc = np.zeros(X.shape[0], dtype=np.float64)
    for tree in model.trees:
        acc += apply_tree(tree, X)
    if model.kind is ModelKind.RANDOM_FOREST:
        return acc / len(model.trees)
    return 1.0 / (1.0 + np.exp(-acc))
