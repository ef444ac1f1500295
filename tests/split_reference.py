"""The two split searches that `trees._best_split` replaced: one for the
random forest (Gini decrease over labels) and one for boosted trees
(gradient/hessian gain), each with its own per-node sort, prefix sums and
validity mask, and `pick_best`, which chooses among the scores of every
cut (invalid ones at -inf) where `trees._best_split` now rates only the
valid cuts. Kept as the reference for differential tests of the shared
search.
"""

from __future__ import annotations

import numpy as np

from hgnids.trees import _GB_LAMBDA, _MIN_GAIN


def pick_best(score: np.ndarray, sv: np.ndarray):
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


def best_split_gini(Xs: np.ndarray, ys: np.ndarray, min_leaf: int):
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
    return pick_best(decrease, sv)


def best_split_gain(Xs: np.ndarray, g: np.ndarray, h: np.ndarray, min_leaf: int):
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
    return pick_best(gain, sv)
