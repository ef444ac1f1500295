"""Differential tests of the shared presorted split search against the
two per-node-sort searches it replaced (tests/split_reference.py)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hgnids.trees import _best_split, _gain, _gini_decrease, _valid_cuts

import split_reference as ref


def _split(Xs, stats, score, min_leaf):
    """_best_split over a tree node that holds Xs: each column as a row of
    sorted values, its valid cuts (None if there is none), and each
    statistic in the same per-column order, stacked as [k, d, n]."""
    order = np.argsort(Xs, axis=0, kind="stable").T
    sv = np.take_along_axis(Xs.T, order, axis=1)
    cuts = _valid_cuts(sv, min_leaf)
    return cuts and _best_split(sv, cuts, np.stack(stats).take(order, axis=1), score)


# Few distinct values, so columns repeat values and cuts tie on score.
_VALUES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 100.0, -3.0])


@st.composite
def _matrices(draw):
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 5))
    cells = draw(st.lists(_VALUES, min_size=n * m, max_size=n * m))
    return np.array(cells, dtype=np.float64).reshape(n, m)


@settings(max_examples=150, deadline=None)
@given(Xs=_matrices(), data=st.data(), min_leaf=st.integers(1, 6))
def test_gini_split_matches_reference(Xs, data, min_leaf):
    labels = data.draw(st.lists(st.integers(0, 1), min_size=len(Xs), max_size=len(Xs)))
    ys = np.array(labels, dtype=np.float64)
    expected = ref.best_split_gini(Xs, ys, min_leaf)
    assert _split(Xs, [ys], _gini_decrease, min_leaf) == expected


@settings(max_examples=150, deadline=None)
@given(Xs=_matrices(), data=st.data(), min_leaf=st.integers(1, 6))
def test_gain_split_matches_reference(Xs, data, min_leaf):
    n = len(Xs)
    # probabilities from a few repeated margins, as in a boosting round
    p = np.array(data.draw(st.lists(st.sampled_from([0.1, 0.5, 0.731, 0.9]), min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.float64)
    g, h = p - y, p * (1.0 - p)
    expected = ref.best_split_gain(Xs, g, h, min_leaf)
    assert _split(Xs, [g, h], _gain, min_leaf) == expected


def test_split_search_finds_splits():
    Xs = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    ys = np.array([0.0, 0.0, 1.0, 1.0])
    assert _split(Xs, [ys], _gini_decrease, 1) == ref.best_split_gini(Xs, ys, 1) == (0, 1.5, 2.0)
