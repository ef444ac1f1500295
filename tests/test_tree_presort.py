"""Differential tests of the presorted tree learner and the packed walk
against the per-node-sort learner and the one-tree-at-a-time walk they
replaced (tests/tree_reference.py): same model bytes, same scores, same
errors."""

import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from hgnids import trees
from hgnids.features import MODE_WIDTH, FeatureMode
from hgnids.trees import (
    Hyperparams,
    ModelKind,
    _dense_ranks,
    fit,
    predict_proba_batch,
    serialize_model,
)

import split_reference
import tree_reference as ref

_BELOW_ONE = float(np.nextafter(1.0, 0.0))
_TIES = [-3.0, 0.0, -0.0, 0.5, 1.0, 2.0, 100.0]
# How a column draws its values: few tied values, one constant value,
# two floats one ulp apart, values that rarely repeat, tied values in
# ascending row order (the stable order of a constant column), or an
# earlier column copied or scaled by 8 (its order, with other values).
_COLUMN_KINDS = (
    "ties", "ties", "constant", "adjacent", "spread", "spread", "ascending", "copy", "scaled",
)


def _column(kind, rng, n, earlier):
    if kind in ("copy", "scaled") and earlier:
        source = earlier[rng.integers(len(earlier))]
        return source.copy() if kind == "copy" else source * 8.0
    if kind == "ties":
        return rng.choice(_TIES, size=n)
    if kind == "constant":
        return np.full(n, rng.choice([0.0, 1.0, 7.5]))
    if kind == "adjacent":
        return rng.choice([_BELOW_ONE, 1.0], size=n)
    if kind == "ascending":
        return np.sort(rng.choice(_TIES, size=n))
    return rng.normal(size=n) * 10


def _matrix(columns, rng, n):
    earlier = []
    for kind in columns:
        earlier.append(_column(kind, rng, n, earlier))
    return np.stack(earlier, axis=1)


@st.composite
def _problems(draw):
    kind = draw(st.sampled_from(list(ModelKind)))
    width = MODE_WIDTH[draw(st.sampled_from(list(FeatureMode)))]
    n = draw(st.integers(2, 60))
    columns = draw(st.lists(st.sampled_from(_COLUMN_KINDS), min_size=width, max_size=width))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = _matrix(columns, rng, n)
    if draw(st.booleans()):
        X = X[rng.integers(0, n, size=n)]  # duplicate rows
    y = rng.integers(0, 2, size=n)
    y[:2] = (0, 1)
    subsample = draw(st.one_of(st.none(), st.integers(1, width)))
    lr = None if kind is ModelKind.RANDOM_FOREST else draw(st.sampled_from([0.1, 0.15, 0.5]))
    params = Hyperparams(
        draw(st.integers(1, 4)), draw(st.integers(1, 7)), draw(st.integers(1, 6)), lr, subsample,
        draw(st.integers(0, 2**16)),
    )
    return X, y, kind, params


def _fit_or_error(fit_fn, X, y, kind, params):
    # an empty random-forest child warns (mean of an empty slice), then raises
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return fit_fn(X, y, kind, params)
        except ValueError as exc:
            return exc


@settings(max_examples=150, deadline=None)
@given(problem=_problems())
def test_presorted_fit_matches_reference(problem):
    X, y, kind, params = problem
    expected = _fit_or_error(ref.fit, X, y, kind, params)
    got = _fit_or_error(fit, X, y, kind, params)
    if isinstance(expected, ValueError):
        event("empty random-forest child")
        assert isinstance(got, ValueError) and str(got) == str(expected)
        return
    event(f"{kind.value}, {'splits' if any(t.feature.size > 1 for t in got.trees) else 'stumps'}")
    assert serialize_model(got) == serialize_model(expected)
    probe = np.concatenate([X, np.random.default_rng(0).normal(size=X.shape) * 10])
    assert predict_proba_batch(got, probe).tobytes() == ref.predict_proba_batch(got, probe).tobytes()


def _assert_fit_matches_reference(X, y, kind, params):
    expected = _fit_or_error(ref.fit, X, y, kind, params)
    got = _fit_or_error(fit, X, y, kind, params)
    if isinstance(expected, ValueError):
        assert isinstance(got, ValueError) and str(got) == str(expected)
    else:
        assert serialize_model(got) == serialize_model(expected)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(12, 200), rounds=st.integers(10, 40), min_leaf=st.integers(1, 8),
    data_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**16),
)
def test_boosted_rounds_on_binary_columns_match_reference(n, rounds, min_leaf, data_seed, seed):
    """The desk HGI layout: a few spread and many-valued columns, one
    constant column and eleven binary ones. Every round starts from the
    root's sorted values and valid cuts, computed once per fit."""
    rng = np.random.default_rng(data_seed)
    X = np.concatenate([
        rng.choice([0.0, 1.0, 2.0], size=(n, 1)),
        rng.normal(size=(n, 8)) * 10,
        np.full((n, 1), 1.0),
        rng.integers(0, 2, size=(n, 11)).astype(np.float64),
    ], axis=1)
    assert X.shape[1] == MODE_WIDTH[FeatureMode.HGI]
    y = (X[:, 10] + (rng.random(n) < 0.2) > 0.5).astype(int)
    y[:2] = (0, 1)
    _assert_fit_matches_reference(
        X, y, ModelKind.GRADIENT_BOOSTED, Hyperparams(rounds, 6, min_leaf, 0.15, None, seed)
    )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 400), data=st.data(), seed=st.integers(0, 2**16),
    subsample=st.one_of(st.none(), st.integers(1, 9)),
)
def test_forest_on_tied_and_signed_zero_columns_matches_reference(n, data, seed, subsample):
    """Bootstrap orders come from dense ranks: ties and -0.0/0.0 mixes
    must order rows as a stable argsort of the values does."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kinds = data.draw(st.lists(
        st.sampled_from(["zeros", "ties", "binary", "spread"]), min_size=9, max_size=9
    ))
    pools = {"zeros": [0.0, -0.0], "ties": [-0.0, 0.0, 0.5, 1.0], "binary": [0.0, 1.0]}
    X = np.stack([
        rng.choice(pools[k], size=n) if k in pools else rng.normal(size=n) for k in kinds
    ], axis=1)
    y = rng.integers(0, 2, size=n)
    y[:2] = (0, 1)
    _assert_fit_matches_reference(
        X, y, ModelKind.RANDOM_FOREST,
        Hyperparams(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8)), 1, None,
                    subsample, seed),
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_dense_rank_orders_equal_value_orders(data):
    n = data.draw(st.integers(1, 300))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = rng.choice([-3.0, -0.0, 0.0, 0.5, _BELOW_ONE, 1.0, 1e300], size=(n, 3))
    X[:, 2] = rng.normal(size=n)
    boot = rng.integers(0, n, size=n)
    got = np.argsort(_dense_ranks(X)[:, boot], axis=1, kind="stable")
    assert np.array_equal(got, np.argsort(X[boot].T, axis=1, kind="stable"))


@pytest.mark.parametrize("distinct, key", [(65_536, np.uint16), (65_537, np.uint32)])
def test_rank_key_widens_past_16_bits(distinct, key):
    """A column with more distinct values than a 16-bit key holds gets a
    32-bit key, and the forest still matches the reference."""
    rng = np.random.default_rng(9)
    X = np.zeros((distinct, MODE_WIDTH[FeatureMode.NRF]))
    X[:, 0] = rng.permutation(distinct) - distinct / 2.0
    X[:, 1] = rng.choice([-0.0, 0.0, 1.0], size=distinct)
    assert _dense_ranks(X).dtype == key
    y = (X[:, 0] > 100.0).astype(int)
    _assert_fit_matches_reference(X, y, ModelKind.RANDOM_FOREST, Hyperparams(2, 2, 1, None, 2, 4))


def test_adjacent_float_forest_still_raises():
    """A cut between two floats one ulp apart sends every row left (the
    midpoint rounds up); the empty random-forest child raises, as before."""
    width = MODE_WIDTH[FeatureMode.NRF]
    X = np.zeros((40, width))
    X[:, 0] = [_BELOW_ONE, 1.0] * 20
    y = np.arange(40) % 2
    params = Hyperparams(1, 3, 1, None, width, 0)
    assert isinstance(_fit_or_error(ref.fit, X, y, ModelKind.RANDOM_FOREST, params), ValueError)
    with pytest.raises(ValueError), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit(X, y, ModelKind.RANDOM_FOREST, params)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(12, 300), rounds=st.integers(20, 80), min_leaf=st.integers(1, 5),
    data_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**16),
)
def test_boosted_fit_on_separable_labels_matches_reference(n, rounds, min_leaf, data_seed, seed):
    """One column separates the labels, so after the first split every
    child holds one label and one margin: one gradient and one hessian.
    Such a child becomes a leaf without a search, as the reference's
    search finds no cut there. Copied and scaled columns share orders."""
    rng = np.random.default_rng(data_seed)
    y = rng.integers(0, 2, size=n)
    y[:2] = (0, 1)
    kinds = ["spread", "ties", "copy", "scaled", "constant", "ascending", "ties", "copy", "spread"]
    X = np.concatenate([_matrix(kinds, rng, n)[:, :8], (y + rng.random(n))[:, None]], axis=1)
    _assert_fit_matches_reference(
        X, y, ModelKind.GRADIENT_BOOSTED, Hyperparams(rounds, 4, min_leaf, 0.3, None, seed)
    )


@settings(max_examples=40, deadline=None)
@example(n=100_000, p=0.5, label=1, min_leaf=1, data_seed=0)
@example(n=100_000, p=1e-9, label=1, min_leaf=5, data_seed=1)
@example(n=4_000, p=0.999, label=0, min_leaf=1, data_seed=2)
@given(
    n=st.integers(2, 100_000), p=st.floats(0.0, 1.0), label=st.integers(0, 1),
    min_leaf=st.integers(1, 5), data_seed=st.integers(0, 2**32 - 1),
)
def test_no_cut_of_a_constant_gradient_node_gains(n, p, label, min_leaf, data_seed):
    """The reference search rates no cut of a node whose rows share one
    gradient and one hessian above _MIN_GAIN: x**2 / (x*h + 1) is convex
    and 0 at 0, so splitting never gains. trees skips such nodes."""
    rng = np.random.default_rng(data_seed)
    Xs = np.stack([rng.normal(size=n), rng.choice(_TIES, size=n)], axis=1)
    g, h = np.full(n, p - label), np.full(n, p * (1.0 - p))
    assert split_reference.best_split_gain(Xs, g, h, min_leaf) is None


def _grow_boosted_both(X, g, h, params):
    """One boosted tree grown on all rows of X from the gradients g and
    hessians h, by trees._grow_tree (packed as complex g + h·i) and by the
    reference grower (as two float arrays): each as its five arrays' bytes."""
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable")
    stats = np.empty(len(g), np.complex128)
    stats.real, stats.imag = g, h
    buf = np.empty(order.size, np.complex128)
    lr = params.learning_rate
    got = trees._grow_tree(XT, order, params, None, ModelKind.GRADIENT_BOOSTED, stats, buf, lr)
    expected = ref.grow_tree(X, np.arange(len(g)), params, None, ModelKind.GRADIENT_BOOSTED,
                             g=g, h=h, lr=lr)
    return [[getattr(t, key).tobytes() for key, _ in trees._TREE_ARRAYS] for t in (got, expected)]


# Gradients that mix -0.0 and 0.0 with values whose sums round, so their
# order of summation shows in the bits.
_SIGNED_GRADIENTS = [-0.0, 0.0, -0.0, 0.1, -0.3, 0.7, -0.9]
_HESSIANS = [0.0, 0.09, 0.1971, 0.25, 2.0, 7.5]


@st.composite
def _boosted_nodes(draw, gradients):
    n = draw(st.integers(2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = draw(st.lists(st.sampled_from(_COLUMN_KINDS), min_size=4, max_size=4))
    X = _matrix(columns, rng, n)
    params = Hyperparams(1, draw(st.integers(1, 6)), draw(st.integers(1, 6)), 0.3, None, 0)
    return X, rng.choice(gradients, size=n), rng.choice(_HESSIANS, size=n), params


@settings(max_examples=80, deadline=None)
@given(node=_boosted_nodes(_SIGNED_GRADIENTS))
def test_signed_zero_gradients_grow_the_reference_tree(node):
    """-0.0 and 0.0 gradients keep their signs through the packed prefix
    sums and the leaf sums, and nodes of only signed zeros stay leaves."""
    X, g, h, params = node
    got, expected = _grow_boosted_both(X, g, h, params)
    event("splits" if len(got[0]) > 4 else "stump")  # one int32 feature per node
    assert got == expected


@settings(max_examples=80, deadline=None)
@given(node=_boosted_nodes([-0.3, 0.7, -0.0]))
def test_equal_gradients_with_unequal_hessians_are_searched(node):
    """Every row has one gradient but the hessians differ, so a node is
    not pure and its search can still gain: the purity test compares the
    packed gradient and hessian together."""
    X, g, h, params = node
    g = np.full(len(g), g[0])
    X[:, 0] = h  # a column that separates the hessians
    got, expected = _grow_boosted_both(X, g, h, params)
    event("splits" if len(got[0]) > 4 else "stump")  # one int32 feature per node
    assert got == expected


def test_boosted_empty_child_matches_reference():
    """A cut between two floats one ulp apart sends every row left; a
    boosted tree keeps the empty right child as a leaf, as the reference
    does, and never tests its (absent) gradients."""
    width = MODE_WIDTH[FeatureMode.NRF]
    X = np.zeros((40, width))
    X[:, 0] = [_BELOW_ONE, 1.0] * 20
    y = np.arange(40) % 2
    params = Hyperparams(3, 3, 1, 0.3, None, 0)
    model = fit(X, y, ModelKind.GRADIENT_BOOSTED, params)
    assert model.trees[0].threshold[0] == 1.0  # the degenerate cut
    assert serialize_model(model) == serialize_model(ref.fit(X, y, ModelKind.GRADIENT_BOOSTED, params))


def _count_calls(monkeypatch, name):
    """A list that gains one entry per call of trees.<name>."""
    calls = []
    real = getattr(trees, name)

    def counted(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(trees, name, counted)
    return calls


def test_separable_boosted_fit_searches_only_its_roots(monkeypatch):
    """Every child of a separable boosted root holds one gradient and one
    hessian, so a fit of R rounds makes R split searches and partitions
    no child's orders."""
    rng = np.random.default_rng(5)
    y = np.arange(200) % 2
    X = rng.normal(size=(200, MODE_WIDTH[FeatureMode.HGI]))
    X[:, 4] = y + rng.random(200)
    searches = _count_calls(monkeypatch, "_best_split")
    partitions = _count_calls(monkeypatch, "_partition")
    model = fit(X, y, ModelKind.GRADIENT_BOOSTED, Hyperparams(12, 6, 2, 0.3, None, 0))
    assert len(searches) == 12 and not partitions
    assert all(t.feature.size == 3 for t in model.trees)


@pytest.mark.parametrize("kind,depth", [
    (ModelKind.GRADIENT_BOOSTED, 4), (ModelKind.RANDOM_FOREST, 5), (ModelKind.RANDOM_FOREST, 1),
])
def test_only_searched_children_are_partitioned(monkeypatch, kind, depth):
    """Each partition of a node's orders feeds one child's search: a child
    that ends as a leaf (at max_depth, too small or pure) keeps none."""
    rng = np.random.default_rng(8)
    X = rng.choice([0.0, 0.5, 1.0, 2.0], size=(300, MODE_WIDTH[FeatureMode.NRF]))
    X[:, 1] = rng.normal(size=300)
    y = (X[:, 0] + X[:, 1] + rng.normal(size=300) > 1).astype(int)
    lr = 0.3 if kind is ModelKind.GRADIENT_BOOSTED else None
    searched = _count_calls(monkeypatch, "_valid_cuts")
    partitions = _count_calls(monkeypatch, "_partition")
    model = fit(X, y, kind, Hyperparams(6, depth, 3, lr, None, 1))
    # the root's cuts: once per boosted fit, once per forest tree
    roots = 1 if kind is ModelKind.GRADIENT_BOOSTED else len(model.trees)
    assert len(partitions) == len(searched) - roots
    assert (len(partitions) == 0) == (depth == 1)


@pytest.mark.parametrize("cells", [1, 50, 1 << 16])
def test_packed_walk_in_chunks_matches_reference(monkeypatch, cells):
    """Rows are walked a chunk of (row, tree) cells at a time; any chunk
    size, one row per chunk included, gives the same bytes."""
    rng = np.random.default_rng(3)
    X = rng.choice([0.0, 0.5, 1.0, 2.0], size=(300, MODE_WIDTH[FeatureMode.NRF]))
    X[:, 1] = rng.normal(size=300)
    y = (X[:, 0] + X[:, 1] > 1).astype(int)
    models = [
        fit(X, y, ModelKind.RANDOM_FOREST, Hyperparams(12, 5, 1, None, None, 1)),
        fit(X, y, ModelKind.GRADIENT_BOOSTED, Hyperparams(12, 4, 2, 0.3, None, 1)),
    ]
    monkeypatch.setattr(trees, "_WALK_CELLS", cells)
    for model in models:
        assert predict_proba_batch(model, X).tobytes() == ref.predict_proba_batch(model, X).tobytes()


@settings(max_examples=60, deadline=None)
@given(problem=_problems(), data=st.data())
def test_scores_of_a_row_subset_equal_the_whole_matrix_rows(problem, data):
    """A row's score depends only on the model and that row: scoring any
    selection of rows (repeats, any order) gives the bytes of the same
    rows of a whole-matrix call. The simulation's score cache relies on it."""
    X, y, kind, params = problem
    model = _fit_or_error(fit, X, y, kind, params)
    if isinstance(model, ValueError):
        return
    probe = np.concatenate([X, np.random.default_rng(1).normal(size=X.shape) * 10])
    ids = np.array(data.draw(st.lists(st.integers(0, len(probe) - 1), max_size=3 * len(probe))),
                   dtype=np.intp)
    whole = predict_proba_batch(model, probe)
    assert predict_proba_batch(model, probe[ids]).tobytes() == whole[ids].tobytes()
