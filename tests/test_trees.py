import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hgnids
from hgnids.features import MODE_WIDTH, FeatureMode, FeatureVector, rows_to_arrays
from hgnids.flows import DataFormatError
from hgnids.trees import (
    EvalReport,
    Hyperparams,
    ModelKind,
    TrainingError,
    TreeModel,
    default_hyperparams,
    deserialize_model,
    evaluate,
    fit,
    predict_proba_batch,
    serialize_model,
    train,
)

from helpers import separable_rows, single_leaf_model, split_model


def _walk(tree, x):
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return tree.value[node]


def _oracle_proba(model: TreeModel, X: np.ndarray) -> np.ndarray:
    totals = np.zeros(X.shape[0])
    for tree in model.trees:
        totals += np.array([_walk(tree, x) for x in X])
    if model.kind is ModelKind.RANDOM_FOREST:
        return totals / len(model.trees)
    return 1.0 / (1.0 + np.exp(-totals))


@pytest.mark.parametrize("kind", [ModelKind.RANDOM_FOREST, ModelKind.GRADIENT_BOOSTED])
def test_separable_training(kind):
    rows = separable_rows(200, seed=3)
    train_rows, test_rows = rows[:160], rows[160:]
    model = train(train_rows, kind, default_hyperparams(kind, seed=1))
    assert evaluate(model, *rows_to_arrays(train_rows)).f1 == 1.0
    assert evaluate(model, *rows_to_arrays(test_rows)).f1 >= 0.98


@pytest.mark.parametrize("kind", [ModelKind.RANDOM_FOREST, ModelKind.GRADIENT_BOOSTED])
def test_training_deterministic(kind):
    rows = separable_rows(150, seed=4)
    probe = separable_rows(40, seed=99)
    Xp, _ = rows_to_arrays(probe)
    a = train(rows, kind, default_hyperparams(kind, seed=7))
    b = train(rows, kind, default_hyperparams(kind, seed=7))
    assert serialize_model(a) == serialize_model(b)
    assert np.array_equal(predict_proba_batch(a, Xp), predict_proba_batch(b, Xp))
    c = train(rows, kind, default_hyperparams(kind, seed=8))
    assert serialize_model(a) != serialize_model(c)


def test_single_leaf_stump():
    model = single_leaf_model(0.5)
    assert predict_proba_batch(model, np.array([(0.0,) * 9, (1e9,) * 9])).tolist() == [0.5, 0.5]


def test_gb_zero_trees_predicts_half():
    model = TreeModel(
        ModelKind.GRADIENT_BOOSTED, FeatureMode.NRF,
        default_hyperparams(ModelKind.GRADIENT_BOOSTED), 9, [],
    )
    assert predict_proba_batch(model, np.full((1, 9), 3.0)).tolist() == [0.5]


@pytest.mark.parametrize("kind", [ModelKind.RANDOM_FOREST, ModelKind.GRADIENT_BOOSTED])
def test_traversal_matches_oracle(kind):
    rows = separable_rows(120, seed=11)
    model = train(rows, kind, default_hyperparams(kind, seed=2))
    X, _ = rows_to_arrays(separable_rows(60, seed=12))
    fast = predict_proba_batch(model, X)
    slow = _oracle_proba(model, X)
    assert np.allclose(fast, slow, atol=0)


def test_probabilities_in_unit_interval():
    rows = separable_rows(100, seed=13)
    for kind in ModelKind:
        model = train(rows, kind, default_hyperparams(kind, seed=3))
        scores = predict_proba_batch(model, rows_to_arrays(rows)[0])
        assert np.all(scores >= 0.0)
        assert np.all(scores <= 1.0)


def test_evaluate_perfect_predictor():
    rows = [FeatureVector(FeatureMode.NRF, (float(i),) * 9, 1 if i < 60 else 0)
            for i in range(100)]
    # attack rows have indices < 60, i.e. feature value < 60
    model = _threshold_model(59.5)
    report = evaluate(model, *rows_to_arrays(rows))
    assert (report.tp, report.tn, report.fp, report.fn) == (60, 40, 0, 0)
    assert report.f1 == 1.0
    assert report.fnp == 0.0


def test_evaluate_constant_zero_predictor():
    rows = [FeatureVector(FeatureMode.NRF, (float(i),) * 9, 1 if i < 60 else 0)
            for i in range(100)]
    model = single_leaf_model(0.0)
    report = evaluate(model, *rows_to_arrays(rows))
    assert report.fn == 60
    assert report.fnp == 1.0
    assert report.precision == 0.0


def _threshold_model(threshold):
    from helpers import split_model
    return split_model(1, threshold, 1.0, 0.0)


def test_threshold_inclusive():
    model = single_leaf_model(0.5)
    rows = [FeatureVector(FeatureMode.NRF, (0.0,) * 9, 1)]
    report = evaluate(model, *rows_to_arrays(rows), threshold=0.5)
    assert report.tp == 1  # score exactly at the threshold counts as attack


def test_attack_and_keep_lines_are_compared_only_by_name():
    """No comparison in the package spells out the attack line (0.5) or
    the keep line (0.55): each reads trees.DECISION_THRESHOLD or
    adversarial.KEEP_THRESHOLD."""
    package = Path(hgnids.__file__).parent
    spelled = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare)
        and any(isinstance(c, ast.Constant) and c.value in (0.5, 0.55) for c in ast.walk(node))
    ]
    assert spelled == []


def test_threshold_monotonicity():
    rows = separable_rows(120, seed=21)
    model = train(rows, ModelKind.RANDOM_FOREST, default_hyperparams(ModelKind.RANDOM_FOREST, 5))
    prev_tp, prev_fp = None, None
    for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
        report = evaluate(model, *rows_to_arrays(rows), threshold=threshold)
        if prev_tp is not None:
            assert report.tp <= prev_tp
            assert report.fp <= prev_fp
        prev_tp, prev_fp = report.tp, report.fp


def test_report_consistency():
    rows = separable_rows(90, seed=31)
    model = train(rows, ModelKind.GRADIENT_BOOSTED, default_hyperparams(ModelKind.GRADIENT_BOOSTED, 1))
    report = evaluate(model, *rows_to_arrays(rows))
    recomputed = EvalReport.from_counts(report.tp, report.fp, report.tn, report.fn)
    for name in ("accuracy", "precision", "recall", "f1", "fnp"):
        assert abs(getattr(report, name) - getattr(recomputed, name)) < 1e-12


def test_from_predictions_hand_counts():
    pred = [True, True, False, False, True, False]
    actual = [True, False, False, True, True, False]
    report = EvalReport.from_predictions(pred, actual)
    assert (report.tp, report.fp, report.tn, report.fn) == (2, 1, 2, 1)
    assert report == EvalReport.from_counts(2, 1, 2, 1)
    assert report.precision == 2 / 3
    assert report.recall == 2 / 3
    assert report.fnp == 1 / 3
    assert report.accuracy == 4 / 6


def test_from_predictions_batch_without_attacks():
    report = EvalReport.from_predictions(np.array([False, True, False]), np.zeros(3, bool))
    assert (report.tp, report.fp, report.tn, report.fn) == (0, 1, 2, 0)
    assert (report.precision, report.recall, report.f1, report.fnp) == (0.0, 0.0, 0.0, 0.0)
    assert report.accuracy == 2 / 3


def test_from_predictions_empty_batch():
    report = EvalReport.from_predictions([], [])
    assert report == EvalReport(0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _check_tree_order_invariance(kind):
    rows = separable_rows(100, seed=41)
    model = train(rows, kind, default_hyperparams(kind, 9))
    X, _ = rows_to_arrays(rows[:20])
    before = predict_proba_batch(model, X)
    model.trees.reverse()
    after = predict_proba_batch(model, X)
    assert np.allclose(before, after)
    assert np.array_equal(after, _oracle_proba(model, X))


def test_rf_tree_order_invariance():
    _check_tree_order_invariance(ModelKind.RANDOM_FOREST)


def test_gb_tree_order_invariance():
    _check_tree_order_invariance(ModelKind.GRADIENT_BOOSTED)


@pytest.mark.parametrize("kind", [ModelKind.RANDOM_FOREST, ModelKind.GRADIENT_BOOSTED])
def test_scores_follow_a_replaced_tree(kind):
    """Scoring reads model.trees as it is at each call."""
    lr = None if kind is ModelKind.RANDOM_FOREST else 0.3
    rows = separable_rows(100, seed=42)
    model = train(rows, kind, Hyperparams(6, 4, 1, lr, None, 5))
    X, _ = rows_to_arrays(rows)
    predict_proba_batch(model, X)
    model.trees[2] = train(separable_rows(100, seed=43), kind, Hyperparams(1, 2, 1, lr, None, 6)).trees[0]
    assert np.array_equal(predict_proba_batch(model, X), _oracle_proba(model, X))


def test_dimension_mismatch():
    model = single_leaf_model(0.5, n_features=9)
    with pytest.raises(ValueError):
        predict_proba_batch(model, np.zeros((3, 21)))


def test_train_errors():
    with pytest.raises(TrainingError):
        train([], ModelKind.RANDOM_FOREST)
    one_class = [FeatureVector(FeatureMode.NRF, (1.0,) * 9, 1) for _ in range(10)]
    with pytest.raises(TrainingError):
        train(one_class, ModelKind.RANDOM_FOREST)


def test_evaluate_empty_errors():
    with pytest.raises(ValueError):
        evaluate(single_leaf_model(0.5), np.zeros((0, 9)), np.zeros(0, np.int64))


@pytest.mark.parametrize("kind", [ModelKind.RANDOM_FOREST, ModelKind.GRADIENT_BOOSTED])
def test_serialization_roundtrip(kind):
    rows = separable_rows(80, seed=51)
    model = train(rows, kind, default_hyperparams(kind, seed=6))
    blob = serialize_model(model)
    restored = deserialize_model(blob)
    assert serialize_model(restored) == blob
    X, _ = rows_to_arrays(rows)
    assert np.array_equal(predict_proba_batch(model, X), predict_proba_batch(restored, X))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(list(ModelKind)),
    mode=st.sampled_from(list(FeatureMode)),
    n=st.integers(2, 40),
    n_trees=st.integers(0, 4),
    depth=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_serialization_roundtrip_property(kind, mode, n, n_trees, depth, seed):
    rng = np.random.default_rng(seed)
    width = MODE_WIDTH[mode]
    # few distinct values, some of them negative zeros and large magnitudes
    X = rng.choice([-0.0, 0.1, 1.0, 3.5, 1e300, -7.25], size=(n, width))
    y = np.arange(n) % 2
    lr = None if kind is ModelKind.RANDOM_FOREST else 0.3
    model = fit(X, y, kind, Hyperparams(n_trees, depth, 1, lr, None, seed))
    blob = serialize_model(model)
    restored = deserialize_model(blob)
    assert serialize_model(restored) == blob
    assert restored.feature_mode is mode
    probe = rng.normal(size=(15, width)) * 10
    assert np.array_equal(predict_proba_batch(model, probe), predict_proba_batch(restored, probe))


def test_fit_reads_layout_from_width():
    rows = separable_rows(40, seed=71)
    X, y = rows_to_arrays(rows)
    for mode, width in MODE_WIDTH.items():
        wide = np.tile(X, (1, 3))[:, :width]
        assert fit(wide, y, ModelKind.RANDOM_FOREST, Hyperparams(2, 3, 1, None, None, 0)).feature_mode is mode
    for bad in (X[:, :8], np.zeros((40, 10)), X[:30]):
        with pytest.raises(TrainingError):
            fit(bad, y, ModelKind.RANDOM_FOREST)


_OUT_OF_RANGE = [
    ("min_leaf", 0, "min_leaf >= 1"),
    ("min_leaf", -3, "min_leaf >= 1"),
    ("max_depth", -1, "max_depth >= 0"),
    ("n_trees", -1, "n_trees >= 0"),
    ("feature_subsample", 0, "feature_subsample None or >= 1"),
    ("learning_rate", float("nan"), "learning_rate None, or finite and > 0"),
    ("learning_rate", float("inf"), "learning_rate None, or finite and > 0"),
    ("learning_rate", 0.0, "learning_rate None, or finite and > 0"),
    ("learning_rate", -0.1, "learning_rate None, or finite and > 0"),
    ("learning_rate", True, "learning_rate None, or finite and > 0"),
    ("n_trees", 2.5, "integer n_trees, max_depth, min_leaf, seed and feature_subsample"),
    ("max_depth", True, "integer n_trees, max_depth, min_leaf, seed and feature_subsample"),
    ("min_leaf", 2.0, "integer n_trees, max_depth, min_leaf, seed and feature_subsample"),
    ("seed", 0.5, "integer n_trees, max_depth, min_leaf, seed and feature_subsample"),
    ("feature_subsample", 1.5, "integer n_trees, max_depth, min_leaf, seed and feature_subsample"),
]
_OUT_OF_RANGE_IDS = [f"{name}={value}" for name, value, _ in _OUT_OF_RANGE]


@pytest.mark.parametrize("name,value,rule", _OUT_OF_RANGE, ids=_OUT_OF_RANGE_IDS)
def test_hyperparams_reject_out_of_range_values(name, value, rule):
    fields = dict(n_trees=3, max_depth=2, min_leaf=1, learning_rate=0.1, feature_subsample=None, seed=0)
    with pytest.raises(ValueError, match=rule):
        Hyperparams(**{**fields, name: value})


def test_hyperparams_accept_the_smallest_usable_values():
    """No trees, a depth-0 stump, one row per leaf and one feature per
    split are all usable; n_trees 0 gives a model that predicts 0.5."""
    X, y = rows_to_arrays(separable_rows(20, seed=3))
    for kind, lr in ((ModelKind.RANDOM_FOREST, None), (ModelKind.GRADIENT_BOOSTED, 1e-3)):
        assert fit(X, y, kind, Hyperparams(2, 0, 1, lr, 1, 0)).trees[0].feature.size == 1
        assert np.all(predict_proba_batch(fit(X, y, kind, Hyperparams(0, 3, 1, lr, 1, 0)), X) == 0.5)


@pytest.mark.parametrize("name,value,rule", _OUT_OF_RANGE, ids=_OUT_OF_RANGE_IDS)
def test_deserialize_rejects_out_of_range_hyperparams(name, value, rule):
    payload = _split_payload()
    payload["hyperparams"][name] = value
    with pytest.raises(DataFormatError, match=f"malformed model payload.*{rule}"):
        deserialize_model(json.dumps(payload).encode())


def test_deserialize_rejects_garbage():
    with pytest.raises(ValueError):
        deserialize_model(b'{"format": "something-else"}')


def _split_payload() -> dict:
    """A saved one-split forest: node 0 splits on feature 3, nodes 1, 2 are leaves."""
    return json.loads(serialize_model(split_model(3, 0.5, 0.1, 0.9)))


def _tree_edit(**arrays):
    def edit(payload):
        payload["trees"][0].update(arrays)
    return edit


@pytest.mark.parametrize("edit,message", [
    (lambda p: p.pop("hyperparams"), "lacks \\['hyperparams'\\]"),
    (lambda p: p.pop("trees"), "lacks \\['trees'\\]"),
    (lambda p: p["hyperparams"].pop("min_leaf"), "hyperparams need exactly"),
    (lambda p: p["hyperparams"].update(extra=1), "hyperparams need exactly"),
    (_tree_edit(value=[0.0, 0.1]), "five arrays"),
    (_tree_edit(feature=[], threshold=[], left=[], right=[], value=[]), "five arrays"),
    (_tree_edit(right=[2, -1, 0]), "tree 0: a leaf"),
    (_tree_edit(feature=[9, -1, -1]), "tree 0: node 0 needs 0 <= feature < 9"),
    (_tree_edit(feature=[-2, -1, -1]), "tree 0: node 0"),
    (_tree_edit(left=[0, -1, -1]), "tree 0: node 0"),
    (_tree_edit(right=[3, -1, -1]), "tree 0: node 0"),
    (_tree_edit(feature=[0], threshold=[0.0], left=[0], right=[0], value=[0.0]), "tree 0: node 0"),
    (lambda p: p.update(kind="RANDOM_JUNGLE"), "malformed"),
    (_tree_edit(left="one"), "malformed"),
    (lambda p: p.update(n_features=9.5), "n_features must be an integer, got 9.5"),
    (lambda p: p.update(n_features=9.0), "n_features must be an integer, got 9.0"),
    (_tree_edit(threshold=[float("nan"), 0.0, 0.0]), "tree 0: a threshold or leaf value is NaN"),
    (_tree_edit(value=[0.0, float("nan"), 0.9]), "tree 0: a threshold or leaf value is NaN"),
], ids=[
    "no-hyperparams", "no-trees", "hyperparam-missing", "hyperparam-extra", "unequal-lengths",
    "no-nodes", "leaf-with-child", "feature-too-high", "feature-negative", "child-not-after-node",
    "child-past-end", "self-cycle", "unknown-kind", "array-not-a-list", "fractional-width",
    "float-width", "nan-threshold", "nan-leaf",
])
def test_deserialize_rejects_malformed_payload(edit, message):
    payload = _split_payload()
    edit(payload)
    with pytest.raises(DataFormatError, match=message):
        deserialize_model(json.dumps(payload).encode())


@pytest.mark.parametrize("mode,n_features", [("NRF", 30), ("HGI", 9), ("HGA", 21)])
def test_deserialize_rejects_width_of_another_layout(mode, n_features):
    payload = _split_payload()
    payload.update(feature_mode=mode, n_features=n_features)
    with pytest.raises(DataFormatError, match=f"reads {n_features} features, but the {mode} layout"):
        deserialize_model(json.dumps(payload).encode())


def test_deserialize_rejects_non_object():
    with pytest.raises(DataFormatError, match="not a JSON object"):
        deserialize_model(b"[]")


def test_deserialize_accepts_its_own_split_payload():
    assert serialize_model(deserialize_model(json.dumps(_split_payload()).encode())) == serialize_model(
        split_model(3, 0.5, 0.1, 0.9)
    )


def test_min_leaf_respected():
    rows = separable_rows(100, seed=61)
    params = Hyperparams(5, 8, 10, None, None, 1)
    model = train(rows, ModelKind.RANDOM_FOREST, params)
    X, y = rows_to_arrays(rows)
    for tree in model.trees:
        # count samples reaching each leaf on the training set
        counts = {}
        for x in X:
            node = 0
            while tree.feature[node] >= 0:
                node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
            counts[node] = counts.get(node, 0) + 1
        # bootstrap resampling can shift counts, but the structure should
        # never produce leaves reachable by nothing
        assert all(c > 0 for c in counts.values())
