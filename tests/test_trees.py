import numpy as np
import pytest

from hgnids.features import FeatureMode, FeatureVector, rows_to_arrays
from hgnids.trees import (
    EvalReport,
    Hyperparams,
    ModelKind,
    TrainingError,
    TreeModel,
    default_hyperparams,
    deserialize_model,
    evaluate,
    predict_proba,
    predict_proba_batch,
    serialize_model,
    train,
)

from helpers import separable_rows, single_leaf_model


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
    assert evaluate(model, train_rows).f1 == 1.0
    assert evaluate(model, test_rows).f1 >= 0.98


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
    assert predict_proba(model, (0.0,) * 9) == 0.5
    assert predict_proba(model, (1e9,) * 9) == 0.5


def test_gb_zero_trees_predicts_half():
    model = TreeModel(
        ModelKind.GRADIENT_BOOSTED, FeatureMode.NRF,
        default_hyperparams(ModelKind.GRADIENT_BOOSTED), 9, [],
    )
    assert predict_proba(model, (3.0,) * 9) == 0.5


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
    report = evaluate(model, rows)
    assert (report.tp, report.tn, report.fp, report.fn) == (60, 40, 0, 0)
    assert report.f1 == 1.0
    assert report.fnp == 0.0


def test_evaluate_constant_zero_predictor():
    rows = [FeatureVector(FeatureMode.NRF, (float(i),) * 9, 1 if i < 60 else 0)
            for i in range(100)]
    model = single_leaf_model(0.0)
    report = evaluate(model, rows)
    assert report.fn == 60
    assert report.fnp == 1.0
    assert report.precision == 0.0


def _threshold_model(threshold):
    from helpers import split_model
    return split_model(1, threshold, 1.0, 0.0)


def test_threshold_inclusive():
    model = single_leaf_model(0.5)
    rows = [FeatureVector(FeatureMode.NRF, (0.0,) * 9, 1)]
    report = evaluate(model, rows, threshold=0.5)
    assert report.tp == 1  # score exactly at the threshold counts as attack


def test_threshold_monotonicity():
    rows = separable_rows(120, seed=21)
    model = train(rows, ModelKind.RANDOM_FOREST, default_hyperparams(ModelKind.RANDOM_FOREST, 5))
    prev_tp, prev_fp = None, None
    for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
        report = evaluate(model, rows, threshold=threshold)
        if prev_tp is not None:
            assert report.tp <= prev_tp
            assert report.fp <= prev_fp
        prev_tp, prev_fp = report.tp, report.fp


def test_report_consistency():
    rows = separable_rows(90, seed=31)
    model = train(rows, ModelKind.GRADIENT_BOOSTED, default_hyperparams(ModelKind.GRADIENT_BOOSTED, 1))
    report = evaluate(model, rows)
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


def test_rf_tree_order_invariance():
    rows = separable_rows(100, seed=41)
    model = train(rows, ModelKind.RANDOM_FOREST, default_hyperparams(ModelKind.RANDOM_FOREST, 9))
    X, _ = rows_to_arrays(rows[:20])
    before = predict_proba_batch(model, X)
    model.trees.reverse()
    after = predict_proba_batch(model, X)
    assert np.allclose(before, after)


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
        evaluate(single_leaf_model(0.5), [])


@pytest.mark.parametrize("kind", [ModelKind.RANDOM_FOREST, ModelKind.GRADIENT_BOOSTED])
def test_serialization_roundtrip(kind):
    rows = separable_rows(80, seed=51)
    model = train(rows, kind, default_hyperparams(kind, seed=6))
    blob = serialize_model(model)
    restored = deserialize_model(blob)
    assert serialize_model(restored) == blob
    X, _ = rows_to_arrays(rows)
    assert np.array_equal(predict_proba_batch(model, X), predict_proba_batch(restored, X))


def test_deserialize_rejects_garbage():
    with pytest.raises(ValueError):
        deserialize_model(b'{"format": "something-else"}')


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
