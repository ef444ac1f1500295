import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgnids import adversarial
from hgnids.adversarial import (
    NormalizationParams,
    ZooBudget,
    attack_pipeline,
    estimate_gradient,
    fit_substitute,
    generate_examples,
    score_distribution,
    to_flow_records,
    zoo_attack,
    zoo_attack_batch,
)
from hgnids.features import ATTACK, FeatureMode, build_matrix, rows_to_arrays, train_test_split
from hgnids.flows import LabelKind
from hgnids.trees import Hyperparams, predict_proba_batch

import zoo_reference as ref
from helpers import separable_rows, single_leaf_model


def _quadratic(X):
    return np.sum(X * X, axis=1)


def test_gradient_matches_analytic_on_quadratic():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.random(9)
        coords = list(range(9))
        estimate = estimate_gradient(_quadratic, x, coords, h=1e-3)
        analytic = 2.0 * x
        assert np.max(np.abs(estimate - analytic)) <= 1e-4


def test_gradient_zero_on_flat_model():
    model = single_leaf_model(0.9)  # no splits: constant output
    x = np.full(9, 0.5)
    estimate = estimate_gradient(partial(predict_proba_batch, model), x, list(range(9)), 1e-3)
    assert np.all(estimate == 0.0)


def test_zero_iteration_budget():
    model = single_leaf_model(0.9)
    x = np.full(9, 0.5)
    result = zoo_attack(partial(predict_proba_batch, model), x, ZooBudget(max_iters=0), seed=1)
    assert np.array_equal(result.x, x)
    assert result.query_count == 0
    assert not result.moved


@pytest.mark.parametrize("field,value", [
    ("max_iters", -1), ("per_coord_batch", 0), ("step", 0.0), ("step", -0.5),
    ("step", math.inf), ("h", 0.0), ("h", -1e-3), ("h", math.nan),
])
def test_zoo_budget_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        ZooBudget(**{field: value})


def test_attack_skips_rows_already_normal():
    model = single_leaf_model(0.2)
    score = partial(predict_proba_batch, model)
    result = zoo_attack(score, np.full(9, 0.5), ZooBudget(max_iters=50), seed=1)
    assert result.query_count == 0
    assert not result.moved


def test_query_count_bound_and_protocol_untouched():
    def leaky(X):
        return np.clip(0.9 - 0.3 * X[:, 1] + 0.1 * X[:, 0], 0.0, 1.0)

    budget = ZooBudget(max_iters=25, step=0.05, per_coord_batch=2)
    x = np.full(9, 0.2)
    result = zoo_attack(leaky, x, budget, seed=3)
    assert result.query_count <= 2 * budget.per_coord_batch * budget.max_iters
    assert result.x[0] == x[0]  # protocol coordinate excluded
    assert np.all(result.x >= 0.0)
    assert np.all(result.x <= 1.0)


def test_attack_descends_smooth_score():
    def smooth(X):
        return np.clip(0.6 + 0.5 * (X[:, 1] - 0.5), 0.0, 1.0)

    x = np.full(9, 0.9)
    result = zoo_attack(smooth, x, ZooBudget(max_iters=100, step=0.05), seed=5)
    assert result.score < 0.5
    assert result.moved


def test_attack_deterministic():
    rows = separable_rows(200, seed=1)
    model = fit_substitute(*rows_to_arrays(rows), seed=2)
    x = np.full(9, 0.4)
    score = partial(predict_proba_batch, model)
    a = zoo_attack(score, x, ZooBudget(max_iters=10), seed=9)
    b = zoo_attack(score, x, ZooBudget(max_iters=10), seed=9)
    assert np.array_equal(a.x, b.x)
    assert a.query_count == b.query_count


def test_normalization_roundtrip():
    rows = separable_rows(100, seed=7)
    params = NormalizationParams.fit(rows_to_arrays(rows)[0])
    for row in rows[:20]:
        z = params.forward(row.values)
        assert np.all(z >= 0.0) and np.all(z <= 1.0)
        back = params.inverse(z)
        for original, restored in zip(row.values, back):
            assert math.isclose(original, restored, rel_tol=1e-9, abs_tol=1e-9)


def test_normalization_constant_feature():
    rows = separable_rows(50, seed=8)  # protocol column is constant 6.0
    params = NormalizationParams.fit(rows_to_arrays(rows)[0])
    z = params.forward(rows[0].values)
    assert z[0] == 0.0
    assert params.inverse(z)[0] == 6.0


def test_fit_substitute_requires_nrf():
    bad = np.zeros((1, 21))
    with pytest.raises(ValueError):
        fit_substitute(bad, np.ones(1, np.int64), seed=1)


@pytest.fixture(scope="module")
def pipeline42(desk_data):
    return attack_pipeline(
        desk_data, seed=42,
        budget=ZooBudget(max_iters=4, step=0.02, per_coord_batch=1),
    )


def test_generate_keeps_only_high_scores(pipeline42):
    examples, substitute, params = pipeline42
    assert examples
    for ex in examples:
        assert ex.substitute_score >= 0.55
        assert ex.vector.label == ATTACK
        assert ex.vector.values[0] == float(ex.vector.origin.protocol)
        assert all(v >= 0 for v in ex.vector.values)


def test_generate_impossible_threshold(desk_data, pipeline42):
    _, substitute, params = pipeline42
    rows = build_matrix(desk_data, None, FeatureMode.NRF)
    _, test_rows = train_test_split(rows, 0.85, 42)
    scans = [r for r in test_rows if r.origin.label.kind is LabelKind.PORT_SCAN][:10]
    kept = generate_examples(scans, substitute, params, keep_threshold=1.01,
                             budget=ZooBudget(max_iters=2), seed=1)
    assert kept == []


def test_generate_empty_input_errors():
    model = single_leaf_model(0.9)
    params = NormalizationParams((0.0,) * 9, (1.0,) * 9)
    with pytest.raises(ValueError):
        generate_examples([], model, params)


def test_generate_deterministic(desk_data, pipeline42):
    _, substitute, params = pipeline42
    rows = build_matrix(desk_data, None, FeatureMode.NRF)
    _, test_rows = train_test_split(rows, 0.85, 42)
    scans = [r for r in test_rows if r.origin.label.kind is LabelKind.PORT_SCAN][:25]
    budget = ZooBudget(max_iters=3, step=0.02, per_coord_batch=1)
    a = generate_examples(scans, substitute, params, budget=budget, seed=11)
    b = generate_examples(scans, substitute, params, budget=budget, seed=11)
    assert len(a) == len(b)
    for ea, eb in zip(a, b):
        assert ea.vector.values == eb.vector.values
        assert ea.query_count == eb.query_count


def test_to_flow_records_fresh_pairs(desk_data, desk_adv):
    records = to_flow_records(desk_adv, seed=1)
    base_ips = {r.src_ip for r in desk_data} | {r.dst_ip for r in desk_data}
    for rec in records:
        assert rec.src_ip not in base_ips
        assert rec.dst_ip not in base_ips
        assert rec.label.kind is LabelKind.PORT_SCAN


def test_score_distribution(pipeline42):
    examples, substitute, params = pipeline42
    entries = [
        ("substitute", substitute, lambda ex: params.forward(ex.vector.values)),
    ]
    result = score_distribution(entries, examples)
    assert all(s >= 0.55 for s in result["substitute"]["scores"])
    assert result["substitute"]["detect_fraction"] == 1.0

    single = score_distribution(entries, examples[:1])
    assert len(single["substitute"]["scores"]) == 1


def test_score_distribution_dimension_mismatch(desk_adv):
    model = single_leaf_model(0.5, n_features=21)
    entries = [("bad", model, lambda ex: ex.vector.values)]
    with pytest.raises(ValueError):
        score_distribution(entries, desk_adv)


@pytest.fixture(scope="module")
def toy():
    """Separable rows, their normalisation and a small GB substitute on it."""
    rows = separable_rows(200, seed=4)
    X, y = rows_to_arrays(rows)
    params = NormalizationParams.fit(X)
    model = fit_substitute(params.forward(X), y, seed=3, hyperparams=Hyperparams(40, 3, 5, 0.3, None, 0))
    return rows, params, model


_BUDGETS = st.builds(
    ZooBudget,
    max_iters=st.integers(0, 6),
    step=st.sampled_from([0.02, 0.1, 0.3]),
    h=st.sampled_from([1e-3, 0.05, 0.2]),
    per_coord_batch=st.integers(1, 10),  # above 8 free coordinates: exercises the clip
)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), z_seed=st.integers(0, 2**32 - 1), budget=_BUDGETS,
       seed=st.integers(0, 10**6))
def test_lockstep_attack_matches_per_row_reference(toy, n, z_seed, budget, seed):
    _, _, model = toy
    score = partial(predict_proba_batch, model)
    # Some cells lie outside the unit box: a zero gradient must leave them there.
    Z = np.random.default_rng(z_seed).uniform(-0.1, 1.1, (n, 9))
    Z[::2, [1, 6]] *= 0.1  # even rows start on the attack side, odd rows mostly not
    seeds = [seed + 7 * i for i in range(n)]
    results = zoo_attack_batch(score, Z, budget, seeds)
    assert len(results) == n
    for z, s, got in zip(Z, seeds, results):
        want = ref.zoo_attack(score, z, budget, s)
        assert got.x.tobytes() == want.x.tobytes()
        assert (got.query_count, got.score, got.moved) == (want.query_count, want.score, want.moved)


def _example_bytes(examples):
    return [(np.asarray(ex.vector.values).tobytes(), np.float64(ex.substitute_score).tobytes(),
             ex.query_count, ex.vector.origin) for ex in examples]


@pytest.fixture(scope="module")
def desk_scan_attack(desk_data):
    """The desk substitute and scan rows that make_desk_adversarial attacks."""
    rows = build_matrix(desk_data, None, FeatureMode.NRF)
    params = NormalizationParams.fit(rows_to_arrays(rows)[0])
    train_rows, test_rows = train_test_split(rows, 0.85, 42)
    X, y = rows_to_arrays(train_rows)
    substitute = fit_substitute(params.forward(X), y, 42, Hyperparams(80, 6, 5, 0.15, None, 0))
    scans = [r for r in test_rows if r.origin.label.kind is LabelKind.PORT_SCAN]
    return scans, substitute, params


@pytest.mark.parametrize("seed", [42, 1042])
def test_generate_matches_per_row_reference_on_desk_rows(desk_scan_attack, seed):
    scans, substitute, params = desk_scan_attack
    budget = ZooBudget(max_iters=4, step=0.02, h=1e-3, per_coord_batch=1)
    kept = generate_examples(scans, substitute, params, budget=budget, seed=seed)
    expected = ref.generate_examples(scans, substitute, params, budget=budget, seed=seed)
    assert kept
    assert _example_bytes(kept) == _example_bytes(expected)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 40), budget=_BUDGETS, seed=st.integers(0, 1000))
def test_generate_scores_all_rows_in_lockstep(toy, n, budget, seed):
    rows, params, model = toy
    calls = []

    def counting(m, X):
        calls.append(len(X))
        return predict_proba_batch(m, X)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adversarial, "predict_proba_batch", counting)
        generate_examples([r for r in rows if r.label == ATTACK][:n], model, params,
                          budget=budget, seed=seed)
    assert len(calls) <= 2 + budget.max_iters * (budget.per_coord_batch + 1)


def test_attack_batch_rejects_bad_input():
    score = partial(predict_proba_batch, single_leaf_model(0.9))
    with pytest.raises(ValueError, match="2-D"):
        zoo_attack_batch(score, np.full(9, 0.5), None, [1])
    with pytest.raises(ValueError, match="seed"):
        zoo_attack_batch(score, np.full((3, 9), 0.5), None, [1, 2])
