import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hgnids import ensemble
from hgnids.ensemble import (
    ROLE_KIND,
    EnsembleState,
    MemberSlot,
    UpdateRule,
    build_ensemble,
    classify_batch,
    load_state,
    member_reports,
    member_scores,
    retrain_request,
    save_state,
)
from hgnids.features import (
    MODE_WIDTH,
    NON_HACKER_WEIGHTS,
    FeatureMode,
    build_matrix,
    encode,
    rows_to_arrays,
)
from hgnids.flows import (
    BENIGN_LABEL,
    DataFormatError,
    Dataset,
    SCAN_LABEL,
    concat,
    remap_ip_pairs,
    synth_traffic,
)
from hgnids.hypergraph import build_hypergraph
from hgnids.trees import EvalReport, Hyperparams, evaluate, serialize_model, train

import ensemble_reference as ref
from ensemble_reference import EncodingContext
from helpers import make_record, single_leaf_model, split_model

FAST_HP = {
    FeatureMode.NRF: Hyperparams(20, 10, 1, None, None, 0),
    FeatureMode.HGI: Hyperparams(40, 5, 2, 0.2, None, 0),
    FeatureMode.HGA: Hyperparams(40, 5, 2, 0.2, None, 0),
}


def _stump_state(*values):
    return EnsembleState([MemberSlot(single_leaf_model(v)) for v in values])


def _nrf(records):
    """The NRF columns of records, all that NRF-layout members read."""
    X, _ = encode(Dataset(records), FeatureMode.NRF)
    return X


def _table(records, ctx):
    """encode's full table and labels: what the ensemble scores and trains on."""
    return encode(Dataset(records), None, ctx.hypergraph, ctx.hackers, ctx.use_weights)


def test_classify_or_aggregation_attack():
    state = _stump_state(0.2, 0.9, 0.4)
    verdicts, scores = classify_batch(state, _nrf([make_record()]))
    assert verdicts.tolist() == [True]
    assert scores.tolist() == [[0.2, 0.9, 0.4]]


def test_classify_or_aggregation_normal():
    state = _stump_state(0.1, 0.1, 0.1)
    verdicts, _ = classify_batch(state, _nrf([make_record()]))
    assert verdicts.tolist() == [False]


def test_classify_threshold_inclusive():
    state = _stump_state(0.5, 0.0, 0.0)
    verdicts, _ = classify_batch(state, _nrf([make_record()]))
    assert verdicts.tolist() == [True]


def test_classify_batch_perfect_and_blind():
    attacks = [make_record(label=SCAN_LABEL) for _ in range(10)]
    actual = [True] * len(attacks)
    verdicts, _ = classify_batch(_stump_state(1.0, 1.0, 1.0), _nrf(attacks))
    assert EvalReport.from_predictions(verdicts, actual).f1 == 1.0
    verdicts, scores = classify_batch(_stump_state(0.0, 0.0, 0.0), _nrf(attacks))
    assert EvalReport.from_predictions(verdicts, actual).fnp == 1.0
    assert [r.fnp for r in member_reports(scores, actual)] == [1.0, 1.0, 1.0]


def test_member_reports_empty_errors():
    with pytest.raises(ValueError):
        member_reports(np.zeros((0, 3)), [])


def _training_world(seed=0):
    """Small scan+benign world with a real hypergraph context."""
    pair = ("172.16.0.1", "192.168.10.50")
    scans = synth_traffic("PORT_SCAN", 240, [pair], seed=seed)
    benign = synth_traffic("BENIGN", 360, [], seed=seed + 1)
    data = concat(scans, benign)
    h = build_hypergraph(data)
    ctx = EncodingContext(h, frozenset({pair}))
    return data, ctx


@pytest.mark.parametrize("weights", [None, NON_HACKER_WEIGHTS])
@pytest.mark.parametrize("role", list(FeatureMode))
def test_train_member_matches_row_training(role, weights):
    """A member trained on its layout's columns of the full table is
    byte-identical to one trained on that layout's FeatureVector rows."""
    data, ctx = _training_world(seed=5)
    ctx = replace(ctx, use_weights=weights is not None)
    hp = replace(FAST_HP[role], n_trees=8)
    rows = build_matrix(data, ctx.hypergraph, role, ctx.hackers, ctx.use_weights)
    expected = train(rows, ROLE_KIND[role], replace(hp, seed=31))  # member 0 of seed 1
    state = build_ensemble(*_table(data, ctx), seed=1, roles=(role,), hyperparams={role: hp})
    assert serialize_model(state.members[0].model) == serialize_model(expected)
    holdout, _ = _training_world(seed=9)
    rows = build_matrix(holdout, ctx.hypergraph, role, ctx.hackers, ctx.use_weights)
    Xh, yh = _table(holdout, ctx)
    [report] = member_reports(member_scores(state, Xh), yh == 1)
    assert report == evaluate(expected, *rows_to_arrays(rows))


def test_build_ensemble_roles_and_recall_dominance():
    data, ctx = _training_world()
    state = build_ensemble(*_table(data, ctx), seed=3, hyperparams=FAST_HP)
    assert state.roles() == (FeatureMode.NRF, FeatureMode.HGI, FeatureMode.HGA)
    assert state.versions() == (0, 0, 0)

    probe = list(data)[:200]
    verdicts, scores = classify_batch(state, _table(probe, ctx)[0])
    actual = np.array([r.label.is_attack for r in probe])
    ensemble_fn = int(np.sum(~verdicts & actual))
    member_fns = [int(np.sum((scores[:, j] < 0.5) & actual)) for j in range(3)]
    assert ensemble_fn <= min(member_fns)


def _crafted_world():
    """Attack rows have durations below 60, benign rows above 100, so a
    single duration split with a chosen threshold yields a chosen recall."""
    attacks = [
        make_record("172.16.0.1", "192.168.10.50", 1000 + i, SCAN_LABEL, duration=float(i))
        for i in range(60)
    ]
    benign = [
        make_record(f"10.3.{i % 7}.9", "10.4.4.4", 80, BENIGN_LABEL, duration=100.0 + i)
        for i in range(40)
    ]
    holdout = Dataset(tuple(attacks + benign))
    train_attacks = [
        make_record("172.16.0.1", "192.168.10.50", 2000 + i, SCAN_LABEL, duration=float(i % 60))
        for i in range(120)
    ]
    train_benign = [
        make_record(f"10.5.{i % 9}.8", "10.6.6.6", 443, BENIGN_LABEL, duration=100.0 + (i % 40))
        for i in range(120)
    ]
    train_set = Dataset(tuple(train_attacks + train_benign))
    h = build_hypergraph(train_set)
    ctx = EncodingContext(h, frozenset({("172.16.0.1", "192.168.10.50")}))
    return train_set, holdout, ctx


def _duration_member(threshold):
    # attack (value 1.0) when duration <= threshold
    return MemberSlot(split_model(1, threshold, 1.0, 0.0))


def _crafted_tables():
    train_set, holdout, ctx = _crafted_world()
    return _table(train_set, ctx), _table(holdout, ctx), ctx


def test_static_rule_never_mutates():
    train_set, holdout, _ = _crafted_tables()
    state = _stump_state(0.9, 0.9, 0.9)
    new_state, log = retrain_request(state, UpdateRule.STATIC, train_set, holdout)
    assert new_state is state
    assert not log.replaced_slots
    assert new_state.versions() == (0, 0, 0)


def test_ftw_replaces_worst_slot():
    train_set, holdout, _ = _crafted_tables()
    state = EnsembleState([
        _duration_member(59.5),   # perfect on the holdout
        _duration_member(49.5),   # misses 10 attacks
        _duration_member(29.5),   # misses 30 attacks: the worst
    ])
    new_state, log = retrain_request(state, UpdateRule.FTW, train_set, holdout, seed=1)
    assert log.replaced_slots == (2,)
    assert log.incumbent_f1[0] == pytest.approx(1.0)
    assert log.incumbent_f1[1] < log.incumbent_f1[0]
    assert log.incumbent_f1[2] < log.incumbent_f1[1]
    assert new_state.roles()[2] is FeatureMode.HGI
    assert new_state.members[2].version == 1
    assert new_state.members[0].version == 0
    assert new_state.members[1].version == 0
    assert log.candidate_f1[0] > log.incumbent_f1[2]


@pytest.mark.parametrize("given, member_hgi, expected", [
    ("run", True, "run"), ("run", False, "run"), (None, True, "member"), (None, False, "default"),
])
def test_ftw_candidate_hyperparams_precedence(monkeypatch, given, member_hgi, expected):
    """The forgo-the-worst candidate takes the request's HGI entry, else
    the HGI member's hyperparams, else the defaults; only the seed is the
    request's."""
    train_set, holdout, _ = _crafted_tables()
    member_hp, run_hp = Hyperparams(7, 3, 2, 0.3, None, 11), Hyperparams(9, 4, 3, 0.2, None, 0)
    hgi_member = MemberSlot(replace(single_leaf_model(0.9, MODE_WIDTH[FeatureMode.HGI]),
                                    feature_mode=FeatureMode.HGI,
                                    hyperparams=member_hp))
    state = EnsembleState([_duration_member(29.5), _duration_member(49.5)]
                          + ([hgi_member] if member_hgi else []))
    seen = []
    real = ensemble._fit_member
    monkeypatch.setattr(ensemble, "_fit_member",
                        lambda role, data, hp, seed: seen.append(hp) or real(role, data, hp, seed))
    retrain_request(state, UpdateRule.FTW, train_set, holdout, seed=1,
                    hyperparams={FeatureMode.HGI: run_hp} if given else None)
    assert seen == [{"run": run_hp, "member": member_hp, "default": None}[expected]]


def test_ftw_keeps_state_when_candidate_does_not_beat_worst():
    train_set, holdout, _ = _crafted_tables()
    state = EnsembleState([
        _duration_member(59.5),
        _duration_member(60.5),
        _duration_member(70.0),  # all three perfectly separate the holdout
    ])
    new_state, log = retrain_request(state, UpdateRule.FTW, train_set, holdout, seed=1)
    assert log.replaced_slots == ()
    assert new_state.versions() == (0, 0, 0)
    assert "not beat" in log.reason


def test_uall_replaces_all_or_none():
    train_set, holdout, _ = _crafted_tables()
    state = EnsembleState([
        _duration_member(59.5),
        _duration_member(49.5),
        _duration_member(29.5),
    ])
    new_state, log = retrain_request(state, UpdateRule.UALL, train_set, holdout, seed=2)
    assert log.replaced_slots == (0, 1, 2)
    assert new_state.versions() == (1, 1, 1)
    assert new_state.roles() == (FeatureMode.NRF, FeatureMode.NRF, FeatureMode.NRF)


def test_uall_retention_rule():
    train_set, holdout, ctx = _crafted_world()
    # scramble training labels so retrained models cannot match a perfect
    # incumbent on the holdout
    rng = np.random.default_rng(5)
    scrambled = []
    for rec in train_set:
        label = SCAN_LABEL if rng.random() < 0.5 else BENIGN_LABEL
        scrambled.append(make_record(rec.src_ip, rec.dst_ip, rec.dst_port, label,
                                     duration=float(rng.uniform(0, 140))))
    scrambled_set = Dataset(tuple(scrambled))
    state = EnsembleState([
        _duration_member(59.5),
        _duration_member(60.5),
        _duration_member(80.0),
    ])
    new_state, log = retrain_request(
        state, UpdateRule.UALL, _table(scrambled_set, ctx), _table(holdout, ctx), seed=3
    )
    assert log.replaced_slots == ()
    assert new_state.versions() == (0, 0, 0)
    assert "retained" in log.reason


def test_single_class_train_set_deferred():
    _, holdout, ctx = _crafted_tables()
    only_benign = Dataset(tuple(make_record(label=BENIGN_LABEL) for _ in range(20)))
    state = _stump_state(0.9, 0.9, 0.9)
    for train_set in (only_benign, Dataset(())):
        new_state, log = retrain_request(state, UpdateRule.UALL, _table(train_set, ctx), holdout)
        assert log.deferred
        assert new_state is state


def test_empty_holdout_deferred():
    train_set, _, ctx = _crafted_tables()
    state = _stump_state(0.9, 0.9, 0.9)
    for rule in (UpdateRule.FTW, UpdateRule.UALL):
        new_state, log = retrain_request(state, rule, train_set, _table((), ctx))
        assert log.deferred and log.reason == "empty holdout"
        assert new_state is state


def test_version_monotonicity_over_requests():
    train_set, holdout, _ = _crafted_tables()
    state = EnsembleState([
        _duration_member(59.5),
        _duration_member(49.5),
        _duration_member(29.5),
    ])
    versions = [state.versions()]
    for i in range(3):
        state, _ = retrain_request(state, UpdateRule.UALL, train_set, holdout, seed=i)
        versions.append(state.versions())
    for before, after in zip(versions, versions[1:]):
        assert all(b <= a for b, a in zip(before, after))


def test_state_save_load_roundtrip(tmp_path):
    data, ctx = _training_world(seed=9)
    state = build_ensemble(*_table(data, ctx), seed=4, hyperparams=FAST_HP)
    save_state(state, tmp_path / "models")
    restored = load_state(tmp_path / "models")
    assert restored.roles() == state.roles()
    assert restored.versions() == state.versions()
    X, _ = _table(list(data)[:50], ctx)
    assert np.array_equal(member_scores(state, X), member_scores(restored, X))


def test_load_state_rejects_role_that_is_not_the_model_layout(tmp_path):
    save_state(_stump_state(0.1, 0.2), tmp_path)
    manifest = json.loads((tmp_path / "ensemble.json").read_text())
    manifest["members"][1]["role"] = "HGA"
    (tmp_path / "ensemble.json").write_text(json.dumps(manifest))
    with pytest.raises(DataFormatError, match="role 'HGA'.*NRF layout"):
        load_state(tmp_path)


def _manifest_without_file(tmp_path) -> bytes:
    save_state(_stump_state(0.1, 0.2), tmp_path)
    manifest = json.loads((tmp_path / "ensemble.json").read_text())
    del manifest["members"][0]["file"]
    return json.dumps(manifest).encode()


def _manifest_with(key, value):
    """A saved manifest whose first member's key is set to
    value(tmp_path, file), where file is the name save_state gave that
    member."""
    def manifest(tmp_path) -> bytes:
        save_state(_stump_state(0.1, 0.2), tmp_path)
        manifest = json.loads((tmp_path / "ensemble.json").read_text())
        member = manifest["members"][0]
        member[key] = value(tmp_path, member["file"])
        return json.dumps(manifest).encode()
    return manifest


@pytest.mark.parametrize("manifest", [
    lambda tmp_path: b"members: none",  # not JSON
    lambda tmp_path: b"{}",
    _manifest_without_file,
    lambda tmp_path: b'{"members": [{"file": "caf\xe9.json"}]}',  # the cp1252 byte 0xE9
    _manifest_with("file", lambda tmp_path, file: 3),
    _manifest_with("file", lambda tmp_path, file: None),
    # the member's own file, reached through the parent directory
    _manifest_with("file", lambda tmp_path, file: f"../{tmp_path.name}/{file}"),
    _manifest_with("file", lambda tmp_path, file: file + "\0"),
    _manifest_with("version", lambda tmp_path, file: "x"),
    _manifest_with("version", lambda tmp_path, file: True),
    _manifest_with("version", lambda tmp_path, file: -3),
], ids=["not-json", "empty-object", "member-without-file", "not-utf8", "file-not-a-string",
        "file-null", "file-outside-the-directory", "file-with-a-nul-byte", "version-not-an-integer",
        "version-a-bool", "version-negative"])
def test_load_state_rejects_a_malformed_manifest(tmp_path, manifest):
    (tmp_path / "ensemble.json").write_bytes(manifest(tmp_path))
    with pytest.raises(DataFormatError, match=re.escape(str(tmp_path / "ensemble.json"))):
        load_state(tmp_path)


def test_ensemble_reads_no_records():
    """The ensemble takes encoded arrays only: it imports nothing from the
    record or hypergraph modules."""
    source = Path(ensemble.__file__).read_text(encoding="utf-8")
    assert "from .flows" not in source and "from .hypergraph" not in source
    assert not hasattr(ensemble, "EncodingContext")
    assert "role" not in MemberSlot.__dataclass_fields__


# Differential tests against the parent's retrain path (ensemble_reference).
REF_HP = {role: replace(hp, n_trees=8) for role, hp in FAST_HP.items()}


def _assert_same_outcome(expected, actual):
    (ref_state, ref_log), (state, log) = expected, actual
    assert log == ref_log
    assert state.roles() == ref_state.roles()
    assert state.versions() == ref_state.versions()
    assert [m.last_eval for m in state.members] == [m.last_eval for m in ref_state.members]
    assert [serialize_model(m.model) for m in state.members] == [
        serialize_model(m.model) for m in ref_state.members
    ]


def _both(state, rule, train_set, ctx, holdout, seed):
    expected = ref.retrain_request(state, rule, train_set, ctx, holdout, seed=seed)
    actual = retrain_request(state, rule, _table(train_set, ctx), _table(holdout, ctx), seed=seed)
    _assert_same_outcome(expected, actual)
    return actual


def _retrain_world(seed):
    """Pretraining world plus a retrain set and holdout whose scans are
    spread over 16 endpoint pairs, as in the simulation's stream."""
    data, ctx = _training_world(seed)
    train_set = remap_ip_pairs(_training_world(seed + 20)[0], 16, seed)
    holdout = remap_ip_pairs(_training_world(seed + 40)[0], 16, seed + 1)
    return data, ctx, train_set, holdout


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("roles", [
    (FeatureMode.NRF, FeatureMode.HGI, FeatureMode.HGA),
    (FeatureMode.NRF, FeatureMode.NRF, FeatureMode.NRF),
])
def test_build_ensemble_matches_reference(seed, roles):
    data, ctx, _, holdout = _retrain_world(seed)
    for held in (holdout, None):
        expected = ref.build_ensemble(data, ctx, seed, held, roles, REF_HP)
        held_table = None if held is None else _table(held, ctx)
        state = build_ensemble(*_table(data, ctx), seed, held_table, roles, REF_HP)
        _assert_same_outcome((expected, None), (state, None))
        assert all((m.last_eval is None) == (held is None) for m in state.members)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ftw_replacing_nrf_then_update_all_match_reference(seed):
    data, ctx, train_set, holdout = _retrain_world(seed)
    state = build_ensemble(*_table(data, ctx), seed, _table(holdout, ctx), hyperparams=REF_HP)
    # A member that never flags an attack scores F1 0, so FTW swaps it out.
    state.members[0] = MemberSlot(single_leaf_model(0.0))
    state, log = _both(state, UpdateRule.FTW, train_set, ctx, holdout, seed * 1009)
    assert log.replaced_slots == (0,)
    assert state.roles() == (FeatureMode.HGI, FeatureMode.HGI, FeatureMode.HGA)
    state, log = _both(state, UpdateRule.UALL, train_set, ctx, holdout, seed * 1009 + 1)
    assert log.replaced_slots == (0, 1, 2)
    _both(state, UpdateRule.FTW, train_set, ctx, holdout, seed * 1009 + 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("rule", [UpdateRule.FTW, UpdateRule.UALL])
def test_all_nrf_baseline_matches_reference(seed, rule):
    data, ctx, train_set, holdout = _retrain_world(seed)
    roles = (FeatureMode.NRF,) * 3
    state = build_ensemble(*_table(data, ctx), seed, _table(holdout, ctx), roles, REF_HP)
    _both(state, rule, train_set, ctx, holdout, seed + 7)


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_crafted_outcomes_match_reference(seed):
    train_set, holdout, ctx = _crafted_world()
    graded = EnsembleState([_duration_member(t) for t in (59.5, 49.5, 29.5)])
    perfect = EnsembleState([_duration_member(t) for t in (59.5, 60.5, 70.0)])

    _, log = _both(graded, UpdateRule.FTW, train_set, ctx, holdout, seed)
    assert log.replaced_slots == (2,)
    _, log = _both(perfect, UpdateRule.FTW, train_set, ctx, holdout, seed)
    assert log.replaced_slots == () and "not beat" in log.reason
    _, log = _both(graded, UpdateRule.UALL, train_set, ctx, holdout, seed)
    assert log.replaced_slots == (0, 1, 2)

    rng = np.random.default_rng(seed)
    scrambled = Dataset(tuple(
        make_record(rec.src_ip, rec.dst_ip, rec.dst_port,
                    SCAN_LABEL if rng.random() < 0.5 else BENIGN_LABEL,
                    duration=float(rng.uniform(0, 140)))
        for rec in train_set
    ))
    retained = EnsembleState([_duration_member(t) for t in (59.5, 60.5, 80.0)])
    _, log = _both(retained, UpdateRule.UALL, scrambled, ctx, holdout, seed)
    assert log.replaced_slots == () and "retained" in log.reason

    only_benign = Dataset(tuple(make_record(label=BENIGN_LABEL) for _ in range(20)))
    for rule in (UpdateRule.FTW, UpdateRule.UALL):
        state, log = _both(graded, rule, only_benign, ctx, holdout, seed)
        assert log.deferred and state is graded
