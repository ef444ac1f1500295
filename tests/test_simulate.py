import csv
import dataclasses
import hashlib
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import simulate_reference as ref
from helpers import make_record
from hgnids import simulate
from hgnids.ensemble import UpdateRule
from hgnids.features import FeatureMode, encode
from hgnids.flows import BENIGN_LABEL, SCAN_LABEL, Dataset, LabelKind, concat
from hgnids.simulate import (
    ConfigError,
    Scorecard,
    SimConfig,
    build_retrain_set,
    desk_case_config,
    run_simulation,
    sweep_thresholds,
)
from hgnids.trees import Hyperparams

TINY_HP = (
    ("NRF", Hyperparams(15, 10, 1, None, None, 0)),
    ("HGI", Hyperparams(30, 5, 2, 0.2, None, 0)),
    ("HGA", Hyperparams(30, 5, 2, 0.2, None, 0)),
)


def tiny_config(case_id, seed=0, threshold=2, **kw):
    return SimConfig(
        case_id,
        n_computers=2,
        n_epochs=2,
        batch_size=200,
        threshold=threshold,
        seed=seed,
        member_hyperparams=TINY_HP,
        **kw,
    )


@pytest.fixture(scope="module")
def tiny_data():
    return simulate.make_desk_dataset(seed=5, n_scan=500, n_benign=700)


@pytest.fixture(scope="module")
def tiny_adv(tiny_data):
    return simulate.make_desk_adversarial(tiny_data, seed=5)


def test_validate_rejects_inconsistent_case():
    # The case id fixes its policy: the four values are read-only.
    cfg = tiny_config(1)
    assert cfg.policy == (1, UpdateRule.STATIC, False, False)
    for name, value in [
        ("rule", UpdateRule.UALL), ("ip_pairs", 16), ("include_adv", True),
        ("production_mode", True),
    ]:
        with pytest.raises(TypeError):
            dataclasses.replace(cfg, **{name: value})
    with pytest.raises(ConfigError):
        SimConfig(9)


@pytest.mark.parametrize("kw", [
    {"case_id": 9}, {"case_id": 0}, {"threshold": 0}, {"threshold": -3},
    {"attack_frac": 1.5}, {"attack_frac": -0.1}, {"n_computers": 0}, {"n_epochs": 0},
    {"batch_size": 0}, {"batch_size": -5}, {"adv_per_batch": -1}, {"ballast_size": -1},
])
def test_config_rejected_when_built(kw):
    args = {"case_id": 1, **kw}
    with pytest.raises(ConfigError):
        SimConfig(**args)
    with pytest.raises(ConfigError):
        dataclasses.replace(SimConfig(1), **kw)


def test_case5_requires_adv(tiny_data):
    cfg = tiny_config(5)
    with pytest.raises(ConfigError):
        run_simulation(cfg, tiny_data, adv=())


def test_conservation_and_row_count(tiny_data):
    cfg = tiny_config(1, seed=3)
    scorecard, _ = run_simulation(cfg, tiny_data)
    assert len(scorecard.rows) == 4
    for row in scorecard.rows:
        assert row.tp + row.fp + row.tn + row.fn == cfg.batch_size


def test_determinism_byte_identical(tmp_path, tiny_data):
    cfg = tiny_config(1, seed=9)
    a, _ = run_simulation(cfg, tiny_data)
    b, _ = run_simulation(cfg, tiny_data)
    a.write(tmp_path / "a.csv")
    b.write(tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_static_rule_keeps_versions(tiny_data):
    cfg = tiny_config(2, seed=4)
    scorecard, artifacts = run_simulation(cfg, tiny_data)
    assert all(r.ensemble_versions == "0|0|0" for r in scorecard.rows)
    assert artifacts.retrain_events == []


def test_retrain_trigger_strictly_exceeds(tiny_data, tiny_adv):
    cfg = tiny_config(5, seed=7, threshold=2)
    _, artifacts = run_simulation(cfg, tiny_data, tiny_adv)
    for event in artifacts.retrain_events:
        assert event.evaded_total > 0
    if artifacts.retrain_events:
        first = artifacts.retrain_events[0]
        assert first.evaded_total > cfg.threshold


def test_trigger_count_non_increasing_in_threshold(tiny_data, tiny_adv):
    low = tiny_config(5, seed=7, threshold=2)
    high = tiny_config(5, seed=7, threshold=50)
    _, art_low = run_simulation(low, tiny_data, tiny_adv)
    _, art_high = run_simulation(high, tiny_data, tiny_adv)
    assert len(art_low.retrain_events) >= len(art_high.retrain_events)


def test_member_fn_dominance(tiny_data, tiny_adv):
    cfg = tiny_config(5, seed=11)
    _, artifacts = run_simulation(cfg, tiny_data, tiny_adv)
    for ensemble_fn, member_fn in zip(artifacts.batch_ensemble_fn, artifacts.batch_member_fn):
        assert ensemble_fn <= min(member_fn)


def test_production_mode_flags_drive_hackers(tiny_data, tiny_adv):
    cfg = tiny_config(6, seed=13)
    scorecard, artifacts = run_simulation(cfg, tiny_data, tiny_adv)
    flagged_pairs = {f.pair for f in artifacts.flag_log}
    scan_pairs = {
        r.pair for r in simulate.remap_ip_pairs(tiny_data, 16, cfg.seed * 7 + 5).records
        if r.label.kind is LabelKind.PORT_SCAN
    }
    assert flagged_pairs <= scan_pairs | {
        p for p in flagged_pairs if p[0].startswith("203.0.113.")
    }
    assert len(flagged_pairs) > 0


def test_baseline_all_nrf(tiny_data, tiny_adv):
    cfg = tiny_config(5, seed=15)
    _, artifacts = run_simulation(cfg, tiny_data, tiny_adv, baseline=True)
    assert artifacts.final_state.roles() == (FeatureMode.NRF,) * 3


def test_no_attack_stream_is_metric_safe(tiny_data):
    cfg = tiny_config(1, seed=17, attack_frac=0.0)
    scorecard, _ = run_simulation(cfg, tiny_data, baseline=True)
    for row in scorecard.rows:
        assert row.fn == 0 and row.tp == 0
        assert row.fnp == 0.0
        assert row.f1 == 0.0  # no attacks: precision/recall degenerate to 0


def test_sweep_single_threshold(tiny_data):
    cfg = tiny_config(1, seed=19)
    results = sweep_thresholds(cfg, (5,), tiny_data)
    assert set(results) == {5}


def test_sweep_requires_thresholds(tiny_data):
    with pytest.raises(ConfigError):
        sweep_thresholds(tiny_config(1), (), tiny_data)


def test_sweep_checks_every_threshold_before_any_run(tmp_path, tiny_data):
    with pytest.raises(ConfigError):
        sweep_thresholds(tiny_config(1), (2, 0), tiny_data, out_dir=tmp_path / "sweep")
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("case_id", [4, 5, 6])
def test_each_record_set_is_encoded_once(monkeypatch, desk_data, desk_adv, case_id):
    """One encode per run: every record set (the pre-training split and
    its holdout, each batch, each retrain's training and holdout sets)
    is an id array into one table, which every member reads. Case 6 runs
    with the non-hacker weights on, so the table is encoded again each
    time the detector's flags change the hacker pairs."""
    calls = []

    def counting(records, *args, **kwargs):
        calls.append(len(records))
        return encode(records, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("hgnids") and getattr(module, "encode", None) is encode:
            monkeypatch.setattr(module, "encode", counting)
    cfg = dataclasses.replace(desk_case_config(case_id, seed=42), use_weights=case_id == 6)
    _, artifacts = run_simulation(cfg, desk_data, desk_adv)
    assert artifacts.retrain_events
    # the base data, its remapped stream copy and the adversarial rows
    assert set(calls) == {2 * len(desk_data) + len(desk_adv)}
    if case_id == 6:
        flagging_batches = {f.window_id for f in artifacts.flag_log}
        assert 1 < len(calls) <= 1 + len(flagging_batches)
    else:
        assert len(calls) == 1


def test_sweep_rejects_repeated_thresholds(tmp_path, tiny_data):
    with pytest.raises(ConfigError, match=r"\[5\] repeated"):
        sweep_thresholds(tiny_config(1), (5, 2, 5), tiny_data, out_dir=tmp_path / "sweep")
    assert not (tmp_path / "sweep").exists()


def _file_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("case_id,seed,use_weights", [(4, 39, False), (6, 13, True)])
def test_sweep_pretrains_once_and_streams_each_threshold(
    monkeypatch, tmp_path, tiny_data, tiny_adv, case_id, seed, use_weights
):
    """No pre-training step reads the threshold, so a sweep builds one
    ensemble and streams every threshold from it. The low threshold
    streams first and retrains: a score cache, ensemble state or hacker
    set it left behind would show in the high threshold's files. Case 6
    with the weights on also encodes the table again and replaces the
    hacker pairs mid-stream."""
    cfg = dataclasses.replace(tiny_config(case_id, seed=seed, use_weights=use_weights), n_epochs=3)
    builds = []
    real = simulate.build_ensemble
    monkeypatch.setattr(simulate, "build_ensemble", lambda *a, **kw: builds.append(1) or real(*a, **kw))
    results = sweep_thresholds(cfg, (2, 20), tiny_data, tiny_adv, out_dir=tmp_path / "sweep")
    assert len(builds) == 1
    assert results[2][1].retrain_events
    if case_id == 6:
        assert results[2][1].flag_log
    for th in (2, 20):
        run_dir = tmp_path / f"run_{th}"
        run_simulation(dataclasses.replace(cfg, threshold=th), tiny_data, tiny_adv, out_dir=run_dir)
        assert _file_bytes(tmp_path / "sweep" / f"threshold_{th}") == _file_bytes(run_dir)


def test_desk_sweep_stabilisation(desk_data, desk_adv):
    cfg = desk_case_config(5, seed=42)
    results = sweep_thresholds(cfg, (2, 20), desk_data, desk_adv)
    stabilise = {}
    for th, (scorecard, _) in results.items():
        assert all(r.fnp == 0.0 for r in scorecard.final_epoch_rows())
        bad = [i for i, r in enumerate(scorecard.rows) if r.fnp > 0]
        events = [i for i, r in enumerate(scorecard.rows) if r.retrain_events > 0]
        stabilise[th] = (max(bad, default=-1), sum(
            r.retrain_events for i, r in enumerate(scorecard.rows) if i <= max(bad, default=-1)
        ))
    # the lower threshold reacts no later than the higher one
    assert stabilise[2][0] <= stabilise[20][0]
    assert stabilise[2][1] <= stabilise[20][1]


def test_scorecard_roundtrip(tmp_path, tiny_data):
    cfg = tiny_config(1, seed=21)
    scorecard, _ = run_simulation(cfg, tiny_data, out_dir=tmp_path / "run")
    loaded = Scorecard.read(tmp_path / "run" / "scorecard.csv")
    loaded.write(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "run" / "scorecard.csv").read_bytes()
    assert (tmp_path / "run" / "config.json").exists()
    assert (tmp_path / "run" / "retrain_log.csv").exists()
    assert (tmp_path / "run" / "models" / "final" / "ensemble.json").exists()


def test_case5_stabilises_at_or_below_case3(desk_data, desk_adv, case5_run):
    cfg3 = desk_case_config(3, seed=42, threshold=2)
    card3, art3 = simulate.run_simulation(cfg3, desk_data)
    cfg5, card5, art5 = case5_run

    def post_first_retrain_mean_fnp(card, artifacts, n_computers):
        rows = card.rows
        if artifacts.retrain_events:
            ev = artifacts.retrain_events[0]
            start = ev.epoch * n_computers + ev.computer + 1
        else:
            start = 0
        tail = rows[start:]
        return sum(r.fnp for r in tail) / len(tail) if tail else 0.0

    fnp5 = post_first_retrain_mean_fnp(card5, art5, cfg5.n_computers)
    fnp3 = post_first_retrain_mean_fnp(card3, art3, cfg3.n_computers)
    assert fnp5 <= fnp3


def test_versioned_model_manifests_written(tmp_path, desk_data, desk_adv):
    cfg = desk_case_config(5, seed=42, threshold=2)
    _, artifacts = run_simulation(cfg, desk_data, desk_adv, out_dir=tmp_path / "run5")
    assert (tmp_path / "run5" / "models" / "final" / "ensemble.json").exists()
    for event in artifacts.retrain_events:
        if event.log.replaced_slots:
            assert (tmp_path / "run5" / "models" / f"event_{event.index}" / "ensemble.json").exists()


def test_weighted_mixed_stream_runs():
    """Full-dataset style desk run: 25/75 mixed attacks with the
    non-hacker weight encoding switched on."""
    pair = ("172.16.0.1", "192.168.10.50")
    scans = simulate.synth_traffic("PORT_SCAN", 400, [pair], seed=31)
    mixed = simulate.synth_traffic(
        "MIXED", 1400, [pair, ("10.9.9.9", "10.8.8.8")], seed=32, attack_frac=0.25
    )
    data = concat(scans, mixed)
    cfg = tiny_config(5, seed=31, use_weights=True)
    adv = simulate.make_desk_adversarial(data, seed=31)
    scorecard, artifacts = run_simulation(cfg, data, adv)
    assert len(scorecard.rows) == 4
    final = scorecard.rows[-1]
    assert final.recall > 0.9
    labels = {r.label.text for r in data}
    assert any(name in labels for name in ("DoS Hulk", "DDoS"))


def test_retrain_set_mix(tiny_data):
    is_attack = np.array([r.label.is_attack for r in tiny_data])
    base_ids = np.arange(len(tiny_data))
    evaded = np.flatnonzero(is_attack)[:6]
    retrain = build_retrain_set(is_attack, base_ids, evaded, ballast_size=100, seed=1)
    labels = is_attack[retrain]
    # 6 evaded + 6 benign + 100 ballast
    assert len(retrain) == 112 and retrain.dtype == np.intp
    assert retrain[:6].tolist() == evaded.tolist()
    assert not labels[6:12].any()
    assert sum(labels) >= 6
    assert sum(1 for flag in labels if not flag) >= 6


@pytest.mark.parametrize("case_id, seed", [(4, 5), (5, 7)])
def test_empty_retrain_holdout_is_deferred(tmp_path, tiny_data, tiny_adv, case_id, seed):
    """With no ballast, a retrain set of two evaded attacks and two benign
    rows leaves an empty holdout: the request is deferred, not a crash."""
    run_dir = tmp_path / "run"
    cfg = tiny_config(case_id, seed=seed, threshold=1, ballast_size=0)
    scorecard, artifacts = run_simulation(cfg, tiny_data, tiny_adv, out_dir=run_dir)
    assert len(scorecard.rows) == cfg.n_computers * cfg.n_epochs
    assert any(ev.log.reason == "empty holdout" for ev in artifacts.retrain_events)
    with open(run_dir / "retrain_log.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert any(r["deferred"] == "True" and r["reason"] == "empty holdout" for r in rows)


# Differential tests: the id-based record-set helpers against the
# record-based ones they replaced (tests/simulate_reference.py). Ids may
# repeat and come in any order, as a retrain set's do.
_labels = st.lists(st.booleans(), max_size=40)
_picks = st.none() | st.lists(st.integers(0, 999), max_size=40)


def _table(labels, picks):
    """Distinct records with the given labels, their is_attack array, and
    the id array picks names (every id, in order, for None)."""
    records = tuple(
        make_record(src_port=1024 + i, label=SCAN_LABEL if a else BENIGN_LABEL)
        for i, a in enumerate(labels)
    )
    if picks is None or not records:
        ids = np.arange(len(records))
    else:
        ids = np.array([p % len(records) for p in picks], np.intp)
    return records, np.array(labels, bool), ids


def _same(records, ids, expected):
    """ids name exactly the expected records, in order. The records are
    distinct (each has its own source port), so equal means the same
    record, also when a Dataset's row view has rebuilt it."""
    return len(ids) == len(expected) and all(records[i] == r for i, r in zip(ids, expected))


@settings(max_examples=150, deadline=None)
@given(labels=_labels, picks=_picks, frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(labels=[True] * 5, picks=None, frac=0.8, seed=1)
@example(labels=[False] * 5, picks=[4, 0, 0, 2], frac=0.8, seed=1)
@example(labels=[], picks=None, frac=0.8, seed=1)
def test_split_picks_the_reference_records(labels, picks, frac, seed):
    records, is_attack, ids = _table(labels, picks)
    ref_head, ref_tail = ref.split_records(Dataset(tuple(records[i] for i in ids)), frac, seed)
    head, tail = simulate._split(is_attack, ids, frac, seed)
    assert _same(records, head, ref_head.records)
    assert _same(records, tail, ref_tail.records)


@settings(max_examples=150, deadline=None)
@given(labels=_labels, picks=_picks, n=st.integers(0, 50), seed=st.integers(0, 2**32 - 1))
@example(labels=[True] * 6, picks=None, n=3, seed=2)
@example(labels=[False] * 6, picks=[5, 1, 1, 3], n=2, seed=2)
def test_stratified_sample_picks_the_reference_records(labels, picks, n, seed):
    records, is_attack, ids = _table(labels, picks)
    rng_ref, rng = (np.random.default_rng(seed) for _ in range(2))
    expected = ref.stratified_sample([records[i] for i in ids], n, rng_ref)
    assert _same(records, simulate._stratified_sample(is_attack, ids, n, rng), expected)
    assert rng.integers(2**62) == rng_ref.integers(2**62)  # the same draws were made


@settings(max_examples=150, deadline=None)
@given(labels=_labels, base=_picks, evaded=st.lists(st.integers(0, 999), max_size=12),
       ballast=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
@example(labels=[True] * 4, base=None, evaded=[1, 2], ballast=3, seed=3)
@example(labels=[False] * 4, base=None, evaded=[0, 3], ballast=0, seed=3)
def test_retrain_set_picks_the_reference_records(labels, base, evaded, ballast, seed):
    records, is_attack, base_ids = _table(labels, base)
    evaded_ids = np.array([e % len(records) for e in evaded] if records else [], np.intp)
    expected = ref.build_retrain_set(
        Dataset(tuple(records[i] for i in base_ids)), [records[i] for i in evaded_ids],
        ballast, seed,
    )
    got = build_retrain_set(is_attack, base_ids, evaded_ids, ballast, seed)
    assert _same(records, got, expected.records)


_STREAM_DATA = simulate.make_desk_dataset(seed=3, n_scan=30, n_benign=40)
_ADV_RECORDS = [
    make_record("203.0.113.1", "198.51.100.1", dst_port=p, label=SCAN_LABEL) for p in range(4)
]


@settings(max_examples=60, deadline=None)
@given(case_id=st.sampled_from([1, 2]), batch_size=st.integers(1, 60),
       attack_frac=st.floats(0.0, 1.0), seed=st.integers(0, 10_000),
       adv_per_batch=st.integers(0, 5), with_adv=st.booleans())
def test_batches_pick_the_reference_records(case_id, batch_size, attack_frac, seed,
                                            adv_per_batch, with_adv):
    cfg = SimConfig(case_id, batch_size=batch_size, attack_frac=attack_frac, seed=seed,
                    adv_per_batch=adv_per_batch)
    data = _STREAM_DATA
    adv = _ADV_RECORDS if with_adv else []
    ip_pairs = cfg.policy.ip_pairs
    stream = simulate.remap_ip_pairs(data, ip_pairs, seed * 7 + 5) if ip_pairs > 1 else data
    records = (*data, *stream, *adv)
    is_attack = np.array([r.label.is_attack for r in records])
    n = len(data)
    batch = simulate._build_batches_plan(
        cfg, is_attack, np.arange(n, 2 * n), np.arange(2 * n, len(records))
    )
    ref_batch = ref.build_batches_plan(cfg, data, adv)
    for b in range(3):
        assert [records[i] for i in batch(b)] == ref_batch(b)


# SHA-256 of every file a tiny_config run writes, except config.json, at
# seed 39, recorded before retraining and member scoring were merged into
# one path. At this seed case 4 retrains three times (one candidate
# rejected, two accepted), and cases 5 and 6 once each (all slots
# replaced); case 6 also flags pairs. Cases 5 and 6 differ only in the
# flag log.
PINNED_SEED = 39
_PINNED_DIGESTS = {
    4: {
        "scorecard.csv":
            "307e6eba5ff4f27a1ae4e62d933f7489375d9bd026ec83a4e8179bac9d3794e6",
        "retrain_log.csv":
            "a403c262c02ec3b0e84be8422ba57ca4480c334d3d900f2fedc32a885d38cde6",
        "flag_log.csv":
            "ded296166db413e5949560ca4c441af55b7a0ffa48a87675d4719ba989b95508",
        "models/event_1/ensemble.json":
            "ba5350196a6cfde7447529ea2a05c33547b0042c601fb7c1eef16b4d76b8cc13",
        "models/event_1/member_0_hgi_v1.json":
            "0eb3c7345d94e9a0d78f4e1f6d743cca8e7224bc5dbad675e6b2358b64e60e71",
        "models/event_1/member_1_hgi_v0.json":
            "02396ca47c54c2f5523c13eace85b913ccf1b0f93c56aabce41fea566748fa0d",
        "models/event_1/member_2_hga_v0.json":
            "af6dab015a5d343152607d05f44f313ce20491bac8e228567e014fda9262356b",
        "models/event_2/ensemble.json":
            "d286fd672cbb28f4940d8bd3dbf6d8033649b53311463beda7dedd8c5cae69a3",
        "models/event_2/member_0_hgi_v1.json":
            "0eb3c7345d94e9a0d78f4e1f6d743cca8e7224bc5dbad675e6b2358b64e60e71",
        "models/event_2/member_1_hgi_v1.json":
            "f5cec9e89c556d7d7f41502d2575e826164c9e6728561d2525f4c5df21d0a432",
        "models/event_2/member_2_hga_v0.json":
            "af6dab015a5d343152607d05f44f313ce20491bac8e228567e014fda9262356b",
        "models/final/ensemble.json":
            "d286fd672cbb28f4940d8bd3dbf6d8033649b53311463beda7dedd8c5cae69a3",
        "models/final/member_0_hgi_v1.json":
            "0eb3c7345d94e9a0d78f4e1f6d743cca8e7224bc5dbad675e6b2358b64e60e71",
        "models/final/member_1_hgi_v1.json":
            "f5cec9e89c556d7d7f41502d2575e826164c9e6728561d2525f4c5df21d0a432",
        "models/final/member_2_hga_v0.json":
            "af6dab015a5d343152607d05f44f313ce20491bac8e228567e014fda9262356b",
    },
    5: {
        "scorecard.csv":
            "d7568aae9c33c1aa1c9327a0eb2fbec481b456c6e8a126b4726f876bceae2be3",
        "retrain_log.csv":
            "803a6334d3cd5971e138b9f7101e6e5a06f3389d64090571d9a7622f89de6c08",
        "flag_log.csv":
            "ded296166db413e5949560ca4c441af55b7a0ffa48a87675d4719ba989b95508",
        "models/event_0/ensemble.json":
            "5109826a20e604d7d135483b34c39d58abc6fda08d714a7068bf2dc8821b3d16",
        "models/event_0/member_0_nrf_v1.json":
            "6e681ec8482f2c2c6a56dbbe6736ebb67f330dda4ad48ca98f8f869be6e61b83",
        "models/event_0/member_1_hgi_v1.json":
            "9e22ee523f15502168dc73418afa9bffd728aa41252169723c4f23d341efb494",
        "models/event_0/member_2_hga_v1.json":
            "db8368a6301319cf0f84af47be68d1b3583ac7738428f2c6d9c0546fb960a452",
        "models/final/ensemble.json":
            "5109826a20e604d7d135483b34c39d58abc6fda08d714a7068bf2dc8821b3d16",
        "models/final/member_0_nrf_v1.json":
            "6e681ec8482f2c2c6a56dbbe6736ebb67f330dda4ad48ca98f8f869be6e61b83",
        "models/final/member_1_hgi_v1.json":
            "9e22ee523f15502168dc73418afa9bffd728aa41252169723c4f23d341efb494",
        "models/final/member_2_hga_v1.json":
            "db8368a6301319cf0f84af47be68d1b3583ac7738428f2c6d9c0546fb960a452",
    },
}
_PINNED_DIGESTS[6] = {**_PINNED_DIGESTS[5], "flag_log.csv":
                      "d346971c38324de5bd586ec448f383229418889855808b3054e30f47eb7f99b5"}


@pytest.mark.parametrize("case_id", [4, 5, 6])
def test_update_runs_pinned_bytes(tmp_path, tiny_data, tiny_adv, case_id):
    run_dir = tmp_path / "run"
    _, artifacts = run_simulation(
        tiny_config(case_id, seed=PINNED_SEED), tiny_data, tiny_adv, out_dir=run_dir
    )
    assert artifacts.retrain_events
    written = {
        p.relative_to(run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in run_dir.rglob("*") if p.is_file() and p.name != "config.json"
    }
    assert written == _PINNED_DIGESTS[case_id]


# The same digests for a production-mode run with the non-hacker weights
# on (tiny case 6, 2 computers x 3 epochs, threshold 1, seed 13),
# recorded before the record sets became id arrays into one table. With
# weights on, the encoding follows the detector's flags, so here the
# scorecard, the retrain log and the HGI and HGA models differ from
# case 5's.
_PINNED_WEIGHTED_CASE6 = {
    "flag_log.csv":
        "b5d0b21861bb50fc588f6d6ee30de67bc3910c6658e5ba75afe20c07d105d639",
    "models/event_0/ensemble.json":
        "0e4d742d8b5cdc812d2aa935abf769a02dea8143de487c50ad973f47bf3ecbdc",
    "models/event_0/member_0_nrf_v1.json":
        "b1f4cab7906526f5f3725124fec3508f8e757085ebdca982ee8bf0214a37e7e6",
    "models/event_0/member_1_hgi_v1.json":
        "d82b41c83656dda0906249cd8a27c3832dddb46dac501e1d9c69dcb35f725d8c",
    "models/event_0/member_2_hga_v1.json":
        "edd6b234de03d62b8345752057b5567f45ddd5775d856aadb4d574fc61589907",
    "models/final/ensemble.json":
        "0e4d742d8b5cdc812d2aa935abf769a02dea8143de487c50ad973f47bf3ecbdc",
    "models/final/member_0_nrf_v1.json":
        "b1f4cab7906526f5f3725124fec3508f8e757085ebdca982ee8bf0214a37e7e6",
    "models/final/member_1_hgi_v1.json":
        "d82b41c83656dda0906249cd8a27c3832dddb46dac501e1d9c69dcb35f725d8c",
    "models/final/member_2_hga_v1.json":
        "edd6b234de03d62b8345752057b5567f45ddd5775d856aadb4d574fc61589907",
    "retrain_log.csv":
        "3cc2ead58a4eadd8ed04ce43f49cc3de8d8d46e3266bf56cca539ad1c50f43d9",
    "scorecard.csv":
        "d3015ebc9d0286401a39a9347dd6e493b75d6e4c976773daa6b0811ee643714a",
}


def test_weighted_production_run_pinned_bytes(tmp_path, tiny_data, tiny_adv):
    run_dir = tmp_path / "run"
    cfg = dataclasses.replace(tiny_config(6, seed=13, threshold=1, use_weights=True), n_epochs=3)
    _, artifacts = run_simulation(cfg, tiny_data, tiny_adv, out_dir=run_dir)
    assert artifacts.retrain_events and artifacts.flag_log
    written = {
        p.relative_to(run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in run_dir.rglob("*") if p.is_file() and p.name != "config.json"
    }
    assert written == _PINNED_WEIGHTED_CASE6


# Digests of three runs at threshold 1, where a retrain request follows
# almost every missed attack, recorded before the simulation kept its
# scores across batches: desk case 3 at seed 42 (forgo-the-worst replaces
# a slot twice) and tiny case 5 at seed 39 (update-all replaces every
# slot twice), 2 computers x 3 epochs. The weighted case-6 run of
# _PINNED_WEIGHTED_CASE6 also re-encodes the table as the flags change.
_PINNED_THRESHOLD_1 = {
    "desk-3": {
        "flag_log.csv":
            "ded296166db413e5949560ca4c441af55b7a0ffa48a87675d4719ba989b95508",
        "models/event_0/ensemble.json":
            "03cee49419abe742b9aa31a213192488e568f999788306b4fb06feafda014357",
        "models/event_0/member_0_hgi_v1.json":
            "99d03074acf79e0f3dadc498c95e6e82bfae78afcd569b24befcef26346a3bd2",
        "models/event_0/member_1_hgi_v0.json":
            "bc0022ba8aa30fab9cef48a53e42635793a05c61076f946ccbd77d689a1047ba",
        "models/event_0/member_2_hga_v0.json":
            "13a5dcf0ae379b97ad3a2790dc222bdc277d2af8885bd1a55abce80203cb9009",
        "models/event_1/ensemble.json":
            "ee409d35cd0e5bc6b726c44f15519c33b02dbdf48816ca24783ac9f20182c26b",
        "models/event_1/member_0_hgi_v1.json":
            "99d03074acf79e0f3dadc498c95e6e82bfae78afcd569b24befcef26346a3bd2",
        "models/event_1/member_1_hgi_v1.json":
            "0c4fec4517bac6dda2e9a454e97888567d37fc93d217415af353228f505f143d",
        "models/event_1/member_2_hga_v0.json":
            "13a5dcf0ae379b97ad3a2790dc222bdc277d2af8885bd1a55abce80203cb9009",
        "models/final/ensemble.json":
            "ee409d35cd0e5bc6b726c44f15519c33b02dbdf48816ca24783ac9f20182c26b",
        "models/final/member_0_hgi_v1.json":
            "99d03074acf79e0f3dadc498c95e6e82bfae78afcd569b24befcef26346a3bd2",
        "models/final/member_1_hgi_v1.json":
            "0c4fec4517bac6dda2e9a454e97888567d37fc93d217415af353228f505f143d",
        "models/final/member_2_hga_v0.json":
            "13a5dcf0ae379b97ad3a2790dc222bdc277d2af8885bd1a55abce80203cb9009",
        "retrain_log.csv":
            "a430b7f0b0454c20301812ce8280828555958a2d1c7a330cf672a3062a914e83",
        "scorecard.csv":
            "c380db3d0672bd5bc38a17bfe96de46ffc22dc9b4c75e35ba2076955690ebd59",
    },
    "tiny-5": {
        "flag_log.csv":
            "ded296166db413e5949560ca4c441af55b7a0ffa48a87675d4719ba989b95508",
        "models/event_0/ensemble.json":
            "5109826a20e604d7d135483b34c39d58abc6fda08d714a7068bf2dc8821b3d16",
        "models/event_0/member_0_nrf_v1.json":
            "8085d656262eecd6fb25ea0e697cf87461196bb0754f618bdc31b6e85c60dacb",
        "models/event_0/member_1_hgi_v1.json":
            "cd267246c38824ee1d89c7b43b9ee920b4818fa175b00b9483d2b89a57a84203",
        "models/event_0/member_2_hga_v1.json":
            "c70e081693530b4b19f83ede9c9530d9f2e92c7304ca974b45a82b8cf02a38cd",
        "models/event_1/ensemble.json":
            "76d2a2faedad20447156f04ae522ad62bae2a14f2e25fc8692abbf3378a26550",
        "models/event_1/member_0_nrf_v2.json":
            "b3a667a65f4d03971c6f0eb536e6f66a35f41c55feb559267ee2b6c2b5de22fe",
        "models/event_1/member_1_hgi_v2.json":
            "5c1e342fe6fe006eee74353f6f30166858a8c24d86087abf395aab489cf63ce2",
        "models/event_1/member_2_hga_v2.json":
            "6c9c7b3ede7c0caab63fd4c956a132114d5227389e2e2741ba254e33c5eec3ca",
        "models/final/ensemble.json":
            "76d2a2faedad20447156f04ae522ad62bae2a14f2e25fc8692abbf3378a26550",
        "models/final/member_0_nrf_v2.json":
            "b3a667a65f4d03971c6f0eb536e6f66a35f41c55feb559267ee2b6c2b5de22fe",
        "models/final/member_1_hgi_v2.json":
            "5c1e342fe6fe006eee74353f6f30166858a8c24d86087abf395aab489cf63ce2",
        "models/final/member_2_hga_v2.json":
            "6c9c7b3ede7c0caab63fd4c956a132114d5227389e2e2741ba254e33c5eec3ca",
        "retrain_log.csv":
            "d3ba389879fef396e130d90cfe22a365e7dd88aece97fae9822edf3a85fcb9b8",
        "scorecard.csv":
            "b745d8f2498803c357ae473870c1d8d14e40a7fac1eaf07f856ab8567d0f7b62",
    },
    "tiny-6-weighted": _PINNED_WEIGHTED_CASE6,
}


@pytest.mark.parametrize("run", sorted(_PINNED_THRESHOLD_1))
def test_each_row_is_scored_once_per_ensemble_state(
    monkeypatch, tmp_path, desk_data, tiny_data, tiny_adv, run
):
    """Counts the rows handed to classify_batch. A state is the ensemble
    between two slot replacements and one encoding of the table: under
    each, the rows scored are exactly the distinct ids of its batches, so
    no run scores more rows than its batches hold."""
    if run == "desk-3":
        cfg, data, adv = desk_case_config(3, seed=42, threshold=1), desk_data, ()
    else:
        case, seed = (5, 39) if run == "tiny-5" else (6, 13)
        cfg = dataclasses.replace(
            tiny_config(case, seed=seed, threshold=1, use_weights=case == 6), n_epochs=3
        )
        data, adv = tiny_data, tiny_adv
    events: list[tuple] = []  # ("batch", ids), ("state", obj), ("encode",), ("scored", n)

    def spy(name, wrap):
        real = getattr(simulate, name)
        monkeypatch.setattr(simulate, name, lambda *a, **kw: wrap(real(*a, **kw)))

    def plan(next_batch):
        def batch(b):
            ids = next_batch(b)
            events.append(("batch", ids))
            return ids
        return batch

    def scored(result):
        events.append(("scored", len(result[0])))
        return result

    spy("_build_batches_plan", plan)
    spy("classify_batch", scored)
    spy("encode", lambda result: events.append(("encode",)) or result)
    spy("build_ensemble", lambda state: events.append(("state", state)) or state)
    spy("retrain_request", lambda result: events.append(("state", result[0])) or result)
    run_dir = tmp_path / "run"
    run_simulation(cfg, data, adv, out_dir=run_dir)

    # A batch is scored after any re-encode its window causes and before
    # the retrain request it may trigger.
    ids_of, scored_of, key, states, encodes, pending = {}, {}, None, [], 0, None
    for ev in events + [("batch", None)]:
        if ev[0] in ("batch", "state") and pending is not None:
            ids_of.setdefault(key, set()).update(pending.tolist())
            pending = None
        if ev[0] == "batch":
            pending = ev[1]
        elif ev[0] == "encode":
            encodes += 1
        elif ev[0] == "state":
            if not states or ev[1] is not states[-1]:
                states.append(ev[1])
        else:
            scored_of[key] = scored_of.get(key, 0) + ev[1]
        key = (len(states), encodes)
    assert len(states) > 1  # at least one slot replacement
    assert (encodes > 1) == (run == "tiny-6-weighted")
    assert {k: len(v) for k, v in ids_of.items()} == {k: scored_of.get(k, 0) for k in ids_of}
    assert set(scored_of) <= set(ids_of)
    batch_rows = sum(len(ev[1]) for ev in events if ev[0] == "batch")
    assert sum(scored_of.values()) < batch_rows
    written = {
        p.relative_to(run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in run_dir.rglob("*") if p.is_file() and p.name != "config.json"
    }
    assert written == _PINNED_THRESHOLD_1[run]


def test_baseline_ftw_candidate_takes_the_run_hyperparams(desk_data, desk_adv):
    """An all-NRF baseline has no HGI member, so its forgo-the-worst
    candidate reads its hyperparams from the run's HGI entry."""
    cfg = desk_case_config(4, seed=42)
    _, artifacts = run_simulation(cfg, desk_data, desk_adv, baseline=True)
    hgi = [m.model.hyperparams for m in artifacts.final_state.members
           if m.model.feature_mode is FeatureMode.HGI]
    assert hgi
    expected = cfg.hyperparams_map()[FeatureMode.HGI]
    assert all(dataclasses.replace(hp, seed=0) == expected for hp in hgi)
