import dataclasses

import numpy as np
import pytest

from hgnids import simulate
from hgnids.ensemble import UpdateRule
from hgnids.features import FeatureMode
from hgnids.flows import concat
from hgnids.simulate import (
    ConfigError,
    Scorecard,
    SimConfig,
    TrafficDB,
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
    assert (cfg.ip_pairs, cfg.rule, cfg.include_adv, cfg.production_mode) == (
        1, UpdateRule.STATIC, False, False
    )
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
    scorecard, artifacts = run_simulation(cfg, tiny_data)
    assert len(scorecard.rows) == 4
    for row, size in zip(scorecard.rows, artifacts.batch_sizes):
        assert row.tp + row.fp + row.tn + row.fn == size


def test_determinism_byte_identical(tiny_data):
    cfg = tiny_config(1, seed=9)
    a, _ = run_simulation(cfg, tiny_data)
    b, _ = run_simulation(cfg, tiny_data)
    assert a.to_csv_bytes() == b.to_csv_bytes()


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
        r.pair for r in simulate.remap_ip_pairs(tiny_data, 16, cfg.seed * 7 + 5).scans()
    }
    assert flagged_pairs <= scan_pairs | {
        p for p in flagged_pairs if p[0].startswith("203.0.113.")
    }
    assert len(flagged_pairs) > 0


def test_baseline_all_nrf(tiny_data, tiny_adv):
    cfg = tiny_config(5, seed=15)
    _, artifacts = run_simulation(cfg, tiny_data, tiny_adv, baseline=True)
    assert all(m.role is FeatureMode.NRF for m in artifacts.final_state.members)


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


def test_desk_sweep_stabilisation(desk_data, desk_adv):
    cfg = desk_case_config(5, seed=42)
    results = sweep_thresholds(cfg, (2, 20), desk_data, desk_adv)
    stabilise = {}
    for th, scorecard in results.items():
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
    assert loaded.to_csv_bytes() == scorecard.to_csv_bytes()
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


def test_traffic_db_retrain_mix(tiny_data):
    db = TrafficDB(base_pool=tiny_data)
    attacks = list(tiny_data.attacks())[:6]
    db.record_outcomes(attacks, [False] * len(attacks))
    assert len(db.evaded_attacks) == 6
    retrain = db.build_retrain_set(ballast_size=100, seed=1)
    labels = [r.label.is_attack for r in retrain]
    # 6 evaded + 6 benign + 100 ballast
    assert len(retrain) == 112
    assert sum(labels) >= 6
    assert sum(1 for flag in labels if not flag) >= 6


def test_detected_attacks_accumulate(tiny_data):
    db = TrafficDB(base_pool=tiny_data)
    records = list(tiny_data)[:10]
    verdicts = [True] * 4 + [False] * 6
    db.record_outcomes(records, verdicts)
    assert len(db.detected_attacks) == 4
