import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hgnids.cli import (
    EXIT_DATA, EXIT_OK, EXIT_USAGE, _hyperparams_from_args, _sim_config, build_parser, main,
)
from hgnids.config import KEYS, config_bool, config_int, load_config
from hgnids.simulate import Scorecard, SimConfig
from hgnids.trees import ModelKind, default_hyperparams

TINY_CONFIG = "n_computers=2\nn_epochs=2\nbatch_size=150\n"


@pytest.fixture()
def tiny_cfg_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


def test_unknown_subcommand_is_usage_error(tmp_path):
    assert main(["frobnicate", "--out-dir", str(tmp_path)]) == EXIT_USAGE


def _train_args(*flags):
    return ["train", "--input", "absent.csv", "--mode", "nrf", "--kind", "gb", *flags]


@pytest.mark.parametrize("flag,value", [
    ("--trees", "0"), ("--depth", "0"), ("--min-leaf", "-1"),
    ("--learning-rate", "0"), ("--learning-rate", "-0.1"), ("--learning-rate", "nan"),
])
def test_train_rejects_non_positive_hyperparams(tmp_path, flag, value):
    assert main(_train_args(flag, value, "--out-dir", str(tmp_path))) == EXIT_USAGE


def test_hyperparams_from_args_explicit_and_default():
    args = build_parser().parse_args(_train_args(
        "--trees", "3", "--depth", "2", "--min-leaf", "4", "--learning-rate", "0.5",
        "--seed", "9", "--out-dir", "out",
    ))
    hp = _hyperparams_from_args(args, ModelKind.GRADIENT_BOOSTED)
    assert (hp.n_trees, hp.max_depth, hp.min_leaf, hp.learning_rate, hp.seed) == (3, 2, 4, 0.5, 9)
    args = build_parser().parse_args(_train_args("--seed", "9", "--out-dir", "out"))
    assert _hyperparams_from_args(args, ModelKind.GRADIENT_BOOSTED) == default_hyperparams(
        ModelKind.GRADIENT_BOOSTED, 9
    )


def test_sweep_has_no_baseline_flag(tmp_path):
    assert main([
        "sweep", "--case", "1", "--thresholds", "2", "--baseline", "--out-dir", str(tmp_path),
    ]) == EXIT_USAGE


def test_config_file_and_env_override(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nn_epochs=4\nuse_weights=yes\n\nbatch_size=250\n")
    cfg = load_config(path, env={"HGNIDS_BATCH_SIZE": "99", "UNRELATED": "x"})
    assert config_int(cfg, "n_epochs", 0) == 4
    assert config_int(cfg, "batch_size", 0) == 99  # env wins
    assert config_bool(cfg, "use_weights", False) is True
    assert config_int(cfg, "missing", 7) == 7


def test_config_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("this is not a pair\n")
    with pytest.raises(ValueError):
        load_config(path)


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text("n_epochs=2\n# comment\nn_epoch=1\n")
    with pytest.raises(ValueError, match=f"{path}:3: unknown key 'n_epoch'"):
        load_config(path)
    out = tmp_path / "sim"
    assert main(["simulate", "--case", "1", "--config", str(path), "--out-dir", str(out)]) == EXIT_DATA
    assert not (out / "scorecard.csv").exists()


def test_config_reads_only_known_env_keys():
    env = {
        "HGNIDS_CICIDS_CSV": "/secret/path.csv",
        "HGNIDS_N_EPOCH": "1",
        "HGNIDS_N_EPOCHS": "2",
        "HGNIDS_USE_WEIGHTS": "no",
    }
    assert load_config(env=env) == {"n_epochs": "2", "use_weights": "no"}


def test_manifest_config_leaves_out_unrelated_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HGNIDS_CICIDS_CSV", "/secret/path.csv")
    monkeypatch.setenv("HGNIDS_N_EPOCH", "1")
    out = tmp_path / "synth"
    assert main(["synth", "--profile", "benign", "--count", "5", "--out-dir", str(out)]) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["config"] == {}


def test_synth_ingest_roundtrip(tmp_path):
    out_synth = tmp_path / "synth"
    code = main([
        "synth", "--profile", "mixed", "--count", "300",
        "--pairs", "1.2.3.4>5.6.7.8", "--seed", "3", "--out-dir", str(out_synth),
    ])
    assert code == EXIT_OK
    manifest = json.loads((out_synth / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["outputs"]

    out_ingest = tmp_path / "ingest"
    code = main([
        "ingest", "--input", str(out_synth / "traffic.csv"), "--out-dir", str(out_ingest),
    ])
    assert code == EXIT_OK
    report = (out_ingest / "cleaning_report.txt").read_text()
    assert "dropped,0" in report
    manifest = json.loads((out_ingest / "manifest.json").read_text())
    assert str(out_synth / "traffic.csv") in manifest["inputs"]


def test_ingest_missing_file(tmp_path):
    assert main(["ingest", "--input", "/nonexistent.csv", "--out-dir", str(tmp_path)]) == EXIT_DATA


def test_features_and_train_eval(tmp_path):
    data_dir = tmp_path / "data"
    main(["synth", "--profile", "scan", "--count", "220", "--pairs", "9.9.9.9>8.8.8.8",
          "--seed", "2", "--out-dir", str(data_dir)])
    benign_dir = tmp_path / "benign"
    main(["synth", "--profile", "benign", "--count", "260", "--seed", "4",
          "--out-dir", str(benign_dir)])
    combined = tmp_path / "combined.csv"
    scan_lines = (data_dir / "traffic.csv").read_text().splitlines()
    benign_lines = (benign_dir / "traffic.csv").read_text().splitlines()
    combined.write_text("\n".join(scan_lines + benign_lines[1:]) + "\n")

    feats_dir = tmp_path / "feats"
    assert main(["features", "--input", str(combined), "--mode", "hgi",
                 "--out-dir", str(feats_dir)]) == EXIT_OK
    header = (feats_dir / "matrix_hgi.csv").read_text().splitlines()[0]
    assert header.count(",") == 21  # 21 feature slots + label

    train_dir = tmp_path / "model"
    assert main(["train", "--input", str(combined), "--mode", "nrf", "--kind", "rf",
                 "--trees", "20", "--seed", "5", "--out-dir", str(train_dir)]) == EXIT_OK
    eval_dir = tmp_path / "eval"
    assert main(["eval", "--model", str(train_dir / "model.json"), "--input", str(combined),
                 "--out-dir", str(eval_dir)]) == EXIT_OK
    report = json.loads((eval_dir / "eval.json").read_text())
    assert report["f1"] > 0.95


def test_simulate_case1_zero_fnp(tmp_path, tiny_cfg_file):
    out = tmp_path / "sim1"
    code = main([
        "simulate", "--case", "1", "--thresholds", "2", "--seed", "42",
        "--config", tiny_cfg_file, "--out-dir", str(out),
    ])
    assert code == EXIT_OK
    scorecard = Scorecard.read(out / "scorecard.csv")
    assert scorecard.rows
    assert all(r.fnp == 0.0 for r in scorecard.rows)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 42


def test_simulate_rejects_bad_case(tmp_path):
    assert main(["simulate", "--case", "7", "--out-dir", str(tmp_path)]) == EXIT_DATA


def test_sweep_two_thresholds(tmp_path, tiny_cfg_file):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--case", "1", "--thresholds", "2,20", "--seed", "1",
        "--config", tiny_cfg_file, "--out-dir", str(out),
    ])
    assert code == EXIT_OK
    assert (out / "threshold_2" / "scorecard.csv").exists()
    assert (out / "threshold_20" / "scorecard.csv").exists()
    summary = (out / "sweep_summary.csv").read_text().splitlines()
    assert summary[0].startswith("threshold,")
    assert len(summary) == 3


def test_report_roundtrip(tmp_path, tiny_cfg_file):
    run_dir = tmp_path / "run"
    main(["simulate", "--case", "1", "--thresholds", "2", "--seed", "8",
          "--config", tiny_cfg_file, "--out-dir", str(run_dir)])
    report_dir = tmp_path / "report"
    assert main(["report", "--run-dir", str(run_dir), "--out-dir", str(report_dir)]) == EXIT_OK
    series = (report_dir / "fnp_series.csv").read_text().splitlines()
    assert series[0] == "# schema: hgnids-report-v1"
    assert series[1] == "epoch,computer,fnp"
    assert len(series) == 2 + 4  # schema + header + 2x2 rows


def test_report_empty_dir_fails(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["report", "--run-dir", str(empty), "--out-dir", str(tmp_path / "r")]) == EXIT_DATA


def test_detect_scan_cli(tmp_path):
    data_dir = tmp_path / "scan"
    main(["synth", "--profile", "scan", "--count", "150", "--pairs", "7.7.7.7>6.6.6.6",
          "--seed", "2", "--out-dir", str(data_dir)])
    out = tmp_path / "flags"
    code = main(["detect-scan", "--input", str(data_dir / "traffic.csv"),
                 "--window-size", "150", "--out-dir", str(out)])
    assert code == EXIT_OK
    lines = (out / "flags.csv").read_text().splitlines()
    assert lines[0] == "window_id,src_ip,dst_ip,tail_sum"
    assert any("7.7.7.7" in line for line in lines[1:])


def test_advgen_cli(tmp_path, tiny_cfg_file):
    scan_dir = tmp_path / "scans"
    main(["synth", "--profile", "scan", "--count", "400", "--pairs", "7.7.7.7>6.6.6.6",
          "--seed", "2", "--out-dir", str(scan_dir)])
    benign_dir = tmp_path / "benign"
    main(["synth", "--profile", "benign", "--count", "500", "--seed", "3",
          "--out-dir", str(benign_dir)])
    combined = tmp_path / "combined.csv"
    scan_lines = (scan_dir / "traffic.csv").read_text().splitlines()
    benign_lines = (benign_dir / "traffic.csv").read_text().splitlines()
    combined.write_text("\n".join(scan_lines + benign_lines[1:]) + "\n")

    out = tmp_path / "adv"
    code = main(["advgen", "--input", str(combined), "--seed", "6", "--out-dir", str(out)])
    assert code == EXIT_OK
    stats = json.loads((out / "stats.json").read_text())
    assert stats["kept"] >= 1
    assert (out / "adversarial.csv").exists()


# Recorded from the per-row attack, before it ran rows in lockstep.
_ADVGEN_SHA256 = {
    "adversarial.csv": "b41b5cb0bf622936c43375d3b0933ef55b244f8907be2c7f9b5f6dc0202b0bb5",
    "stats.json": "5eb955f3d54bbfa27588c188d1abe916f98c880945496ddedf9e7e14f8b8ac57",
}


def test_advgen_cli_bytes(tmp_path):
    traffic = tmp_path / "synth" / "traffic.csv"
    main(["synth", "--profile", "mixed", "--count", "600", "--pairs", "7.7.7.7>6.6.6.6",
          "--attack-frac", "0.4", "--seed", "2", "--out-dir", str(traffic.parent)])
    out = tmp_path / "adv"
    assert main(["advgen", "--input", str(traffic), "--seed", "6", "--iters", "2",
                 "--coord-batch", "3", "--out-dir", str(out)]) == EXIT_OK
    assert json.loads((out / "stats.json").read_text())["kept"] == 4
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in _ADVGEN_SHA256}
    assert digests == _ADVGEN_SHA256


def test_simulate_same_bytes_across_hash_seeds(tmp_path):
    """String hashing order must not reach the outputs: two processes with
    different PYTHONHASHSEED values write the same scorecard and models."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / f"hash{hash_seed}"
        env = {k: v for k, v in os.environ.items() if not k.startswith("HGNIDS_")}
        env.update(PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-m", "hgnids.cli", "simulate", "--case", "1", "--seed", "3",
             "--out-dir", str(out)],
            env=env, check=True, capture_output=True,
        )
        models = sorted((out / "models" / "final").iterdir())
        outputs.append([(out / "scorecard.csv").read_bytes()] + [m.read_bytes() for m in models])
    assert outputs[0] == outputs[1]


_KEY_VALUES = {
    "n_computers": ("4", 4),
    "n_epochs": ("3", 3),
    "batch_size": ("77", 77),
    "attack_frac": ("0.125", 0.125),
    "adv_per_batch": ("9", 9),
    "ballast_size": ("77", 77),
    "use_weights": ("1", True),
}


def test_config_keys_are_sim_config_fields():
    assert set(KEYS) == set(_KEY_VALUES)
    assert set(KEYS) <= {f.name for f in dataclasses.fields(SimConfig)}


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("key", KEYS)
def test_every_config_key_reaches_sim_config(key, full):
    text, value = _KEY_VALUES[key]
    if full and key == "use_weights":  # on by default in --full runs
        text, value = "off", False
    argv = ["simulate", "--case", "4", "--threshold", "5", "--seed", "3", "--out-dir", "out"]
    args = build_parser().parse_args(argv + (["--full"] if full else []))
    base = _sim_config(args, {})
    cfg = _sim_config(args, {key: text})
    assert getattr(base, key) != value
    assert cfg == dataclasses.replace(base, **{key: value})
    assert (cfg.case_id, cfg.threshold, cfg.seed) == (4, 5, 3)


def test_sim_config_defaults_per_mode():
    def defaults(*flags):
        args = build_parser().parse_args(["simulate", "--case", "2", "--out-dir", "o", *flags])
        cfg = _sim_config(args, {})
        return {key: getattr(cfg, key) for key in KEYS}

    shared = {"ballast_size": 2000, "adv_per_batch": 50}
    assert defaults() == {"n_computers": 3, "n_epochs": 10, "batch_size": 1000,
                          "attack_frac": 0.3, "use_weights": False, **shared}
    assert defaults("--full") == {"n_computers": 10, "n_epochs": 30, "batch_size": 8900,
                                  "attack_frac": 0.25, "use_weights": True, **shared}


def test_simulate_rejects_zero_computers_before_training(tmp_path):
    path = tmp_path / "zero.cfg"
    path.write_text("n_computers=0\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--case", "1", "--config", str(path), "--out-dir", str(out)]) == EXIT_DATA
    assert not (out / "scorecard.csv").exists()


@pytest.mark.parametrize("size", ["0", "-5"])
def test_detect_scan_rejects_non_positive_window_size(tmp_path, size):
    out = tmp_path / "flags"
    assert main(["detect-scan", "--input", "absent.csv", "--window-size", size,
                 "--out-dir", str(out)]) == EXIT_USAGE
    assert not (out / "flags.csv").exists()


@pytest.mark.parametrize("flag,value", [
    ("--count", "-5"), ("--attack-frac", "1.5"), ("--attack-frac", "-0.5"), ("--attack-frac", "nan"),
])
def test_synth_rejects_bad_sizes(tmp_path, flag, value):
    out = tmp_path / "synth"
    assert main(["synth", "--profile", "mixed", "--count", "100", "--pairs", "1.2.3.4>5.6.7.8",
                 flag, value, "--out-dir", str(out)]) == EXIT_USAGE
    assert not (out / "traffic.csv").exists()


@pytest.mark.parametrize("profile", ["scan", "mixed"])
def test_synth_scan_profiles_need_pairs(tmp_path, profile):
    out = tmp_path / "synth"
    assert main(["synth", "--profile", profile, "--count", "5", "--out-dir", str(out)]) == EXIT_USAGE
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("flag,value", [
    ("--iters", "-3"), ("--coord-batch", "0"), ("--step", "-0.5"), ("--step", "inf"),
    ("--h", "0"), ("--h", "nan"), ("--keep-threshold", "1.5"), ("--keep-threshold", "-0.1"),
])
def test_advgen_rejects_bad_budget(tmp_path, flag, value):
    out = tmp_path / "adv"
    assert main(["advgen", "--input", "absent.csv", flag, value, "--out-dir", str(out)]) == EXIT_USAGE
    assert not (out / "adversarial.csv").exists()


@pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
def test_eval_rejects_threshold_outside_unit_interval(tmp_path, value):
    out = tmp_path / "eval"
    assert main(["eval", "--model", "absent.json", "--input", "absent.csv", "--threshold", value,
                 "--out-dir", str(out)]) == EXIT_USAGE
    assert not (out / "eval.json").exists()


def test_simulate_takes_one_threshold(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--case", "1", "--threshold", "2,5", "--out-dir", str(out)]) == EXIT_USAGE
    assert main(["simulate", "--case", "1", "--thresholds", "2,5", "--out-dir", str(out)]) == EXIT_USAGE
    assert not (out / "scorecard.csv").exists()
