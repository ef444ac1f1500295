import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hgnids import cli
from hgnids.adversarial import KEEP_THRESHOLD, ZooBudget
from hgnids.cli import (
    EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, _hyperparams_from_args, _sim_config,
    build_parser, main,
)
from hgnids.config import KEYS, ConfigError, load_config, parse_bool
from hgnids.flows import DEFAULT_COLUMN_MAP, DataFormatError
from hgnids.simulate import DESK_ZOO_BUDGET, Scorecard, SimConfig
from hgnids.trees import DECISION_THRESHOLD, ModelKind, default_hyperparams, serialize_model

from helpers import single_leaf_model

TINY_CONFIG = "n_computers=2\nn_epochs=2\nbatch_size=150\n"


@pytest.fixture()
def tiny_cfg_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


def test_unknown_subcommand_is_usage_error(tmp_path, capsys):
    assert main(["frobnicate", "--out-dir", str(tmp_path)]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


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
    assert cfg == {"n_epochs": "4", "use_weights": "yes", "batch_size": "99"}  # env wins


def test_config_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("this is not a pair\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text("n_epochs=2\n# comment\nn_epoch=1\n")
    with pytest.raises(ConfigError, match=f"{path}:3: unknown key 'n_epoch'"):
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


def test_ingest_missing_file(tmp_path, capsys):
    assert main(["ingest", "--input", "/nonexistent.csv", "--out-dir", str(tmp_path)]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


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


def test_simulate_rejects_bad_case(tmp_path, capsys):
    out = tmp_path / "run"
    for argv in (["simulate", "--case", "7"], ["simulate", "--case", "0"],
                 ["sweep", "--case", "9", "--thresholds", "2"]):
        assert main(argv + ["--out-dir", str(out)]) == EXIT_USAGE
        assert "usage error: argument --case: invalid choice" in capsys.readouterr().err
        assert not out.exists()


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


def test_sweep_rejects_repeated_thresholds(tmp_path, tiny_cfg_file, capsys):
    code = main([
        "sweep", "--case", "1", "--thresholds", "5,5", "--seed", "1",
        "--config", tiny_cfg_file, "--out-dir", str(tmp_path),
    ])
    assert code == EXIT_DATA
    assert "repeated" in capsys.readouterr().err
    assert not list(tmp_path.glob("threshold_*"))


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
    for key, (text, _) in _KEY_VALUES.items():
        assert type(KEYS[key](text)) is type(getattr(SimConfig(1), key))


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


@pytest.mark.parametrize("spec", [
    "a>", ">b", " > ", "1.2.3.4>5.6.7.8;a> ", "a>b>c", "1.2.3.4>5.6.7.8;a>>b",
])
def test_synth_pairs_need_both_endpoints(tmp_path, capsys, spec):
    """A pair is one src>dst with both ends named; the error names the pair."""
    out = tmp_path / "synth"
    assert main(["synth", "--profile", "scan", "--count", "5", "--pairs", spec,
                 "--out-dir", str(out)]) == EXIT_USAGE
    assert f"got {spec.split(';')[-1].strip()!r}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("spec", ["x>", ">y", "x>y>z"])
def test_features_hackers_need_both_endpoints(tmp_path, spec):
    traffic = tmp_path / "synth" / "traffic.csv"
    main(["synth", "--profile", "scan", "--count", "20", "--pairs", "7.7.7.7>6.6.6.6",
          "--out-dir", str(traffic.parent)])
    out = tmp_path / "features"
    assert main(["features", "--input", str(traffic), "--mode", "hgi", "--hackers", spec,
                 "--out-dir", str(out)]) == EXIT_USAGE
    assert not (out / "manifest.json").exists()


# Recorded from the record-by-record generator, before synthesis wrote
# columns; the pipeline test pins only --profile mixed.
_SYNTH_SHA256 = {
    ("scan", "1.2.3.4>5.6.7.8;9.9.9.9>8.8.8.8"):
        "d5970585c777def4090230c2480a7709aab2968a14feccef08f7e5c9e9a54fc0",
    ("benign", None): "eb45237b64f5d2397c68836dbfc0d61d6b375247cb308d035ad445ba8c5963fb",
}


@pytest.mark.parametrize("profile,pairs", list(_SYNTH_SHA256))
def test_synth_cli_bytes(tmp_path, profile, pairs):
    argv = ["synth", "--profile", profile, "--count", "400", "--out-dir", str(tmp_path)]
    assert main(argv + (["--pairs", pairs] if pairs else [])) == EXIT_OK
    digest = hashlib.sha256((tmp_path / "traffic.csv").read_bytes()).hexdigest()
    assert digest == _SYNTH_SHA256[profile, pairs]


@pytest.mark.parametrize("flag,value", [
    ("--iters", "-3"), ("--coord-batch", "0"), ("--step", "-0.5"), ("--step", "inf"),
    ("--h", "0"), ("--h", "nan"), ("--keep-threshold", "1.5"), ("--keep-threshold", "-0.1"),
])
def test_advgen_rejects_bad_budget(tmp_path, flag, value):
    out = tmp_path / "adv"
    assert main(["advgen", "--input", "absent.csv", flag, value, "--out-dir", str(out)]) == EXIT_USAGE
    assert not (out / "adversarial.csv").exists()


def test_advgen_and_eval_defaults_are_the_package_constants():
    parser = build_parser()
    advgen = parser.parse_args(["advgen", "--input", "in.csv", "--out-dir", "out"])
    assert ZooBudget(advgen.iters, advgen.step, advgen.h, advgen.coord_batch) == DESK_ZOO_BUDGET
    assert advgen.keep_threshold == KEEP_THRESHOLD
    evaluated = parser.parse_args(["eval", "--model", "m.json", "--input", "in.csv", "--out-dir", "out"])
    assert evaluated.threshold == DECISION_THRESHOLD


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


@pytest.mark.parametrize("argv", [
    ["sweep", "--case", "1", "--thresholds", "2,0"],
    ["sweep", "--case", "1", "--thresholds", "2,-1"],
    ["sweep", "--case", "1", "--thresholds", "2,x"],
    ["simulate", "--case", "1", "--threshold", "0"],
    ["simulate", "--case", "1", "--threshold", "-3"],
])
def test_non_positive_threshold_is_usage_error_before_any_run(tmp_path, argv):
    out = tmp_path / "run"
    assert main(argv + ["--out-dir", str(out)]) == EXIT_USAGE
    assert not out.exists()


# Every subcommand, with its required arguments.
_SUBCOMMANDS = {
    "ingest": ["--input", "absent.csv"],
    "synth": ["--profile", "benign", "--count", "5"],
    "hypergraph": ["--input", "absent.csv"],
    "features": ["--input", "absent.csv", "--mode", "nrf"],
    "train": ["--input", "absent.csv", "--mode", "nrf", "--kind", "rf"],
    "eval": ["--model", "absent.json", "--input", "absent.csv"],
    "advgen": ["--input", "absent.csv"],
    "detect-scan": ["--input", "absent.csv"],
    "simulate": ["--case", "1"],
    "sweep": ["--case", "1", "--thresholds", "2"],
    "report": ["--run-dir", "absent"],
}


def test_every_subcommand_is_listed():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(subparsers.choices) == sorted(_SUBCOMMANDS)


@pytest.mark.parametrize("command", ["synth", "train", "advgen", "simulate", "sweep"])
def test_seed_must_be_a_non_negative_integer(tmp_path, capsys, command):
    out = tmp_path / "run"
    assert main([command, *_SUBCOMMANDS[command], "--seed", "-1", "--out-dir", str(out)]) == EXIT_USAGE
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


# SHA-256 of `sweep --case 4 --thresholds 2,20 --seed 1` (2 x 3 batches of
# 150 records) and of `report` on its threshold_2 run, which retrains twice;
# recorded before both outputs were read from Scorecard.epoch_summaries.
_SWEEP_SUMMARY_SHA256 = "880a33f6d62afcdbb6de156499753140fef6fa354dd8fe71e6c892df7d58b580"
_REPORT_SUMMARY_SHA256 = "ef2b117052d54a00cdcd631e10d29f6a25812c543ec79ce82a10500ba4bc8f6c"


def test_sweep_and_report_summaries_pinned(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("n_computers=2\nn_epochs=3\nbatch_size=150\n")
    sweep = tmp_path / "sweep"
    assert main(["sweep", "--case", "4", "--thresholds", "2,20", "--seed", "1",
                 "--config", str(cfg), "--out-dir", str(sweep)]) == EXIT_OK
    report = tmp_path / "report"
    assert main(["report", "--run-dir", str(sweep / "threshold_2"),
                 "--out-dir", str(report)]) == EXIT_OK
    digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()  # noqa: E731
    assert digest(sweep / "sweep_summary.csv") == _SWEEP_SUMMARY_SHA256
    assert digest(report / "summary.csv") == _REPORT_SUMMARY_SHA256


@pytest.mark.parametrize("text,value", [
    ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
    ("0", False), ("False", False), ("NO", False), ("off", False),
])
def test_config_bool_words(text, value):
    assert parse_bool(text) is value
    assert load_config(env={"HGNIDS_USE_WEIGHTS": text}) == {"use_weights": text}


@pytest.mark.parametrize("line,key", [
    ("use_weights=ture", "use_weights"), ("n_epochs=ten", "n_epochs"),
    ("attack_frac=half", "attack_frac"), ("use_weights=", "use_weights"),
])
def test_config_file_value_that_does_not_parse_is_data_error(tmp_path, capsys, line, key):
    path = tmp_path / "bad.cfg"
    path.write_text(f"n_computers=2\n{line}\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--case", "1", "--config", str(path), "--out-dir", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{path}:2" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("name,value", [
    ("HGNIDS_USE_WEIGHTS", "ture"), ("HGNIDS_N_EPOCHS", "ten"), ("HGNIDS_BATCH_SIZE", "1.5"),
])
def test_config_env_value_that_does_not_parse_is_data_error(tmp_path, capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    out = tmp_path / "sim"
    assert main(["simulate", "--case", "1", "--out-dir", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert name in err and name[len("HGNIDS_"):].lower() in err
    assert not out.exists()


def _scorecard_dir(tmp_path, text):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "scorecard.csv").write_text(text)
    return run_dir


_SCORECARD_HEADER = (
    "epoch,computer,tp,fp,tn,fn,fnp,accuracy,precision,recall,f1,retrain_events,ensemble_versions\n"
)
_SCORECARD_ROW = "0,0,5,0,10,0,0.0,1.0,1.0,1.0,1.0,0,0|0|0\n"


@pytest.mark.parametrize("text,expected", [
    (_SCORECARD_HEADER.replace(",fp,", ",") + _SCORECARD_ROW.replace(",0,10,", ",10,", 1),
     "missing column(s): fp"),
    (_SCORECARD_HEADER.replace("tp,fp", "tp").replace(",f1,", ","), "missing column(s): fp, f1"),
    (_SCORECARD_HEADER + _SCORECARD_ROW + "1,0,5,0,10\n", ":3: row ends before column fn"),
    (_SCORECARD_HEADER + _SCORECARD_ROW + "1,0,5,0,10,0,0.0,1.0,1.0,1.0,1.0,0\n",
     ":3: row ends before column ensemble_versions"),
    (_SCORECARD_HEADER + _SCORECARD_ROW.replace("0,0,5", "0,0,five"), ":2: column tp: bad cell 'five'"),
    (_SCORECARD_HEADER + _SCORECARD_ROW.replace("1.0,0,", "high,0,"), ":2: column f1: bad cell 'high'"),
], ids=["no-fp", "no-fp-f1", "short-row", "no-versions", "bad-int", "bad-float"])
def test_report_rejects_malformed_scorecard_as_data(tmp_path, capsys, text, expected):
    run_dir = _scorecard_dir(tmp_path, text)
    out = tmp_path / "report"
    assert main(["report", "--run-dir", str(run_dir), "--out-dir", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(run_dir / "scorecard.csv") in err and expected in err
    with pytest.raises(DataFormatError, match="scorecard.csv"):
        Scorecard.read(run_dir / "scorecard.csv")


_OVER_FIELD_LIMIT = "x" * (1 << 17) + "x"  # one past the csv module's default field limit


@pytest.mark.parametrize("command", ["ingest", "report"])
def test_cell_over_csv_field_limit_is_data_error(tmp_path, capsys, command):
    if command == "ingest":
        source = tmp_path / "flows.csv"
        source.write_text(",".join(DEFAULT_COLUMN_MAP.values()) + "\n" + _OVER_FIELD_LIMIT + "\n")
        args = ["ingest", "--input", str(source)]
    else:
        run_dir = _scorecard_dir(tmp_path, _SCORECARD_HEADER + _OVER_FIELD_LIMIT + "\n")
        source = run_dir / "scorecard.csv"
        args = ["report", "--run-dir", str(run_dir)]
    out = tmp_path / "out"
    assert main([*args, "--out-dir", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"{source}:2: field larger than field limit" in err
    assert json.loads((out / "manifest.json").read_text())["outputs"] == []


def test_internal_error_is_exit_3_and_lists_no_outputs(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("synthesis broke")

    monkeypatch.setattr(cli, "synth_traffic", broken)
    out = tmp_path / "synth"
    assert main(["synth", "--profile", "benign", "--count", "5", "--out-dir", str(out)]) == EXIT_INTERNAL
    assert "internal error: synthesis broke" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["outputs"] == []


def test_value_error_inside_a_command_is_exit_3(tmp_path, capsys, monkeypatch):
    """A bare ValueError is a fault in the program, not bad input."""
    def broken(*args):
        raise ValueError("zero-size array to reduction operation minimum")

    monkeypatch.setattr(cli, "synth_traffic", broken)
    out = tmp_path / "synth"
    assert main(["synth", "--profile", "benign", "--count", "5", "--out-dir", str(out)]) == EXIT_INTERNAL
    assert "internal error: zero-size array" in capsys.readouterr().err


def _benign_csv(tmp_path) -> Path:
    out = tmp_path / "benign"
    assert main(["synth", "--profile", "benign", "--count", "20", "--out-dir", str(out)]) == EXIT_OK
    return out / "traffic.csv"


@pytest.mark.parametrize("column_map,expected", [
    ({"src_ip": "Source IP"}, "missing field(s) ['dst_ip', 'src_port'"),
    ([1, 2], "must be an object of field -> header, got list"),
    ({**DEFAULT_COLUMN_MAP, "label": 5}, "header of ['label'] is not a string"),
    ({**{k: v for k, v in DEFAULT_COLUMN_MAP.items() if k != "label"}, "lable": "Label"},
     "missing field(s) ['label'], unknown field(s) ['lable']"),
    ({**DEFAULT_COLUMN_MAP, "dst_ip": " Source IP"},
     "header 'Source IP' is named by fields ['src_ip', 'dst_ip']"),
], ids=["partial", "list", "non-string-header", "typo-key", "header-named-twice"])
def test_bad_column_map_is_data_error(tmp_path, capsys, column_map, expected):
    traffic = _benign_csv(tmp_path)
    cmap = tmp_path / "cmap.json"
    cmap.write_text(json.dumps(column_map))
    assert main(["ingest", "--input", str(traffic), "--column-map", str(cmap),
                 "--out-dir", str(tmp_path / "ingest")]) == EXIT_DATA
    assert expected in capsys.readouterr().err


def test_header_naming_a_mapped_column_twice_is_data_error(tmp_path, capsys):
    lines = _benign_csv(tmp_path).read_text().splitlines()
    doubled = tmp_path / "doubled.csv"
    doubled.write_text("\n".join([lines[0] + ",Label"] + [row + ",PortScan" for row in lines[1:]]) + "\n")
    assert main(["ingest", "--input", str(doubled), "--out-dir", str(tmp_path / "ingest")]) == EXIT_DATA
    assert f"{doubled}: header names mapped column 'Label' twice" in capsys.readouterr().err


def test_column_map_that_is_not_json_is_data_error(tmp_path, capsys):
    cmap = tmp_path / "cmap.json"
    cmap.write_text("{src_ip: Source IP}")
    assert main(["ingest", "--input", str(_benign_csv(tmp_path)), "--column-map", str(cmap),
                 "--out-dir", str(tmp_path / "ingest")]) == EXIT_DATA
    assert f"{cmap}: column map is not JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["features", "--mode", "hgi"], ["train", "--mode", "nrf", "--kind", "rf"], ["advgen"],
])
def test_input_with_no_clean_rows_is_data_error(tmp_path, capsys, command):
    empty = tmp_path / "empty.csv"
    empty.write_text(_benign_csv(tmp_path).read_text().splitlines()[0] + "\n")
    assert main([*command, "--input", str(empty), "--out-dir", str(tmp_path / "out")]) == EXIT_DATA
    assert f"{empty}: no flow row survives cleaning" in capsys.readouterr().err


def test_train_on_one_clean_row_is_data_error(tmp_path, capsys):
    one_row = tmp_path / "one_row.csv"
    one_row.write_text("\n".join(_benign_csv(tmp_path).read_text().splitlines()[:2]) + "\n")
    assert main(["train", "--input", str(one_row), "--mode", "nrf", "--kind", "rf",
                 "--out-dir", str(tmp_path / "out")]) == EXIT_DATA
    assert "data error: need at least 2 rows to split" in capsys.readouterr().err


def test_simulate_on_benign_only_data_is_data_error(tmp_path, capsys):
    """Case 1 streams the base data as it is; case 3 first spreads its scan
    rows over 16 pairs, and there are none."""
    benign = _benign_csv(tmp_path)
    for case, expected in ((1, "base data has no attack records to stream"),
                           (3, "dataset has no port-scan records to remap")):
        assert main(["simulate", "--case", str(case), "--data", str(benign),
                     "--out-dir", str(tmp_path / f"case{case}")]) == EXIT_DATA
        assert f"data error: {expected}" in capsys.readouterr().err


def _cyclic_model() -> bytes:
    payload = json.loads(serialize_model(single_leaf_model(0.5)))
    payload["trees"][0].update(feature=[0], left=[0], right=[0])
    return json.dumps(payload).encode()


def _fractional_width_model() -> bytes:
    payload = json.loads(serialize_model(single_leaf_model(0.5)))
    payload["n_features"] += 0.5
    return json.dumps(payload).encode()


@pytest.mark.parametrize("blob,expected", [
    (b"[]", "model payload is not a JSON object"),
    (b'{"format": "hgnids.tree-model", "version": 1}', "model payload lacks"),
    (_cyclic_model(), "model tree 0: node 0"),
    (_fractional_width_model(), "model n_features must be an integer, got 9.5"),
    (b"model", "model payload is not JSON"),
    (b"\xff\xfe", "model payload is not JSON"),
], ids=["list", "no-keys", "self-cycle", "fractional-width", "not-json", "not-utf8"])
def test_malformed_model_is_data_error(tmp_path, capsys, blob, expected):
    model = tmp_path / "model.json"
    model.write_bytes(blob)
    assert main(["eval", "--model", str(model), "--input", str(_benign_csv(tmp_path)),
                 "--out-dir", str(tmp_path / "eval")]) == EXIT_DATA
    assert expected in capsys.readouterr().err


def test_model_with_out_of_range_hyperparams_is_data_error(tmp_path, capsys):
    payload = json.loads(serialize_model(single_leaf_model(0.5)))
    payload["hyperparams"]["min_leaf"] = 0
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    assert main(["eval", "--model", str(model), "--input", str(_benign_csv(tmp_path)),
                 "--out-dir", str(tmp_path / "eval")]) == EXIT_DATA
    assert "hyperparams need min_leaf >= 1" in capsys.readouterr().err


def _scan_then_benign_csv(tmp_path, n_benign: int) -> Path:
    """One port-scan row, then n_benign benign rows."""
    scan = tmp_path / "scan"
    assert main(["synth", "--profile", "scan", "--count", "1", "--pairs", "9.9.9.9>8.8.8.8",
                 "--out-dir", str(scan)]) == EXIT_OK
    rows = (scan / "traffic.csv").read_text().splitlines()
    rows += _benign_csv(tmp_path).read_text().splitlines()[1:1 + n_benign]
    path = tmp_path / f"scan_then_{n_benign}_benign.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def test_train_with_no_holdout_row_is_data_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", "--input", str(_scan_then_benign_csv(tmp_path, 1)), "--mode", "nrf",
                 "--kind", "rf", "--out-dir", str(out)]) == EXIT_DATA
    assert "the 80/20 split leaves no holdout row" in capsys.readouterr().err
    assert not (out / "model.json").exists()


@pytest.mark.parametrize("n_benign", [1, 20])
@pytest.mark.parametrize("command", [
    ["advgen", "--input"], *(["simulate", "--case", case, "--data"] for case in "456"),
], ids=["advgen", "case4", "case5", "case6"])
def test_split_with_no_scan_row_to_attack_is_data_error(tmp_path, capsys, command, n_benign):
    data = _scan_then_benign_csv(tmp_path, n_benign)
    assert main([*command, str(data), "--out-dir", str(tmp_path / "out")]) == EXIT_DATA
    assert "data error: the 85/15 split leaves no port-scan row to attack" in capsys.readouterr().err


def _not_utf8_case(tmp_path, case):
    """Write one input file that is not UTF-8 text; return it and the argv,
    up to --out-dir, of the command that reads it."""
    if case == "ingest-label":
        # cp1252 0x96 is the en dash of "Web Attack – Brute Force".
        path = tmp_path / "cp1252.csv"
        lines = _benign_csv(tmp_path).read_bytes().splitlines(keepends=True)
        lines[-1] = lines[-1].replace(b"BENIGN", b"Web Attack \x96 Brute Force")
        path.write_bytes(b"".join(lines))
        return path, ["ingest", "--input", str(path)]
    if case == "simulate-config":
        path = tmp_path / "latin1.cfg"
        path.write_bytes("# réglage\nn_epochs=2\n".encode("latin-1"))
        return path, ["simulate", "--case", "1", "--config", str(path)]
    if case == "ingest-column-map":
        path = tmp_path / "cmap.json"
        path.write_bytes(json.dumps({**DEFAULT_COLUMN_MAP, "label": "Libellé"}, ensure_ascii=False)
                         .encode("latin-1"))
        return path, ["ingest", "--input", str(_benign_csv(tmp_path)), "--column-map", str(path)]
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    path = run_dir / "scorecard.csv"
    path.write_bytes((_SCORECARD_HEADER + _SCORECARD_ROW).encode() + _SCORECARD_ROW.encode()[:-1] + b"\xe9\n")
    return path, ["report", "--run-dir", str(run_dir)]


@pytest.mark.parametrize("case", [
    "ingest-label", "simulate-config", "ingest-column-map", "report-scorecard",
])
def test_input_that_is_not_utf8_is_data_error(tmp_path, capsys, case):
    path, argv = _not_utf8_case(tmp_path, case)
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"{path}: not UTF-8 text" in err


def _unopenable_case(tmp_path, case):
    """A directory where a command reads a file, or a file where it writes
    a directory; return that path and the command's argv."""
    folder = tmp_path / "folder"
    folder.mkdir()
    out = ["--out-dir", str(tmp_path / "out")]
    if case == "ingest-input":
        return folder, ["ingest", "--input", str(folder), *out]
    if case == "ingest-column-map":
        return folder, ["ingest", "--input", str(_benign_csv(tmp_path)), "--column-map", str(folder), *out]
    if case == "eval-model":
        return folder, ["eval", "--model", str(folder), "--input", str(_benign_csv(tmp_path)), *out]
    if case == "simulate-config":
        return folder, ["simulate", "--case", "1", "--config", str(folder), *out]
    if case == "report-scorecard":
        (folder / "scorecard.csv").mkdir()
        return folder / "scorecard.csv", ["report", "--run-dir", str(folder), *out]
    traffic = _benign_csv(tmp_path)
    return traffic, ["synth", "--profile", "benign", "--count", "5", "--out-dir", str(traffic)]


@pytest.mark.parametrize("case", [
    "ingest-input", "ingest-column-map", "eval-model", "simulate-config", "report-scorecard",
    "synth-out-dir",
])
def test_path_that_cannot_be_opened_is_data_error(tmp_path, capsys, case):
    path, argv = _unopenable_case(tmp_path, case)
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(path) in err


@pytest.mark.parametrize("command", [
    "ingest", "synth", "hypergraph", "features", "train", "eval", "advgen", "detect-scan",
    "simulate", "sweep", "report",
])
def test_only_simulate_and_sweep_take_config(capsys, command):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    assert ("--config" in capsys.readouterr().out) == (command in ("simulate", "sweep"))


def test_ingest_ignores_config_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HGNIDS_N_EPOCHS", "ten")
    monkeypatch.setenv("HGNIDS_BATCH_SIZE", "5")
    out = tmp_path / "ingest"
    assert main(["ingest", "--input", str(_benign_csv(tmp_path)), "--out-dir", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {} and "config" not in manifest["args"]
