import json

import pytest

from hgnids.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, _hyperparams_from_args, build_parser, main
from hgnids.config import config_bool, config_int, load_config
from hgnids.simulate import Scorecard
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
