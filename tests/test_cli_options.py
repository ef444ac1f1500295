"""Every option a subcommand accepts changes what it computes.

The audit below holds one entry per option of every subcommand, read from
build_parser(): an invocation, and the option with a value that differs
from the invocation's own (its default, where the invocation leaves the
option out). The two runs must write different files, manifest.json
aside. --out-dir only names where the files go and has no entry.
A flag that another makes moot is a usage error naming both, and a
command that draws no random number takes no --seed.
"""

import argparse
import json
from pathlib import Path

import pytest

from hgnids.cli import EXIT_OK, EXIT_USAGE, build_parser, main
from hgnids.flows import DEFAULT_COLUMN_MAP, concat, synth_traffic, write_csv

SCAN_PAIR = ("10.0.0.1", "10.0.0.9")
OTHER_PAIR = ("10.0.0.2", "10.0.0.9")
SECOND_SCAN_PAIR = ("10.0.0.3", "10.0.0.9")
HACKERS = ">".join(SCAN_PAIR)

# Inputs the audit reads, by name under the fixture directory: two flow
# CSVs, a column map that swaps the packet-count headers, two models, two
# run configs and two run directories.
T1, T2, MAP, M1, M2, CFG1, CFG2, RUN1, RUN2 = (
    "t1.csv", "t2.csv", "swap.json", "m1/model.json", "m2/model.json", "a.cfg", "b.cfg",
    "run1", "run2",
)

_TRAIN = ["--mode", "nrf", "--kind", "gb", "--trees", "3"]
_SIM = ["--case", "3", "--data", T1, "--config", CFG1]
_SWEEP = ["--case", "3", "--thresholds", "1,3", "--data", T1, "--config", CFG1]
_ADVGEN = ["--input", T1, "--iters", "2"]

# (command, option) -> (the invocation's argv, the option's other value;
# None for a flag the invocation leaves out).
AUDIT = {
    ("ingest", "--input"): (["--input", T1], T2),
    ("ingest", "--column-map"): (["--input", T1], MAP),
    ("synth", "--profile"): (["--profile", "scan", "--count", "60", "--pairs", HACKERS], "mixed"),
    ("synth", "--count"): (["--profile", "scan", "--count", "60", "--pairs", HACKERS], "61"),
    ("synth", "--pairs"): (["--profile", "scan", "--count", "60", "--pairs", HACKERS],
                           ">".join(OTHER_PAIR)),
    ("synth", "--attack-frac"): (["--profile", "mixed", "--count", "60", "--pairs", HACKERS],
                                 "0.5"),
    ("synth", "--seed"): (["--profile", "benign", "--count", "60"], "1"),
    ("hypergraph", "--input"): (["--input", T1], T2),
    ("features", "--input"): (["--input", T1, "--mode", "hgi"], T2),
    ("features", "--mode"): (["--input", T1, "--mode", "hgi"], "hga"),
    ("features", "--weights"): (["--input", T1, "--mode", "hgi"], None),
    ("features", "--hackers"): (["--input", T1, "--mode", "hgi", "--weights"], HACKERS),
    ("train", "--input"): (["--input", T1, *_TRAIN], T2),
    ("train", "--mode"): (["--input", T1, *_TRAIN], "hgi"),
    ("train", "--kind"): (["--input", T1, *_TRAIN], "rf"),
    ("train", "--trees"): (["--input", T1, *_TRAIN], "4"),
    ("train", "--depth"): (["--input", T1, *_TRAIN], "1"),
    ("train", "--min-leaf"): (["--input", T1, *_TRAIN], "40"),
    ("train", "--learning-rate"): (["--input", T1, *_TRAIN], "0.5"),
    ("train", "--seed"): (["--input", T1, *_TRAIN], "1"),
    ("eval", "--model"): (["--model", M1, "--input", T1], M2),
    ("eval", "--input"): (["--model", M1, "--input", T1], T2),
    ("eval", "--threshold"): (["--model", M1, "--input", T1], "0.9"),
    ("advgen", "--input"): (_ADVGEN, T2),
    ("advgen", "--iters"): (_ADVGEN, "3"),
    ("advgen", "--step"): (_ADVGEN, "0.5"),
    ("advgen", "--h"): (_ADVGEN, "0.1"),
    ("advgen", "--coord-batch"): (_ADVGEN, "4"),
    ("advgen", "--keep-threshold"): (_ADVGEN, "0.9"),
    ("advgen", "--seed"): (_ADVGEN, "1"),
    ("detect-scan", "--input"): (["--input", T1], T2),
    ("detect-scan", "--window-size"): (["--input", T1], "50"),
    ("simulate", "--case"): (_SIM, "2"),
    ("simulate", "--threshold"): (_SIM, "5"),
    ("simulate", "--data"): (_SIM, T2),
    ("simulate", "--baseline"): (_SIM, None),
    ("simulate", "--full"): (_SIM, None),
    ("simulate", "--config"): (_SIM, CFG2),
    ("simulate", "--seed"): (_SIM, "1"),
    ("sweep", "--case"): (_SWEEP, "2"),
    ("sweep", "--thresholds"): (_SWEEP, "1,4"),
    ("sweep", "--data"): (_SWEEP, T2),
    ("sweep", "--full"): (_SWEEP, None),
    ("sweep", "--config"): (_SWEEP, CFG2),
    ("sweep", "--seed"): (_SWEEP, "1"),
    ("report", "--run-dir"): (["--run-dir", RUN1], RUN2),
}

# The required arguments of each command that draws no random number.
UNSEEDED = {
    "ingest": ["--input", "absent.csv"],
    "hypergraph": ["--input", "absent.csv"],
    "features": ["--input", "absent.csv", "--mode", "nrf"],
    "eval": ["--model", "absent.json", "--input", "absent.csv"],
    "detect-scan": ["--input", "absent.csv"],
    "report": ["--run-dir", "absent"],
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _options(parser: argparse.ArgumentParser) -> list[str]:
    return [a.option_strings[0] for a in parser._actions
            if a.option_strings and a.dest not in ("help", "out_dir")]


def test_audit_holds_every_option_of_every_subcommand():
    options = {(command, option) for command, parser in _subparsers().items()
               for option in _options(parser)}
    assert set(AUDIT) == options
    assert len(options) + len(_subparsers()) == 57  # with one --out-dir each


def _traffic(seed: int, scan_pair=SCAN_PAIR):
    return concat(synth_traffic("PORT_SCAN", 120, [scan_pair], seed=seed),
                  synth_traffic("MIXED", 300, [OTHER_PAIR], seed=seed + 1, attack_frac=0.2))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("audit")
    write_csv(_traffic(1), root / T1)
    write_csv(_traffic(3, SECOND_SCAN_PAIR), root / T2)
    swap = dict(DEFAULT_COLUMN_MAP, tot_fwd_pkts=DEFAULT_COLUMN_MAP["tot_bwd_pkts"],
                tot_bwd_pkts=DEFAULT_COLUMN_MAP["tot_fwd_pkts"])
    (root / MAP).write_text(json.dumps(swap))
    (root / CFG1).write_text("n_computers=2\nn_epochs=2\nbatch_size=60\nballast_size=50\n")
    (root / CFG2).write_text("n_computers=2\nn_epochs=3\nbatch_size=60\nballast_size=50\n")
    for model, trees in ((M1, "3"), (M2, "5")):
        argv = ["train", "--input", str(root / T1), *_TRAIN[:-1], trees]
        assert main([*argv, "--out-dir", str(root / Path(model).parent)]) == EXIT_OK
    for run, seed in ((RUN1, "0"), (RUN2, "1")):
        argv = ["simulate", *_absolute(root, _SIM), "--seed", seed]
        assert main([*argv, "--out-dir", str(root / run)]) == EXIT_OK
    return root


def _absolute(root: Path, argv: list[str]) -> list[str]:
    """argv with each name of a fixture input as a path under root."""
    named = {T1, T2, MAP, M1, M2, CFG1, CFG2, RUN1, RUN2}
    return [str(root / a) if a in named else a for a in argv]


def _with(argv: list[str], option: str, value) -> list[str]:
    """argv with option set to value: in place where argv has it, else appended."""
    if option in argv:
        i = argv.index(option)
        return [*argv[:i + 1], value, *argv[i + 2:]]
    return [*argv, option] + ([] if value is None else [value])


def _outputs(root: Path, command: str, argv: list[str], name: str) -> dict[str, bytes]:
    out = root / name
    assert main([command, *_absolute(root, argv), "--out-dir", str(out)]) == EXIT_OK
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


@pytest.mark.parametrize("command,option", list(AUDIT), ids=[" ".join(k) for k in AUDIT])
def test_every_option_changes_the_output(inputs, command, option):
    argv, value = AUDIT[command, option]
    tag = f"{command}{option}"
    without = _outputs(inputs, command, argv, f"{tag}-without")
    with_option = _outputs(inputs, command, _with(argv, option, value), f"{tag}-with")
    assert without and without != with_option


# A flag another makes moot, with the argv that makes it moot, and the two
# flags the usage error names.
_SYNTH = ["synth", "--count", "5"]
_FEATURES = ["features", "--input", "absent.csv"]
MOOT = {
    "pairs-benign": ([*_SYNTH, "--profile", "benign", "--pairs", HACKERS], "--pairs", "--profile"),
    "attack-frac-benign": ([*_SYNTH, "--profile", "benign", "--attack-frac", "0.5"],
                           "--attack-frac", "--profile"),
    "attack-frac-scan": ([*_SYNTH, "--profile", "scan", "--pairs", HACKERS, "--attack-frac", "0.5"],
                         "--attack-frac", "--profile"),
    "hackers-unweighted": ([*_FEATURES, "--mode", "hgi", "--hackers", HACKERS],
                           "--hackers", "--weights"),
    "weights-nrf": ([*_FEATURES, "--mode", "nrf", "--weights"], "--weights", "--mode"),
    "hackers-nrf": ([*_FEATURES, "--mode", "nrf", "--hackers", HACKERS], "--hackers", "--mode"),
    "weights-hackers-nrf": ([*_FEATURES, "--mode", "nrf", "--weights", "--hackers", HACKERS],
                            "--weights", "--mode"),
    "learning-rate-rf": (["train", "--input", "absent.csv", "--mode", "nrf", "--kind", "rf",
                          "--learning-rate", "0.5"], "--learning-rate", "--kind"),
}


@pytest.mark.parametrize("argv,moot,by", MOOT.values(), ids=list(MOOT))
def test_a_moot_flag_is_a_usage_error(tmp_path, capsys, argv, moot, by):
    out = tmp_path / "run"
    assert main([*argv, "--out-dir", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert moot in err and by in err
    assert not out.exists()


def test_only_the_commands_that_draw_random_numbers_take_a_seed():
    seeded = {command for command, _ in AUDIT if (command, "--seed") in AUDIT}
    assert seeded == {"synth", "train", "advgen", "simulate", "sweep"}
    assert sorted(UNSEEDED) == sorted(set(_subparsers()) - seeded)


@pytest.mark.parametrize("command", list(UNSEEDED))
def test_a_command_that_draws_no_random_number_takes_no_seed(tmp_path, capsys, command):
    out = tmp_path / "run"
    assert main([command, *UNSEEDED[command], "--seed", "0", "--out-dir", str(out)]) == EXIT_USAGE
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_unseeded_manifest_records_a_null_seed(tmp_path):
    data = tmp_path / "t.csv"
    write_csv(_traffic(1), data)
    out = tmp_path / "hypergraph"
    assert main(["hypergraph", "--input", str(data), "--out-dir", str(out)]) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["seed"] is None
