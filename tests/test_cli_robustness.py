"""No input reaches an internal error: every command that reads a flow CSV,
run in process on a small one, and `synth` over its profiles, counts,
seeds and attack fractions, exits 0 (done), 1 (usage error) or 2 (data
error), never 3 (internal error).

The CSVs hold 0-30 rows drawn with replacement from a synthetic mixed file:
scan-only, benign-only or mixed, with duplicated rows and with some rows
set to port 0, port 65535 or a zero duration.
"""

import contextlib
import csv
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hgnids.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from hgnids.flows import DEFAULT_COLUMN_MAP, synth_traffic, write_csv

PAIRS = [("10.0.0.1", "10.0.0.9"), ("10.0.0.2", "10.0.0.9")]
# Small enough that a stream batch and a retrain fit take milliseconds.
TINY_SIM_CONFIG = "n_computers=1\nn_epochs=2\nbatch_size=12\nadv_per_batch=2\nballast_size=8\n"

_SRC_PORT = DEFAULT_COLUMN_MAP["src_port"]
_DST_PORT = DEFAULT_COLUMN_MAP["dst_port"]
_DURATION = DEFAULT_COLUMN_MAP["flow_duration"]
EDITS = (
    {}, {_SRC_PORT: "0"}, {_DST_PORT: "0"}, {_SRC_PORT: "65535"}, {_DST_PORT: "65535"},
    {_DURATION: "0"},
)


def _pool() -> tuple[list[str], list[dict], list[dict]]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pool.csv"
        write_csv(synth_traffic("MIXED", 80, PAIRS, seed=3, attack_frac=0.5), path)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    scan = [r for r in rows if r["Label"] != "BENIGN"]
    benign = [r for r in rows if r["Label"] == "BENIGN"]
    return reader.fieldnames, scan, benign


HEADER, SCAN, BENIGN = _pool()


@st.composite
def flow_rows(draw):
    pool = draw(st.sampled_from([SCAN, BENIGN, SCAN + BENIGN, SCAN + BENIGN]))
    n = draw(st.integers(0, 30))
    rows = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(EDITS)),
                         min_size=n, max_size=n))
    if draw(st.booleans()):  # duplicate a prefix
        rows += rows[: 30 - len(rows)]
    return [{**row, **edit} for row, edit in rows]


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    """A small HGI-layout model for eval, trained on the whole pool."""
    root = tmp_path_factory.mktemp("model")
    _write(root / "pool.csv", SCAN + BENIGN)
    assert main(["train", "--input", str(root / "pool.csv"), "--mode", "hgi", "--kind", "gb",
                 "--trees", "2", "--depth", "2", "--out-dir", str(root)]) == EXIT_OK
    return root / "model.json"


def _write(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, HEADER)
        writer.writeheader()
        writer.writerows(rows)


def _commands(data: str, model: Path, window: int, case: int, cfg: str):
    hackers = ">".join(PAIRS[0])
    yield "ingest", ["--input", data]
    yield "hypergraph", ["--input", data]
    yield "features", ["--input", data, "--mode", "hgi"]
    yield "features", ["--input", data, "--mode", "hga", "--hackers", hackers, "--weights"]
    yield "train", ["--input", data, "--mode", "nrf", "--kind", "rf", "--trees", "2"]
    yield "train", ["--input", data, "--mode", "hgi", "--kind", "gb", "--trees", "2", "--depth", "2"]
    yield "eval", ["--model", str(model), "--input", data]
    yield "advgen", ["--input", data, "--iters", "1"]
    yield "detect-scan", ["--input", data, "--window-size", str(window)]
    yield "simulate", ["--case", str(case), "--data", data, "--config", cfg]
    yield "sweep", ["--case", str(case), "--data", data, "--thresholds", "1,3", "--config", cfg]


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(rows=flow_rows(), window=st.integers(1, 16), case=st.integers(1, 6),
       seed=st.integers(0, 3))
# The shapes behind the data-error checks: an empty file, benign rows only
# (no scan row to remap), one scan and one benign row (no holdout row), one
# scan row among benign ones (no scan row left to attack), scan rows only,
# and a mixed file that runs every command to the end.
@example(rows=[], window=1, case=1, seed=0)
@example(rows=[BENIGN[0]], window=1, case=3, seed=0)
@example(rows=[SCAN[0], BENIGN[0]], window=2, case=4, seed=0)
@example(rows=[SCAN[0]] + BENIGN[:20], window=5, case=5, seed=0)
@example(rows=SCAN[:12], window=4, case=6, seed=1)
@example(rows=SCAN[:10] + BENIGN[:20], window=8, case=1, seed=0)
@example(rows=SCAN[:10] + BENIGN[:20], window=8, case=5, seed=0)
def test_no_input_reaches_an_internal_error(tmp_path_factory, model, rows, window, case, seed):
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "flows.csv"
    _write(data, rows)
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_SIM_CONFIG)
    codes = []
    for n, (command, argv) in enumerate(_commands(str(data), model, window, case, str(cfg))):
        out = root / f"{n}_{command}"
        codes.append((command, _run([command, *argv, "--seed", str(seed), "--out-dir", str(out)])))
        if command == "simulate":
            codes.append(("report", _run(["report", "--run-dir", str(out),
                                          "--out-dir", str(root / "report")])))
    bad = [(command, code, err) for command, (code, err) in codes
           if code not in (EXIT_OK, EXIT_USAGE, EXIT_DATA)]
    assert not bad, bad


@settings(max_examples=30, deadline=None, derandomize=True)
@given(profile=st.sampled_from(["scan", "benign", "mixed"]), count=st.integers(0, 30),
       seed=st.sampled_from([-1, 0, 2**32 - 1, 2**64]), attack_frac=st.sampled_from(["0", "1"]),
       pairs=st.sampled_from(["", ">".join(PAIRS[0]), ";".join(map(">".join, PAIRS))]))
@example(profile="mixed", count=30, seed=-1, attack_frac="1", pairs=">".join(PAIRS[0]))
@example(profile="scan", count=30, seed=2**64, attack_frac="0", pairs=">".join(PAIRS[0]))
def test_synth_never_reaches_an_internal_error(tmp_path_factory, profile, count, seed, attack_frac,
                                                pairs):
    out = tmp_path_factory.mktemp("synth")
    code, err = _run(["synth", "--profile", profile, "--count", str(count), "--pairs", pairs,
                      "--attack-frac", attack_frac, "--seed", str(seed), "--out-dir", str(out)])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA), err


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()
