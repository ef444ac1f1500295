"""One seeded pipeline through all eleven commands: the bytes each command
writes, and the run record (manifest.json) it leaves next to them."""

import hashlib
import json

import pytest

from hgnids.cli import EXIT_OK, main

_SIM_CONFIG = "n_computers=2\nn_epochs=3\nbatch_size=200\n"
_DATA = "ingest/cleaned.csv"

# (command, argv after the command and before --out-dir, inputs it digests).
# Each command writes to a directory named after it; paths are relative to
# the pipeline root.
_STEPS = (
    ("synth", ["--profile", "mixed", "--count", "600", "--pairs", "1.2.3.4>5.6.7.8",
               "--seed", "3"], []),
    ("ingest", ["--input", "synth/traffic.csv"], ["synth/traffic.csv"]),
    ("hypergraph", ["--input", _DATA], [_DATA]),
    ("features", ["--input", _DATA, "--mode", "hga"], [_DATA]),
    ("train", ["--input", _DATA, "--mode", "hgi", "--kind", "gb", "--trees", "10"], [_DATA]),
    ("eval", ["--model", "train/model.json", "--input", _DATA], ["train/model.json", _DATA]),
    ("advgen", ["--input", _DATA, "--seed", "3"], [_DATA]),
    ("detect-scan", ["--input", _DATA, "--window-size", "200"], [_DATA]),
    ("simulate", ["--case", "5", "--seed", "39", "--config", "sim.cfg"], []),
    ("sweep", ["--case", "4", "--thresholds", "1,3", "--seed", "39", "--config", "sim.cfg"], []),
    ("report", ["--run-dir", "simulate"], ["simulate/scorecard.csv"]),
)
_PATH_ARGS = {"--input", "--model", "--config", "--run-dir"}

# SHA-256 of every file the pipeline writes except manifest.json, recorded
# while each command still wrote its own manifest.
_PIPELINE_SHA256 = {
    "advgen/adversarial.csv":
        "280cfc96b63debe2972f04faa9076dfc5e11be8293fb46cb986c25e534ed486e",
    "advgen/stats.json":
        "eb04a0c9e0555019a71100a880a2102de33f7e799e572e468102daa900c9033f",
    "detect-scan/flags.csv":
        "f621fb070ea05795bfec5f0936407653f2d6e079bbb0ae73e0ca5a4ab3f30b90",
    "eval/eval.json":
        "5d63b3cccb5a23c698b5c0f89167c2d9ca1e83c15cdd0fb0fecdc61f628f1a3a",
    "features/matrix_hga.csv":
        "2104cec6c30b384eddd65a87aec8b46bfcdd0b9aeab680e99666551c0c44a1de",
    "hypergraph/incidence.csv":
        "04b0863479a2b3f1f1cf3902827ccc726795b8fb0cf2ed42b62ef09612c38fc6",
    "hypergraph/profiles.csv":
        "9ddd75cf8e4e10e32a68e560145d8880c7d6c045f4a7a9ae3e0cca3ec48e6538",
    "hypergraph/stats.json":
        "31e40be57f6db23560dbad23a8e036cd017cd285dc8ce11e69fedf798bc10bf0",
    "ingest/cleaned.csv":
        "7948c9e1b00aa2a290b3e2466f4f46b54047cfc6a000bce5ad5bcd8e5ee1341a",
    "ingest/cleaning_report.txt":
        "b67ab371fe756a1496fdd77d7ec17113c5651c9c287a5771be34b355f1b5bb05",
    "report/f1_series.csv":
        "c727fb412ef3b121406c602f75a80e2535a3ff94d515e10d28477ff374b6c7cf",
    "report/fnp_series.csv":
        "6c94e938a3706af78597b6a08a6941870c67d647b93cbed28282fa8fb47f937f",
    "report/summary.csv":
        "7377172c487f18cee12077509f5df7cb0c1e7d8046de3c740b835ab58f359680",
    "simulate/config.json":
        "137d1bb74ae3d4e6bbd509f2c2141df2615ac8011d49006594ea55649003dc45",
    "simulate/flag_log.csv":
        "ded296166db413e5949560ca4c441af55b7a0ffa48a87675d4719ba989b95508",
    "simulate/models/event_0/ensemble.json":
        "5109826a20e604d7d135483b34c39d58abc6fda08d714a7068bf2dc8821b3d16",
    "simulate/models/event_0/member_0_nrf_v1.json":
        "0a94a89fb97130901c4306983d4887ee993624669cb772dd259b56f19f5421ce",
    "simulate/models/event_0/member_1_hgi_v1.json":
        "5cced1b347a8e7a10e95ccb7e2220293ba53c4743a532f96c07dac7e4339cac7",
    "simulate/models/event_0/member_2_hga_v1.json":
        "a1f4ad585120bb1c4e7d7abbc6c8ded931a084a3d11733f4fb8d3c52ad44b92c",
    "simulate/models/final/ensemble.json":
        "5109826a20e604d7d135483b34c39d58abc6fda08d714a7068bf2dc8821b3d16",
    "simulate/models/final/member_0_nrf_v1.json":
        "0a94a89fb97130901c4306983d4887ee993624669cb772dd259b56f19f5421ce",
    "simulate/models/final/member_1_hgi_v1.json":
        "5cced1b347a8e7a10e95ccb7e2220293ba53c4743a532f96c07dac7e4339cac7",
    "simulate/models/final/member_2_hga_v1.json":
        "a1f4ad585120bb1c4e7d7abbc6c8ded931a084a3d11733f4fb8d3c52ad44b92c",
    "simulate/retrain_log.csv":
        "a16e794cb0f8b52cc7c324584a1c9750d06e5f4a0d20792d51b3d865117b6905",
    "simulate/scorecard.csv":
        "9f9567a0b378b437080830368367c2e8c924fd5b3707467ef201e06fdcc7a0e2",
    "sweep/sweep_summary.csv":
        "0984f8397717721e59c2d03e5b06db4660ab21b25f28a16e89e3d1e1e646b0fe",
    "sweep/threshold_1/config.json":
        "5c861c09b760bdbe9dbdcf4853566f91de045163534ef3f96cd9838a9939a6be",
    "sweep/threshold_1/flag_log.csv":
        "ded296166db413e5949560ca4c441af55b7a0ffa48a87675d4719ba989b95508",
    "sweep/threshold_1/models/event_0/ensemble.json":
        "03cee49419abe742b9aa31a213192488e568f999788306b4fb06feafda014357",
    "sweep/threshold_1/models/event_0/member_0_hgi_v1.json":
        "c812e407a1ac2b2f934cebf916370b2980b1601e5a30110b859c2c857370c879",
    "sweep/threshold_1/models/event_0/member_1_hgi_v0.json":
        "d7231a04202071b485b992f8448a39ccf0d101eb32ed96e5286b65487ef315d5",
    "sweep/threshold_1/models/event_0/member_2_hga_v0.json":
        "31a2382bdfc4f034268ff4fc703ccd56bf0c5f02a8a0710c6442e4effb854ca8",
    "sweep/threshold_1/models/final/ensemble.json":
        "03cee49419abe742b9aa31a213192488e568f999788306b4fb06feafda014357",
    "sweep/threshold_1/models/final/member_0_hgi_v1.json":
        "c812e407a1ac2b2f934cebf916370b2980b1601e5a30110b859c2c857370c879",
    "sweep/threshold_1/models/final/member_1_hgi_v0.json":
        "d7231a04202071b485b992f8448a39ccf0d101eb32ed96e5286b65487ef315d5",
    "sweep/threshold_1/models/final/member_2_hga_v0.json":
        "31a2382bdfc4f034268ff4fc703ccd56bf0c5f02a8a0710c6442e4effb854ca8",
    "sweep/threshold_1/retrain_log.csv":
        "80f2c51c219b0bbc133322fde3dfee34ed1064a488b1e8cb3590f3cdc9a4ee42",
    "sweep/threshold_1/scorecard.csv":
        "d44264e7e6cb1d71aa4321dac129181d53370fd3f002c33bf9bef248137955d7",
    "sweep/threshold_3/config.json":
        "1bf1c5217bb66d89a6124ed3e45c0a75fae611fcc7c2624565d71e15df1759e0",
    "sweep/threshold_3/flag_log.csv":
        "ded296166db413e5949560ca4c441af55b7a0ffa48a87675d4719ba989b95508",
    "sweep/threshold_3/models/event_0/ensemble.json":
        "03cee49419abe742b9aa31a213192488e568f999788306b4fb06feafda014357",
    "sweep/threshold_3/models/event_0/member_0_hgi_v1.json":
        "c812e407a1ac2b2f934cebf916370b2980b1601e5a30110b859c2c857370c879",
    "sweep/threshold_3/models/event_0/member_1_hgi_v0.json":
        "d7231a04202071b485b992f8448a39ccf0d101eb32ed96e5286b65487ef315d5",
    "sweep/threshold_3/models/event_0/member_2_hga_v0.json":
        "31a2382bdfc4f034268ff4fc703ccd56bf0c5f02a8a0710c6442e4effb854ca8",
    "sweep/threshold_3/models/final/ensemble.json":
        "03cee49419abe742b9aa31a213192488e568f999788306b4fb06feafda014357",
    "sweep/threshold_3/models/final/member_0_hgi_v1.json":
        "c812e407a1ac2b2f934cebf916370b2980b1601e5a30110b859c2c857370c879",
    "sweep/threshold_3/models/final/member_1_hgi_v0.json":
        "d7231a04202071b485b992f8448a39ccf0d101eb32ed96e5286b65487ef315d5",
    "sweep/threshold_3/models/final/member_2_hga_v0.json":
        "31a2382bdfc4f034268ff4fc703ccd56bf0c5f02a8a0710c6442e4effb854ca8",
    "sweep/threshold_3/retrain_log.csv":
        "9e45bb0c6fa750bc731d1e2e487af857e35e82579a6c720ff55c41c2fab4393f",
    "sweep/threshold_3/scorecard.csv":
        "d44264e7e6cb1d71aa4321dac129181d53370fd3f002c33bf9bef248137955d7",
    "synth/traffic.csv":
        "7948c9e1b00aa2a290b3e2466f4f46b54047cfc6a000bce5ad5bcd8e5ee1341a",
    "train/eval.json":
        "012d67a26c7d8ebf58483b61e48549466355a04e88eb7ec33a4b5e395720ad18",
    "train/model.json":
        "7ed3fdff4b8863642cddc76834517d1652bf91644ab349b642f97330bf89f8ac",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    (root / "sim.cfg").write_text(_SIM_CONFIG)
    for command, argv, _ in _STEPS:
        argv = [str(root / a) if flag in _PATH_ARGS else a for flag, a in zip([None, *argv], argv)]
        assert main([command, *argv, "--out-dir", str(root / command)]) == EXIT_OK, command
    return root


def _written(root, command) -> list:
    return sorted(
        p for p in (root / command).rglob("*") if p.is_file() and p.name != "manifest.json"
    )


@pytest.mark.parametrize("command", [step[0] for step in _STEPS])
def test_pipeline_bytes_pinned(pipeline, command):
    written = {
        f"{command}/{p.relative_to(pipeline / command).as_posix()}": _sha256(p)
        for p in _written(pipeline, command)
    }
    assert written == {k: v for k, v in _PIPELINE_SHA256.items() if k.split("/")[0] == command}


@pytest.mark.parametrize(
    "command,inputs", [(step[0], step[2]) for step in _STEPS], ids=[step[0] for step in _STEPS]
)
def test_manifest_lists_every_file_written_once(pipeline, command, inputs):
    manifest = json.loads((pipeline / command / "manifest.json").read_text())
    assert manifest["command"] == command
    assert len(set(manifest["outputs"])) == len(manifest["outputs"])
    assert sorted(manifest["outputs"]) == [str(p) for p in _written(pipeline, command)]
    assert manifest["inputs"] == {str(pipeline / p): _sha256(pipeline / p) for p in inputs}
