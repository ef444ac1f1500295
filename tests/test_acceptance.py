"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line. Criterion 10 needs the public flow dataset and only runs
when HGNIDS_CICIDS_CSV points at the port-scan CSV; its cleaning counts
are also checked on a generated file of the same size.
"""

import os
import time

import numpy as np
import pytest

from hgnids import bruteforce as bf
from hgnids import hypergraph as hg
from hgnids.adversarial import ZooBudget, attack_pipeline, estimate_gradient
from hgnids.cli import EXIT_OK, main
from hgnids.flows import concat, ingest_csv, class_balance, synth_traffic, write_csv
from hgnids.detector import detect_window
from hgnids.simulate import desk_case_config, run_simulation

from helpers import hypergraph_from_edges, random_hypergraph, topology_fixture


def _verdict(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def test_criterion_1_oracle_equivalence():
    started = time.time()
    for seed in range(200):
        h = random_hypergraph(seed, max_edges=12, max_vertices=20)
        names = list(h.edges)
        for s in (1, 2, 3, 5):
            fast = {frozenset(g) for g in hg.s_components(h, s).groups()}
            slow = {frozenset(g) for g in bf.oracle_components(h, s)}
            assert fast == slow, (seed, s)
            for e in names:
                assert hg.s_closeness_centrality(h, e, s) == pytest.approx(
                    bf.oracle_centrality(h, e, s), abs=1e-15
                ), (seed, s, e)
                for f in names:
                    assert hg.s_distance(h, e, f, s) == bf.oracle_distance(h, e, f, s), (
                        seed, s, e, f,
                    )
    elapsed = time.time() - started
    _verdict(
        "1 hypergraph-oracle-equivalence",
        elapsed < 60.0,
        f"200 hypergraphs x s in (1,2,3,5) in {elapsed:.1f}s",
    )


def test_criterion_2_concentric_signature():
    ok = True
    for m in (5, 12, 30):
        h = hypergraph_from_edges({"src": set(range(m)), "dst": set(range(m))})
        for s in range(3, m + 1):
            ok = ok and hg.s_closeness_centrality(h, "src", s) == 1.0
            ok = ok and hg.s_closeness_centrality(h, "dst", s) == 1.0
        for s in range(m + 1, m + 4):
            ok = ok and hg.s_closeness_centrality(h, "src", s) == 0.0
    _verdict("2 concentric-circle-signature", ok)


def test_criterion_3_topology_fixture():
    d = topology_fixture()
    h = hg.build_hypergraph(d)
    _verdict(
        "3 topology-fixture",
        len(d) == 43 and len(h) == 15 and len(h.vertices) == 34,
        f"records={len(d)} edges={len(h)} vertices={len(h.vertices)}",
    )


def test_criterion_4_detector_precision():
    started = time.time()
    hits = 0
    false_pairs = 0
    for seed in range(50):
        pair = (f"172.16.{seed}.1", f"192.168.{seed}.50")
        scans = synth_traffic("PORT_SCAN", 120, [pair], seed=seed * 2 + 1)
        benign = synth_traffic("BENIGN", 550, [], seed=seed * 2 + 2)
        flags, _ = detect_window(concat(scans, benign), set(), window_id=seed)
        flagged = {f.pair for f in flags}
        if pair in flagged:
            hits += 1
        false_pairs += len(flagged - {pair})
    elapsed = time.time() - started
    _verdict(
        "4 detector-precision",
        hits >= 49 and false_pairs == 0 and elapsed < 120.0,
        f"hits={hits}/50 false_pairs={false_pairs} in {elapsed:.1f}s",
    )


def test_criterion_5_recall_dominance(case5_run):
    _, _, artifacts = case5_run
    ok = all(
        ens_fn <= min(member_fn)
        for ens_fn, member_fn in zip(artifacts.batch_ensemble_fn, artifacts.batch_member_fn)
    )
    _verdict("5 ensemble-recall-dominance", ok, f"{len(artifacts.batch_ensemble_fn)} batches")


def test_criterion_6_adversarial_pipeline(desk_data, desk_adv):
    kept_ok = len(desk_adv) > 0 and all(e.substitute_score >= 0.55 for e in desk_adv)

    rng = np.random.default_rng(6)
    grad_ok = True
    for _ in range(20):
        x = rng.random(9)
        estimate = estimate_gradient(lambda X: np.sum(X * X, axis=1), x, list(range(9)), h=1e-3)
        grad_ok = grad_ok and float(np.max(np.abs(estimate - 2.0 * x))) <= 1e-4
    _verdict(
        "6 adversarial-pipeline",
        kept_ok and grad_ok,
        f"kept={len(desk_adv)} all>=0.55={kept_ok} gradient<=1e-4={grad_ok}",
    )


def test_criterion_7_case1_zero_fnp(desk_data):
    started = time.time()
    cfg = desk_case_config(1, seed=42, threshold=2)
    scorecard, _ = run_simulation(cfg, desk_data)
    elapsed = time.time() - started
    ok = len(scorecard.rows) == 30 and all(r.fnp == 0.0 for r in scorecard.rows)
    _verdict("7 case1-zero-fnp", ok and elapsed < 300.0, f"30 rows in {elapsed:.1f}s")


def test_criterion_8_case5_spike_then_clean(case5_run):
    cfg, scorecard, artifacts = case5_run
    rows = scorecard.rows
    epoch1 = [r for r in rows if r.epoch == 0]
    spike = any(r.fnp > 0 for r in epoch1)
    events = artifacts.retrain_events
    if events:
        first_batch = events[0].epoch * cfg.n_computers + events[0].computer
        clean_after = all(r.fnp == 0.0 for r in rows[first_batch + 1 :])
    else:
        clean_after = False
    _verdict(
        "8 case5-spike-then-clean",
        spike and len(events) >= 1 and clean_after,
        f"epoch1_spike={spike} events={len(events)} clean_after_first={clean_after}",
    )


def test_criterion_9_baseline_contrast(case5_run, case5_baseline_run):
    _, ensemble_card, _ = case5_run
    _, baseline_card, _ = case5_baseline_run
    ens_final = ensemble_card.final_epoch_rows()
    base_final = baseline_card.final_epoch_rows()
    ens_f1 = sum(r.f1 for r in ens_final) / len(ens_final)
    base_f1 = sum(r.f1 for r in base_final) / len(base_final)
    _verdict(
        "9 baseline-contrast",
        base_f1 <= ens_f1 and ens_f1 >= 0.99,
        f"baseline={base_f1:.4f} ensemble={ens_f1:.4f}",
    )


REPRO_ENV = "HGNIDS_CICIDS_CSV"


@pytest.mark.skipif(REPRO_ENV not in os.environ, reason=f"set {REPRO_ENV} to run reproduction mode")
def test_criterion_10_reproduction_mode():
    from hgnids.features import FeatureMode, build_matrix, rows_to_arrays, train_test_split
    from hgnids.hypergraph import build_hypergraph
    from hgnids.trees import ModelKind, default_hyperparams, evaluate, train

    path = os.environ[REPRO_ENV]
    dataset, report = ingest_csv(path)
    assert report.dropped == 407, f"dropped {report.dropped}"
    assert len(dataset) == 286060, f"kept {len(dataset)}"

    balance = class_balance(dataset)
    assert balance["PortScan"] == pytest.approx(0.555, abs=0.001)
    assert balance["BENIGN"] == pytest.approx(0.445, abs=0.001)

    nrf_rows = build_matrix(dataset, None, FeatureMode.NRF)
    train_rows, test_rows = train_test_split(nrf_rows, 0.8, seed=0)
    rf = train(train_rows, ModelKind.RANDOM_FOREST, default_hyperparams(ModelKind.RANDOM_FOREST, 0))
    nrf_report = evaluate(rf, *rows_to_arrays(test_rows))
    assert nrf_report.precision == pytest.approx(0.9936, abs=0.005)
    assert nrf_report.recall == pytest.approx(0.9912, abs=0.005)
    assert nrf_report.f1 == pytest.approx(0.9924, abs=0.005)

    h = build_hypergraph(dataset)
    hgi_rows = build_matrix(dataset, h, FeatureMode.HGI)
    hgi_train, hgi_test = train_test_split(hgi_rows, 0.8, seed=0)
    gb = train(hgi_train, ModelKind.GRADIENT_BOOSTED, default_hyperparams(ModelKind.GRADIENT_BOOSTED, 0))
    hgi_report = evaluate(gb, *rows_to_arrays(hgi_test))
    assert hgi_report.f1 >= 0.999

    examples, _, _ = attack_pipeline(
        dataset, seed=0, budget=ZooBudget(max_iters=10, step=0.01, h=1e-4, per_coord_batch=2)
    )
    scan_test = sum(1 for r in train_test_split(nrf_rows, 0.85, 0)[1] if r.label == 1)
    kept_fraction = len(examples) / scan_test
    assert kept_fraction == pytest.approx(0.861, abs=0.05)
    _verdict("10 reproduction-mode", True)


# Criterion 10's file size and cleaning counts: a block of 7,742 rows with
# 11 planted bad rows, written 37 times and then cut 13 rows into a 38th
# copy, is 286,467 rows, of which 286,060 are kept and 407 dropped.
_BLOCK_COPIES, _BLOCK_TAIL = 37, 13
_PLANTED = (  # (row of the block, column, cell)
    (20, 5, "-1"), (700, 10, "Infinity"), (1500, 6, ""), (2300, 7, "abc"), (3100, 4, "5"),
    (3900, 8, "-2"), (4100, 3, "70000"), (4800, 0, " "), (5600, 13, ""), (6400, 9, "NaN"),
    (7700, 2, "80.5"),
)


def test_criterion_10_ingest_at_full_scale(tmp_path):
    pair = ("172.16.0.1", "192.168.10.50")
    block = concat(synth_traffic("PORT_SCAN", 4297, [pair], seed=10), synth_traffic("BENIGN", 3445, [], seed=11))
    write_csv(block, tmp_path / "block.csv")
    header, *rows = (tmp_path / "block.csv").read_text().splitlines(keepends=True)
    for at, column, cell in _PLANTED:
        cells = rows[at].rstrip("\r\n").split(",")
        cells[column] = cell
        rows[at] = ",".join(cells) + "\r\n"
    (tmp_path / "block.csv").write_text(header + "".join(rows))
    with open(tmp_path / "full.csv", "w") as fh:
        fh.write(header)
        for _ in range(_BLOCK_COPIES):
            fh.writelines(rows)
        fh.writelines(rows[:_BLOCK_TAIL])

    dataset, report = ingest_csv(tmp_path / "full.csv")
    assert (report.total_rows, report.dropped, len(dataset)) == (286467, 407, 286060)
    kept_block, block_report = ingest_csv(tmp_path / "block.csv")
    assert block_report.dropped == len(_PLANTED) and set(block_report.reasons) == {
        "unparseable", "missing_value", "non_finite", "negative_duration", "negative_value"}
    for name in ("nrf", "src_port", "dst_port", "label_code", "src", "dst"):
        column = getattr(kept_block, name)
        repeated = np.concatenate([column] * _BLOCK_COPIES + [column[:_BLOCK_TAIL]])
        assert np.array_equal(getattr(dataset, name), repeated), name
    assert (dataset.labels, dataset.ips) == (kept_block.labels, kept_block.ips)
    _verdict("10 ingest at full scale", True)


def test_criterion_11_determinism(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text("n_computers=2\nn_epochs=2\nbatch_size=150\n")
    args = ["simulate", "--case", "1", "--thresholds", "2", "--seed", "1234",
            "--config", str(config)]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(dir_a)]) == EXIT_OK
    assert main(args + ["--out-dir", str(dir_b)]) == EXIT_OK

    same_scorecards = (dir_a / "scorecard.csv").read_bytes() == (dir_b / "scorecard.csv").read_bytes()
    models_a = sorted(str(p.relative_to(dir_a)) for p in (dir_a / "models").rglob("*") if p.is_file())
    models_b = sorted(str(p.relative_to(dir_b)) for p in (dir_b / "models").rglob("*") if p.is_file())
    same_models = models_a == models_b and all(
        (dir_a / name).read_bytes() == (dir_b / name).read_bytes() for name in models_a
    )
    _verdict(
        "11 determinism",
        same_scorecards and same_models,
        f"scorecards={same_scorecards} models={same_models}",
    )
