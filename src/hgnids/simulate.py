"""Deterministic multi-computer evaluation loop for the detection ensemble.

A run pre-trains the ensemble on a labeled base dataset, then streams
deterministic per-(epoch, computer) batches drawn from the base traffic
(scan endpoints remapped across the configured number of pairs), with
adversarial examples sampled into every batch when the case calls for
them.
Missed attacks accumulate in the traffic database; when their count since
the last trigger exceeds the active threshold, a retraining request fires
and every computer adopts the updated ensemble from the next batch on.
In production mode the encoding context learns hacker pairs only from the
behavioural detector's flags. One scorecard row is written per
(epoch, computer).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .adversarial import AdversarialExample, to_flow_records
from .detector import ScanFlag, detect_window, write_flags_csv
from .ensemble import (
    DECISION_THRESHOLD,
    EncodingContext,
    EnsembleState,
    UpdateLog,
    UpdateRule,
    build_ensemble,
    classify_batch,
    retrain_request,
    save_state,
)
from .features import NON_HACKER_WEIGHTS, FeatureMode, IPPair
from .flows import Dataset, FlowRecord, concat, remap_ip_pairs, synth_traffic
from .hypergraph import build_hypergraph, edge_profiles, feature_skip_interval
from .trees import EvalReport, Hyperparams

THRESHOLD_SET = (2, 5, 10, 20, 30, 40, 50, 100)

HACKER_PAIR: IPPair = ("172.16.0.1", "192.168.10.50")

_CASE_TEMPLATES: dict[int, tuple[int, UpdateRule, bool, bool]] = {
    # case -> (ip_pairs, rule, include_adv, production_mode)
    1: (1, UpdateRule.STATIC, False, False),
    2: (16, UpdateRule.STATIC, False, False),
    3: (16, UpdateRule.FTW, False, False),
    4: (16, UpdateRule.FTW, True, False),
    5: (16, UpdateRule.UALL, True, False),
    6: (16, UpdateRule.UALL, True, True),
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class BatchSpec:
    n_batches: int
    batch_size: int
    attack_frac: float


@dataclass(frozen=True)
class SimConfig:
    case_id: int
    n_computers: int = 10
    n_epochs: int = 30
    thresholds: tuple[int, ...] = (2,)
    rule: UpdateRule = UpdateRule.STATIC
    include_adv: bool = False
    production_mode: bool = False
    batch_spec: BatchSpec = BatchSpec(300, 1000, 0.3)
    seed: int = 0
    ip_pairs: int = 1
    use_weights: bool = False
    ballast_size: int = 2000
    pretrain_frac: float = 0.8
    adv_per_batch: int = 50
    member_hyperparams: tuple[tuple[str, Hyperparams], ...] = ()

    def hyperparams_map(self) -> dict[FeatureMode, Hyperparams]:
        return {FeatureMode(name): hp for name, hp in self.member_hyperparams}


def case_config(
    case_id: int,
    n_computers: int = 10,
    n_epochs: int = 30,
    batch_size: int = 1000,
    attack_frac: float = 0.3,
    thresholds: Sequence[int] = (2,),
    seed: int = 0,
    use_weights: bool = False,
    ballast_size: int = 2000,
    member_hyperparams: tuple[tuple[str, Hyperparams], ...] = (),
) -> SimConfig:
    if case_id not in _CASE_TEMPLATES:
        raise ConfigError(f"unknown case id: {case_id}")
    pairs, rule, adv, prod = _CASE_TEMPLATES[case_id]
    return SimConfig(
        case_id=case_id,
        n_computers=n_computers,
        n_epochs=n_epochs,
        thresholds=tuple(thresholds),
        rule=rule,
        include_adv=adv,
        production_mode=prod,
        batch_spec=BatchSpec(n_computers * n_epochs, batch_size, attack_frac),
        seed=seed,
        ip_pairs=pairs,
        use_weights=use_weights,
        ballast_size=ballast_size,
        member_hyperparams=member_hyperparams,
    )


# Hyperparameters sized for the desk-scale CI runs; the module defaults in
# trees.py apply when a run does not override them.
DESK_HYPERPARAMS: tuple[tuple[str, Hyperparams], ...] = (
    ("NRF", Hyperparams(50, 12, 1, None, None, 0)),
    ("HGI", Hyperparams(80, 6, 5, 0.15, None, 0)),
    ("HGA", Hyperparams(80, 6, 5, 0.15, None, 0)),
)


def desk_case_config(case_id: int, seed: int = 0, thresholds: Sequence[int] = (2,)) -> SimConfig:
    """3 computers x 10 epochs x 1000-record batches, CI-sized models."""
    return case_config(
        case_id,
        n_computers=3,
        n_epochs=10,
        batch_size=1000,
        thresholds=thresholds,
        seed=seed,
        member_hyperparams=DESK_HYPERPARAMS,
    )


def validate_config(cfg: SimConfig) -> None:
    if cfg.case_id not in _CASE_TEMPLATES:
        raise ConfigError(f"unknown case id: {cfg.case_id}")
    pairs, rule, adv, prod = _CASE_TEMPLATES[cfg.case_id]
    if cfg.ip_pairs != pairs:
        raise ConfigError(f"case {cfg.case_id} requires {pairs} ip pair(s), got {cfg.ip_pairs}")
    if cfg.rule is not rule:
        raise ConfigError(f"case {cfg.case_id} requires update rule {rule.value}")
    if cfg.include_adv != adv:
        raise ConfigError(f"case {cfg.case_id} requires include_adv={adv}")
    if cfg.production_mode != prod:
        raise ConfigError(f"case {cfg.case_id} requires production_mode={prod}")
    if not cfg.thresholds or any(t < 1 for t in cfg.thresholds):
        raise ConfigError("thresholds must be a non-empty list of positive counts")
    if cfg.batch_spec.n_batches != cfg.n_computers * cfg.n_epochs:
        raise ConfigError("batch count must equal n_computers * n_epochs")
    if not (0.0 <= cfg.batch_spec.attack_frac <= 1.0):
        raise ConfigError("attack_frac must lie in [0, 1]")


@dataclass(frozen=True)
class ScoreRow:
    epoch: int
    computer: int
    tp: int
    fp: int
    tn: int
    fn: int
    fnp: float
    accuracy: float
    precision: float
    recall: float
    f1: float
    retrain_events: int
    ensemble_versions: str


SCORECARD_COLUMNS = (
    "epoch", "computer", "tp", "fp", "tn", "fn", "fnp", "accuracy",
    "precision", "recall", "f1", "retrain_events", "ensemble_versions",
)


@dataclass
class Scorecard:
    rows: list[ScoreRow] = field(default_factory=list)

    def to_csv_bytes(self) -> bytes:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(SCORECARD_COLUMNS)
        for r in self.rows:
            writer.writerow(
                [
                    r.epoch, r.computer, r.tp, r.fp, r.tn, r.fn,
                    repr(r.fnp), repr(r.accuracy), repr(r.precision),
                    repr(r.recall), repr(r.f1), r.retrain_events,
                    r.ensemble_versions,
                ]
            )
        return buf.getvalue().encode("utf-8")

    def write(self, path) -> None:
        Path(path).write_bytes(self.to_csv_bytes())

    def final_epoch_rows(self) -> list[ScoreRow]:
        if not self.rows:
            return []
        last = max(r.epoch for r in self.rows)
        return [r for r in self.rows if r.epoch == last]

    @staticmethod
    def read(path) -> "Scorecard":
        rows = []
        with open(path, newline="", encoding="utf-8") as fh:
            for rec in csv.DictReader(fh):
                rows.append(
                    ScoreRow(
                        int(rec["epoch"]), int(rec["computer"]),
                        int(rec["tp"]), int(rec["fp"]), int(rec["tn"]), int(rec["fn"]),
                        float(rec["fnp"]), float(rec["accuracy"]), float(rec["precision"]),
                        float(rec["recall"]), float(rec["f1"]),
                        int(rec["retrain_events"]), rec["ensemble_versions"],
                    )
                )
        return Scorecard(rows)


@dataclass
class TrafficDB:
    base_pool: Dataset
    detected_attacks: list[FlowRecord] = field(default_factory=list)
    evaded_attacks: list[FlowRecord] = field(default_factory=list)

    def record_outcomes(self, records, verdicts) -> int:
        """Accumulate classified-attack and missed-attack records; returns
        the number of newly evaded attacks."""
        evaded_now = 0
        for rec, verdict in zip(records, verdicts):
            if verdict:
                self.detected_attacks.append(rec)
            elif rec.label.is_attack:
                self.evaded_attacks.append(rec)
                evaded_now += 1
        return evaded_now

    def build_retrain_set(self, ballast_size: int, seed: int) -> Dataset:
        """Evaded attacks + an equal benign sample + a stratified ballast
        slice of the original training data."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD8]))
        evaded = list(self.evaded_attacks)
        benign_pool = [r for r in self.base_pool if not r.label.is_attack]
        benign: list[FlowRecord] = []
        if benign_pool and evaded:
            idx = rng.choice(
                len(benign_pool), size=len(evaded), replace=len(benign_pool) < len(evaded)
            )
            benign = [benign_pool[int(i)] for i in idx]
        ballast = _stratified_sample(list(self.base_pool), min(ballast_size, len(self.base_pool)), rng)
        return Dataset(tuple(evaded + benign + ballast), provenance="SYNTHETIC", seed=seed)


@dataclass(frozen=True)
class RetrainEvent:
    index: int
    epoch: int
    computer: int
    threshold: int
    evaded_total: int
    log: UpdateLog
    versions_after: tuple[int, ...]


@dataclass
class RunArtifacts:
    config: SimConfig
    threshold: int
    baseline: bool
    retrain_events: list[RetrainEvent] = field(default_factory=list)
    flag_log: list[ScanFlag] = field(default_factory=list)
    batch_member_fn: list[tuple[int, ...]] = field(default_factory=list)
    batch_ensemble_fn: list[int] = field(default_factory=list)
    batch_sizes: list[int] = field(default_factory=list)
    final_state: EnsembleState | None = None
    out_dir: str | None = None


def _stratified_sample(records: list[FlowRecord], n: int, rng) -> list[FlowRecord]:
    if n >= len(records):
        return list(records)
    attack_idx = [i for i, r in enumerate(records) if r.label.is_attack]
    benign_idx = [i for i, r in enumerate(records) if not r.label.is_attack]
    n_attack = int(math.floor(n * len(attack_idx) / len(records) + 0.5))
    n_attack = min(n_attack, len(attack_idx))
    n_benign = min(n - n_attack, len(benign_idx))
    picked = []
    if attack_idx and n_attack:
        sel = rng.choice(len(attack_idx), size=n_attack, replace=False)
        picked += [attack_idx[int(i)] for i in sel]
    if benign_idx and n_benign:
        sel = rng.choice(len(benign_idx), size=n_benign, replace=False)
        picked += [benign_idx[int(i)] for i in sel]
    return [records[i] for i in sorted(picked)]


def _split_records(dataset: Dataset, frac: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified record-level split shared by every feature layout."""
    records = list(dataset)
    groups: dict[bool, list[int]] = {}
    for i, r in enumerate(records):
        groups.setdefault(r.label.is_attack, []).append(i)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x51D]))
    head_idx: list[int] = []
    tail_idx: list[int] = []
    for key in sorted(groups):
        idx = groups[key]
        order = rng.permutation(len(idx))
        take = int(math.floor(frac * len(idx) + 0.5))
        shuffled = [idx[int(j)] for j in order]
        head_idx += shuffled[:take]
        tail_idx += shuffled[take:]
    head = Dataset(tuple(records[i] for i in sorted(head_idx)), dataset.provenance, seed)
    tail = Dataset(tuple(records[i] for i in sorted(tail_idx)), dataset.provenance, seed)
    return head, tail


def make_desk_dataset(seed: int = 0, n_scan: int = 1200, n_benign: int = 1800) -> Dataset:
    """Synthetic single-hacker base dataset used by the desk-scale runs."""
    scans = synth_traffic("PORT_SCAN", n_scan, [HACKER_PAIR], seed)
    benign = synth_traffic("BENIGN", n_benign, [], seed + 1)
    return concat(scans, benign, seed=seed)


def make_desk_adversarial(data: Dataset, seed: int = 0):
    """Kept adversarial examples for desk-scale runs.

    The tight iteration budget matters: long attacks push every row below
    the keep line against the sharply separable synthetic classes, so the
    injectable pool comes from attacks stopped mid-descent.
    """
    from .adversarial import ZooBudget, attack_pipeline

    budget = ZooBudget(max_iters=4, step=0.02, h=1e-3, per_coord_batch=1)
    gb = Hyperparams(80, 6, 5, 0.15, None, 0)
    examples, _, _ = attack_pipeline(
        data, seed=seed, budget=budget, substitute_hyperparams=gb
    )
    return examples


def _build_batches_plan(cfg: SimConfig, data: Dataset, adv_records: list[FlowRecord]):
    """Deterministic per-batch record lists."""
    spec = cfg.batch_spec
    if cfg.ip_pairs > 1:
        stream_source = remap_ip_pairs(data, cfg.ip_pairs, cfg.seed * 7 + 5)
    else:
        stream_source = data
    attack_pool = list(stream_source.attacks())
    benign_pool = list(stream_source.benign())
    if not benign_pool:
        raise ConfigError("base data has no benign records to stream")
    if spec.attack_frac > 0 and not attack_pool:
        raise ConfigError("base data has no attack records to stream")

    def batch(b: int) -> list[FlowRecord]:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xBA7C, b]))
        n_attack = int(math.floor(spec.batch_size * spec.attack_frac + 0.5))
        records: list[FlowRecord] = []
        if n_attack:
            idx = rng.integers(0, len(attack_pool), size=n_attack)
            records += [attack_pool[int(i)] for i in idx]
        n_benign = spec.batch_size - n_attack
        if n_benign:
            idx = rng.integers(0, len(benign_pool), size=n_benign)
            records += [benign_pool[int(i)] for i in idx]
        if adv_records and cfg.adv_per_batch > 0:
            idx = rng.integers(0, len(adv_records), size=cfg.adv_per_batch)
            records += [adv_records[int(i)] for i in idx]
        order = rng.permutation(len(records))
        return [records[int(i)] for i in order]

    return batch


def run_simulation(
    cfg: SimConfig,
    data: Dataset,
    adv: Sequence[AdversarialExample] = (),
    out_dir=None,
    baseline: bool = False,
) -> tuple[Scorecard, RunArtifacts]:
    """Execute one full run at the first configured threshold."""
    validate_config(cfg)
    if cfg.include_adv and not adv:
        raise ConfigError(f"case {cfg.case_id} expects adversarial examples")
    threshold = cfg.thresholds[0]

    pretrain, pretest = _split_records(data, cfg.pretrain_frac, cfg.seed * 13 + 1)
    h = build_hypergraph(pretrain)
    profiles = edge_profiles(h, feature_skip_interval(h))
    true_hackers = frozenset(r.pair for r in pretrain.scans())
    weights = NON_HACKER_WEIGHTS if cfg.use_weights else None
    train_ctx = EncodingContext(h, profiles, true_hackers, weights)

    roles = (
        (FeatureMode.NRF, FeatureMode.NRF, FeatureMode.NRF)
        if baseline
        else (FeatureMode.NRF, FeatureMode.HGI, FeatureMode.HGA)
    )
    state = build_ensemble(
        pretrain, train_ctx, seed=cfg.seed, holdout=pretest, roles=roles,
        hyperparams=cfg.hyperparams_map(),
    )

    adv_records = to_flow_records(list(adv), seed=cfg.seed * 3 + 2) if cfg.include_adv else []
    next_batch = _build_batches_plan(cfg, data, adv_records)

    db = TrafficDB(base_pool=pretrain)
    artifacts = RunArtifacts(cfg, threshold, baseline, out_dir=str(out_dir) if out_dir else None)
    scorecard = Scorecard()
    counter = 0
    flagged: set[IPPair] = set()
    stream_hackers = frozenset() if cfg.production_mode else true_hackers
    out_path = Path(out_dir) if out_dir is not None else None

    for epoch in range(cfg.n_epochs):
        for computer in range(cfg.n_computers):
            b = epoch * cfg.n_computers + computer
            records = next_batch(b)
            batch_ds = Dataset(tuple(records), provenance="SYNTHETIC")

            if cfg.production_mode:
                flags, flagged = detect_window(batch_ds, flagged, window_id=b)
                artifacts.flag_log.extend(flags)
                stream_hackers = frozenset(flagged)

            stream_ctx = train_ctx.with_hackers(stream_hackers)
            verdicts, scores = classify_batch(state, records, stream_ctx)
            actual = np.array([r.label.is_attack for r in records])
            report = EvalReport.from_predictions(verdicts, actual)
            artifacts.batch_member_fn.append(tuple(
                EvalReport.from_predictions(col >= DECISION_THRESHOLD, actual).fn
                for col in scores.T
            ))
            artifacts.batch_ensemble_fn.append(report.fn)
            artifacts.batch_sizes.append(len(records))

            counter += db.record_outcomes(records, verdicts)

            events_this_batch = 0
            if counter > threshold and cfg.rule is not UpdateRule.STATIC:
                event_idx = len(artifacts.retrain_events)
                retrain_pool = db.build_retrain_set(cfg.ballast_size, cfg.seed * 101 + event_idx)
                train_part, holdout_part = _split_records(
                    retrain_pool, 0.8, cfg.seed * 77 + event_idx
                )
                event_ctx = train_ctx.with_hackers(stream_hackers) if cfg.production_mode else train_ctx
                state, log = retrain_request(
                    state, cfg.rule, train_part, event_ctx, holdout_part,
                    seed=cfg.seed * 1009 + event_idx,
                )
                artifacts.retrain_events.append(
                    RetrainEvent(
                        event_idx, epoch, computer, threshold,
                        len(db.evaded_attacks), log, state.versions(),
                    )
                )
                if out_path is not None and log.replaced_slots:
                    save_state(state, out_path / "models" / f"event_{event_idx}")
                counter = 0
                events_this_batch += 1

            scorecard.rows.append(
                ScoreRow(
                    epoch=epoch,
                    computer=computer,
                    **asdict(report),
                    retrain_events=events_this_batch,
                    ensemble_versions="|".join(str(v) for v in state.versions()),
                )
            )

    artifacts.final_state = state
    if out_dir is not None:
        _write_artifacts(out_dir, cfg, threshold, baseline, scorecard, artifacts)
    return scorecard, artifacts


def baseline_run(
    cfg: SimConfig, data: Dataset, adv: Sequence[AdversarialExample] = (), out_dir=None
) -> tuple[Scorecard, RunArtifacts]:
    """Same loop with all three slots holding NRF-layout models."""
    return run_simulation(cfg, data, adv, out_dir=out_dir, baseline=True)


def sweep_thresholds(
    cfg: SimConfig,
    data: Dataset,
    adv: Sequence[AdversarialExample] = (),
    out_dir=None,
) -> dict[int, Scorecard]:
    """Independent run per configured threshold, identical stream."""
    if not cfg.thresholds:
        raise ConfigError("no thresholds to sweep")
    results: dict[int, Scorecard] = {}
    for th in cfg.thresholds:
        sub_cfg = replace(cfg, thresholds=(th,))
        sub_dir = Path(out_dir) / f"threshold_{th}" if out_dir is not None else None
        scorecard, _ = run_simulation(sub_cfg, data, adv, out_dir=sub_dir)
        results[th] = scorecard
    if out_dir is not None:
        _write_sweep_summary(Path(out_dir) / "sweep_summary.csv", results)
    return results


def sweep_summary_rows(results: dict[int, Scorecard]) -> list[tuple]:
    rows = []
    for th in sorted(results):
        final = results[th].final_epoch_rows()
        mean_f1 = sum(r.f1 for r in final) / len(final) if final else 0.0
        mean_fnp = sum(r.fnp for r in final) / len(final) if final else 0.0
        retrains = sum(r.retrain_events for r in results[th].rows)
        rows.append((th, mean_f1, mean_fnp, retrains))
    return rows


def _write_sweep_summary(path: Path, results: dict[int, Scorecard]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["threshold", "final_epoch_mean_f1", "final_epoch_mean_fnp", "retrain_events"])
        for th, f1, fnp, retrains in sweep_summary_rows(results):
            writer.writerow([th, repr(f1), repr(fnp), retrains])


def _write_artifacts(out_dir, cfg, threshold, baseline, scorecard, artifacts) -> None:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    scorecard.write(path / "scorecard.csv")

    echo = {
        "case_id": cfg.case_id,
        "n_computers": cfg.n_computers,
        "n_epochs": cfg.n_epochs,
        "threshold": threshold,
        "rule": cfg.rule.value,
        "include_adv": cfg.include_adv,
        "production_mode": cfg.production_mode,
        "batch_size": cfg.batch_spec.batch_size,
        "attack_frac": cfg.batch_spec.attack_frac,
        "ip_pairs": cfg.ip_pairs,
        "use_weights": cfg.use_weights,
        "ballast_size": cfg.ballast_size,
        "seed": cfg.seed,
        "baseline": baseline,
    }
    (path / "config.json").write_text(json.dumps(echo, indent=2, sort_keys=True))

    with open(path / "retrain_log.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["event", "epoch", "computer", "threshold", "evaded_total", "rule",
             "deferred", "reason", "replaced_slots", "versions_after"]
        )
        for ev in artifacts.retrain_events:
            writer.writerow(
                [ev.index, ev.epoch, ev.computer, ev.threshold, ev.evaded_total,
                 ev.log.rule.value, ev.log.deferred, ev.log.reason,
                 "|".join(str(s) for s in ev.log.replaced_slots),
                 "|".join(str(v) for v in ev.versions_after)]
            )

    write_flags_csv(artifacts.flag_log, path / "flag_log.csv")

    if artifacts.final_state is not None:
        save_state(artifacts.final_state, path / "models" / "final")
