"""Deterministic multi-computer evaluation loop for the detection ensemble.

A run pre-trains the ensemble on a labeled base dataset, then streams
deterministic per-(epoch, computer) batches drawn from the base traffic
(scan endpoints remapped across the configured number of pairs), with
adversarial examples sampled into every batch when the case calls for
them.
Missed attacks are kept as the run's evaded records; when their count
since the last trigger exceeds the active threshold, a retraining request
fires on a set built from them (build_retrain_set) and every computer
adopts the updated ensemble from the next batch on.
A run holds its base data, stream source and adversarial records as one
columnar Dataset and encodes one table over it, features.encode's full
table; every record set (splits, batches, evaded attacks, retrain sets)
is an integer id array into both, and a detector window is the Dataset's
take(ids).
In production mode the hacker pairs come only from the behavioural
detector's flags; with the non-hacker weights on, the table is encoded
again whenever they change. A row's scores depend only on the ensemble
and that row, so each table row is scored once per ensemble state: a
batch scores only its ids not yet scored, until a retrain replaces a
slot or the table is encoded again. One scorecard row is written per
(epoch, computer).

A run is described by one SimConfig. Its case id fixes the case's policy
(scan pairs, update rule, adversarial injection, production mode); every
other field, the threshold included, is a value the run may vary.
A run is its pre-training (table, batch plan, split, hypergraph, encoding,
first ensemble), which reads no threshold, then its stream of batches;
sweep_thresholds pre-trains once and streams each threshold.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, get_type_hints

import numpy as np

from .adversarial import AdversarialExample, ZooBudget, attack_pipeline, to_dataset
from .config import ConfigError
from .detector import ScanFlag, detect_window, write_flags_csv
from .ensemble import (
    EnsembleState,
    UpdateLog,
    UpdateRule,
    build_ensemble,
    classify_batch,
    member_reports,
    retrain_request,
    save_state,
)
from .features import FeatureMode, IPPair, encode
from .flows import (
    DataFormatError, Dataset, LabelKind, concat, remap_ip_pairs, synth_traffic, write_table,
)
from .hypergraph import Hypergraph, build_hypergraph
from .trees import EvalReport, Hyperparams

HACKER_PAIR: IPPair = ("172.16.0.1", "192.168.10.50")

PRETRAIN_FRAC = 0.8


class CasePolicy(NamedTuple):
    """What a case id fixes: the stream's scan pairs, the update rule,
    whether adversarial examples are injected, and whether hacker pairs
    come from the detector (production) instead of the labels."""

    ip_pairs: int
    rule: UpdateRule
    include_adv: bool
    production_mode: bool


CASES: dict[int, CasePolicy] = {
    1: CasePolicy(1, UpdateRule.STATIC, False, False),
    2: CasePolicy(16, UpdateRule.STATIC, False, False),
    3: CasePolicy(16, UpdateRule.FTW, False, False),
    4: CasePolicy(16, UpdateRule.FTW, True, False),
    5: CasePolicy(16, UpdateRule.UALL, True, False),
    6: CasePolicy(16, UpdateRule.UALL, True, True),
}


@dataclass(frozen=True)
class SimConfig:
    """One run: the case id fixes the policy (see CASES), every other
    field is a value the run may vary. n_computers * n_epochs batches of
    batch_size base records each, attack_frac of them attacks, plus
    adv_per_batch adversarial records when the case injects them."""

    case_id: int
    n_computers: int = 10
    n_epochs: int = 30
    threshold: int = 2
    batch_size: int = 1000
    attack_frac: float = 0.3
    seed: int = 0
    use_weights: bool = False
    ballast_size: int = 2000
    adv_per_batch: int = 50
    member_hyperparams: tuple[tuple[str, Hyperparams], ...] = ()

    def __post_init__(self) -> None:
        if self.case_id not in CASES:
            raise ConfigError(f"unknown case id: {self.case_id}")
        if self.threshold < 1:
            raise ConfigError(f"threshold must be a positive count, got {self.threshold}")
        if not (0.0 <= self.attack_frac <= 1.0):
            raise ConfigError(f"attack_frac must lie in [0, 1], got {self.attack_frac}")
        for name in ("n_computers", "n_epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive count, got {getattr(self, name)}")
        for name in ("adv_per_batch", "ballast_size"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must not be negative, got {getattr(self, name)}")

    @property
    def policy(self) -> CasePolicy:
        return CASES[self.case_id]

    def hyperparams_map(self) -> dict[FeatureMode, Hyperparams]:
        return {FeatureMode(name): hp for name, hp in self.member_hyperparams}


# Hyperparameters sized for the desk-scale CI runs; the module defaults in
# trees.py apply when a run does not override them.
DESK_HYPERPARAMS: tuple[tuple[str, Hyperparams], ...] = (
    ("NRF", Hyperparams(50, 12, 1, None, None, 0)),
    ("HGI", Hyperparams(80, 6, 5, 0.15, None, 0)),
    ("HGA", Hyperparams(80, 6, 5, 0.15, None, 0)),
)


def desk_case_config(case_id: int, seed: int = 0, threshold: int = 2) -> SimConfig:
    """3 computers x 10 epochs x 1000-record batches, CI-sized models."""
    return SimConfig(
        case_id, n_computers=3, n_epochs=10, threshold=threshold, seed=seed,
        member_hyperparams=DESK_HYPERPARAMS,
    )


def full_case_config(case_id: int, seed: int = 0, threshold: int = 2) -> SimConfig:
    """10 computers x 30 epochs x 8900-record batches, a quarter of them
    attacks, the non-hacker weights on, the default models."""
    return SimConfig(
        case_id, threshold=threshold, batch_size=8900, attack_frac=0.25, use_weights=True,
        seed=seed,
    )


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


SCORECARD_COLUMNS = tuple(f.name for f in fields(ScoreRow))
_SCORECARD_TYPES = get_type_hints(ScoreRow)


class EpochSummary(NamedTuple):
    epoch: int
    mean_f1: float
    min_f1: float
    mean_fnp: float
    max_fnp: float
    retrain_events: int


@dataclass
class Scorecard:
    rows: list[ScoreRow] = field(default_factory=list)

    def write(self, path) -> None:
        rows = ([getattr(r, name) for name in SCORECARD_COLUMNS] for r in self.rows)
        write_table(path, SCORECARD_COLUMNS, rows)

    def final_epoch_rows(self) -> list[ScoreRow]:
        if not self.rows:
            return []
        last = max(r.epoch for r in self.rows)
        return [r for r in self.rows if r.epoch == last]

    def epoch_summaries(self) -> list[EpochSummary]:
        """Per epoch, in order: mean and min F1, mean and max FNP across
        computers, and the epoch's retrain events."""
        out = []
        for e in sorted({r.epoch for r in self.rows}):
            rows = [r for r in self.rows if r.epoch == e]
            out.append(EpochSummary(
                e,
                sum(r.f1 for r in rows) / len(rows),
                min(r.f1 for r in rows),
                sum(r.fnp for r in rows) / len(rows),
                max(r.fnp for r in rows),
                sum(r.retrain_events for r in rows),
            ))
        return out

    @staticmethod
    def read(path) -> "Scorecard":
        """Parse a scorecard.csv; a missing column, a short row, a cell of
        the wrong type, a malformed line or text that is not UTF-8 is a
        DataFormatError naming the file. A leading UTF-8 byte-order mark
        is skipped."""
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            try:
                missing = [name for name in SCORECARD_COLUMNS if name not in (reader.fieldnames or ())]
                if missing:
                    raise DataFormatError(f"{path}: missing column(s): {', '.join(missing)}")
                rows = []
                for rec in reader:
                    where = f"{path}:{reader.line_num}"
                    cells = {}
                    for name in SCORECARD_COLUMNS:
                        if rec[name] is None:
                            raise DataFormatError(f"{where}: row ends before column {name}")
                        try:
                            cells[name] = _SCORECARD_TYPES[name](rec[name])
                        except ValueError:
                            raise DataFormatError(f"{where}: column {name}: bad cell {rec[name]!r}") from None
                    rows.append(ScoreRow(**cells))
            except csv.Error as exc:
                raise DataFormatError(f"{path}:{reader.reader.line_num}: {exc}") from None
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
        return Scorecard(rows)


def build_retrain_set(
    is_attack: np.ndarray, base_ids: np.ndarray, evaded_ids: np.ndarray,
    ballast_size: int, seed: int,
) -> np.ndarray:
    """Ids of the evaded attacks + an equal benign sample + a stratified
    ballast slice of the original training data (base_ids), in that
    order."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD8]))
    pool, n = base_ids[~is_attack[base_ids]], len(evaded_ids)
    benign = rng.choice(len(pool), size=n, replace=len(pool) < n) if len(pool) and n else []
    ballast = _stratified_sample(is_attack, base_ids, min(ballast_size, len(base_ids)), rng)
    return np.concatenate([evaded_ids, pool[benign], ballast])


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
    baseline: bool
    retrain_events: list[RetrainEvent] = field(default_factory=list)
    flag_log: list[ScanFlag] = field(default_factory=list)
    batch_member_fn: list[tuple[int, ...]] = field(default_factory=list)
    batch_ensemble_fn: list[int] = field(default_factory=list)
    final_state: EnsembleState | None = None
    files: list[Path] = field(default_factory=list)  # every file written, in order


def _stratified_sample(is_attack: np.ndarray, ids: np.ndarray, n: int, rng) -> np.ndarray:
    """n of ids, attacks in proportion, in the order of ids."""
    if n >= len(ids):
        return ids
    labels = is_attack[ids]
    attack, benign = np.flatnonzero(labels), np.flatnonzero(~labels)
    n_attack = min(int(math.floor(n * len(attack) / len(ids) + 0.5)), len(attack))
    n_benign = min(n - n_attack, len(benign))
    picked = np.zeros(len(ids), bool)
    for pos, k in ((attack, n_attack), (benign, n_benign)):
        if k:
            picked[pos[rng.choice(len(pos), size=k, replace=False)]] = True
    return ids[picked]


def _split(
    is_attack: np.ndarray, ids: np.ndarray, frac: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified split of ids: per label, benign first, a seeded
    permutation sends round(frac * n) of them to the head. Both sides
    keep the order of ids."""
    labels = is_attack[ids]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x51D]))
    head = np.zeros(len(ids), bool)
    for key in (False, True):  # an empty group's permutation draws nothing
        pos = np.flatnonzero(labels == key)
        take = int(math.floor(frac * len(pos) + 0.5))
        head[pos[rng.permutation(len(pos))[:take]]] = True
    return ids[head], ids[~head]


def make_desk_dataset(seed: int = 0, n_scan: int = 1200, n_benign: int = 1800) -> Dataset:
    """Synthetic single-hacker base dataset used by the desk-scale runs."""
    scans = synth_traffic("PORT_SCAN", n_scan, [HACKER_PAIR], seed)
    benign = synth_traffic("BENIGN", n_benign, [], seed + 1)
    return concat(scans, benign, seed=seed)


# The desk runs' attack budget. The tight iteration budget matters: long
# attacks push every row below the keep line against the sharply separable
# synthetic classes, so the injectable pool comes from attacks stopped
# mid-descent.
DESK_ZOO_BUDGET = ZooBudget(max_iters=4, step=0.02, h=1e-3, per_coord_batch=1)


def make_desk_adversarial(data: Dataset, seed: int = 0):
    """Kept adversarial examples for desk-scale runs: DESK_ZOO_BUDGET
    against a substitute with the desk HGI member's hyperparameters."""
    hgi = dict(DESK_HYPERPARAMS)["HGI"]
    return attack_pipeline(data, seed=seed, budget=DESK_ZOO_BUDGET, substitute_hyperparams=hgi)[0]


def _build_batches_plan(
    cfg: SimConfig, is_attack: np.ndarray, stream_ids: np.ndarray, adv_ids: np.ndarray
):
    """Deterministic per-batch id arrays: attacks and benign rows drawn
    from the stream ids, plus adversarial ids, shuffled."""
    attack_pool = stream_ids[is_attack[stream_ids]]
    benign_pool = stream_ids[~is_attack[stream_ids]]
    if not len(benign_pool):
        raise ConfigError("base data has no benign records to stream")
    if cfg.attack_frac > 0 and not len(attack_pool):
        raise ConfigError("base data has no attack records to stream")
    n_attack = int(math.floor(cfg.batch_size * cfg.attack_frac + 0.5))
    draws = [
        (attack_pool, n_attack), (benign_pool, cfg.batch_size - n_attack),
        (adv_ids, cfg.adv_per_batch),
    ]

    def batch(b: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xBA7C, b]))
        ids = np.concatenate([
            pool[rng.integers(0, len(pool), size=n)] for pool, n in draws if n and len(pool)
        ])
        return ids[rng.permutation(len(ids))]

    return batch


class _Pretrained(NamedTuple):
    """What a run computes before its stream. None of it reads the
    threshold, so a sweep streams every threshold from one of these."""

    table: Dataset
    is_attack: np.ndarray
    next_batch: Callable[[int], np.ndarray]
    pretrain: np.ndarray
    h: Hypergraph
    hackers: frozenset[IPPair]
    X: np.ndarray
    y: np.ndarray
    state: EnsembleState


def run_simulation(
    cfg: SimConfig,
    data: Dataset,
    adv: Sequence[AdversarialExample] = (),
    out_dir=None,
    baseline: bool = False,
) -> tuple[Scorecard, RunArtifacts]:
    """Execute one full run of cfg's case at cfg.threshold.

    With baseline=True all three slots hold NRF-layout models.
    """
    return _stream(cfg, _pretrain(cfg, data, adv, baseline), out_dir, baseline)


def _pretrain(cfg: SimConfig, data: Dataset, adv, baseline: bool) -> _Pretrained:
    policy = cfg.policy
    if policy.include_adv and not adv:
        raise ConfigError(f"case {cfg.case_id} expects adversarial examples")

    # One table per run: the base data, the stream source and the
    # adversarial records, in that order; every record set is an id array.
    stream = remap_ip_pairs(data, policy.ip_pairs, cfg.seed * 7 + 5) if policy.ip_pairs > 1 else data
    table = concat(data, stream, to_dataset(adv if policy.include_adv else (), seed=cfg.seed * 3 + 2))
    is_attack = table.is_attack
    base_ids = np.arange(len(data))
    next_batch = _build_batches_plan(
        cfg, is_attack, base_ids + len(data), np.arange(2 * len(data), len(table))
    )

    pretrain, pretest = _split(is_attack, base_ids, PRETRAIN_FRAC, cfg.seed * 13 + 1)
    h = build_hypergraph(table.take(pretrain))
    scans = table.take(pretrain[table.is_kind(LabelKind.PORT_SCAN)[pretrain]])
    hackers = frozenset((scans.ips[a], scans.ips[b]) for a, b in zip(*scans.pair_ids()))
    X, y = encode(table, None, h, hackers, cfg.use_weights)

    roles = (
        (FeatureMode.NRF, FeatureMode.NRF, FeatureMode.NRF)
        if baseline
        else (FeatureMode.NRF, FeatureMode.HGI, FeatureMode.HGA)
    )
    state = build_ensemble(
        X[pretrain], y[pretrain], seed=cfg.seed, holdout=(X[pretest], y[pretest]),
        roles=roles, hyperparams=cfg.hyperparams_map(),
    )
    return _Pretrained(table, is_attack, next_batch, pretrain, h, hackers, X, y, state)


def _stream(
    cfg: SimConfig, pretrained: _Pretrained, out_dir, baseline: bool
) -> tuple[Scorecard, RunArtifacts]:
    """Stream cfg's batches and write the run's files. A stream keeps its own
    scores, evaded ids and hackers, and rebinds, never writes into, X and state."""
    table, is_attack, next_batch, pretrain, h, hackers, X, y, state = pretrained
    policy = cfg.policy

    artifacts = RunArtifacts(cfg, baseline)
    scorecard = Scorecard()
    # Each table row's verdict and scores, kept until a slot is replaced
    # or X is encoded again.
    known = np.zeros(len(table), bool)
    verdict_of = np.zeros(len(table), bool)
    scores_of = np.zeros((len(table), len(state.members)))
    evaded = np.empty(0, np.intp)
    counter = 0
    flagged: set[IPPair] = set()

    for epoch in range(cfg.n_epochs):
        for computer in range(cfg.n_computers):
            b = epoch * cfg.n_computers + computer
            ids = next_batch(b)

            if policy.production_mode:
                flags, flagged = detect_window(table.take(ids), flagged, window_id=b)
                artifacts.flag_log.extend(flags)
                # Only the weight rule reads the hacker pairs.
                if cfg.use_weights and flagged != hackers:
                    hackers = frozenset(flagged)
                    X, y = encode(table, None, h, hackers, cfg.use_weights)
                    known[:] = False

            fresh = np.sort(ids[~known[ids]])
            fresh = fresh[np.diff(fresh, prepend=-1) != 0]  # each id once
            if fresh.size:
                verdict_of[fresh], scores_of[fresh] = classify_batch(state, X[fresh])
                known[fresh] = True
            verdicts, scores = verdict_of[ids], scores_of[ids]
            actual = is_attack[ids]
            report = EvalReport.from_predictions(verdicts, actual)
            artifacts.batch_member_fn.append(tuple(r.fn for r in member_reports(scores, actual)))
            artifacts.batch_ensemble_fn.append(report.fn)
            evaded = np.concatenate([evaded, ids[~verdicts & actual]])
            counter += report.fn

            retrain = counter > cfg.threshold and policy.rule is not UpdateRule.STATIC
            if retrain:
                event_idx = len(artifacts.retrain_events)
                pool = build_retrain_set(
                    is_attack, pretrain, evaded, cfg.ballast_size, cfg.seed * 101 + event_idx
                )
                train_part, holdout_part = _split(is_attack, pool, 0.8, cfg.seed * 77 + event_idx)
                state, log = retrain_request(
                    state, policy.rule, (X[train_part], y[train_part]),
                    (X[holdout_part], y[holdout_part]), seed=cfg.seed * 1009 + event_idx,
                    hyperparams=cfg.hyperparams_map(),
                )
                if log.replaced_slots:
                    known[:] = False
                artifacts.retrain_events.append(
                    RetrainEvent(
                        event_idx, epoch, computer, cfg.threshold,
                        len(evaded), log, state.versions(),
                    )
                )
                if out_dir is not None and log.replaced_slots:
                    artifacts.files += save_state(state, Path(out_dir) / "models" / f"event_{event_idx}")
                counter = 0

            scorecard.rows.append(
                ScoreRow(
                    epoch=epoch,
                    computer=computer,
                    **asdict(report),
                    retrain_events=int(retrain),
                    ensemble_versions="|".join(str(v) for v in state.versions()),
                )
            )

    artifacts.final_state = state
    if out_dir is not None:
        artifacts.files += _write_artifacts(out_dir, scorecard, artifacts)
    return scorecard, artifacts


def sweep_thresholds(
    cfg: SimConfig,
    thresholds: Sequence[int],
    data: Dataset,
    adv: Sequence[AdversarialExample] = (),
    out_dir=None,
) -> dict[int, tuple[Scorecard, RunArtifacts]]:
    """One pre-training, then one stream of cfg per threshold: threshold ->
    the (Scorecard, RunArtifacts) that run_simulation gives at that
    threshold. With out_dir, each run writes to out_dir/threshold_<th>,
    then sweep_summary.csv is written. An empty list or a repeated
    threshold is a ConfigError before any run."""
    if not thresholds:
        raise ConfigError("no thresholds to sweep")
    repeated = sorted(th for th, n in Counter(thresholds).items() if n > 1)
    if repeated:
        raise ConfigError(f"threshold(s) {repeated} repeated: each names one threshold_<th> run")
    configs = [replace(cfg, threshold=th) for th in thresholds]  # all checked before any run
    pretrained = _pretrain(cfg, data, adv, False)
    results: dict[int, tuple[Scorecard, RunArtifacts]] = {}
    for run_cfg in configs:
        th = run_cfg.threshold
        sub_dir = Path(out_dir) / f"threshold_{th}" if out_dir is not None else None
        results[th] = _stream(run_cfg, pretrained, sub_dir, False)
    if out_dir is not None:
        _write_sweep_summary(Path(out_dir) / "sweep_summary.csv", results)
    return results


def sweep_summary_rows(results: dict[int, Scorecard]) -> list[tuple]:
    """(threshold, final-epoch mean F1, final-epoch mean FNP, retrain
    events) per threshold; a run without rows reads 0."""
    rows = []
    for th in sorted(results):
        epochs = results[th].epoch_summaries()
        final = epochs[-1] if epochs else EpochSummary(0, 0.0, 0.0, 0.0, 0.0, 0)
        rows.append((th, final.mean_f1, final.mean_fnp, sum(e.retrain_events for e in epochs)))
    return rows


def _write_sweep_summary(path: Path, results: dict[int, tuple[Scorecard, RunArtifacts]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    write_table(path, ["threshold", "final_epoch_mean_f1", "final_epoch_mean_fnp", "retrain_events"],
                sweep_summary_rows({th: sc for th, (sc, _) in results.items()}))


def _write_artifacts(out_dir, scorecard, artifacts) -> list[Path]:
    cfg = artifacts.config
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    scorecard.write(path / "scorecard.csv")

    # Every SimConfig field but adv_per_batch and the models, with the case policy.
    echo = {f.name: getattr(cfg, f.name) for f in fields(cfg)
            if f.name not in ("adv_per_batch", "member_hyperparams")}
    echo.update(cfg.policy._asdict(), baseline=artifacts.baseline)
    (path / "config.json").write_text(json.dumps(echo, indent=2, sort_keys=True))

    write_table(
        path / "retrain_log.csv",
        ["event", "epoch", "computer", "threshold", "evaded_total", "rule",
         "deferred", "reason", "replaced_slots", "versions_after"],
        ([ev.index, ev.epoch, ev.computer, ev.threshold, ev.evaded_total,
          ev.log.rule.value, ev.log.deferred, ev.log.reason,
          "|".join(str(s) for s in ev.log.replaced_slots),
          "|".join(str(v) for v in ev.versions_after)] for ev in artifacts.retrain_events),
    )

    write_flags_csv(artifacts.flag_log, path / "flag_log.csv")
    return [
        path / name for name in ("scorecard.csv", "config.json", "retrain_log.csv", "flag_log.csv")
    ] + save_state(artifacts.final_state, path / "models" / "final")
