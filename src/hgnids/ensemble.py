"""Three-model detection ensemble with threshold-triggered update rules.

The ensemble holds one slot per feature layout (NRF random forest, HGI
and HGA boosted trees) and calls a record an attack when ANY member
scores it at or above 0.5, so ensemble recall can never fall below the
best member's. Retraining requests are served under one of three rules:
STATIC never changes anything, FORGO-the-worst trains a single HGI-layout
candidate and swaps it for the weakest member only when it beats that
member on the holdout, and UPDATE-ALL retrains every slot by role but
retains the incumbents wholesale if any of them still beats the best new
model on holdout F1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .flows import Dataset, FlowRecord
from .features import FeatureMode, IPPair, encode
from .hypergraph import Hypergraph
from .trees import (
    EvalReport,
    Hyperparams,
    ModelKind,
    TreeModel,
    default_hyperparams,
    deserialize_model,
    evaluate,
    fit,
    predict_proba_batch,
    serialize_model,
)

DECISION_THRESHOLD = 0.5

ROLE_KIND = {
    FeatureMode.NRF: ModelKind.RANDOM_FOREST,
    FeatureMode.HGI: ModelKind.GRADIENT_BOOSTED,
    FeatureMode.HGA: ModelKind.GRADIENT_BOOSTED,
}


class UpdateRule(str, Enum):
    STATIC = "STATIC"
    FTW = "FTW"
    UALL = "UALL"


@dataclass
class EncodingContext:
    hypergraph: Hypergraph | None
    hackers: frozenset[IPPair] = frozenset()
    weights: tuple[float, ...] | None = None


@dataclass
class MemberSlot:
    role: FeatureMode
    model: TreeModel
    version: int = 0
    last_eval: EvalReport | None = None


@dataclass
class EnsembleState:
    members: list[MemberSlot]

    def versions(self) -> tuple[int, ...]:
        return tuple(m.version for m in self.members)

    def roles(self) -> tuple[FeatureMode, ...]:
        return tuple(m.role for m in self.members)


@dataclass
class UpdateLog:
    rule: UpdateRule
    deferred: bool = False
    reason: str = ""
    replaced_slots: tuple[int, ...] = ()
    incumbent_f1: tuple[float, ...] = ()
    candidate_f1: tuple[float, ...] = ()


def member_scores(
    state: EnsembleState, records: Sequence[FlowRecord], ctx: EncodingContext
) -> np.ndarray:
    """Per-member attack scores, shape (n_records, n_members)."""
    cache: dict[FeatureMode, np.ndarray] = {}
    cols = []
    for slot in state.members:
        if slot.role not in cache:
            cache[slot.role], _ = encode(records, slot.role, ctx.hypergraph, ctx.hackers, ctx.weights)
        cols.append(predict_proba_batch(slot.model, cache[slot.role]))
    return np.stack(cols, axis=1)


def classify(
    state: EnsembleState, rec: FlowRecord, ctx: EncodingContext
) -> tuple[str, tuple[float, ...]]:
    """OR-aggregated verdict for one record plus per-member scores."""
    scores = member_scores(state, [rec], ctx)[0]
    verdict = "ATTACK" if bool((scores >= DECISION_THRESHOLD).any()) else "NORMAL"
    return verdict, tuple(float(s) for s in scores)


def classify_batch(
    state: EnsembleState, records: Sequence[FlowRecord], ctx: EncodingContext
) -> tuple[np.ndarray, np.ndarray]:
    """(verdicts bool array, per-member score matrix) for a batch."""
    scores = member_scores(state, records, ctx)
    return (scores >= DECISION_THRESHOLD).any(axis=1), scores


def evaluate_ensemble(
    state: EnsembleState, records: Sequence[FlowRecord], ctx: EncodingContext
) -> EvalReport:
    if not records:
        raise ValueError("cannot evaluate on empty records")
    verdicts, _ = classify_batch(state, records, ctx)
    return EvalReport.from_predictions(verdicts, [r.label.is_attack for r in records])


def train_member(
    role: FeatureMode,
    train_set: Dataset,
    ctx: EncodingContext,
    hyperparams: Hyperparams | None = None,
    seed: int = 0,
) -> TreeModel:
    kind = ROLE_KIND[role]
    params = replace(hyperparams or default_hyperparams(kind), seed=seed)
    X, y = encode(train_set, role, ctx.hypergraph, ctx.hackers, ctx.weights)
    return fit(X, y, kind, params)


def build_ensemble(
    train_set: Dataset,
    ctx: EncodingContext,
    seed: int = 0,
    holdout: Dataset | None = None,
    roles: Sequence[FeatureMode] = (FeatureMode.NRF, FeatureMode.HGI, FeatureMode.HGA),
    hyperparams: Mapping[FeatureMode, Hyperparams] | None = None,
) -> EnsembleState:
    """Train a fresh ensemble, one member per requested role."""
    members = []
    for i, role in enumerate(roles):
        hp = hyperparams.get(role) if hyperparams else None
        model = train_member(role, train_set, ctx, hp, seed=seed * 31 + i)
        report = None
        if holdout is not None and len(holdout) > 0:
            _, report = _holdout_f1(model, holdout, ctx)
        members.append(MemberSlot(role, model, version=0, last_eval=report))
    return EnsembleState(members)


def _holdout_f1(model: TreeModel, holdout: Dataset, ctx: EncodingContext) -> tuple[float, EvalReport]:
    X, y = encode(holdout, model.feature_mode, ctx.hypergraph, ctx.hackers, ctx.weights)
    report = evaluate(model, X, y)
    return report.f1, report


def retrain_request(
    state: EnsembleState,
    rule: UpdateRule,
    train_set: Dataset,
    ctx: EncodingContext,
    holdout: Dataset,
    seed: int = 0,
) -> tuple[EnsembleState, UpdateLog]:
    """Serve one retraining request; returns the (possibly new) state.

    A single-class training set defers the request instead of failing.
    """
    if rule is UpdateRule.STATIC:
        return state, UpdateLog(rule)

    labels = {r.label.is_attack for r in train_set}
    if len(labels) < 2:
        return state, UpdateLog(rule, deferred=True, reason="single-class training set")

    incumbent: list[float] = []
    incumbent_reports: list[EvalReport] = []
    for slot in state.members:
        f1, report = _holdout_f1(slot.model, holdout, ctx)
        incumbent.append(f1)
        incumbent_reports.append(report)

    if rule is UpdateRule.FTW:
        hp = next(
            (s.model.hyperparams for s in state.members if s.role is FeatureMode.HGI), None
        )
        candidate = train_member(FeatureMode.HGI, train_set, ctx, hp, seed=seed)
        cand_f1, cand_report = _holdout_f1(candidate, holdout, ctx)
        worst = min(range(len(incumbent)), key=lambda i: (incumbent[i], i))
        log = UpdateLog(
            rule,
            incumbent_f1=tuple(incumbent),
            candidate_f1=(cand_f1,),
        )
        if cand_f1 <= incumbent[worst]:
            log.reason = "candidate did not beat the weakest member"
            return state, log
        members = list(state.members)
        members[worst] = MemberSlot(
            FeatureMode.HGI, candidate, version=members[worst].version + 1, last_eval=cand_report
        )
        log.replaced_slots = (worst,)
        return EnsembleState(members), log

    # UALL: retrain every slot by role, retain incumbents wholesale when one
    # of them still beats the best newly trained model.
    new_models: list[TreeModel] = []
    new_f1: list[float] = []
    new_reports: list[EvalReport] = []
    for i, slot in enumerate(state.members):
        model = train_member(slot.role, train_set, ctx, slot.model.hyperparams, seed=seed * 31 + i)
        f1, report = _holdout_f1(model, holdout, ctx)
        new_models.append(model)
        new_f1.append(f1)
        new_reports.append(report)

    log = UpdateLog(rule, incumbent_f1=tuple(incumbent), candidate_f1=tuple(new_f1))
    if max(incumbent) > max(new_f1):
        log.reason = "incumbents retained: existing member beats best retrained model"
        return state, log
    members = [
        MemberSlot(slot.role, new_models[i], version=slot.version + 1, last_eval=new_reports[i])
        for i, slot in enumerate(state.members)
    ]
    log.replaced_slots = tuple(range(len(members)))
    return EnsembleState(members), log


def save_state(state: EnsembleState, directory) -> None:
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {"members": []}
    for i, slot in enumerate(state.members):
        filename = f"member_{i}_{slot.role.value.lower()}_v{slot.version}.json"
        (path / filename).write_bytes(serialize_model(slot.model))
        manifest["members"].append(
            {
                "slot": i,
                "role": slot.role.value,
                "version": slot.version,
                "file": filename,
                "f1": slot.last_eval.f1 if slot.last_eval else None,
            }
        )
    (path / "ensemble.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def load_state(directory) -> EnsembleState:
    path = Path(directory)
    manifest = json.loads((path / "ensemble.json").read_text())
    members = []
    for entry in manifest["members"]:
        model = deserialize_model((path / entry["file"]).read_bytes())
        members.append(MemberSlot(FeatureMode(entry["role"]), model, version=entry["version"]))
    return EnsembleState(members)
