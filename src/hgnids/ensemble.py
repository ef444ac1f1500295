"""Three-model detection ensemble with threshold-triggered update rules.

The ensemble holds one slot per feature layout (NRF random forest, HGI
and HGA boosted trees) and calls a record an attack when ANY member
scores it at or above 0.5, so ensemble recall can never fall below the
best member's. Retraining requests are served under one of three rules:
STATIC never changes anything, FORGO-the-worst trains a single HGI-layout
candidate and swaps it for the weakest member only when it beats that
member on the holdout, and UPDATE-ALL retrains every slot by role but
retains the incumbents wholesale if any of them still beats the best new
model on holdout F1. Both updating rules run one body: plan candidates,
train them, score incumbents and candidates on the holdout, and swap
the slots the rule accepts. Members are scored only through
member_scores, which encodes each role once.
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


def member_reports(scores: np.ndarray, actual) -> tuple[EvalReport, ...]:
    """One confusion report per score column (member) against the truth."""
    if len(actual) == 0:
        raise ValueError("cannot evaluate on empty rows")
    return tuple(EvalReport.from_predictions(col >= DECISION_THRESHOLD, actual) for col in scores.T)


def classify_batch(
    state: EnsembleState, records: Sequence[FlowRecord], ctx: EncodingContext
) -> tuple[np.ndarray, np.ndarray]:
    """(verdicts bool array, per-member score matrix) for a batch."""
    scores = member_scores(state, records, ctx)
    return (scores >= DECISION_THRESHOLD).any(axis=1), scores


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


def _holdout_reports(
    state: EnsembleState, holdout: Dataset, ctx: EncodingContext
) -> tuple[EvalReport, ...]:
    return member_reports(member_scores(state, holdout, ctx), [r.label.is_attack for r in holdout])


def build_ensemble(
    train_set: Dataset,
    ctx: EncodingContext,
    seed: int = 0,
    holdout: Dataset | None = None,
    roles: Sequence[FeatureMode] = (FeatureMode.NRF, FeatureMode.HGI, FeatureMode.HGA),
    hyperparams: Mapping[FeatureMode, Hyperparams] | None = None,
) -> EnsembleState:
    """Train a fresh ensemble, one member per requested role."""
    state = EnsembleState([
        MemberSlot(role, train_member(
            role, train_set, ctx, hyperparams.get(role) if hyperparams else None, seed=seed * 31 + i
        ))
        for i, role in enumerate(roles)
    ])
    if holdout is not None and len(holdout) > 0:
        for slot, report in zip(state.members, _holdout_reports(state, holdout, ctx)):
            slot.last_eval = report
    return state


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

    if len({r.label.is_attack for r in train_set}) < 2:
        return state, UpdateLog(rule, deferred=True, reason="single-class training set")

    # The plan: (role, hyperparams, seed) of every candidate to train.
    if rule is UpdateRule.FTW:
        hp = next(
            (s.model.hyperparams for s in state.members if s.role is FeatureMode.HGI), None
        )
        plan = [(FeatureMode.HGI, hp, seed)]
    else:
        plan = [(s.role, s.model.hyperparams, seed * 31 + i) for i, s in enumerate(state.members)]
    candidates = EnsembleState([
        MemberSlot(role, train_member(role, train_set, ctx, params, seed=s))
        for role, params, s in plan
    ])
    incumbent = tuple(r.f1 for r in _holdout_reports(state, holdout, ctx))
    new_reports = _holdout_reports(candidates, holdout, ctx)
    new_f1 = tuple(r.f1 for r in new_reports)
    log = UpdateLog(rule, incumbent_f1=incumbent, candidate_f1=new_f1)

    # swaps: the (slot, candidate) pairs to take if the rule accepts.
    if rule is UpdateRule.FTW:
        worst = min(range(len(incumbent)), key=lambda i: (incumbent[i], i))
        swaps = [(worst, 0)]
        if new_f1[0] <= incumbent[worst]:
            log.reason = "candidate did not beat the weakest member"
    else:
        swaps = [(i, i) for i in range(len(plan))]
        if max(incumbent) > max(new_f1):
            log.reason = "incumbents retained: existing member beats best retrained model"
    if log.reason:
        return state, log
    members = list(state.members)
    for slot, c in swaps:
        members[slot] = replace(
            candidates.members[c], version=members[slot].version + 1, last_eval=new_reports[c]
        )
    log.replaced_slots = tuple(slot for slot, _ in swaps)
    return EnsembleState(members), log


def save_state(state: EnsembleState, directory) -> list[Path]:
    """Write each member's model and ensemble.json; returns their paths."""
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
    return [path / m["file"] for m in manifest["members"]] + [path / "ensemble.json"]


def load_state(directory) -> EnsembleState:
    path = Path(directory)
    manifest = json.loads((path / "ensemble.json").read_text())
    members = []
    for entry in manifest["members"]:
        model = deserialize_model((path / entry["file"]).read_bytes())
        members.append(MemberSlot(FeatureMode(entry["role"]), model, version=entry["version"]))
    return EnsembleState(members)
