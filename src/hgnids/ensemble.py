"""Three-model detection ensemble with threshold-triggered update rules.

The ensemble holds one slot per feature layout (NRF random forest, HGI
and HGA boosted trees) and calls a record an attack when ANY member
scores it at or above 0.5, so ensemble recall can never fall below the
best member's. Retraining requests are served under one of three rules:
STATIC never changes anything, FORGO-the-worst trains a single HGI-layout
candidate and swaps it for the weakest member only when it beats that
member on the holdout, and UPDATE-ALL retrains every slot in its
member's layout but retains the incumbents wholesale if any of them
still beats the best new model on holdout F1. Both updating rules run
one body: plan candidates, train them, score incumbents and candidates
on the holdout, and swap the slots the rule accepts.

The ensemble works on encoded arrays only: every record set arrives as
`features.encode`'s full table (`mode=None`) with its labels, and each
member reads its layout's columns of it (`LAYOUT_COLUMNS`), so a record
set is encoded once for all members. Members are scored only through
member_scores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .features import ATTACK, LAYOUT_COLUMNS, FeatureMode
from .trees import (
    DECISION_THRESHOLD,
    DataFormatError,
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

ROLE_KIND = {
    FeatureMode.NRF: ModelKind.RANDOM_FOREST,
    FeatureMode.HGI: ModelKind.GRADIENT_BOOSTED,
    FeatureMode.HGA: ModelKind.GRADIENT_BOOSTED,
}

Encoded = tuple[np.ndarray, np.ndarray]  # (X, y) as features.encode returns them


class UpdateRule(str, Enum):
    STATIC = "STATIC"
    FTW = "FTW"
    UALL = "UALL"


@dataclass
class MemberSlot:
    model: TreeModel
    version: int = 0
    last_eval: EvalReport | None = None


@dataclass
class EnsembleState:
    members: list[MemberSlot]

    def versions(self) -> tuple[int, ...]:
        return tuple(m.version for m in self.members)

    def roles(self) -> tuple[FeatureMode, ...]:
        return tuple(m.model.feature_mode for m in self.members)


@dataclass
class UpdateLog:
    rule: UpdateRule
    deferred: bool = False
    reason: str = ""
    replaced_slots: tuple[int, ...] = ()
    incumbent_f1: tuple[float, ...] = ()
    candidate_f1: tuple[float, ...] = ()


def member_scores(state: EnsembleState, X: np.ndarray) -> np.ndarray:
    """Per-member attack scores, shape (n_rows, n_members). X holds at
    least the columns of every member's layout, as encode's full table
    does; each member reads its own."""
    return np.stack([
        predict_proba_batch(slot.model, X[:, LAYOUT_COLUMNS[slot.model.feature_mode]])
        for slot in state.members
    ], axis=1)


def member_reports(scores: np.ndarray, actual) -> tuple[EvalReport, ...]:
    """One confusion report per score column (member) against the truth."""
    if len(actual) == 0:
        raise ValueError("cannot evaluate on empty rows")
    return tuple(EvalReport.from_predictions(col >= DECISION_THRESHOLD, actual) for col in scores.T)


def classify_batch(state: EnsembleState, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(verdicts bool array, per-member score matrix) for a batch."""
    scores = member_scores(state, X)
    return (scores >= DECISION_THRESHOLD).any(axis=1), scores


def _fit_member(
    role: FeatureMode, data: Encoded, hyperparams: Hyperparams | None, seed: int
) -> TreeModel:
    """Train one member on its layout's columns of the full table."""
    kind = ROLE_KIND[role]
    X, y = data
    params = replace(hyperparams or default_hyperparams(kind), seed=seed)
    return fit(X[:, LAYOUT_COLUMNS[role]], y, kind, params)


def build_ensemble(
    X: np.ndarray,
    y: np.ndarray,
    seed: int = 0,
    holdout: Encoded | None = None,
    roles: Sequence[FeatureMode] = (FeatureMode.NRF, FeatureMode.HGI, FeatureMode.HGA),
    hyperparams: Mapping[FeatureMode, Hyperparams] | None = None,
) -> EnsembleState:
    """Train a fresh ensemble, one member per requested role, on the full
    table X; a non-empty holdout (X, y) sets each member's last_eval."""
    state = EnsembleState([
        MemberSlot(_fit_member(
            role, (X, y), hyperparams.get(role) if hyperparams else None, seed * 31 + i
        ))
        for i, role in enumerate(roles)
    ])
    if holdout is not None and len(holdout[1]) > 0:
        Xh, yh = holdout
        reports = member_reports(member_scores(state, Xh), yh == ATTACK)
        for slot, report in zip(state.members, reports):
            slot.last_eval = report
    return state


def retrain_request(
    state: EnsembleState,
    rule: UpdateRule,
    train_set: Encoded,
    holdout: Encoded,
    seed: int = 0,
    hyperparams: Mapping[FeatureMode, Hyperparams] | None = None,
) -> tuple[EnsembleState, UpdateLog]:
    """Serve one retraining request; returns the (possibly new) state.

    train_set and holdout are (X, y) pairs of encode's full table. A
    single-class training set or an empty holdout defers the request
    instead of failing. The forgo-the-worst candidate takes hyperparams'
    HGI entry, else the first HGI member's, else the defaults; update-all
    candidates take their slot's.
    """
    if rule is UpdateRule.STATIC:
        return state, UpdateLog(rule)

    y = train_set[1]
    if len(y) == 0 or y.min() == y.max():
        return state, UpdateLog(rule, deferred=True, reason="single-class training set")
    if len(holdout[1]) == 0:
        return state, UpdateLog(rule, deferred=True, reason="empty holdout")

    # The plan: (role, hyperparams, seed) of every candidate to train.
    if rule is UpdateRule.FTW:
        hp = (hyperparams or {}).get(FeatureMode.HGI) or next(
            (s.model.hyperparams for s in state.members if s.model.feature_mode is FeatureMode.HGI),
            None,
        )
        plan = [(FeatureMode.HGI, hp, seed)]
    else:
        plan = [(s.model.feature_mode, s.model.hyperparams, seed * 31 + i)
                for i, s in enumerate(state.members)]
    candidates = EnsembleState([
        MemberSlot(_fit_member(role, train_set, params, s)) for role, params, s in plan
    ])
    Xh, yh = holdout
    incumbent = tuple(r.f1 for r in member_reports(member_scores(state, Xh), yh == ATTACK))
    new_reports = member_reports(member_scores(candidates, Xh), yh == ATTACK)
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
        role = slot.model.feature_mode.value
        filename = f"member_{i}_{role.lower()}_v{slot.version}.json"
        (path / filename).write_bytes(serialize_model(slot.model))
        manifest["members"].append(
            {
                "slot": i,
                "role": role,
                "version": slot.version,
                "file": filename,
                "f1": slot.last_eval.f1 if slot.last_eval else None,
            }
        )
    (path / "ensemble.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return [path / m["file"] for m in manifest["members"]] + [path / "ensemble.json"]


def load_state(directory) -> EnsembleState:
    """Read save_state's directory. An ensemble.json that is not UTF-8
    JSON, lacks a members list of file, role and version entries, names a
    member file that is not a bare file name in the directory, or gives a
    version that is not a non-negative integer (a bool is not one) is a
    DataFormatError naming it, and so is a member whose model layout is
    not the role ensemble.json gives it."""
    path = Path(directory)
    manifest = path / "ensemble.json"
    try:
        entries = [(e["file"], e["role"], e["version"])
                   for e in json.loads(manifest.read_text(encoding="utf-8"))["members"]]
    except (ValueError, KeyError, TypeError) as exc:  # not UTF-8 JSON, or a key missing
        raise DataFormatError(f"{manifest}: not an ensemble manifest ({type(exc).__name__}: {exc})") from None
    members = []
    for file, role, version in entries:
        if not isinstance(file, str) or file in ("", "..") or "\0" in file or Path(file).name != file:
            raise DataFormatError(f"{manifest}: member file {file!r} is not a file name in {path}")
        if not isinstance(version, int) or isinstance(version, bool) or version < 0:
            raise DataFormatError(f"{manifest}: member version {version!r} is not a non-negative integer")
        model = deserialize_model((path / file).read_bytes())
        if role != model.feature_mode.value:
            raise DataFormatError(
                f"{path / file}: role {role!r} in ensemble.json, "
                f"but the model reads the {model.feature_mode.value} layout"
            )
        members.append(MemberSlot(model, version=version))
    return EnsembleState(members)
