"""The record-based ensemble that `ensemble` replaced with its matrix API.

Here every member encodes the records it reads in its own layout through
an `EncodingContext`: `train_member` encodes the training set per
member, `_holdout_f1` encodes the holdout once per model and calls
`trees.evaluate`, `build_ensemble` scores each new member that way, and
`retrain_request` has separate forgo-the-worst and update-all branches
that each train, score, log and swap members. Kept as the reference for
differential tests of the merged, encode-once path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from hgnids.ensemble import ROLE_KIND, EnsembleState, MemberSlot, UpdateLog, UpdateRule
from hgnids.features import FeatureMode, IPPair, encode
from hgnids.flows import Dataset
from hgnids.hypergraph import Hypergraph
from hgnids.trees import EvalReport, Hyperparams, TreeModel, default_hyperparams, evaluate, fit


@dataclass
class EncodingContext:
    hypergraph: Hypergraph | None
    hackers: frozenset[IPPair] = frozenset()
    use_weights: bool = False


def train_member(
    role: FeatureMode,
    train_set: Dataset,
    ctx: EncodingContext,
    hyperparams: Hyperparams | None = None,
    seed: int = 0,
) -> TreeModel:
    kind = ROLE_KIND[role]
    params = replace(hyperparams or default_hyperparams(kind), seed=seed)
    X, y = encode(train_set, role, ctx.hypergraph, ctx.hackers, ctx.use_weights)
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
        members.append(MemberSlot(model, version=0, last_eval=report))
    return EnsembleState(members)


def _holdout_f1(model: TreeModel, holdout: Dataset, ctx: EncodingContext) -> tuple[float, EvalReport]:
    X, y = encode(holdout, model.feature_mode, ctx.hypergraph, ctx.hackers, ctx.use_weights)
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
            (s.model.hyperparams for s in state.members if s.model.feature_mode is FeatureMode.HGI),
            None,
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
            candidate, version=members[worst].version + 1, last_eval=cand_report
        )
        log.replaced_slots = (worst,)
        return EnsembleState(members), log

    # UALL: retrain every slot by role, retain incumbents wholesale when one
    # of them still beats the best newly trained model.
    new_models: list[TreeModel] = []
    new_f1: list[float] = []
    new_reports: list[EvalReport] = []
    for i, slot in enumerate(state.members):
        role = slot.model.feature_mode
        model = train_member(role, train_set, ctx, slot.model.hyperparams, seed=seed * 31 + i)
        f1, report = _holdout_f1(model, holdout, ctx)
        new_models.append(model)
        new_f1.append(f1)
        new_reports.append(report)

    log = UpdateLog(rule, incumbent_f1=tuple(incumbent), candidate_f1=tuple(new_f1))
    if max(incumbent) > max(new_f1):
        log.reason = "incumbents retained: existing member beats best retrained model"
        return state, log
    members = [
        MemberSlot(new_models[i], version=slot.version + 1, last_eval=new_reports[i])
        for i, slot in enumerate(state.members)
    ]
    log.replaced_slots = tuple(range(len(members)))
    return EnsembleState(members), log
