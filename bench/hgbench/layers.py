"""The traced layers (hgnids modules) and the per-layer metrics.

Every metric names the end-to-end metric and workload it should move, so
a change to one layer states up front where its gain has to appear.
`bruteforce` is the test oracle and `cli` only parses arguments, so
neither is a layer here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trace import Target


def targets() -> tuple[Target, ...]:
    """Fresh targets for one tracer (the overlap counter keeps state)."""
    return (
        Target("flows", "hgnids.flows", "ingest_csv", lambda a, kw, r: {"rows": len(r[0])}),
        Target("hypergraph", "hgnids.hypergraph", "build_hypergraph"),
        Target("hypergraph", "hgnids.hypergraph:Hypergraph", "overlaps", _overlap_counter()),
        Target("hypergraph", "hgnids.hypergraph", "edge_profiles", lambda a, kw, r: {"edges": len(r)}),
        Target("detector", "hgnids.detector", "detect_window", lambda a, kw, r: {"flags": len(r[0])}),
        Target("features", "hgnids.features", "encode_record"),
        Target("features", "hgnids.features", "build_matrix", lambda a, kw, r: {"rows": len(r)}),
        Target("trees", "hgnids.trees", "train", lambda a, kw, r: {"trees": len(r.trees)}),
        Target("trees", "hgnids.trees", "predict_proba_batch", lambda a, kw, r: {"rows": len(r)}),
        Target("trees", "hgnids.trees", "evaluate"),
        Target("adversarial", "hgnids.adversarial", "fit_substitute"),
        Target("adversarial", "hgnids.adversarial", "zoo_attack",
               lambda a, kw, r: {"queries": r.query_count}),
        Target("adversarial", "hgnids.adversarial", "generate_examples",
               lambda a, kw, r: {"kept": len(r), "attacked": len(a[0])}),
        Target("ensemble", "hgnids.ensemble", "build_ensemble"),
        Target("ensemble", "hgnids.ensemble", "classify_batch", lambda a, kw, r: {"records": len(a[1])}),
        Target("ensemble", "hgnids.ensemble", "retrain_request",
               lambda a, kw, r: {"accepted": int(bool(r[1].replaced_slots))}),
        Target("ensemble", "hgnids.ensemble", "save_state"),
        Target("simulate", "hgnids.simulate", "run_simulation",
               lambda a, kw, r: {"batches": len(r[0].rows)}),
    )


def _overlap_counter():
    """Counts each hypergraph's overlap map once, although `overlaps()`
    returns the same cached map on every later call."""
    seen: dict[int, dict] = {}

    def count(args, kwargs, result):
        if id(result) in seen:
            return {}
        seen[id(result)] = result  # held so that the id is not reused
        return {"pairs": len(result)}

    return count


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str
    source: str | tuple[str, str] | None = None  # summary key, or (numerator, denominator)


def _m(name, unit, moves, source=None, better="lower"):
    return LayerMetric(name, unit, better, moves, source)


PER_LAYER: tuple[LayerMetric, ...] = (
    _m("flows.ingest_csv.s", "s", "wall_s on detect-window (small share)"),
    _m("flows.ingest_csv.rows", "count", "wall_s on detect-window (small share)"),
    _m("hypergraph.build_hypergraph.s", "s", "wall_s on detect-window; desk-case4 (small)"),
    _m("hypergraph.build_hypergraph.calls", "count", "wall_s on detect-window; desk-case4 (small)"),
    _m("hypergraph.overlaps.s", "s", "wall_s on detect-window (dominant); desk-case4 (small)"),
    _m("hypergraph.overlap_pairs", "count", "wall_s on detect-window (dominant)",
       "hypergraph.overlaps.pairs"),
    _m("hypergraph.edge_profiles.s", "s", "wall_s on detect-window (dominant); desk-case4 (small)"),
    _m("hypergraph.edge_profiles.calls", "count", "wall_s on detect-window; desk-case4 (4 small graphs)"),
    _m("hypergraph.edge_profiles.edges", "count", "wall_s on detect-window (dominant)"),
    _m("detector.detect_window.s", "s", "wall_s on detect-window"),
    _m("detector.detect_window.self_s", "s", "wall_s on detect-window"),
    _m("detector.detect_window.calls", "count", "wall_s on detect-window (1 window)"),
    _m("detector.detect_window.flags", "count", "wall_s on detect-window (must not change)"),
    _m("features.encode_record.s", "s", "wall_s on desk-case4 (simulation; the attack encodes NRF only)"),
    _m("features.encode_record.calls", "count", "wall_s on desk-case4"),
    _m("features.build_matrix.s", "s", "wall_s on desk-case4"),
    _m("features.build_matrix.rows", "count", "wall_s on desk-case4"),
    _m("trees.train.s", "s", "wall_s on desk-case4 (simulation and substitute)"),
    _m("trees.train.calls", "count", "wall_s on desk-case4 (simulation and substitute)"),
    _m("trees.train.trees", "count", "wall_s on desk-case4 (simulation and substitute)"),
    _m("trees.predict_proba_batch.s", "s",
       "wall_s on desk-case4: attack (1-2 rows per call), simulation (~1k rows per call)"),
    _m("trees.predict_proba_batch.calls", "count", "wall_s on desk-case4 (attack)"),
    _m("trees.predict_proba_batch.rows", "count", "wall_s on desk-case4"),
    _m("trees.evaluate.s", "s", "wall_s on desk-case4"),
    _m("adversarial.fit_substitute.s", "s", "wall_s on desk-case4 (attack)"),
    _m("adversarial.zoo_attack.s", "s", "wall_s on desk-case4 (attack)"),
    _m("adversarial.zoo_attack.calls", "count", "wall_s on desk-case4 (attack)"),
    _m("adversarial.zoo_attack.queries", "count", "wall_s on desk-case4 (attack)"),
    _m("adversarial.generate_examples.self_s", "s", "wall_s on desk-case4 (attack)"),
    _m("adversarial.kept_ratio", "ratio", "wall_s on desk-case4 (must not change)",
       ("adversarial.generate_examples.kept", "adversarial.generate_examples.attacked"), "higher"),
    _m("ensemble.build_ensemble.self_s", "s", "wall_s on desk-case4"),
    _m("ensemble.classify_batch.s", "s", "wall_s on desk-case4"),
    _m("ensemble.classify_batch.calls", "count", "wall_s on desk-case4"),
    _m("ensemble.classify_batch.records", "count", "wall_s on desk-case4"),
    _m("ensemble.retrain_request.s", "s", "wall_s on desk-case4"),
    _m("ensemble.retrain_request.calls", "count", "wall_s on desk-case4"),
    _m("ensemble.retrain_accepted_ratio", "ratio", "wall_s on desk-case4 (must not change)",
       ("ensemble.retrain_request.accepted", "ensemble.retrain_request.calls"), "higher"),
    _m("ensemble.save_state.s", "s", "wall_s on desk-case4"),
    _m("simulate.run_simulation.s", "s", "wall_s on desk-case4"),
    _m("simulate.run_simulation.self_s", "s", "wall_s on desk-case4"),
    _m("simulate.batches", "count", "wall_s on desk-case4", "simulate.run_simulation.batches"),
)

OVERHEAD = _m("trace.overhead_pct", "%", "none: traced wall_s against untraced wall_s, all workloads")


def layer_values(summary: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric (not the overhead) from one op's summary; a
    layer the workload never calls reads 0."""
    out = {}
    for m in PER_LAYER:
        if isinstance(m.source, tuple):
            num, den = (summary.get(k, 0) for k in m.source)
            out[m.name] = num / den if den else 0.0
        else:
            out[m.name] = summary.get(m.source or m.name, 0)
    return out
