"""The workloads: how each one sets up, runs, and is checked.

Each workload is one job the package does for its user:

- `setup` makes inputs from the seed (timed as setup_s). The runner calls
  it several times and hands the parts it made to the other methods.
- `run` is the timed job (wall_s).
- `outputs` gives the bytes that must not change (digested with SHA-256).
- `check` counts operations and failed operations, by rules that hold for
  every seed.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from hgnids import detector, flows, simulate
from hgnids.features import FeatureMode, build_matrix, train_test_split
from hgnids.hypergraph import build_hypergraph

from .window import make_window

KEEP_THRESHOLD = 0.55


@dataclass(frozen=True)
class Check:
    attempted: int
    failed: int
    notes: dict[str, Any]


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def digest_mismatches(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Names of outputs whose digest differs, is missing, or is unexpected."""
    return sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))


def sub_seed(seed: int, index: int, count: int) -> int:
    """The seed of the `index`-th setup when a run uses `count` inputs of
    its own: setups cycle through seed, seed + 1000, ..."""
    return seed + 1000 * (index % count)


class DeskCase4:
    """The desk experiment for two deployments: ZOO generation against the
    GB substitute, then desk case 4 (3 computers x 10 epochs,
    forgo-the-worst, adversarial rows in the stream) under two config
    seeds.

    One deployment's time depends on its seeds more than on the code: the
    attack spends more or fewer queries depending on the data (8 to 11 s),
    and the config seed decides how often a simulation retrains (0 to 5
    times seen, about 0.7 s each on a 3.4 s run). Setups alternate between
    two sub-seeds, and the timed job runs the deployments of the last two.

    Case 4 stands in for case 6 (update-all, production-mode detector):
    retraining all three members on adversarial rows makes tree growth
    raise ValueError on about a third of seeds (see
    test_split_between_adjacent_floats in bench/tests). A simulation that
    raises ValueError still counts as 30 failed operations; the others
    run.
    """

    name = "desk-case4"
    CASE = 4
    DEPLOYMENTS = 2
    CONFIG_SEEDS = (0, 500)  # offsets from the deployment's seed

    def setup(self, seed: int, workdir: Path, index: int):
        s = sub_seed(seed, index, self.DEPLOYMENTS)
        return s, simulate.make_desk_dataset(s)

    def run(self, parts, seed: int, workdir: Path, op: int):
        out_dir = workdir / f"desk-{op}"
        deployments = []
        for s, data in parts[-self.DEPLOYMENTS:]:
            adv = simulate.make_desk_adversarial(data, s)
            sims = []
            for c in (s + offset for offset in self.CONFIG_SEEDS):
                try:
                    outcome = simulate.run_simulation(
                        simulate.desk_case_config(self.CASE, c), data, adv,
                        out_dir=out_dir / f"data{s}-sim{c}",
                    )
                except ValueError as exc:
                    outcome = f"{type(exc).__name__}: {exc}"
                sims.append((c, outcome))
            deployments.append((s, data, adv, sims))
        return deployments, out_dir

    def outputs(self, result) -> dict[str, bytes]:
        """The kept vectors, substitute scores and query counts of each
        attack, and every file the simulations wrote: scorecard, retrain
        and flag logs, config echo and model files."""
        deployments, out_dir = result
        out = {}
        for s, _, adv, _ in deployments:
            out[f"data{s}/vectors"] = "\n".join(
                ",".join(repr(v) for v in ex.vector.values) for ex in adv
            ).encode()
            out[f"data{s}/substitute_scores"] = "\n".join(
                repr(ex.substitute_score) for ex in adv
            ).encode()
            out[f"data{s}/query_counts"] = "\n".join(str(ex.query_count) for ex in adv).encode()
        files = sorted(p for p in out_dir.rglob("*") if p.is_file())
        out.update((p.relative_to(out_dir).as_posix(), p.read_bytes()) for p in files)
        shutil.rmtree(out_dir, ignore_errors=True)
        return out

    def check(self, parts, seed: int, result) -> Check:
        attempted = failed = retrains = 0
        notes = {}
        for s, data, adv, sims in result[0]:
            # The attacked rows are the scan rows of the 85/15 NRF split
            # that attack_pipeline makes; each is one operation.
            rows = build_matrix(data, None, FeatureMode.NRF)
            _, test_rows = train_test_split(rows, 0.85, s)
            attacked = sum(
                1 for r in test_rows if r.origin.label.kind is flows.LabelKind.PORT_SCAN
            )
            low = sum(1 for ex in adv if ex.substitute_score < KEEP_THRESHOLD)
            attempted += attacked
            failed += low + max(0, len(adv) - attacked)
            notes[f"data{s}"] = {"attacked": attacked, "kept": len(adv), "below_keep_threshold": low}

            for c, outcome in sims:
                cfg = simulate.desk_case_config(self.CASE, c)
                expected_rows = cfg.n_computers * cfg.n_epochs
                attempted += expected_rows
                if isinstance(outcome, str):
                    failed += expected_rows
                    notes[f"sim{c}"] = {"error": outcome}
                    continue
                scorecard, artifacts = outcome
                n_rows = len(scorecard.rows)
                fn_violations = sum(
                    1 for ens, members in zip(artifacts.batch_ensemble_fn, artifacts.batch_member_fn)
                    if ens > min(members)
                )
                retrains += len(artifacts.retrain_events)
                failed += abs(expected_rows - n_rows) + fn_violations
                notes[f"sim{c}"] = {"rows": n_rows, "fn_violations": fn_violations,
                                    "retrain_events": len(artifacts.retrain_events)}
        # Some seeds never cross the retrain threshold (seed 24 is one), so
        # the retrain path is required of the simulations together.
        if not retrains:
            failed += 1
        return Check(attempted, failed, notes)


@dataclass(frozen=True)
class WindowInputs:
    csv: Path
    planted: tuple[tuple[str, str], ...]


class DetectWindow:
    """Ingest one generated 10k-record window and run the scan detector."""

    name = "detect-window"

    def setup(self, seed: int, workdir: Path, index: int) -> WindowInputs:
        window = make_window(seed)
        path = workdir / "window.csv"
        flows.write_csv(window.dataset, path)
        return WindowInputs(path, window.planted)

    def run(self, parts, seed: int, workdir: Path, op: int):
        data, _ = flows.ingest_csv(parts[-1].csv)
        flags, _ = detector.detect_window(data, set(), window_id=0)
        return data, flags

    def outputs(self, result) -> dict[str, bytes]:
        _, flags = result
        return {
            "flags": "\n".join(
                f"{f.window_id},{f.pair[0]},{f.pair[1]},"
                f"{'|'.join(str(b) for b in f.binarized_tail)},{f.tail_sum}"
                for f in flags
            ).encode()
        }

    def check(self, parts, seed: int, result) -> Check:
        data, flags = result
        flagged = {f.pair for f in flags}
        planted = set(parts[-1].planted)
        missed = len(planted - flagged)
        false_pairs = len(flagged - planted)
        # The window's shape, recorded with every result.
        h = build_hypergraph(data)
        return Check(len(planted), missed + false_pairs, {
            "missed": missed,
            "false_pairs": false_pairs,
            "records": len(data),
            "edges": len(h),
            "overlap_pairs": len(h.overlaps()),
            "largest_edge": h.max_edge_size(),
            "planted_pairs": len(planted),
        })


WORKLOADS = {w.name: w for w in (DeskCase4(), DetectWindow())}
