"""Command-line entry point wiring the package into reproducible pipelines.

Every artifact-producing command writes a manifest.json (command, config
snapshot, seed, input digests, outputs, tool version) into its output
directory before and after producing artifacts. Exit codes: 0 success,
1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .adversarial import ZooBudget, attack_pipeline, to_flow_records
from .config import config_bool, config_float, config_int, load_config
from .detector import detect_window, write_flags_csv
from .features import (
    FeatureMode,
    NON_HACKER_WEIGHTS,
    build_matrix,
    train_test_split,
    write_matrix_csv,
)
from .flows import Dataset, DataFormatError, class_balance, ingest_csv, synth_traffic, write_csv
from .hypergraph import (
    build_hypergraph,
    edge_profiles,
    feature_skip_interval,
    incidence_rows,
)
from .simulate import (
    ConfigError,
    Scorecard,
    baseline_run,
    case_config,
    desk_case_config,
    make_desk_adversarial,
    make_desk_dataset,
    run_simulation,
    sweep_summary_rows,
    sweep_thresholds,
)
from .trees import (
    Hyperparams,
    ModelKind,
    default_hyperparams,
    deserialize_model,
    evaluate,
    serialize_model,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _digest(path: Path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            sha.update(chunk)
    return sha.hexdigest()


class Manifest:
    def __init__(self, out_dir: Path, command: str, args: argparse.Namespace, cfg: dict):
        self.out_dir = out_dir
        self.payload = {
            "tool": "hgnids",
            "version": __version__,
            "command": command,
            "seed": getattr(args, "seed", None),
            "config": dict(cfg),
            "args": {
                k: v for k, v in sorted(vars(args).items())
                if k not in ("func",) and isinstance(v, (str, int, float, bool, list, type(None)))
            },
            "inputs": {},
            "outputs": [],
        }

    def add_input(self, path) -> None:
        p = Path(path)
        self.payload["inputs"][str(p)] = _digest(p)

    def add_output(self, path) -> None:
        rel = str(Path(path))
        if rel not in self.payload["outputs"]:
            self.payload["outputs"].append(rel)

    def write(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(self.payload, indent=2, sort_keys=True))


def _out_dir(args) -> Path:
    return Path(args.out_dir)


def _load_dataset(path) -> Dataset:
    dataset, _ = ingest_csv(path)
    return dataset


def _parse_pairs(spec: str) -> list[tuple[str, str]]:
    pairs = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if ">" not in part:
            raise UsageError(f"pair must look like src>dst, got {part!r}")
        src, _, dst = part.partition(">")
        pairs.append((src.strip(), dst.strip()))
    return pairs


def cmd_ingest(args, cfg, manifest: Manifest) -> int:
    column_map = None
    if args.column_map:
        manifest.add_input(args.column_map)
        column_map = json.loads(Path(args.column_map).read_text())
    manifest.add_input(args.input)
    manifest.write()
    dataset, report = ingest_csv(args.input, column_map)
    out = _out_dir(args)
    write_csv(dataset, out / "cleaned.csv")
    (out / "cleaning_report.txt").write_text(report.to_text())
    manifest.add_output(out / "cleaned.csv")
    manifest.add_output(out / "cleaning_report.txt")
    manifest.write()
    print(f"kept {report.kept} of {report.total_rows} rows ({report.dropped} dropped)")
    if len(dataset):
        for name, frac in sorted(class_balance(dataset).items()):
            print(f"  {name}: {frac:.4f}")
    return EXIT_OK


def cmd_synth(args, cfg, manifest: Manifest) -> int:
    profile = {"scan": "PORT_SCAN", "benign": "BENIGN", "mixed": "MIXED"}[args.profile]
    pairs = _parse_pairs(args.pairs) if args.pairs else []
    manifest.write()
    dataset = synth_traffic(profile, args.count, pairs, args.seed, args.attack_frac)
    out = _out_dir(args)
    write_csv(dataset, out / "traffic.csv")
    manifest.add_output(out / "traffic.csv")
    manifest.write()
    print(f"wrote {len(dataset)} records")
    return EXIT_OK


def cmd_hypergraph(args, cfg, manifest: Manifest) -> int:
    manifest.add_input(args.input)
    manifest.write()
    dataset = _load_dataset(args.input)
    h = build_hypergraph(dataset)
    out = _out_dir(args)
    stats = {
        "edges": len(h),
        "vertices": len(h.vertices),
        "max_edge_size": h.max_edge_size(),
    }
    if len(h):
        k = feature_skip_interval(h)
        stats["skip_interval"] = k
        profiles = edge_profiles(h, k)
        with open(out / "profiles.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            schedule = next(iter(profiles.values())).schedule if profiles else ()
            writer.writerow(["edge", "role", "size"] + [f"scc_s{s}" for s in schedule] + ["scc_sum"])
            for ip, prof in profiles.items():
                writer.writerow(
                    [ip, h.roles[ip].value, h.edge_size(ip)]
                    + [repr(v) for v in prof.values]
                    + [repr(prof.total)]
                )
        manifest.add_output(out / "profiles.csv")
    with open(out / "incidence.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["edge", "role", "port"])
        for row in incidence_rows(h):
            writer.writerow(row)
    (out / "stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True))
    manifest.add_output(out / "incidence.csv")
    manifest.add_output(out / "stats.json")
    manifest.write()
    print(json.dumps(stats))
    return EXIT_OK


def _mode(arg: str) -> FeatureMode:
    return FeatureMode(arg.upper())


def cmd_features(args, cfg, manifest: Manifest) -> int:
    manifest.add_input(args.input)
    manifest.write()
    dataset = _load_dataset(args.input)
    mode = _mode(args.mode)
    h = build_hypergraph(dataset) if mode is not FeatureMode.NRF else None
    hackers = frozenset(_parse_pairs(args.hackers)) if args.hackers else frozenset()
    weights = NON_HACKER_WEIGHTS if args.weights else None
    rows = build_matrix(dataset, h, mode, hackers, weights)
    out = _out_dir(args)
    write_matrix_csv(rows, out / f"matrix_{mode.value.lower()}.csv")
    manifest.add_output(out / f"matrix_{mode.value.lower()}.csv")
    manifest.write()
    print(f"wrote {len(rows)} rows of {mode.value}")
    return EXIT_OK


def _hyperparams_from_args(args, kind: ModelKind) -> Hyperparams:
    base = default_hyperparams(kind, args.seed)
    return Hyperparams(
        n_trees=base.n_trees if args.trees is None else args.trees,
        max_depth=base.max_depth if args.depth is None else args.depth,
        min_leaf=base.min_leaf if args.min_leaf is None else args.min_leaf,
        learning_rate=base.learning_rate if args.learning_rate is None else args.learning_rate,
        feature_subsample=base.feature_subsample,
        seed=args.seed,
    )


def cmd_train(args, cfg, manifest: Manifest) -> int:
    manifest.add_input(args.input)
    manifest.write()
    dataset = _load_dataset(args.input)
    mode = _mode(args.mode)
    h = build_hypergraph(dataset) if mode is not FeatureMode.NRF else None
    rows = build_matrix(dataset, h, mode)
    train_rows, test_rows = train_test_split(rows, 0.8, args.seed)
    kind = ModelKind.RANDOM_FOREST if args.kind == "rf" else ModelKind.GRADIENT_BOOSTED
    model = train(train_rows, kind, _hyperparams_from_args(args, kind))
    report = evaluate(model, test_rows)
    out = _out_dir(args)
    (out / "model.json").write_bytes(serialize_model(model))
    (out / "eval.json").write_text(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))
    manifest.add_output(out / "model.json")
    manifest.add_output(out / "eval.json")
    manifest.write()
    print(f"holdout precision={report.precision:.4f} recall={report.recall:.4f} f1={report.f1:.4f}")
    return EXIT_OK


def cmd_eval(args, cfg, manifest: Manifest) -> int:
    manifest.add_input(args.model)
    manifest.add_input(args.input)
    manifest.write()
    model = deserialize_model(Path(args.model).read_bytes())
    dataset = _load_dataset(args.input)
    h = build_hypergraph(dataset) if model.feature_mode is not FeatureMode.NRF else None
    rows = build_matrix(dataset, h, model.feature_mode)
    report = evaluate(model, rows, threshold=args.threshold)
    out = _out_dir(args)
    (out / "eval.json").write_text(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))
    manifest.add_output(out / "eval.json")
    manifest.write()
    print(json.dumps(dataclasses.asdict(report)))
    return EXIT_OK


def cmd_advgen(args, cfg, manifest: Manifest) -> int:
    manifest.add_input(args.input)
    manifest.write()
    dataset = _load_dataset(args.input)
    budget = ZooBudget(
        max_iters=args.iters, step=args.step, h=args.h, per_coord_batch=args.coord_batch
    )
    examples, substitute, params = attack_pipeline(
        dataset, seed=args.seed, budget=budget, keep_threshold=args.keep_threshold
    )
    out = _out_dir(args)
    records = to_flow_records(examples, seed=args.seed)
    write_csv(Dataset(tuple(records), provenance="SYNTHETIC", seed=args.seed), out / "adversarial.csv")
    stats = {
        "kept": len(examples),
        "keep_threshold": args.keep_threshold,
        "mean_query_count": (
            float(np.mean([e.query_count for e in examples])) if examples else 0.0
        ),
    }
    (out / "stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True))
    manifest.add_output(out / "adversarial.csv")
    manifest.add_output(out / "stats.json")
    manifest.write()
    print(json.dumps(stats))
    return EXIT_OK


def cmd_detect_scan(args, cfg, manifest: Manifest) -> int:
    manifest.add_input(args.input)
    manifest.write()
    dataset = _load_dataset(args.input)
    window = args.window_size
    flagged: set = set()
    all_flags = []
    records = list(dataset)
    for w, start in enumerate(range(0, len(records), window)):
        chunk = Dataset(tuple(records[start : start + window]), dataset.provenance)
        flags, flagged = detect_window(chunk, flagged, window_id=w)
        all_flags.extend(flags)
    out = _out_dir(args)
    write_flags_csv(all_flags, out / "flags.csv")
    manifest.add_output(out / "flags.csv")
    manifest.write()
    print(f"flagged {len(all_flags)} pair(s)")
    return EXIT_OK


def _sim_config(args, cfg):
    thresholds = tuple(int(t) for t in args.thresholds.split(",")) if args.thresholds else (2,)
    if args.full:
        base = case_config(
            args.case,
            n_computers=config_int(cfg, "n_computers", 10),
            n_epochs=config_int(cfg, "n_epochs", 30),
            batch_size=config_int(cfg, "batch_size", 8900),
            attack_frac=config_float(cfg, "attack_frac", 0.25),
            thresholds=thresholds,
            seed=args.seed,
            use_weights=config_bool(cfg, "use_weights", True),
        )
    else:
        base = desk_case_config(args.case, seed=args.seed, thresholds=thresholds)
        base = dataclasses.replace(
            base,
            n_computers=config_int(cfg, "n_computers", base.n_computers),
            n_epochs=config_int(cfg, "n_epochs", base.n_epochs),
        )
        base = dataclasses.replace(
            base,
            batch_spec=dataclasses.replace(
                base.batch_spec,
                n_batches=base.n_computers * base.n_epochs,
                batch_size=config_int(cfg, "batch_size", base.batch_spec.batch_size),
                attack_frac=config_float(cfg, "attack_frac", base.batch_spec.attack_frac),
            ),
            adv_per_batch=config_int(cfg, "adv_per_batch", base.adv_per_batch),
            ballast_size=config_int(cfg, "ballast_size", base.ballast_size),
        )
    return base


def _sim_inputs(args, cfg, manifest: Manifest):
    sim_cfg = _sim_config(args, cfg)
    if args.data:
        manifest.add_input(args.data)
        data = _load_dataset(args.data)
    else:
        data = make_desk_dataset(seed=args.seed)
    adv = make_desk_adversarial(data, seed=args.seed) if sim_cfg.include_adv else []
    return sim_cfg, data, adv


def cmd_simulate(args, cfg, manifest: Manifest) -> int:
    sim_cfg, data, adv = _sim_inputs(args, cfg, manifest)
    manifest.write()
    out = _out_dir(args)
    runner = baseline_run if args.baseline else run_simulation
    scorecard, artifacts = runner(sim_cfg, data, adv, out_dir=out)
    for name in ("scorecard.csv", "config.json", "retrain_log.csv", "flag_log.csv"):
        manifest.add_output(out / name)
    manifest.write()
    final = scorecard.final_epoch_rows()
    mean_f1 = sum(r.f1 for r in final) / len(final) if final else 0.0
    print(
        f"case {sim_cfg.case_id} threshold {sim_cfg.thresholds[0]}: "
        f"{len(scorecard.rows)} rows, {len(artifacts.retrain_events)} retrain event(s), "
        f"final-epoch mean F1 {mean_f1:.4f}"
    )
    return EXIT_OK


def cmd_sweep(args, cfg, manifest: Manifest) -> int:
    sim_cfg, data, adv = _sim_inputs(args, cfg, manifest)
    manifest.write()
    out = _out_dir(args)
    results = sweep_thresholds(sim_cfg, data, adv, out_dir=out)
    manifest.add_output(out / "sweep_summary.csv")
    for th in results:
        manifest.add_output(out / f"threshold_{th}" / "scorecard.csv")
    manifest.write()
    for th, f1, fnp, retrains in sweep_summary_rows(results):
        print(f"threshold {th}: final-epoch mean F1 {f1:.4f}, mean FNP {fnp:.4f}, {retrains} retrain(s)")
    return EXIT_OK


REPORT_SCHEMA = "hgnids-report-v1"


def cmd_report(args, cfg, manifest: Manifest) -> int:
    run_dir = Path(args.run_dir)
    scorecard_path = run_dir / "scorecard.csv"
    if not scorecard_path.exists():
        raise DataFormatError(f"no scorecard.csv under {run_dir}")
    manifest.add_input(scorecard_path)
    manifest.write()
    scorecard = Scorecard.read(scorecard_path)
    out = _out_dir(args)
    for metric in ("fnp", "f1"):
        path = out / f"{metric}_series.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# schema: {REPORT_SCHEMA}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["epoch", "computer", metric])
            for r in scorecard.rows:
                writer.writerow([r.epoch, r.computer, repr(getattr(r, metric))])
        manifest.add_output(path)
    summary_path = out / "summary.csv"
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# schema: {REPORT_SCHEMA}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "mean_f1", "min_f1", "mean_fnp", "max_fnp", "retrain_events"])
        epochs = sorted({r.epoch for r in scorecard.rows})
        for e in epochs:
            rows = [r for r in scorecard.rows if r.epoch == e]
            writer.writerow(
                [
                    e,
                    repr(sum(r.f1 for r in rows) / len(rows)),
                    repr(min(r.f1 for r in rows)),
                    repr(sum(r.fnp for r in rows) / len(rows)),
                    repr(max(r.fnp for r in rows)),
                    sum(r.retrain_events for r in rows),
                ]
            )
    manifest.add_output(summary_path)
    manifest.write()
    print(f"report written to {out}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a positive number: {text}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="hgnids", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hgnids {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None, help="flat KEY=VALUE config file")
        p.add_argument("--out-dir", required=True)

    p = sub.add_parser("ingest", help="read and clean a flow CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--column-map", default=None, help="JSON field->header mapping")
    common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate synthetic traffic")
    p.add_argument("--profile", choices=("scan", "benign", "mixed"), required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--pairs", default="", help="src>dst;src>dst endpoint pairs")
    p.add_argument("--attack-frac", type=float, default=0.25)
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("hypergraph", help="build the hypergraph and dump stats/profiles")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=cmd_hypergraph)

    p = sub.add_parser("features", help="emit a feature matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("nrf", "hgi", "hga"), required=True)
    p.add_argument("--hackers", default="", help="src>dst;... known hacker pairs")
    p.add_argument("--weights", action="store_true", help="weight-encode non-hacker pairs")
    common(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train a model with an 80/20 split")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("nrf", "hgi", "hga"), required=True)
    p.add_argument("--kind", choices=("rf", "gb"), required=True)
    p.add_argument("--trees", type=_positive_int, default=None)
    p.add_argument("--depth", type=_positive_int, default=None)
    p.add_argument("--min-leaf", type=_positive_int, default=None)
    p.add_argument("--learning-rate", type=_positive_float, default=None)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("advgen", help="generate adversarial examples")
    p.add_argument("--input", required=True)
    p.add_argument("--iters", type=int, default=4)
    p.add_argument("--step", type=float, default=0.02)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--coord-batch", type=int, default=1)
    p.add_argument("--keep-threshold", type=float, default=0.55)
    common(p)
    p.set_defaults(func=cmd_advgen)

    p = sub.add_parser("detect-scan", help="run the behavioural detector over windows")
    p.add_argument("--input", required=True)
    p.add_argument("--window-size", type=int, default=5000)
    common(p)
    p.set_defaults(func=cmd_detect_scan)

    p = sub.add_parser("simulate", help="run one evaluation case")
    p.add_argument("--case", type=int, required=True)
    p.add_argument("--threshold", "--thresholds", dest="thresholds", default="2",
                   help="comma-separated; first is active")
    p.add_argument("--data", default=None, help="base dataset CSV (default: synthetic)")
    p.add_argument("--baseline", action="store_true", help="all-NRF member slots")
    p.add_argument("--full", action="store_true", help="10x30x8900 scale")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run one case across several thresholds")
    p.add_argument("--case", type=int, required=True)
    p.add_argument("--thresholds", required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--full", action="store_true")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="summarise a run directory")
    p.add_argument("--run-dir", required=True)
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        manifest = Manifest(_out_dir(args), args.command, args, cfg)
        return args.func(args, cfg, manifest)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
