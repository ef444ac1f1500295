"""Command-line entry point wiring the package into reproducible pipelines.

It parses and dispatches, and every option changes what its command
computes: only the commands that draw random numbers take --seed, and a
flag that another makes moot is a usage error naming both.

Every command keeps one run record, manifest.json in its output directory
(command, config snapshot, seed or null, input digests, outputs, tool
version). Manifest.start writes it once the command's flags are checked
and its inputs digested, and main() writes it again with every file the
command returns as written. Only simulate and sweep take --config and
read HGNIDS_* overrides; every other command's config snapshot is empty.
Every CSV is written by flows.write_table. Exit codes: 0 success, 1 usage
error, 2 data error (input that is not UTF-8 text, or a path that cannot
be opened as asked, among them), 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .adversarial import KEEP_THRESHOLD, ZooBudget, attack_pipeline, to_dataset
from .config import KEYS, ConfigError, load_config
from .detector import detect_window, write_flags_csv
from .features import (
    FeatureMode,
    encode,
    stratified_split,
    write_matrix_csv,
)
from .flows import (
    Dataset, DataFormatError, class_balance, ingest_csv, synth_traffic, write_csv, write_table,
)
from .hypergraph import (
    build_hypergraph,
    centrality_schedule,
    edge_profiles,
    feature_skip_interval,
    incidence_rows,
)
from .simulate import (
    CASES,
    DESK_ZOO_BUDGET,
    EpochSummary,
    Scorecard,
    SimConfig,
    desk_case_config,
    full_case_config,
    make_desk_adversarial,
    make_desk_dataset,
    run_simulation,
    sweep_summary_rows,
    sweep_thresholds,
)
from .trees import (
    DECISION_THRESHOLD,
    Hyperparams,
    ModelKind,
    TrainingError,
    default_hyperparams,
    deserialize_model,
    evaluate,
    fit,
    serialize_model,
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

    def start(self, *inputs) -> None:
        """Digest the input files (skipping empty or None) and write."""
        self.payload["inputs"] = {str(Path(p)): _digest(Path(p)) for p in inputs if p}
        self._write()

    def finish(self, outputs) -> None:
        """Record the files written, in order and each once, and write."""
        self.payload["outputs"] = list(dict.fromkeys(str(Path(p)) for p in outputs))
        self._write()

    def _write(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(self.payload, indent=2, sort_keys=True))


def _load_dataset(path, allow_empty: bool = False) -> Dataset:
    dataset, _ = ingest_csv(path)
    if not (len(dataset) or allow_empty):
        raise DataFormatError(f"{path}: no flow row survives cleaning")
    return dataset


def _parse_pairs(spec: str) -> list[tuple[str, str]]:
    pairs = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if part.count(">") != 1:
            raise UsageError(f"pair must look like src>dst, got {part!r}")
        src, _, dst = (end.strip() for end in part.partition(">"))
        if not (src and dst):
            raise UsageError(f"pair needs a src and a dst, got {part!r}")
        pairs.append((src, dst))
    return pairs


def cmd_ingest(args, cfg, manifest: Manifest) -> list[Path]:
    try:
        column_map = json.loads(Path(args.column_map).read_text("utf-8")) if args.column_map else None
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{args.column_map}: column map is not JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{args.column_map}: not UTF-8 text ({exc.reason})") from None
    manifest.start(args.column_map, args.input)
    dataset, report = ingest_csv(args.input, column_map)
    out = Path(args.out_dir)
    write_csv(dataset, out / "cleaned.csv")
    (out / "cleaning_report.txt").write_text(report.to_text())
    print(f"kept {report.kept} of {report.total_rows} rows ({report.dropped} dropped)")
    if len(dataset):
        for name, frac in sorted(class_balance(dataset).items()):
            print(f"  {name}: {frac:.4f}")
    return [out / "cleaned.csv", out / "cleaning_report.txt"]


def cmd_synth(args, cfg, manifest: Manifest) -> list[Path]:
    profile = {"scan": "PORT_SCAN", "benign": "BENIGN", "mixed": "MIXED"}[args.profile]
    pairs = _parse_pairs(args.pairs) if args.pairs else []
    if profile != "BENIGN" and args.count > 0 and not pairs:
        raise UsageError(f"--profile {args.profile} needs --pairs")
    if profile == "BENIGN" and pairs:
        raise UsageError("--pairs has no effect with --profile benign")
    frac = {} if args.attack_frac is None else {"attack_frac": args.attack_frac}
    if frac and profile != "MIXED":
        raise UsageError(f"--attack-frac has no effect with --profile {args.profile}")
    manifest.start()
    dataset = synth_traffic(profile, args.count, pairs, args.seed, **frac)
    path = Path(args.out_dir) / "traffic.csv"
    write_csv(dataset, path)
    print(f"wrote {len(dataset)} records")
    return [path]


def cmd_hypergraph(args, cfg, manifest: Manifest) -> list[Path]:
    manifest.start(args.input)
    dataset = _load_dataset(args.input, allow_empty=True)
    h = build_hypergraph(dataset)
    out = Path(args.out_dir)
    written = []
    stats = {
        "edges": len(h),
        "vertices": len(h.vertices),
        "max_edge_size": h.max_edge_size(),
    }
    if len(h):
        k = feature_skip_interval(h)
        stats["skip_interval"] = k
        table = edge_profiles(h, k)
        written.append(out / "profiles.csv")
        header = ["edge", "role", "size"] + [f"scc_s{s}" for s in centrality_schedule(k)] + ["scc_sum"]
        write_table(written[-1], header, (
            [ip, role.value, size, *row, sum(row)]
            for ip, role, size, row in zip(h.names, h.roles, h.sizes.tolist(), table.tolist())
        ))
    write_table(out / "incidence.csv", ["edge", "role", "port"], incidence_rows(h))
    (out / "stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True))
    print(json.dumps(stats))
    return written + [out / "incidence.csv", out / "stats.json"]


def _mode(arg: str) -> FeatureMode:
    return FeatureMode(arg.upper())


def _encode_file(path, mode: FeatureMode, hackers=frozenset(), use_weights: bool = False):
    """A flow CSV's (X, y) in one layout, over the file's own hypergraph."""
    dataset = _load_dataset(path)
    h = build_hypergraph(dataset) if mode is not FeatureMode.NRF else None
    return encode(dataset, mode, h, hackers, use_weights)


def cmd_features(args, cfg, manifest: Manifest) -> list[Path]:
    hackers = frozenset(_parse_pairs(args.hackers)) if args.hackers else frozenset()
    mode = _mode(args.mode)
    if mode is FeatureMode.NRF and (args.weights or hackers):
        raise UsageError(f"--{'weights' if args.weights else 'hackers'} has no effect with --mode nrf")
    if hackers and not args.weights:
        raise UsageError("--hackers has no effect without --weights")
    manifest.start(args.input)
    X, y = _encode_file(args.input, mode, hackers, args.weights)
    path = Path(args.out_dir) / f"matrix_{mode.value.lower()}.csv"
    write_matrix_csv(X, y, mode, path)
    print(f"wrote {len(y)} rows of {mode.value}")
    return [path]


def _hyperparams_from_args(args, kind: ModelKind) -> Hyperparams:
    given = {"n_trees": args.trees, "max_depth": args.depth, "min_leaf": args.min_leaf,
             "learning_rate": args.learning_rate}
    return dataclasses.replace(default_hyperparams(kind, args.seed),
                               **{name: v for name, v in given.items() if v is not None})


def cmd_train(args, cfg, manifest: Manifest) -> list[Path]:
    kind = ModelKind.RANDOM_FOREST if args.kind == "rf" else ModelKind.GRADIENT_BOOSTED
    if kind is ModelKind.RANDOM_FOREST and args.learning_rate is not None:
        raise UsageError("--learning-rate has no effect with --kind rf")
    manifest.start(args.input)
    X, y = _encode_file(args.input, _mode(args.mode))
    train, test = stratified_split(y, 0.8, args.seed)
    if not test.size:
        raise DataFormatError(f"{args.input}: the 80/20 split leaves no holdout row")
    model = fit(X[train], y[train], kind, _hyperparams_from_args(args, kind))
    report = evaluate(model, X[test], y[test])
    out = Path(args.out_dir)
    (out / "model.json").write_bytes(serialize_model(model))
    (out / "eval.json").write_text(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))
    print(f"holdout precision={report.precision:.4f} recall={report.recall:.4f} f1={report.f1:.4f}")
    return [out / "model.json", out / "eval.json"]


def cmd_eval(args, cfg, manifest: Manifest) -> list[Path]:
    manifest.start(args.model, args.input)
    model = deserialize_model(Path(args.model).read_bytes())
    X, y = _encode_file(args.input, model.feature_mode)
    report = evaluate(model, X, y, threshold=args.threshold)
    path = Path(args.out_dir) / "eval.json"
    path.write_text(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))
    print(json.dumps(dataclasses.asdict(report)))
    return [path]


def cmd_advgen(args, cfg, manifest: Manifest) -> list[Path]:
    manifest.start(args.input)
    dataset = _load_dataset(args.input)
    budget = ZooBudget(
        max_iters=args.iters, step=args.step, h=args.h, per_coord_batch=args.coord_batch
    )
    examples, substitute, params = attack_pipeline(
        dataset, seed=args.seed, budget=budget, keep_threshold=args.keep_threshold
    )
    out = Path(args.out_dir)
    write_csv(to_dataset(examples, seed=args.seed), out / "adversarial.csv")
    stats = {
        "kept": len(examples),
        "keep_threshold": args.keep_threshold,
        "mean_query_count": (
            float(np.mean([e.query_count for e in examples])) if examples else 0.0
        ),
    }
    (out / "stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True))
    print(json.dumps(stats))
    return [out / "adversarial.csv", out / "stats.json"]


def cmd_detect_scan(args, cfg, manifest: Manifest) -> list[Path]:
    manifest.start(args.input)
    dataset = _load_dataset(args.input, allow_empty=True)
    window = args.window_size
    flagged: set = set()
    all_flags = []
    for w, start in enumerate(range(0, len(dataset), window)):
        chunk = dataset.take(np.arange(start, min(start + window, len(dataset))))
        flags, flagged = detect_window(chunk, flagged, window_id=w)
        all_flags.extend(flags)
    path = Path(args.out_dir) / "flags.csv"
    write_flags_csv(all_flags, path)
    print(f"flagged {len(all_flags)} pair(s)")
    return [path]


def _sim_config(args, cfg) -> SimConfig:
    """The run's preset (desk_case_config, or full_case_config with --full)
    with every key of cfg applied, each parsed by its parser in
    config.KEYS. A sweep has no single threshold and keeps the default."""
    preset = full_case_config if args.full else desk_case_config
    base = preset(args.case, seed=args.seed, threshold=getattr(args, "threshold", 2))
    return dataclasses.replace(base, **{key: KEYS[key](value) for key, value in cfg.items()})


def _sim_inputs(args, cfg, manifest: Manifest):
    sim_cfg = _sim_config(args, cfg)
    manifest.start(args.data)
    data = _load_dataset(args.data) if args.data else make_desk_dataset(seed=args.seed)
    adv = make_desk_adversarial(data, seed=args.seed) if sim_cfg.policy.include_adv else []
    return sim_cfg, data, adv


def cmd_simulate(args, cfg, manifest: Manifest) -> list[Path]:
    sim_cfg, data, adv = _sim_inputs(args, cfg, manifest)
    scorecard, artifacts = run_simulation(
        sim_cfg, data, adv, out_dir=Path(args.out_dir), baseline=args.baseline
    )
    print(
        f"case {sim_cfg.case_id} threshold {sim_cfg.threshold}: "
        f"{len(scorecard.rows)} rows, {len(artifacts.retrain_events)} retrain event(s), "
        f"final-epoch mean F1 {scorecard.epoch_summaries()[-1].mean_f1:.4f}"
    )
    return artifacts.files


def cmd_sweep(args, cfg, manifest: Manifest) -> list[Path]:
    sim_cfg, data, adv = _sim_inputs(args, cfg, manifest)
    out = Path(args.out_dir)
    results = sweep_thresholds(sim_cfg, args.thresholds, data, adv, out_dir=out)
    for th, f1, fnp, retrains in sweep_summary_rows({th: sc for th, (sc, _) in results.items()}):
        print(f"threshold {th}: final-epoch mean F1 {f1:.4f}, mean FNP {fnp:.4f}, {retrains} retrain(s)")
    return [f for _, run in results.values() for f in run.files] + [out / "sweep_summary.csv"]


REPORT_SCHEMA = "hgnids-report-v1"


def cmd_report(args, cfg, manifest: Manifest) -> list[Path]:
    run_dir = Path(args.run_dir)
    scorecard_path = run_dir / "scorecard.csv"
    if not scorecard_path.exists():
        raise DataFormatError(f"no scorecard.csv under {run_dir}")
    manifest.start(scorecard_path)
    scorecard = Scorecard.read(scorecard_path)
    out = Path(args.out_dir)
    written = []
    preamble = f"# schema: {REPORT_SCHEMA}\n"
    for metric in ("fnp", "f1"):
        written.append(out / f"{metric}_series.csv")
        write_table(written[-1], ["epoch", "computer", metric],
                    ((r.epoch, r.computer, getattr(r, metric)) for r in scorecard.rows), preamble)
    written.append(out / "summary.csv")
    write_table(written[-1], EpochSummary._fields, scorecard.epoch_summaries(), preamble)
    print(f"report written to {out}")
    return written


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer: {text}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1]: {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a positive number: {text}")
    return value


def _positive_int_list(text: str) -> list[int]:
    return [_positive_int(t) for t in text.split(",")]


def build_parser() -> _Parser:
    parser = _Parser(prog="hgnids", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hgnids {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        if seeded:
            p.add_argument("--seed", type=_non_negative_int, default=0)
        p.add_argument("--out-dir", required=True)

    p = sub.add_parser("ingest", help="read and clean a flow CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--column-map", default=None, help="JSON field->header mapping")
    common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate synthetic traffic")
    p.add_argument("--profile", choices=("scan", "benign", "mixed"), required=True)
    p.add_argument("--count", type=_non_negative_int, required=True)
    p.add_argument("--pairs", default="", help="src>dst;src>dst endpoint pairs")
    p.add_argument("--attack-frac", type=_fraction, default=None,
                   help="attack share of --profile mixed (default: synth_traffic's)")
    common(p, seeded=True)
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
    common(p, seeded=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--threshold", type=_fraction, default=DECISION_THRESHOLD)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("advgen", help="generate adversarial examples")
    p.add_argument("--input", required=True)
    p.add_argument("--iters", type=_non_negative_int, default=DESK_ZOO_BUDGET.max_iters)
    p.add_argument("--step", type=_positive_float, default=DESK_ZOO_BUDGET.step)
    p.add_argument("--h", type=_positive_float, default=DESK_ZOO_BUDGET.h)
    p.add_argument("--coord-batch", type=_positive_int, default=DESK_ZOO_BUDGET.per_coord_batch)
    p.add_argument("--keep-threshold", type=_fraction, default=KEEP_THRESHOLD)
    common(p, seeded=True)
    p.set_defaults(func=cmd_advgen)

    p = sub.add_parser("detect-scan", help="run the behavioural detector over windows")
    p.add_argument("--input", required=True)
    p.add_argument("--window-size", type=_positive_int, default=5000)
    common(p)
    p.set_defaults(func=cmd_detect_scan)

    p = sub.add_parser("simulate", help="run one evaluation case")
    p.add_argument("--case", type=int, choices=sorted(CASES), required=True)
    p.add_argument("--threshold", "--thresholds", type=_positive_int, default=2,
                   help="missed attacks that trigger a retrain (one count; sweep takes a list)")
    p.add_argument("--data", default=None, help="base dataset CSV (default: synthetic)")
    p.add_argument("--baseline", action="store_true", help="all-NRF member slots")
    p.add_argument("--full", action="store_true", help="10x30x8900 scale")
    p.add_argument("--config", default=None, help="flat KEY=VALUE config file")
    common(p, seeded=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run one case across several thresholds")
    p.add_argument("--case", type=int, choices=sorted(CASES), required=True)
    p.add_argument("--thresholds", type=_positive_int_list, required=True,
                   help="comma-separated positive counts")
    p.add_argument("--data", default=None)
    p.add_argument("--full", action="store_true")
    p.add_argument("--config", default=None, help="flat KEY=VALUE config file")
    common(p, seeded=True)
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
        # Only simulate and sweep take --config and read HGNIDS_* overrides.
        cfg = load_config(args.config) if "config" in args else {}
        manifest = Manifest(Path(args.out_dir), args.command, args, cfg)
        manifest.finish(args.func(args, cfg, manifest))
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, ConfigError, TrainingError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
