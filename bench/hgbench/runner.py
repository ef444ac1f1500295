"""One benchmark run of one workload: set up, measure, check, report."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from . import layers
from .trace import Tracer, patched, summarize, write_spans
from .workloads import WORKLOADS, digest_mismatches, sha256

# setup_s is the median of repeated setups: at least this many, and more
# until this much setup time has passed, so that a short setup is not
# judged from a few noisy samples.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
DEFAULT_SEED = 42

BENCH_DIR = Path(__file__).resolve().parents[1]
OUT_DIR = BENCH_DIR / "out"
EXPECTED_DIGESTS = BENCH_DIR / "expected_digests.json"


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def stamp(seed: int, workload: str, seconds: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(BENCH_DIR.parent),
    }


class _Ops:
    """Runs the workload's job repeatedly and tallies checks and digests."""

    def __init__(self, workload, parts: list, seed: int, workdir: Path):
        self.workload, self.parts, self.seed, self.workdir = workload, parts, seed, workdir
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.notes: list[dict] = []
        self.digests: dict[str, str] | None = None

    def once(self, tracer: Tracer | None = None) -> float:
        """Run the job once; returns its wall_s sample."""
        w = self.workload
        t0 = time.perf_counter()
        if tracer is None:
            result = w.run(self.parts, self.seed, self.workdir, self.count)
        else:
            with patched(tracer, layers.targets()):
                result = w.run(self.parts, self.seed, self.workdir, self.count)
        elapsed = time.perf_counter() - t0
        self.count += 1

        check = w.check(self.parts, self.seed, result)
        digests = {k: sha256(v) for k, v in w.outputs(result).items()}
        # Every op must reproduce the first op's outputs byte for byte.
        drift = digest_mismatches(self.digests, digests) if self.digests is not None else []
        if self.digests is None:
            self.digests = digests
        self.attempted += check.attempted
        self.failed += check.failed + len(drift)
        self.notes.append({**check.notes, "digest_drift": drift})
        return elapsed

    def for_seconds(self, seconds: float, traced: bool = False) -> tuple[list[float], list[list]]:
        """Repeat the job until its own time adds up to `seconds` (at least
        once); returns each op's wall_s sample and, when traced, its spans."""
        walls, span_ops = [], []
        spent = 0.0
        while not walls or spent < seconds:
            tracer = Tracer() if traced else None
            wall = self.once(tracer)
            walls.append(wall)
            spent += wall
            if tracer is not None:
                span_ops.append(tracer.finish())
        return walls, span_ops


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload and return the full result record; its `line` key
    holds the one-line result the benchmark prints last."""
    workload = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_walls: list[float] = []
        parts: list = []
        while len(setup_walls) < SETUP_REPEATS or sum(setup_walls) < SETUP_SECONDS:
            del parts[: 1 - SETUP_REPEATS]  # keep the last few parts, let older ones go
            t0 = time.perf_counter()
            parts.append(workload.setup(seed, workdir, len(setup_walls)))
            setup_walls.append(time.perf_counter() - t0)

        ops = _Ops(workload, parts, seed, workdir)
        walls, _ = ops.for_seconds(seconds)
        untraced_digests = ops.digests
        record = stamp(seed, name, seconds, trace)
        record["samples"] = {"setup_s": setup_walls, "wall_s": walls}

        if trace:
            traced_walls, span_ops = ops.for_seconds(seconds, traced=True)
            record["samples"]["traced_wall_s"] = traced_walls
            record["layer_moves"] = {m.name: m.moves for m in (*layers.PER_LAYER, layers.OVERHEAD)}
            metrics = _layer_metrics(walls, traced_walls, span_ops)
            write_spans(span_ops, OUT_DIR / f"spans-{name}-seed{seed}.json")
        else:
            metrics = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }

        golden = []
        if seed == DEFAULT_SEED:
            expected = json.loads(EXPECTED_DIGESTS.read_text())[name]
            golden = digest_mismatches(expected, untraced_digests)
        failed = ops.failed + len(golden)
        record.update(
            digests=untraced_digests,
            golden_mismatches=golden,
            checks=ops.notes,
            line={"correct": failed == 0, "attempted": ops.attempted, "failed": failed,
                  "metrics": metrics},
        )
        with open(OUT_DIR / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
            json.dump(record, fh, indent=1, default=str)
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _layer_metrics(walls, traced_walls, span_ops) -> dict:
    """Median over traced ops of each per-layer metric, plus the overhead
    of tracing: median traced wall_s against median untraced wall_s."""
    per_op = [layers.layer_values(summarize(spans)) for spans in span_ops]
    out = {
        m.name: {"value": statistics.median(v[m.name] for v in per_op), "unit": m.unit}
        for m in layers.PER_LAYER
    }
    overhead = (statistics.median(traced_walls) / statistics.median(walls) - 1.0) * 100.0
    out[layers.OVERHEAD.name] = {"value": overhead, "unit": layers.OVERHEAD.unit}
    return out
