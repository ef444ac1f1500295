"""Run the hgnids benchmark.

    python3 bench/run.py --workload desk-case4 --seed 42 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Run it from the root of a source checkout: it imports the package from
`src/` next to this directory. With `--trace 0` the last line of standard
output is a JSON object with the end-to-end metrics (wall_s, setup_s,
peak_rss_mb); with `--trace 1` it carries the per-layer metrics of a
traced run instead. `--workload all` runs each workload in a child
process of its own, one after another, so that each peak_rss_mb belongs
to one workload. Full records, with every sample, land in bench/out/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
NAMES = ("desk-case4", "detect-window")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import hgnids from this checkout's src/ and nowhere else."""
    if not (SRC_DIR / "hgnids" / "__init__.py").is_file():
        sys.exit(f"error: no hgnids sources at {SRC_DIR}")
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import hgnids

    if Path(hgnids.__file__).resolve().parent != SRC_DIR / "hgnids":
        sys.exit(f"error: imported hgnids from {hgnids.__file__}, not {SRC_DIR}")


def _run_all(args) -> dict:
    results = {}
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            sys.exit(f"error: {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    if args.workload == "all":
        line = _run_all(args)
    else:
        from hgbench.runner import run_workload

        line = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))["line"]
    for name, m in line["metrics"].items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    print(f"operations: {line['attempted']} attempted, {line['failed']} failed")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
