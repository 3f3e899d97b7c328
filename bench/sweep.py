"""Run the benchmark once per seed and summarise each metric's spread.

    python3 bench/sweep.py --workload train --seeds 1-10 --out bench/out/train.json

Each seed is one ``run.py`` process, run one after another.  For every
metric the summary gives the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  Compare two sweeps of
the same code against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")

    runs = []
    for seed in seeds:
        cmd = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result, info = json.loads(lines[-1]), json.loads(lines[-2])
        runs.append({"seed": seed, "result": result, "extra": info["extra"]})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(seed, result["correct"], result["attempted"], result["failed"], values, flush=True)
        if proc.stderr.strip():
            print(proc.stderr.strip(), file=sys.stderr)

    names = list(runs[0]["result"]["metrics"])
    summary = {
        "workload": args.workload,
        "seconds": args.seconds,
        "provenance": info["provenance"],
        "all_correct": all(r["result"]["correct"] for r in runs),
        "metrics": {n: summarise([r["result"]["metrics"][n]["value"] for r in runs]) for n in names},
        "runs": runs,
    }
    for name, s in summary["metrics"].items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:24s} median {s['median']:.6g}  spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
