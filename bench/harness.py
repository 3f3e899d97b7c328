"""Runs a workload, checks its outputs and computes its metrics.

Imported by ``run.py`` after it has pinned BLAS to one thread and made
sure ``refdiff`` comes from the checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

SETUP_REPEATS = 5
MIN_OPS = 2


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path, tracer: tracing.Tracer):
    """Set up ``SETUP_REPEATS`` times, then run operations in a closed loop.

    The loop runs for ``seconds`` of wall time; set-up and operations are
    timed on ``workloads.clock``.

    ``finish_setup`` runs after the timed set-ups: it does the benchmark's
    own bookkeeping and returns any problems with the set-up's outputs.

    Returns (set-up seconds, set-up problems, [(traced, OpResult or None)]).
    In a traced run every other operation is traced, starting with the
    second, so the untraced ones measure what tracing costs.
    """
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = workloads.clock()
        with tracer if trace else contextlib.nullcontext():
            state = workload.setup(seed, str(workdir))
        setup_s.append(workloads.clock() - start)
    problems = workload.finish_setup(state)

    ops = []
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        traced = trace and len(ops) % 2 == 1
        tracer.op = len(ops)
        try:
            with tracer if traced else contextlib.nullcontext():
                op = workload.run(state)
        except Exception:  # an operation that raises is a failed operation
            print(f"{workload.name}: operation {len(ops)} raised:", file=sys.stderr)
            traceback.print_exc()
            op = None
        ops.append((traced, op))
    return setup_s, problems, ops


def count_failures(name: str, setup_problems: list[str], ops) -> int:
    """Failed operations: raised, failed a check, or differ from the first."""
    reference = next((op.digest for _, op in ops if op is not None), None)
    failed = 0
    for problem in setup_problems:
        print(f"{name}: set-up: {problem}", file=sys.stderr)
    for i, (_, op) in enumerate(ops):
        if op is None:
            failed += 1
            continue
        problems = list(op.problems)
        if op.digest != reference:
            problems.append("outputs differ from the first operation's")
        for problem in problems:
            print(f"{name}: operation {i}: {problem}", file=sys.stderr)
        failed += bool(problems)
    return failed


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path, out_dir: Path):
    """One run of one workload; returns (result, extra figures)."""
    tracer = tracing.Tracer()
    setup_s, problems, ops = measure(workload, seed, seconds, trace, workdir, tracer)
    failed = count_failures(workload.name, problems, ops)
    good = [op for _, op in ops if op is not None]
    untraced = [op for traced, op in ops if op is not None and not traced]
    traced_ops = [(i, op) for i, (traced, op) in enumerate(ops) if op is not None and traced]

    extra = {
        "error_rate": failed / len(ops),
        "op_seconds": [op.seconds if op else None for _, op in ops],
        "setup_seconds": setup_s,
    }
    item_ms = [ms for op in untraced for ms in op.item_ms]
    if item_ms:
        extra["item_ms_p50"], extra["item_ms_p90"] = np.percentile(item_ms, [50, 90]).tolist()
        extra["items_timed"] = len(item_ms)

    if trace:
        overhead = 0.0
        if untraced and traced_ops:
            traced_s = np.median([op.seconds for _, op in traced_ops])
            overhead = float(traced_s / np.median([op.seconds for op in untraced]) - 1.0)
        values = tracing.layer_metrics(
            tracer.spans,
            [i for i, _ in traced_ops],
            int(1e9 * sum(op.seconds for _, op in traced_ops)),
            workload.items_per_op(),
            overhead,
        )
        units = tracing.metric_units()
        metrics = {name: {"value": value, "unit": units[name][0]} for name, value in values.items()}
        tracer.write(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    else:
        rates = [op.items / op.seconds for op in untraced]
        metrics = {
            "setup_s": {"value": float(np.median(setup_s)), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
            "items_per_s": {"value": float(np.median(rates)) if rates else 0.0, "unit": "items/s"},
            "output_mse": {"value": good[0].output_mse if good else 0.0, "unit": "mse"},
        }
    correct = failed == 0 and not problems and bool(good)
    return {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}, extra


def provenance(root: Path, seed: int, blas_vars) -> dict:
    """Code version, toolchain, BLAS and machine, recorded with every result."""
    sha = None
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == root:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src_hash = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src_hash.update(str(path.relative_to(root)).encode())
            src_hash.update(path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in blas_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "seed": seed,
    }


def main(root: Path, names, seed: int, seconds: float, trace: bool, blas_vars) -> None:
    """Run the named workloads in this process and print their results."""
    out_dir = root / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    prov = provenance(root, seed, blas_vars)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workload = workloads.WORKLOADS[name]
        workdir = out_dir / f"work-{name}-{os.getpid()}"
        workdir.mkdir()
        try:
            result, extra = run_workload(workload, seed, seconds, trace, workdir, out_dir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        doc = {"workload": name, "trace": int(trace), "provenance": prov, "extra": extra}
        (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({**doc, "result": result}, indent=1))
        print(json.dumps(doc))
        if len(names) == 1:
            combined = result
            break
        print(json.dumps(result))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
