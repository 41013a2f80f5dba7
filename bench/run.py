"""cambarrier benchmark: one workload, one seed, one run.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload dominance --seed 1 --seconds 30 --trace 0

It writes the workload's inputs (sweep config and camera file) from the
seed, times ``setup_s`` (a fresh interpreter until ``cambarrier.cli`` is
imported, the median of several), then runs the workload in a fresh
single-threaded process (``worker.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones from a traced run.  The full
result, with the run conditions, goes to ``bench/out/``.

Exits with code 2, printing no result, when the checkout holds no
``src/cambarrier``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, OPS, WORKLOADS, write_inputs

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

#: Fresh interpreters timed for ``setup_s`` before each workload process
#: of an untraced run, after one untimed warm-up that compiles the
#: bytecode.  Spreading them over the run keeps one slow phase of the
#: machine from setting the median.
SETUP_REPEATS = 3

#: Fresh workload processes per untraced run, each measuring an equal
#: share of ``--seconds``.  A command's time is the fastest of its samples
#: over all of them.  On a shared 2-vCPU virtual machine, the same code
#: ran up to 1.75x slower for a whole process lifetime, and per-run
#: medians moved by up to 50% between back-to-back runs; several short
#: processes and the fastest sample keep one slow process or phase from
#: setting the result.  The median and the sample count are kept in the
#: record.
UNTRACED_WORKERS = 5

#: Every run, the first included, must end within this many seconds.
RUN_LIMIT_S = 170.0


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env: dict, repeats: int) -> list[float]:
    """Wall times of fresh interpreters that import ``cambarrier.cli``."""
    # No timeout: waiting with one polls in sleeps of up to 50 ms, which
    # would round every sample up to that grain.
    cmd = [sys.executable, "-c", "import cambarrier.cli"]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one cambarrier benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    started = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "cambarrier" / "cli.py").is_file():
        print(f"error: no src/cambarrier under {root}; run from the root of a source checkout", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    conditions = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": loadavg(),
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{stem}-{os.getpid()}"
    env = child_env(src)
    n_workers = 1 if args.trace else UNTRACED_WORKERS
    workers = []
    try:
        write_inputs(w, args.seed, workdir)
        setup = []
        if not args.trace:
            setup_seconds(env, 1)
        for i in range(n_workers):
            if not args.trace:
                setup += setup_seconds(env, SETUP_REPEATS)
            result_path = workdir / f"worker{i}.json"
            cmd = [
                sys.executable,
                str(BENCH_DIR / "worker.py"),
                "--workload", w.name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds / n_workers),
                "--trace", str(args.trace),
                "--workdir", str(workdir),
                "--result", str(result_path),
                "--spans", str(OUT_DIR / f"{stem}.spans.jsonl"),
            ]
            timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - started))
            proc = subprocess.run(cmd, env=env, timeout=timeout)
            if proc.returncode != 0:
                print(f"error: workload process exited with code {proc.returncode}", file=sys.stderr)
                return 1
            workers.append(json.loads(result_path.read_text()))
    except subprocess.TimeoutExpired:
        print("error: workload process exceeded the run time limit", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    conditions["loadavg_end"] = loadavg()

    attempted = sum(r["attempted"] for r in workers)
    failed = sum(r["failed"] for r in workers)
    problems = [p for r in workers for p in r["problems"]]
    for op in OPS:
        # Seeds without reference digests: each process checks its own
        # repeats, so compare the processes with each other here.
        if len({r["digests"][op] for r in workers if op in r["digests"]}) > 1:
            failed += 1
            problems.append(f"{op}: output differs between workload processes")
    sample_stats = {}
    if args.trace:
        (worker,) = workers
        metrics = {k: metric(v, unit_of(k)) for k, v in worker["metrics"].items()}
        metrics["fail_frac"] = metric(failed / attempted, "frac")
        correct = failed == 0 and worker["counts_repeat"]
    else:
        samples = {op: [t for r in workers for t in r["samples"][op]] for op in OPS}
        best = {op: min(v) for op, v in samples.items()}
        trials = w.sweep_trials()
        metrics = {
            "static_trials_per_s": metric(trials / best["static"], "trials/s"),
            "mobile_trials_per_s": metric(trials / best["mobile"], "trials/s"),
            "deploy_grid_s": metric(best["deploy-grid"], "s"),
            "barrier_s": metric(best["barrier"], "s"),
            "k_barrier_s": metric(best["k-barrier"], "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(max(r["peak_rss_mb"] for r in workers), "MiB"),
        }
        sample_stats = {
            op: {"n": len(v), "min": min(v), "median": statistics.median(v), "max": max(v)}
            for op, v in samples.items()
        }
        correct = failed == 0
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "conditions": conditions,
        "summary": summary,
        "setup_s_samples": setup,
        "sample_stats": sample_stats,
        "workers": workers,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{w.name} seed={args.seed} trace={args.trace}: {attempted} operations, "
        f"{failed} failed, fail_frac={failed / attempted:.6g}"
    )
    print(json.dumps(summary))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return {"evals_per_s": "evals/s", "cameras_per_s": "cameras/s", "write_bytes_per_s": "B/s"}.get(
            name.split(".")[-1], "cells/s"
        )
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("bytes_written") or name.endswith("bytes_computed"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
