"""Benchmark entry point: run one workload of entroprod and print its metrics.

    python3 bench/run.py --workload exact-routes --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``
of that checkout in fresh worker processes (``worker.py``) with one BLAS
thread.  With ``--trace 0`` the end-to-end metrics are measured: a
set-up-only worker, then three workers that each run and check a third of
the rounds, give four set-up times and every round time.  With
``--trace 1`` one worker runs every round untraced and then traced, and
the per-layer metrics come from the trace.  Every time is calibrated:
divided by the host's slowness factor measured around it
(``calibration.py``).
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full report, with the environment, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread: the plain single-threaded baseline, and no run-to-run
# variation from how the BLAS pool meets the other processes on the host.
# Set here too, before numpy loads, so that this process's calibration
# slices run as the workers' do.
BLAS_THREADS = "1"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: BLAS_THREADS for var in THREAD_VARIABLES})

import calibration  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
RESULTS = BENCH / "results"
WORKLOADS = ("dense-generators", "exact-routes", "iterated-maps")

# The rounds are split over this many timed workers, one after another, so
# that no single process's luck (memory layout, where the host placed it)
# sets a run's figures; within one host state, per-process medians were
# seen to differ by up to 20 %.  Each worker builds the inputs of its own
# rounds only; every workload has at least three rounds.
TIMED_WORKERS = 3
# Set-up is timed this many times per run, the timed workers included, and
# reported as the median; the set-up-only workers build the same parts.
SETUP_SAMPLES = 4
WORKER_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode, part, deadline):
    """Start one worker; returns its JSON report with its calibrated set-up
    time, over the mean slowness of a slice here before the start and the
    worker's first slice once it is ready."""
    before = calibration.slowness()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--part", part]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed no report")
    rep = json.loads(lines[-1])
    rep["raw_setup_s"] = rep["ready"] - spawned
    rep["setup_s"] = rep["raw_setup_s"] / (0.5 * (before + rep["slowness"][0]))
    return rep


def environment():
    import numpy
    import scipy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cpus": os.cpu_count(),
        "blas_threads": {var: BLAS_THREADS for var in THREAD_VARIABLES},
    }


def measure(args):
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    calibration.slowness()   # the first slice in a process is slow; not used
    if args.trace:
        timed = [run_worker(args, "trace", "0/1", deadline)]
        reps = timed
    else:
        parts = [f"{j}/{TIMED_WORKERS}" for j in range(TIMED_WORKERS)]
        reps = [run_worker(args, "setup", parts[i % TIMED_WORKERS], deadline)
                for i in range(SETUP_SAMPLES - TIMED_WORKERS)]
        timed = [run_worker(args, "timed", part, deadline) for part in parts]
        reps += timed
    setups = [r["setup_s"] for r in reps]
    rounds = [t for r in timed for t in r["round_s"]]
    failed = [f for r in timed for f in r["failed"]]
    errors = [e for r in timed for e in r["errors"]]
    if args.trace:
        metrics = timed[0]["per_layer"]
    else:
        metrics = {
            "wall_s": {"value": sum(rounds), "unit": "s"},
            "round_p50_ms": {"value": 1000.0 * statistics.median(rounds), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in timed), "unit": "MB"},
        }
    result = {"correct": not errors, "attempted": sum(r["attempted"] for r in timed),
              "failed": len(failed), "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds_s": rounds, "setups_s": setups,
              "raw_rounds_s": [t for r in timed for t in r["raw_round_s"]],
              "raw_setups_s": [r["raw_setup_s"] for r in reps],
              "slowness": [r["slowness"] for r in timed],
              "traced_rounds_s": timed[0].get("traced_round_s"),
              "failed": failed, "errors": errors,
              "environment": environment(), "result": result}
    return result, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "entroprod" / "__init__.py").is_file():
        print(f"error: no entroprod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The build step: byte-compile once, so no run pays for it in set-up.
    for tree in (ROOT / "src", BENCH):
        compileall.compile_dir(tree, quiet=1)
    try:
        result, detail = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in detail["failed"] + detail["errors"]:
        print(line, file=sys.stderr)
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
