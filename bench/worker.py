"""One benchmark process: set up a workload, then time, check or trace it.

Started by ``run.py`` in a fresh interpreter with PYTHONPATH pointing at
the checkout's ``src`` and the BLAS thread count fixed.  ``--part j/k``
takes the workload's rounds r with r % k == j.  Modes:

  setup   build inputs and warm up, report when the first round would start
  timed   as setup, then run its rounds untraced and check the results
  trace   as timed, then run the same rounds again under the tracer

Every mode takes a calibration slice (``calibration.py``) as soon as it is
ready, and the rounds take one after every half second or so of operations.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import time

START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"


def run_rounds(rounds, factors):
    """Run each round's operations, with calibration slices between them.

    ``factors`` holds the host slowness of the slices taken so far and
    grows by one per slice.  The operations run since the last slice are
    timed together and divided by the mean factor of the slices on either
    side.  Returns calibrated and raw round times, results and failures.
    """
    import calibration

    times, raw, results, failed = [], [], [], []
    clock = time.perf_counter
    for ops in rounds:
        out, since, round_raw, round_cal = [], 0.0, 0.0, 0.0
        for i, op in enumerate(ops):
            t0 = clock()
            try:
                out.append(op.call())
            except Exception as exc:  # counted as a failed operation and reported
                out.append(exc)
            since += clock() - t0
            if since >= calibration.EVERY_S or i == len(ops) - 1:
                factors.append(calibration.slowness())
                round_raw += since
                round_cal += since / (0.5 * (factors[-2] + factors[-1]))
                since = 0.0
        times.append(round_cal)
        raw.append(round_raw)
        results.append(out)
        failed += [f"{op.name}: {type(r).__name__}: {r}"
                   for op, r in zip(ops, out) if isinstance(r, Exception)]
    return times, raw, results, failed


def check_rounds(rounds, results):
    errors = []
    for ops, out in zip(rounds, results):
        for op, r in zip(ops, out):
            if not isinstance(r, Exception):
                errors += op.check(r)
    return errors


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--part", required=True, help="j/k")
    args = parser.parse_args()
    part, parts = (int(x) for x in args.part.split("/"))

    t0 = time.perf_counter()
    import entroprod.cli  # noqa: F401  (the import users pay for)
    import_s = time.perf_counter() - t0
    src = ROOT / "src" / "entroprod"
    if Path(entroprod.cli.__file__).resolve().parent != src.resolve():
        sys.exit(f"entroprod imported from {entroprod.cli.__file__}, not from {src}")

    import numpy as np

    import calibration
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    scratch = RESULTS / f"cli-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        rounds = []
        for r in range(part, workload.rounds(args.seconds), parts):
            out_dir = scratch / f"round{r}"
            out_dir.mkdir()
            rounds.append(workload.make_round(np.random.default_rng([args.seed, r]), out_dir))
        workload.warm_up(scratch)
        ready = time.monotonic()
        factors = [calibration.slowness()]
        if args.mode == "setup":
            print(json.dumps({"start": START, "ready": ready, "slowness": factors}))
            return

        times, raw, results, failed = run_rounds(rounds, factors)
        # Linux reports ru_maxrss in KiB.  Read before the checks, whose
        # reference computations are not the program's.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors = check_rounds(rounds, results)
        report = {"start": START, "ready": ready, "round_s": times, "raw_round_s": raw,
                  "attempted": sum(len(ops) for ops in rounds), "failed": failed,
                  "errors": errors, "import_s": import_s, "peak_rss_mb": peak_rss_mb}
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced_times, _, traced_results, traced_failed = run_rounds(rounds, factors)
            finally:
                tracer.uninstall()
            report["errors"] += check_rounds(rounds, traced_results)
            report["failed"] += traced_failed
            report["attempted"] *= 2
            report["traced_round_s"] = traced_times
            report["per_layer"] = tracer.metrics(import_s, sum(traced_times) - sum(times))
            spans = RESULTS / f"{args.workload}-seed{args.seed}.spans.npz"
            tracer.save(spans)
            report["spans"] = str(spans.relative_to(ROOT))
        report["slowness"] = factors
        print(json.dumps(report))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
