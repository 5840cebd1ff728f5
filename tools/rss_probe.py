"""Print how much each operation of one benchmark round raises the peak resident set.

    python tools/rss_probe.py --workload dense-generators [--seed 1] [--without NAME ...]

One round of the named workload is built as a benchmark worker builds it
(``bench/worker.py``): its inputs from ``bench/workloads.py``, imported and
not changed, then the workload's warm-up, with the package imported from
``src/`` and one BLAS thread.  Each operation then runs once, in order, and
its line gives the rise of ``ru_maxrss`` (the process's peak resident set)
across it.  Each result is kept until the round ends, as the worker keeps
them for the round's checks, so what one operation leaves resident counts
under the operations after it.  A rise of 0 means the operation stayed
under the peak set before it, so a memory change is seen at the operation
that sets a new peak.  The last line is the peak after the round; the benchmark's
``peak_rss_mb`` is the same peak read after a worker's rounds.  ``--without NAME``
(repeatable) leaves the operations of that name out of the round, neither run nor
printed, to show which operation sets the peak once the named ones are gone.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def _peak_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe(workload: str, seed: int, without=()) -> list:
    """(operation name, rise of the peak in MB) for each operation of round 0 of `workload`
    at `seed` whose name is not in `without`, after the round's set-up and the workload's
    warm-up."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    sys.dont_write_bytecode = True      # nothing is written under bench/
    import numpy as np
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as scratch:
        out_dir = Path(scratch) / "round0"
        out_dir.mkdir()
        ops = w.make_round(np.random.default_rng([seed, 0]), out_dir)
        w.warm_up(Path(scratch))
        rises, results = [], []
        for op in (op for op in ops if op.name not in without):
            before = _peak_mb()
            results.append(op.call())
            rises.append((op.name, _peak_mb() - before))
    return rises


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--without", action="append", default=[], metavar="NAME",
                        help="leave the operations of this name out (repeatable)")
    args = parser.parse_args(argv)
    for name, rise in probe(args.workload, args.seed, args.without):
        print(f"{name:24s} {rise:+8.2f} MB")
    print(f"{'peak':24s} {_peak_mb():8.2f} MB")


if __name__ == "__main__":
    main()
