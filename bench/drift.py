"""In-process drift: time identical batches of episodes in one process.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/drift.py

Each of 40 batches runs the same 50 qubit-qubit episodes (fixed inputs)
through ``thermal_balance``.  The spread of batch times within one
process, and of the medians across processes, shows how much the host
alone moves a timing; process CPU time next to wall time shows whether the
slowdown is visible from inside the guest.  Prints one JSON line.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from entroprod import episodes as eps  # noqa: E402

BATCHES, EPISODES = 40, 50


def main():
    rng = np.random.default_rng(0)
    episodes = []
    for _ in range(EPISODES):
        beta = float(rng.uniform(0.3, 2.0))
        h = wl.qubit_h(1.0)
        episodes.append((eps.Episode(wl.hermitian(h), wl.hermitian(h),
                                     wl.unitary(wl.conserving_unitary(2, 2, rng), (2, 2)),
                                     wl.density(wl.random_state(2, rng)),
                                     wl.density(wl.gibbs_state(h, beta))), beta))
    wall, cpu = [], []
    for _ in range(BATCHES):
        w0, c0 = time.perf_counter(), time.process_time()
        for ep, beta in episodes:
            eps.thermal_balance(ep, beta)
        wall.append(time.perf_counter() - w0)
        cpu.append(time.process_time() - c0)
    print(json.dumps({
        "batch_ms": {"min": 1e3 * min(wall), "median": 1e3 * statistics.median(wall),
                     "max": 1e3 * max(wall)},
        "cpu_over_wall": sum(cpu) / sum(wall),
        "batches": BATCHES, "episodes": EPISODES,
    }))


if __name__ == "__main__":
    main()
