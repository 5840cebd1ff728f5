"""`tools/rss_probe.py` runs one round of a workload and prints one line per operation."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_probe_prints_a_rise_per_iterated_maps_operation():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "rss_probe.py"),
                          "--workload", "iterated-maps"], capture_output=True, text=True,
                         check=True, timeout=120).stdout.splitlines()
    rows = [line.split() for line in out]
    assert [r[0] for r in rows] == ["limit-cycle-weak", "limit-cycle-two-bath",
                                    "collisional-run", "four-stroke", "sampled-trajectories",
                                    "peak"]
    assert all(r[2] == "MB" and float(r[1]) >= 0.0 for r in rows)
    assert float(rows[-1][1]) > 0.0
