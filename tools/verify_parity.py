"""Print the `verify` records of a tree bit for bit, or compare them with another tree's.

    python tools/verify_parity.py all
    python tools/verify_parity.py quench route-equality --against ../parent

Each record of `entroprod verify <suite>` prints as one line
``suite<TAB>name<TAB>float.hex(value)``; ``all`` names every suite.  With
``--against DIR`` the same suites also run from ``DIR/src`` and the tool
lists instead every record whose bits differ (or that only one tree has),
with its relative deviation |a - b| / max(|a|, |b|), and exits 1 on any
difference.  Each tree runs in a subprocess of this interpreter with
``PYTHONPATH`` set to its ``src`` alone, so neither imports the other's
package.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DUMP = """
import sys
from entroprod import verify
for suite in (s for name in sys.argv[1:] for s in (verify.SUITES if name == "all" else [name])):
    for r in verify.run_suite(suite):
        print(suite, r.name, float(r.value).hex(), sep="\\t")
"""


def records(tree, suites) -> dict:
    """{(suite, name): float.hex(value)} of the records of `suites` run from tree/src."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")}
    out = subprocess.run([sys.executable, "-c", DUMP, *suites], env=env, check=True,
                         capture_output=True, text=True).stdout
    found = {}
    for line in out.splitlines():
        suite, name, value = line.split("\t")
        found[suite, name] = value
    return found


def deviation(a, b) -> float:
    """|a - b| / max(|a|, |b|) of two float.hex() strings: 0 when the bits agree, inf when
    one is not finite (or one side is missing, None) and they differ."""
    if a == b:
        return 0.0
    if a is None or b is None:
        return math.inf
    x, y = float.fromhex(a), float.fromhex(b)
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0     # 0.0 and -0.0


def differences(ours, theirs) -> list:
    """(suite, name, ours, theirs, relative deviation) of every record whose bits differ or
    that only one side has (its value None on the other), in the order of `ours`."""
    keys = list(ours) + [k for k in theirs if k not in ours]
    return [(*k, ours.get(k), theirs.get(k), deviation(ours.get(k), theirs.get(k)))
            for k in keys if ours.get(k) != theirs.get(k)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suites", nargs="+", help="verify suites, or all")
    parser.add_argument("--against", type=Path, help="the other tree (its src is imported)")
    args = parser.parse_args(argv)
    ours = records(ROOT, args.suites)
    if args.against is None:
        for (suite, name), value in ours.items():
            print(suite, name, value, sep="\t")
        return 0
    diffs = differences(ours, records(args.against, args.suites))
    for suite, name, a, b, rel in diffs:
        print(f"{suite}\t{name}\t{a} != {b}\trelative {rel:.3e}")
    print(f"{len(diffs)} of {len(ours)} records differ from {args.against}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
