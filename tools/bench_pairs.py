"""Run alternating parent/change pairs of the benchmark and write their summary.

    python tools/bench_pairs.py --parent 876a067 --workload iterated-maps \
        --seed 4401 --pairs 10 --claim iterated-maps:round_p50_ms \
        --change "what the change does" --out BENCH_44.json

Two copies are made in a temporary directory, removed at the end:
``parent``, a ``git archive`` of the given commit, and ``change``, the
files of the working tree that git tracks or would track (untracked files
not ignored).  For each workload, pair i runs ``bench/run.py --workload W
--seed S+i --seconds T --trace 0`` (T: BENCHMARK.json's ``run_seconds``)
in both copies, one at a time, the parent first in odd pairs (1st, 3rd,
...).  The summary keeps
every run, and per metric of BENCHMARK.json's ``end_to_end`` list each
side's median and quartiles (numpy.percentile, linear), the parent's
interquartile distance, the pairs the change won and a no-regression
verdict against the metric's bound (`regression_verdict`); every metric
there is better lower.  A claimed metric is judged by the pair rule
(`pair_rule`): the change lower in at least nine tenths of the pairs, ties
counting for neither, and its median lower than the parent's by more than
the parent's interquartile distance.
The file is rewritten after every pair, so an interrupted run keeps
the pairs it ran.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 bench/run.py --workload W --seed S --seconds {seconds} --trace 0"
RULE = ("met when the change is lower in at least nine tenths of the pairs and the median gap "
        "exceeds the parent's interquartile distance")


def _quartiles(runs):
    return [float(q) for q in np.percentile(runs, [25.0, 75.0])]


def pair_rule(parent_runs, change_runs) -> dict:
    """The claim rule over pairs (parent_runs[i], change_runs[i]) of a metric better lower: the
    change wins a pair when it is strictly lower, and the claim is met when it wins at least nine
    tenths of the pairs and its median is lower than the parent's by more than the parent's
    interquartile distance."""
    p, c = np.asarray(parent_runs, float), np.asarray(change_runs, float)
    if p.shape != c.shape or p.ndim != 1 or p.size == 0:
        raise ValueError(f"need one change run per parent run, got {p.shape} and {c.shape}")
    wins = int((c < p).sum())
    pm, cm = float(np.median(p)), float(np.median(c))
    lo, hi = _quartiles(p)
    nine_tenths, above = 10 * wins >= 9 * p.size, pm - cm > hi - lo
    return {"pairs": int(p.size), "parent_median": round(pm, 6), "change_median": round(cm, 6),
            "relative_change": round(cm / pm - 1.0, 4), "change_lower_in_pairs": wins,
            "median_gap": round(pm - cm, 6), "parent_iqr": round(hi - lo, 6),
            "wins_nine_tenths": bool(nine_tenths), "gap_above_parent_iqr": bool(above),
            "met": bool(nine_tenths and above)}


def regression_verdict(parent_runs, change_runs, bound) -> str:
    """"regression" when the change's median exceeds the parent's by more than `bound` (a
    fraction of the parent's median); else "unresolved" when the parent's interquartile distance
    is wider than the bound and some change run is not below every parent run; else
    "no regression"."""
    p, c = np.asarray(parent_runs, float), np.asarray(change_runs, float)
    pm, cm = float(np.median(p)), float(np.median(c))
    if cm - pm > bound * pm:
        return "regression"
    lo, hi = _quartiles(p)
    if hi - lo > bound * pm and c.max() >= p.min():
        return "unresolved"
    return "no regression"


def metric_summary(parent_runs, change_runs, unit, bound) -> dict:
    """Medians, quartiles, wins and the verdict of one metric of one workload."""
    rule = pair_rule(parent_runs, change_runs)
    return {"unit": unit, "parent_median": rule["parent_median"],
            "change_median": rule["change_median"], "relative_change": rule["relative_change"],
            "parent_quartiles": [round(q, 6) for q in _quartiles(parent_runs)],
            "change_quartiles": [round(q, 6) for q in _quartiles(change_runs)],
            "parent_iqr": rule["parent_iqr"],
            "parent_iqr_relative": round(rule["parent_iqr"] / rule["parent_median"], 4),
            "bound": bound, "change_lower_in_pairs": rule["change_lower_in_pairs"],
            "change_higher_in_pairs": int((np.asarray(change_runs) > parent_runs).sum()),
            "parent_runs": [round(x, 6) for x in parent_runs],
            "change_runs": [round(x, 6) for x in change_runs],
            "verdict": regression_verdict(parent_runs, change_runs, bound)}


def _copy_parent(commit, dest):
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _copy_working_tree(dest):
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, check=True,
                            capture_output=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _src_lines(tree):
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((tree / "src" / "entroprod").glob("*.py")))


def _bench_run(tree, workload, seed, seconds):
    """The last line of bench/run.py's output, its JSON result."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", "0"], cwd=tree,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs, end_to_end) -> dict:
    """The per-workload block of the summary from the pairs run so far: `runs` holds, per pair,
    the seed, whether the parent ran first and both results."""
    out = {"seeds": [r["seed"] for r in runs], "pairs": len(runs),
           "parent_first": [r["parent_first"] for r in runs],
           "all_correct": all(r[s]["correct"] for r in runs for s in ("parent", "change")),
           "failed_operations": {s: sum(r[s]["failed"] for r in runs)
                                 for s in ("parent", "change")},
           "attempted_operations": {s: sum(r[s]["attempted"] for r in runs)
                                    for s in ("parent", "change")},
           "metrics": {}}
    for m in end_to_end:
        name = m["name"]
        side = {s: [r[s]["metrics"][name]["value"] for r in runs] for s in ("parent", "change")}
        out["metrics"][name] = metric_summary(side["parent"], side["change"], m["unit"],
                                              m["bound"])
    return out


def _line(m):
    return (f"{m['parent_median']:g} -> {m['change_median']:g} "
            f"({100 * m['relative_change']:+.1f}%, "
            f"lower in {m['change_lower_in_pairs']} of {len(m['parent_runs'])}, parent IQR "
            f"{m['parent_iqr']:g}): {m['verdict']}")


def _run_pairs(args, benchmark, trees):
    seconds = benchmark["run_seconds"]
    _copy_parent(args.parent, trees["parent"])
    _copy_working_tree(trees["change"])
    bench_same = all((trees["parent"] / "bench" / p.name).is_file()
                     and (trees["parent"] / "bench" / p.name).read_bytes() == p.read_bytes()
                     for p in (trees["change"] / "bench").glob("*.py"))
    summary = {
        "change": args.change, "command": COMMAND.format(seconds=seconds),
        "protocol": (f"{args.pairs} alternating pairs per workload, parent and change from "
                     f"separate copies (git archive of the parent {args.parent}; the change's "
                     "working tree copied), the same seed in both runs of a pair, parent first "
                     "in odd pairs; runs one at a time; medians and quartiles (numpy.percentile, "
                     "linear) over the runs of each side; OMP/OPENBLAS/MKL_NUM_THREADS=1 (set by "
                     f"bench/run.py). bench/ identical in both copies: {bench_same}. Written by "
                     "tools/bench_pairs.py."),
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "scipy": scipy.__version__, "nproc": os.cpu_count(), "blas_threads": 1},
        "src_lines": {"parent": _src_lines(trees["parent"]),
                      "change": _src_lines(trees["change"]),
                      "command": "wc -l src/entroprod/*.py"},
        "claim": None, "no_regression": {}, "workloads": {}}
    out = Path(args.out)
    for w, workload in enumerate(args.workload):
        runs = []
        for i in range(args.pairs):
            seed, parent_first = args.seed + 100 * w + i, i % 2 == 0
            pair = {"seed": seed, "parent_first": parent_first}
            for side in ("parent", "change") if parent_first else ("change", "parent"):
                pair[side] = _bench_run(trees[side], workload, seed, seconds)
            runs.append(pair)
            block = summarize(runs, benchmark["end_to_end"])
            summary["workloads"][workload] = block
            summary["no_regression"][workload] = {k: _line(m) for k, m in
                                                  block["metrics"].items()}
            if args.claim and args.claim.split(":")[0] == workload:
                metric = args.claim.split(":")[1]
                sides = ([r[s]["metrics"][metric]["value"] for r in runs]
                         for s in ("parent", "change"))
                summary["claim"] = {"workload": workload, "metric": metric, "rule": RULE,
                                    **pair_rule(*sides)}
            out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
            print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}): "
                  + ", ".join(f"{k} {pair['parent']['metrics'][k]['value']:.4g} -> "
                              f"{pair['change']['metrics'][k]['value']:.4g}"
                              for k in block["metrics"]), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="commit of the parent")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json (repeatable)")
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the first pair of the first workload; each pair takes the "
                             "next, and each further workload starts 100 higher")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC judged by the pair rule")
    parser.add_argument("--change", default="", help="one paragraph: what the change does")
    parser.add_argument("--out", required=True, help="the summary JSON to write")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if any(m["better"] != "lower" for m in benchmark["end_to_end"]):
        parser.error("every end-to-end metric of BENCHMARK.json must be better lower")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {"parent": Path(scratch) / "parent", "change": Path(scratch) / "change"}
        _run_pairs(args, benchmark, trees)
    return 0

if __name__ == "__main__":
    sys.exit(main())
