"""Alternated pairs of benchmark runs on two checkouts, summarized.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N --seconds T

PARENT and CHANGE are source checkouts (each with ``perfbench/`` and
``src/``). Each pair runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, the parent first in even
pairs and the change first in odd ones. Before every run the checkout's
``__pycache__`` directories and ``.bench_build`` are removed, so each run
starts from source. The environment is passed through unchanged.

The end-to-end metrics and the direction in which each is better are
read from CHANGE's ``BENCHMARK.json``. Standard output is one JSON
object: for each metric, each side's median, quartiles (linear
percentiles 25 and 75) and runs, and the pairs the change won and lost;
``failed_ops`` sums every run's failed and attempted operations. This
tool edits nothing in either checkout besides the removals above.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np


def clean(tree: Path):
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache, ignore_errors=True)
    shutil.rmtree(tree / ".bench_build", ignore_errors=True)


def bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result record (the last line of standard output) of one run."""
    clean(tree)
    args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(parent: list, change: list, end_to_end: list) -> dict:
    """Per-metric medians, quartiles, runs and pair wins of two equally
    long lists of result records, paired by index; ``end_to_end`` holds
    BENCHMARK.json's entries (``name`` and ``better``)."""
    out = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        runs = {side: [r["metrics"][name]["value"] for r in records]
                for side, records in (("parent", parent), ("change", change))}
        entry = {}
        for side, values in runs.items():
            entry[f"{side}_median"] = float(np.median(values))
            entry[f"{side}_quartiles"] = [float(q) for q in np.percentile(values, [25, 75])]
        gains = [sign * (c - p) for p, c in zip(runs["parent"], runs["change"])]
        entry["change_better_pairs"] = sum(g > 0 for g in gains)
        entry["change_worse_pairs"] = sum(g < 0 for g in gains)
        entry["pairs"] = len(gains)
        entry["parent_runs"], entry["change_runs"] = runs["parent"], runs["change"]
        out[name] = entry
    out["failed_ops"] = {
        "parent": sum(r["failed"] for r in parent),
        "change": sum(r["failed"] for r in change),
        "attempted_parent": sum(r["attempted"] for r in parent),
        "attempted_change": sum(r["attempted"] for r in change),
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=42)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    end_to_end = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    records = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            records[side].append(bench(trees[side], args.workload, args.seed, args.seconds))
            print(f"pair {i + 1}/{args.pairs}: {side} done", file=sys.stderr)
    print(json.dumps(summary(records["parent"], records["change"], end_to_end), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
