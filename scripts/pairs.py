"""Run the benchmark in a parent checkout and in this tree, in pairs.

Usage: python scripts/pairs.py --parent DIR --workload W --seed S \\
           --seconds T --pairs N [--record FILE]

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, so each run times its own checkout's
src/. The parent goes first in odd pairs and this tree in even ones. At the
end the script prints, for each end-to-end metric of BENCHMARK.json and for
failed_frac (failed / attempted), each side's median and quartiles, the
change's median relative to the parent's, the pairs in which the change is
better by the metric's ``better`` direction, and whether the two medians
differ by more than the parent's interquartile range. A run that exits
non-zero or prints no result is left out of every pair it belongs to.

--record FILE appends one JSON line per run in the format of the
BENCH_*.json files: round (one more than the last round in FILE), side,
commit (the checkout's short git hash, +change if its tracked files differ
from it), workload, seed, seconds, trace, pair, first, exit, and result,
run.py's last output line or null.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _commit(tree: str) -> str:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", tree, *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        head = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return os.path.basename(os.path.abspath(tree))
    return head + "+change" if dirty else head


def _run(tree: str, workload: str, seed: int, seconds: float):
    """run.py's exit code and its result object (None without one)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def _value(result: dict, name: str) -> float:
    if name == "failed_frac":
        return result["failed"] / result["attempted"]
    return result["metrics"][name]["value"]


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(records: list[dict], better: dict[str, str]) -> list[str]:
    """The comparison table of run records (dicts with side, pair, result),
    for the metrics of better, each mapped to "lower" or "higher". The
    middle quartile is the median."""
    runs = {(r["pair"], r["side"]): r["result"] for r in records
            if r["result"] is not None}
    pairs = sorted({pair for pair, _ in runs
                    if (pair, "parent") in runs and (pair, "change") in runs})
    correct = {side: sum(bool(runs[pair, side]["correct"]) for pair in pairs)
               for side in ("parent", "change")}
    lines = [f"{len(pairs)} complete pairs; correct: parent "
             f"{correct['parent']}/{len(pairs)}, change "
             f"{correct['change']}/{len(pairs)}",
             f"{'metric':<16}{'parent median [q1, q3]':>36}"
             f"{'change median [q1, q3]':>36}{'change':>9}{'wins':>7}"
             f"  beyond parent IQR"]
    if not pairs:
        return lines
    for name, direction in better.items():
        sides = {side: [_value(runs[pair, side], name) for pair in pairs]
                 for side in ("parent", "change")}
        sign = -1.0 if direction == "lower" else 1.0
        wins = sum(sign * (c - p) > 0.0
                   for p, c in zip(sides["parent"], sides["change"]))
        (q1, mid, q3), change = map(_quartiles, sides.values())
        shift = f"{(change[1] / mid - 1.0) * 100.0:+.1f}%" if mid else "-"
        cells = [f"{m:.5g} [{a:.5g}, {b:.5g}]" for a, m, b in ((q1, mid, q3),
                                                                change)]
        lines.append(f"{name:<16}{cells[0]:>36}{cells[1]:>36}{shift:>9}"
                     f"{wins:>4}/{len(pairs):<2}  "
                     f"{'yes' if abs(change[1] - mid) > q3 - q1 else 'no'}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--parent", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--record")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    better["failed_frac"] = "lower"
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}
    commits = {side: _commit(tree) for side, tree in trees.items()}
    last = 0
    if args.record and os.path.exists(args.record):
        with open(args.record) as fh:
            last = max((json.loads(line)["round"] for line in fh
                        if line.strip()), default=0)
    records = []
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            code, result = _run(trees[side], args.workload, args.seed,
                                args.seconds)
            print(f"pair {pair} {side}: exit {code}", flush=True)
            records.append({
                "round": last + 1, "side": side, "commit": commits[side],
                "workload": args.workload, "seed": args.seed,
                "seconds": (int(args.seconds) if args.seconds.is_integer()
                            else args.seconds), "trace": 0, "pair": pair,
                "first": order[0], "exit": code, "result": result})
            if args.record:
                with open(args.record, "a") as fh:
                    fh.write(json.dumps(records[-1]) + "\n")
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s runs: "
          f"parent {commits['parent']}, change {commits['change']}")
    print("\n".join(summary(records, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
