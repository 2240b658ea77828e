"""Print what each benchmark operation costs in one process.

Usage: python scripts/opcost.py [--workload sweep] [--seed 3] [--cycles 20]

Runs the build_curve + verify pair of every operation of one in-process
workload of perfbench/workloads.py (sweep or long-range) for --cycles
cycles, each in the workload's seeded shuffled order, after one untimed
warm-up cycle. One line per operation: its id, the median wall time of its
pairs in ms, and the minor page faults they took (ru_minflt of
resource.getrusage), as the median per pair and the total. The table model
is the seeded table of workloads.write_table, in a temporary directory;
nothing is written under perfbench/.

The fault count repeats exactly for one tree, seed and cycle count when
hash and address randomisation are off:

    PYTHONHASHSEED=0 setarch -R python scripts/opcost.py --workload long-range

Otherwise an operation's total can move by a fault or two. Either way it
tells two trees apart where wall time on a shared host cannot.
"""

import argparse
import os
import resource
import statistics
import sys
import tempfile
import time

sys.dont_write_bytecode = True  # leave no cache under perfbench/
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402

from tailmoments import (AnalysisParams, TailMomentsError,  # noqa: E402
                         build_curve, build_model, load_tabulated, verify)


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=("sweep", "long-range"),
                    default="sweep")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--cycles", type=int, default=20)
    args = ap.parse_args()
    ops = workloads.ops_for(args.workload)
    with tempfile.TemporaryDirectory() as tmp:
        table = os.path.join(tmp, "table.csv")
        workloads.write_table(table, args.seed)
        models = {op.label: load_tabulated(table) if op.dist == "tabulated"
                  else build_model(op.dist, **dict(op.params)) for op in ops}
    params = [AnalysisParams(beta=op.beta, x_max=op.x_max,
                             points_per_decade=op.ppd) for op in ops]
    times = [[] for _ in ops]
    faults = [[] for _ in ops]
    orders = workloads.cycle_orders(len(ops), args.seed)
    for cycle in range(args.cycles + 1):  # cycle 0 warms up
        for i in next(orders):
            model = models[ops[i].label]
            f0, t0 = _faults(), time.perf_counter()
            try:
                verify(model, params[i], build_curve(model, params[i]))
            except TailMomentsError:  # a rejected op is an outcome too
                pass
            elapsed, took = time.perf_counter() - t0, _faults() - f0
            if cycle:
                times[i].append(elapsed * 1e3)
                faults[i].append(took)
    print(f"{'op':<48} {'median_ms':>9} {'faults':>6} {'total':>7}")
    for op, ms, fs in zip(ops, times, faults):
        print(f"{op.id:<48} {statistics.median(ms):9.4f} "
              f"{statistics.median_low(fs):6d} {sum(fs):7d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
