"""Print what each benchmark operation costs in one process.

Usage: python scripts/opcost.py [--workload sweep] [--seed 3] [--cycles 20]
                                [--minima]
       python scripts/opcost.py --counts [--seed 3]

Runs the build_curve + verify pair of every operation of one in-process
workload of perfbench/workloads.py (sweep or long-range) for --cycles
cycles, each in the workload's seeded shuffled order, after one untimed
warm-up cycle. One line per operation: its id, the median wall time of its
pairs in ms, and the minor page faults they took (ru_minflt of
resource.getrusage), as the median per pair and the total. The table model
is the seeded table of workloads.write_table, in a temporary directory;
nothing is written under perfbench/.

--minima adds each operation's minimum time next to its median, and a last
line with the p50 and p90 of all timed pairs, computed as perfbench/run.py
computes latency_p50_ms and latency_p90_ms. On a shared host the minimum is
the time that separates two trees op by op: the median moves with the
other load, the minimum much less.

The fault count repeats exactly for one tree, seed and cycle count when
hash and address randomisation are off:

    PYTHONHASHSEED=0 setarch -R python scripts/opcost.py --workload long-range

Otherwise an operation's total can move by a fault or two. Either way it
tells two trees apart where wall time on a shared host cannot.

Faults on big ops come from glibc returning its heap to the system when a
large array is freed and faulting it back on the next op. Pinning the
allocator's thresholds for this process alone takes them out, and shows
how much of an op's time is heap state rather than work:

    MALLOC_TRIM_THRESHOLD_=4294967296 MALLOC_MMAP_THRESHOLD_=4294967296 \
        python scripts/opcost.py --workload long-range

MALLOC_TRIM_THRESHOLD_ alone is enough for the piece ops of long-range.

--counts prints what each of the distinct operations of
scripts/fingerprint.py counts rather than how long it takes, and runs no
timed cycles. Each operation's build_curve + verify runs twice on a model
built afresh, after the held grid steps are dropped: a cold run, and a
warm one that finds the model's law and the steps held. The columns are
the warm run's tail calls and the points they were asked (model.tail,
wrapped on a dataclasses.replace copy), Gauss-Kronrod rule passes and the
intervals they took (quadrature._rule), grid points and the kinks among
them (moments.build_grid), the libm powers of the cold run, as calls and
elements (catalog._scalar_pow, also where moments names it), the warm
run's per-series RV fallbacks of verify (its calls of
verifier.estimate_rv_index), and its tracemalloc peak in bytes. The counts
do not depend on the host, the load or the order of the operations: two
runs of one tree print the same counts, and two trees that print the same
counts did the same work. The peak repeats to the byte with hash and
address randomisation off (as above); otherwise it can move by the size of
one small Python object (59 B here) between processes.
"""

import argparse
import dataclasses
import gc
import os
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc

sys.dont_write_bytecode = True  # leave no cache under perfbench/
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from fingerprint import distinct_ops  # noqa: E402

from tailmoments import (AnalysisParams, TailMomentsError,  # noqa: E402
                         build_curve, build_model, catalog, load_tabulated,
                         moments, quadrature, verifier, verify)


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


_COUNTS = ("tail_calls", "tail_points", "rule_passes", "rule_intervals",
           "grid_points", "kinks", "pow_calls", "pow_elements", "rv_fallbacks",
           "peak_bytes")


def _op_counts(model, params) -> dict:
    """The counts of build_curve + verify on a fresh model (see --counts),
    an error being an outcome like a report."""
    tail, rule, grid = model.tail, quadrature._rule, moments.build_grid
    rv_index = verifier.estimate_rv_index
    pows = {mod: mod._scalar_pow for mod in (catalog, moments)
            if hasattr(mod, "_scalar_pow")}
    # what each spy saw, read after a run
    tails, rules, grids, powers, fallbacks = [], [], [], [], []

    def counted_tail(y):
        tails.append(np.size(y))
        return tail(y)

    def counted_rule(tail, beta, ta, tb):
        rules.append(len(ta))
        return rule(tail, beta, ta, tb)

    def counted_grid(model, params, knots=None):
        xs = grid(model, params, knots)
        grids.append((len(xs), model, params, knots))
        return xs

    def counted_rv_index(xs, fs, params):
        fallbacks.append(len(fs))
        return rv_index(xs, fs, params)

    def counted_pow(pow_):
        return lambda base, exp: powers.append(len(base)) or pow_(base, exp)

    def run():
        for spied in (tails, rules, grids, powers, fallbacks):
            spied.clear()
        try:
            verify(model, params, build_curve(model, params))
        except TailMomentsError:  # a rejected op is an outcome too
            pass

    model = dataclasses.replace(model, tail=counted_tail)
    quadrature._rule, moments.build_grid = counted_rule, counted_grid
    verifier.estimate_rv_index = counted_rv_index
    for mod, pow_ in pows.items():
        mod._scalar_pow = counted_pow(pow_)
    moments._STEPS.clear()
    try:
        run()
        n = {"pow_calls": len(powers), "pow_elements": sum(powers)}
        gc.collect()
        gc.disable()  # a collection's timing would move the peak
        tracemalloc.start()
        run()
        n["peak_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        gc.enable()
    finally:
        quadrature._rule, moments.build_grid = rule, grid
        verifier.estimate_rv_index = rv_index
        for mod, pow_ in pows.items():
            mod._scalar_pow = pow_
    n.update(tail_calls=len(tails), tail_points=int(sum(tails)),
             rule_passes=len(rules), rule_intervals=sum(rules),
             grid_points=sum(points for points, *_ in grids), kinks=0,
             rv_fallbacks=len(fallbacks))
    for _, grid_model, grid_params, knots in grids:
        lo, hi = grid_params.x_min, grid_params.x_max
        kinks = np.append(grid_model.breakpoints(lo, hi) if knots is None
                          else knots, grid_model.support_floor)
        n["kinks"] += len(np.unique(kinks[(kinks > lo) & (kinks < hi)]))
    return n


def counts(seed: int) -> None:
    """Print the --counts table of every distinct benchmark operation."""
    print(f"{'op':<48} " + " ".join(f"{c:>14}" for c in _COUNTS))
    with tempfile.TemporaryDirectory() as tmp:
        table = os.path.join(tmp, "table.csv")
        workloads.write_table(table, seed)
        for op in distinct_ops():
            model = (load_tabulated(table) if op.dist == "tabulated"
                     else build_model(op.dist, **dict(op.params)))
            n = _op_counts(model, AnalysisParams(
                beta=op.beta, x_max=op.x_max, points_per_decade=op.ppd))
            print(f"{op.id.split(' ', 1)[1]:<48} "
                  + " ".join(f"{n[c]:>14}" for c in _COUNTS))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=("sweep", "long-range"),
                    default="sweep")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--cycles", type=int, default=20)
    ap.add_argument("--minima", action="store_true")
    ap.add_argument("--counts", action="store_true")
    args = ap.parse_args()
    if args.counts:
        counts(args.seed)
        return 0
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
    least = f" {'min_ms':>9}" if args.minima else ""
    print(f"{'op':<48} {'median_ms':>9}{least} {'faults':>6} {'total':>7}")
    for op, ms, fs in zip(ops, times, faults):
        least = f" {min(ms):9.4f}" if args.minima else ""
        print(f"{op.id:<48} {statistics.median(ms):9.4f}{least} "
              f"{statistics.median_low(fs):6d} {sum(fs):7d}")
    if args.minima:
        lat = [ms for op_ms in times for ms in op_ms]
        print(f"all {len(lat)} pairs: p50 {statistics.median(lat):.4f} ms, "
              f"p90 {statistics.quantiles(lat, n=10, method='inclusive')[8]:.4f}"
              " ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
