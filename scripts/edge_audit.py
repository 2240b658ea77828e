"""Audit curves at the edges of the float range against 40-digit values.

Usage: python scripts/edge_audit.py [--seed 0] [--draws 2000]

Runs the check of tests/edges.py over --draws seeded draws of its cases
(pareto, geometric and log-linear table curves, beta in (0.2, 4], spans to
1.7e308), the check tests/test_edges.py runs in tier-1 on a smaller budget.
Prints one line per counterexample, the Python call that rebuilds its curve
and what it got wrong, then the number of draws and of counterexamples of
each family and of all. Exits 1 if it found any, else 0.
"""

import argparse
import importlib.util
import os
import sys

from hypothesis import HealthCheck, Phase, given, seed, settings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_edges():
    """tests/edges.py as a module (with tests/ on the path for its oracles),
    loaded without writing to tests/."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    spec = importlib.util.spec_from_file_location(
        "edges", os.path.join(ROOT, "tests", "edges.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--draws", type=int, default=2000)
    args = ap.parse_args()
    edges = load_edges()
    drawn, found = [], []

    @seed(args.seed)
    @settings(max_examples=args.draws, database=None, deadline=None,
              phases=[Phase.generate],
              suppress_health_check=list(HealthCheck))
    @given(case=edges.CASES)
    def run(case):
        drawn.append(case)
        wrong = edges.audit(case)
        if wrong is not None:
            found.append((case, wrong))

    run()
    for case, wrong in found:
        print(f"{edges.reproducer(case)}  # {wrong}")
    for family in edges.FAMILIES:
        print(f"{family}: {sum(c[0] == family for c in drawn)} draws, "
              f"{sum(c[0] == family for c, _ in found)} counterexamples")
    print(f"{len(drawn)} draws, {len(found)} counterexamples")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
