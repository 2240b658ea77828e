"""Run the correctness census of tests/census.py and print what it found.

Usage: python scripts/census.py

Prints the count of each outcome and the census's run time, then one line
per failing case: its outcome, model, beta and x_max, the true regime
('finite' for a finite moment, 'none' where no regime is claimed) and what
verify gave, a regime or an error's class. tests/test_census.py pins the
failure counts as ceilings. Exits 0.
"""

import importlib.util
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_census():
    """tests/census.py as a module, loaded without writing to tests/."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(
        "census", os.path.join(ROOT, "tests", "census.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main():
    census = load_census()
    start = time.perf_counter()
    rows = census.census()
    seconds = time.perf_counter() - start
    found = census.counts(rows)
    for outcome in census.OUTCOMES:
        print(f"{outcome:34s} {found[outcome]:4d}")
    print(f"{'cases':34s} {len(rows):4d}  in {seconds:.2f} s")
    failing = [row for row in rows if row.outcome in census.FAILURES]
    if failing:
        print()
    for row in failing:
        print(f"{row.outcome:21s} {row.model:29s} {row.beta:3g} "
              f"{row.x_max:6.0e}  truth {row.truth:8s}  got {row.regime}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
