"""Print a digest of every distinct benchmark operation's outcome.

Usage: python scripts/fingerprint.py [--seed 3]

One line per distinct operation of perfbench/workloads.py, keyed by
(model, params, beta, x_max, points_per_decade): the operation's id and
the sha256 of its curve's seven arrays and repr(TheoremReport), or of the
error's type and message. The table model is the seeded table of
workloads.write_table. Two trees whose outputs match give bit-identical
curves, reports and errors on every benchmark operation.
"""

import argparse
import hashlib
import os
import sys
import tempfile

sys.dont_write_bytecode = True  # leave no cache under perfbench/
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402

from tailmoments import (AnalysisParams, build_curve, build_model,  # noqa: E402
                         load_tabulated, verify)

_ARRAYS = ("grid", "h", "v", "u", "r1", "r2", "quad_error")


def digest(model, params) -> str:
    """sha256 of the curve and report of model at params, or of the error."""
    h = hashlib.sha256()
    try:
        curve = build_curve(model, params)
        report = verify(model, params, curve)
    except Exception as exc:  # an error is an outcome to fingerprint
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return h.hexdigest()
    for name in _ARRAYS:
        h.update(getattr(curve, name).tobytes())
    h.update(repr(report).encode())
    return h.hexdigest()


def distinct_ops() -> list:
    """The first operation of each distinct key over every workload, in
    workload order."""
    ops = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.ops_for(workload):
            ops.setdefault((op.dist, op.params, op.beta, op.x_max, op.ppd), op)
    return list(ops.values())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        table = os.path.join(tmp, "table.csv")
        workloads.write_table(table, args.seed)
        for op in distinct_ops():
            model = (load_tabulated(table) if op.dist == "tabulated"
                     else build_model(op.dist, **dict(op.params)))
            params = AnalysisParams(beta=op.beta, x_max=op.x_max,
                                    points_per_decade=op.ppd)
            op_id = op.id.split(" ", 1)[1]  # the id without its command
            print(f"{op_id}  {digest(model, params)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
