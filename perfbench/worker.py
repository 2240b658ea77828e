"""In-process worker: imports tailmoments, builds the models, runs the loop.

Usage (started by run.py, never by hand):

    python worker.py --workload W --seed S --seconds T --trace 0|1 \
        --work DIR [--setup-only]

It prints ``ready`` once the package is imported and the workload's models
are built; run.py times ``setup_s`` from the spawn to that line. Then it
runs whole cycles of the mix in a closed loop with one client until
``--seconds`` have passed and at least MIN_OPS ops are done. Only the call
pair itself is timed. Every outcome is hashed after its timer stops; the
first outcome of each op is saved to DIR for run.py to check, and every
later one must hash the same. Results go to DIR/result.json.

With ``--trace 1`` odd cycles run with the tracer installed and even ones
without, so run.py can compare their goodput.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import tracing
import workloads


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def _digest(curve, report, error) -> str:
    h = hashlib.sha1()
    if error is not None:
        h.update(f"{type(error).__name__}: {error}".encode())
    if curve is not None:
        for name in ("grid", "h", "v", "u", "r1", "r2", "quad_error"):
            h.update(getattr(curve, name).tobytes())
    if report is not None:
        h.update(repr(report).encode())
    return h.hexdigest()


def _save(path, curve, report, error):
    import numpy as np  # already loaded by tailmoments

    summary = {"error": None if error is None else
               [type(error).__name__, str(error)]}
    if report is not None:
        summary["report"] = {"regime": report.regime,
                             "consistent": report.consistent,
                             "violations": list(report.violations)}
    if curve is not None:
        np.savez(path + ".npz", **{name: getattr(curve, name) for name in
                                   ("grid", "h", "v", "u", "r1", "r2",
                                    "quad_error")})
    with open(path + ".json", "w") as fh:
        json.dump(summary, fh)


def main(argv=None) -> int:
    args = _parse(argv)
    tailmoments, imported = tracing.import_package()

    tracer = None
    load_table = tailmoments.load_tabulated
    if args.trace:
        tracer = tracing.Tracer()
        load_table = tracer.wrap("catalog.load_tabulated", load_table)

    ops = workloads.ops_for(args.workload)
    models: dict[str, object] = {}
    for op in ops:
        if op.label in models:
            continue
        if op.dist == "tabulated":
            models[op.label] = load_table(os.path.join(args.work, "table.csv"))
        else:
            models[op.label] = tailmoments.build_model(op.dist, **dict(op.params))
    params = [tailmoments.AnalysisParams(beta=op.beta, x_max=op.x_max,
                                         points_per_decade=op.ppd)
              for op in ops]
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    load_tabulated_ms = 0.0
    if tracer is not None:
        spans, _ = tracer.take()
        load_tabulated_ms = sum((t1 - t0) * 1e3 for _, t0, t1, *_ in spans)
        counted = {label: tracer.counted(m) for label, m in models.items()}
        traced_pair = (tracer.wrap("moments.build_curve", tailmoments.build_curve),
                       tracer.wrap("verifier.verify", tailmoments.verify))
        span_lines = [tracing.SPAN_HEADER]  # the first traced cycle's spans
    plain_pair = (tailmoments.build_curve, tailmoments.verify)

    records = []  # [op index, cycle, traced, seconds, digest]
    layers = []   # [op index, cycle, aggregates] for traced ops
    saved = set()
    start = time.perf_counter()
    for cycle, order in enumerate(workloads.cycle_orders(len(ops), args.seed)):
        traced = tracer is not None and cycle % 2 == 1
        build_curve, verify = traced_pair if traced else plain_pair
        if traced:
            tracer.install()
        for i in order:
            op = ops[i]
            model = (counted if traced else models)[op.label]
            curve = report = error = None
            t0 = time.perf_counter()
            try:
                curve = build_curve(model, params[i])
                report = verify(model, params[i], curve)
            except Exception as exc:  # a failed op is an outcome to record
                error = exc
            elapsed = time.perf_counter() - t0
            digest = _digest(curve, report, error)
            if i not in saved:
                saved.add(i)
                _save(os.path.join(args.work, f"op{i}"), curve, report, error)
            records.append([i, cycle, traced, elapsed, digest])
            if traced:
                spans, evals = tracer.take()
                layers.append([i, cycle, tracing.fold(spans, evals)])
                if cycle == 1:
                    span_lines.extend(tracing.span_rows(i, spans))
        if traced:
            tracer.uninstall()
        if workloads.run_done(len(records), time.perf_counter() - start,
                              args.seconds, cycle, tracer is not None):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        with open(os.path.join(args.work, "spans.csv"), "w") as fh:
            fh.writelines(span_lines)

    result = {"records": records, "rss_mb": rss_mb,
              "import": imported,
              "load_tabulated_ms": load_tabulated_ms, "layers": layers,
              "absent": tracer.absent if tracer is not None else []}
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
