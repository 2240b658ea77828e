"""Traced stand-in for ``python -m tailmoments.cli``.

Usage: python cli_boot.py AGG_JSON SPANS_CSV|- OP_INDEX CLI_ARG...

Times ``import tailmoments``, installs the tracer's wrappers, runs
``tailmoments.cli.main`` on CLI_ARG... inside a ``cli.main`` span and exits
with its code. The per-layer aggregates go to AGG_JSON and, unless
SPANS_CSV is ``-``, the spans to SPANS_CSV; both are written even when
main raises.
"""

from __future__ import annotations

import json
import sys

import tracing


def main() -> int:
    agg_path, spans_path, op = sys.argv[1:4]
    tailmoments, imported = tracing.import_package()
    import tailmoments.cli

    tracer = tracing.Tracer()
    tracer.install()
    run = tracer.wrap("cli.main", tailmoments.cli.main)
    try:
        return run(sys.argv[4:])
    finally:
        tracer.uninstall()
        spans, evals = tracer.take()
        with open(agg_path, "w") as fh:
            json.dump({"import": imported, "absent": tracer.absent,
                       "agg": tracing.fold(spans, evals)}, fh)
        if spans_path != "-":
            with open(spans_path, "a") as fh:
                fh.writelines(tracing.span_rows(int(op), spans))


if __name__ == "__main__":
    sys.exit(main())
