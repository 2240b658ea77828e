"""Spans around calls into the tailmoments layers, recorded from outside.

The tracer replaces public functions at the module attributes through which
the package calls them (the import sites), so no file under ``src/`` is
edited. Each call records a span (name, start, end, parent span, tail
evaluations inside it). Tail evaluations are counted by swapping a model's
``tail`` for a counting copy with ``dataclasses.replace``. Spans stay in
memory while an operation runs; ``fold`` reduces them to per-layer
aggregates afterwards, outside the timed region.

A wrapped name that a refactor removes is reported in ``absent`` and
skipped. This module imports only the standard library, because the worker
and the CLI bootstrap import it before they time ``import tailmoments``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time

#: (module, attribute, span name) for every import site that is wrapped
SITES = (
    ("tailmoments.moments", "check_admission", "moments.check_admission"),
    ("tailmoments.moments", "build_grid", "moments.build_grid"),
    ("tailmoments.moments", "integrate_tail_piece",
     "quadrature.integrate_tail_piece"),
    ("tailmoments.moments", "compute_u", "moments.compute_u"),
    ("tailmoments.moments", "compute_v", "moments.compute_v"),
    ("tailmoments.verifier", "build_curve", "moments.build_curve"),
    ("tailmoments.verifier", "check_admission", "moments.check_admission"),
    ("tailmoments.verifier", "estimate_rv_index",
     "asymptotics.estimate_rv_index"),
    ("tailmoments.verifier", "gamma_classification",
     "asymptotics.gamma_classification"),
    ("tailmoments.verifier", "pi_class_test", "asymptotics.pi_class_test"),
    ("tailmoments.cli", "build_model", "catalog.build_model"),
    ("tailmoments.cli", "build_curve", "moments.build_curve"),
    ("tailmoments.cli", "verify", "verifier.verify"),
    ("tailmoments.cli", "estimate_rv_index", "asymptotics.estimate_rv_index"),
    ("tailmoments.cli", "render_json", "cli.render_json"),
    ("tailmoments.cli", "curve_to_csv", "moments.curve_to_csv"),
    ("tailmoments.cli", "_write_output", "cli._write_output"),
)

#: span name -> layer group used by the aggregates
GROUP = {
    "quadrature.integrate_tail_piece": "quad",
    "moments.check_admission": "admission",
    "moments.build_grid": "grid",
    "moments.build_curve": "curve",
    "moments.compute_u": "uv",
    "moments.compute_v": "uv",
    "asymptotics.estimate_rv_index": "rv",
    "asymptotics.gamma_classification": "gamma",
    "asymptotics.pi_class_test": "pi",
    "verifier.verify": "verify",
    "cli.main": "main",
    "cli.render_json": "render",
    "moments.curve_to_csv": "render",
    "cli._write_output": "write",
    "catalog.build_model": "model",
}


def _grid_counts(args, kwargs, result):
    model, params = args[0], args[1]
    lo, hi = params.x_min, params.x_max
    return {"grid.points": len(result),
            "grid.breakpoints": sum(1 for b in model.breakpoints(lo, hi)
                                    if lo <= b <= hi)}


def _rv_counts(args, kwargs, result):
    return {"rv.scale_points": len(result.per_scale)}


def _write_counts(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return {"bytes_out": len(text.encode())}


#: span name -> counts taken from its arguments and result at fold time
HOOKS = {
    "moments.build_grid": _grid_counts,
    "asymptotics.estimate_rv_index": _rv_counts,
    "cli._write_output": _write_counts,
}

#: per-op aggregate keys, in report order
AGG_KEYS = (
    "tail.evals", "quad.calls", "quad.busy", "quad.evals", "quad.errors",
    "admission.busy", "admission.evals", "grid.busy", "grid.points",
    "grid.breakpoints", "curve.self", "uv.busy", "rv.calls", "rv.busy",
    "rv.scale_points", "gamma.busy", "pi.busy", "pi.evals", "verify.busy",
    "verify.self", "main.busy", "render.busy", "write.busy", "bytes_out",
)


def import_package():
    """Import tailmoments; return it with the cost of its start-up.

    The cost is the wall time in ms, the number of new ``sys.modules``
    entries, and whether ``scipy.special`` came with it (0/1).
    """
    before = set(sys.modules)
    t0 = time.perf_counter()
    import tailmoments
    wall_ms = (time.perf_counter() - t0) * 1e3
    return tailmoments, {"wall_ms": wall_ms,
                         "modules": len(set(sys.modules) - before),
                         "scipy_special": int("scipy.special" in sys.modules)}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.evals = 0
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        """Return fn recording a span named ``name`` around every call."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hooked = name in HOOKS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            e0 = tracer.evals
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.evals - e0, True,
                              None)
                raise
            t1 = clock()
            stack.pop()
            spans[idx] = (name, t0, t1, parent, tracer.evals - e0, False,
                          (args, kwargs, result) if hooked else None)
            return result

        return traced

    def counted(self, model):
        """Copy of model whose tail counts every evaluation."""
        tail = model.tail
        tracer = self

        def counting_tail(x):
            tracer.evals += 1
            return tail(x)

        return dataclasses.replace(model, tail=counting_tail)

    def install(self):
        """Wrap every import site in SITES that still exists."""
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            if attr == "build_model":
                fn = self._counting_factory(fn)
            setattr(module, attr, self.wrap(name, fn))

    def _counting_factory(self, factory):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            return self.counted(factory(*args, **kwargs))
        return build

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def take(self):
        """Hand over the spans and tail evals recorded so far, and reset."""
        spans, evals = list(self.spans), self.evals
        self.spans.clear()
        self.evals = 0
        return spans, evals


def fold(spans, evals) -> dict[str, float]:
    """Per-layer aggregates of one operation's spans; times in ms.

    busy sums the spans of a group whose parent is outside the group, so
    nested calls are not counted twice; self subtracts the time covered by
    direct children.
    """
    agg = dict.fromkeys(AGG_KEYS, 0)
    agg["tail.evals"] = evals
    child_ms = [0.0] * len(spans)
    for name, t0, t1, parent, _, _, _ in spans:
        if parent >= 0:
            child_ms[parent] += (t1 - t0) * 1e3
    for idx, (name, t0, t1, parent, n_evals, failed, ctx) in enumerate(spans):
        group = GROUP[name]
        ms = (t1 - t0) * 1e3
        top = parent < 0 or GROUP[spans[parent][0]] != group
        if top and f"{group}.busy" in agg:
            agg[f"{group}.busy"] += ms
        if top and f"{group}.evals" in agg:
            agg[f"{group}.evals"] += n_evals
        if f"{group}.calls" in agg:
            agg[f"{group}.calls"] += 1
        if f"{group}.self" in agg:
            agg[f"{group}.self"] += ms - child_ms[idx]
        if failed and f"{group}.errors" in agg:
            agg[f"{group}.errors"] += 1
        if ctx is not None:
            for key, value in HOOKS[name](*ctx).items():
                agg[key] += value
    return agg


def span_rows(op: int, spans):
    """CSV rows (op, span, name, start_us, end_us, parent, evals, failed)."""
    if not spans:
        return
    base = spans[0][1]
    for idx, (name, t0, t1, parent, n_evals, failed, _) in enumerate(spans):
        yield (f"{op},{idx},{name},{(t0 - base) * 1e6:.1f},"
               f"{(t1 - base) * 1e6:.1f},{parent},{n_evals},{int(failed)}\n")


SPAN_HEADER = "op,span,name,start_us,end_us,parent,evals,failed\n"
