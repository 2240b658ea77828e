"""The bench tracer's import sites still resolve.

perfbench/tracing.py wraps package functions at the module attributes the
package calls them through. A site whose attribute is gone is skipped and
reported as absent, and the per-layer metric it feeds silently reads 0. A
refactor that detaches a site therefore fails here, while a bench change that
adds or drops sites does not.
"""

import importlib
import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the sites with no attribute in the package as the tracer was written
KNOWN_ABSENT = {"tailmoments.moments.integrate_tail_piece",
                "tailmoments.moments.compute_v"}


def _tracing(monkeypatch):
    """perfbench/tracing.py loaded without writing to perfbench/ (it imports
    only the standard library)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_import_sites_are_not_detached(monkeypatch):
    sites = _tracing(monkeypatch).SITES
    absent = {f"{module}.{attr}" for module, attr, _ in sites
              if getattr(importlib.import_module(module), attr, None) is None}
    assert absent <= KNOWN_ABSENT
