"""The catalog summary script at the edge of the float range."""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_verify_catalog_reports_errors_as_rows_at_1e300():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "verify_catalog.py"),
         "--x-max", "1e300"],
        capture_output=True, text=True, timeout=120, env=env)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1  # three cases overflow the float range
    errors = [line for line in proc.stdout.splitlines() if " error: " in line]
    assert len(errors) == 3
    assert any(line.startswith("pareto(alpha=1.5") for line in errors)
    assert any("leaves the float range" in line for line in errors)
    assert "NO" not in proc.stdout.split()
    assert "FAIL" not in proc.stdout and "VIOLATION" not in proc.stdout
