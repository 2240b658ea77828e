"""Golden canonical reports for the catalog cases of scripts/verify_catalog.py.

Each case has three committed files under tests/golden/: the canonical JSON
of ``verify``, ``estimate`` and ``curve --format json`` at x_max = 1e15.
Staircase models must reproduce their files byte for byte. Smooth models
are compared number by number within 100 * rel_tol, relative to the larger
magnitude plus one (an absolute floor for values near zero).

Regenerate the files (only for a deliberate change of the contract) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from tailmoments.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
X_MAX = "1e15"
COMMANDS = ("verify", "estimate", "curve")
#: relative tolerance for smooth models, in units of the report's rel_tol
SMOOTH_TOL_FACTOR = 100.0

#: (file stem, dist, model parameters, beta, staircase)
CASES = (
    ("pareto-1.5-b2", "pareto", ("alpha=1.5",), "2", False),
    ("pareto-0.5-b1", "pareto", ("alpha=0.5",), "1", False),
    ("pareto-1-b1", "pareto", ("alpha=1",), "1", False),
    ("log_pareto-0.5-1-b1", "log_pareto", ("alpha=0.5", "a=1"), "1", False),
    ("st_petersburg-b1", "st_petersburg", (), "1", True),
    ("geometric-0.5-3-b0.5", "geometric", ("beta_g=0.5", "p=3"), "0.5", True),
    ("geometric-1-2-b2", "geometric", ("beta_g=1", "p=2"), "2", True),
    ("inverse_log-b1", "inverse_log", (), "1", False),
    ("inverse_log-b2", "inverse_log", (), "2", False),
)


def _argv(command: str, dist: str, model_params, beta: str, out: str) -> list[str]:
    argv = [command, "--dist", dist]
    for pair in model_params:
        argv += ["--param", pair]
    argv += ["--beta", beta, "--x-max", X_MAX, "--output", out]
    if command == "curve":
        argv += ["--format", "json"]
    return argv


def _golden_path(stem: str, command: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{stem}.{command}.json")


def _render(command: str, case, out: str) -> str:
    stem, dist, model_params, beta, _ = case
    main(_argv(command, dist, model_params, beta, out))
    with open(out) as fh:
        return fh.read()


def _assert_close(new, old, tol: float, where: str = "$") -> None:
    if isinstance(old, dict):
        assert isinstance(new, dict) and sorted(new) == sorted(old), where
        for key in old:
            _assert_close(new[key], old[key], tol, f"{where}.{key}")
    elif isinstance(old, list):
        assert isinstance(new, list) and len(new) == len(old), where
        for i, (a, b) in enumerate(zip(new, old)):
            _assert_close(a, b, tol, f"{where}[{i}]")
    elif isinstance(old, float) and not isinstance(old, bool):
        assert isinstance(new, (int, float)) and not isinstance(new, bool), where
        scale = max(abs(new), abs(old)) + 1.0
        assert abs(new - old) <= tol * scale, (where, new, old)
    else:
        assert new == old, (where, new, old)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(case, command, tmp_path):
    text = _render(command, case, str(tmp_path / "out.json"))
    with open(_golden_path(case[0], command)) as fh:
        golden = fh.read()
    if case[4]:
        assert text == golden
        return
    old = json.loads(golden)
    _assert_close(json.loads(text), old,
                  SMOOTH_TOL_FACTOR * old["params"]["rel_tol"])


def _regenerate() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case in CASES:
        for command in COMMANDS:
            _render(command, case, _golden_path(case[0], command))


if __name__ == "__main__":
    _regenerate()
    sys.exit(0)
