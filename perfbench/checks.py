"""Correctness oracles, run in run.py's process, outside every timed region.

They import numpy and scipy (through tailmoments' closed forms), so they
never run inside the worker whose ``setup_s`` and ``peak_rss_mb`` are
measured. Each check returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

import tailmoments
import workloads

CLOSED_FORM_RTOL = 1e-8
COLUMNS = ("x", "h", "v", "u", "r1", "r2", "quad_error")


class Oracle:
    """What one op of a workload must produce."""

    def __init__(self, op: workloads.Op, table_path: str | None):
        self.op = op
        if op.dist == "tabulated":
            model = tailmoments.load_tabulated(table_path)
            reference = tailmoments.make_pareto(workloads.TABLE_ALPHA)
        else:
            model = tailmoments.build_model(op.dist, **dict(op.params))
            reference = model
        params = tailmoments.AnalysisParams(
            beta=op.beta, x_max=op.x_max, points_per_decade=op.ppd)
        self.grid = tailmoments.build_grid(model, params)
        self.closed_form = reference.closed_form_h
        self.staircase = op.dist == "st_petersburg" and op.beta == 1.0
        self.regime = op.expect or _regime(reference, op.beta)

    @property
    def points(self) -> int:
        """Grid points in a correct outcome; none for an inadmissible op."""
        return 0 if self.regime == "inadmissible" else len(self.grid)

    def check_curve(self, cols: dict[str, np.ndarray]) -> list[str]:
        """Invariants of one moment curve, columns named as in COLUMNS."""
        problems = []
        x = cols["x"]
        if len(x) != len(self.grid) or not np.array_equal(x, self.grid):
            return [f"grid has {len(x)} points, build_grid gives "
                    f"{len(self.grid)}"]
        h, v, u = cols["h"], cols["v"], cols["u"]
        if not np.all(cols["r1"] + cols["r2"] == 1.0):
            problems.append("r1 + r2 != 1")
        gap = np.abs(h - v - u)
        if not np.all(gap <= cols["quad_error"]):
            problems.append(f"|h - v - u| exceeds quad_error at "
                            f"{int(np.sum(~(gap <= cols['quad_error'])))} points")
        if self.staircase:
            mant, exp = np.frexp(x)
            dyadic = mant == 0.5
            if not np.array_equal(h[dyadic], exp[dyadic].astype(float)):
                problems.append("st_petersburg h(2^n) != n + 1")
        if self.closed_form is not None:
            ref = np.array([self.closed_form(self.op.beta, float(xi)) for xi in x])
            bad = ~(np.abs(h - ref) <= CLOSED_FORM_RTOL * np.abs(ref))
            if bad.any():
                problems.append(f"h off the closed form by more than "
                                f"{CLOSED_FORM_RTOL:g} at {int(bad.sum())} points")
        return problems

    def check_report(self, regime: str, consistent) -> list[str]:
        problems = []
        if regime != self.regime:
            problems.append(f"regime {regime}, expected {self.regime}")
        if consistent is False:
            problems.append("consistent=false")
        return problems

    def check_pair(self, summary: dict, cols: dict | None) -> list[str]:
        """Outcome of the in-process build_curve + verify pair."""
        error = summary["error"]
        if self.regime == "inadmissible":
            if error is None or error[0] != "AdmissionError":
                return [f"expected AdmissionError, got {error or 'a report'}"]
            return []
        if error is not None:
            return [f"{error[0]}: {error[1]}"]
        report = summary["report"]
        return (self.check_curve(cols)
                + self.check_report(report["regime"], report["consistent"]))

    def check_cli(self, code: int, stdout: bytes, stderr: bytes,
                  output: bytes | None) -> list[str]:
        """Exit code and output of one CLI child."""
        command = self.op.command
        if self.regime == "inadmissible":
            if code != 1 or b"finite moment" not in stderr:
                return [f"expected exit 1 with an admission error, got {code}"]
            return []
        if command == "verify":
            doc, problems = _parse_json(stdout)
            if doc is None:
                return [f"exit {code}"] + problems
            problems = self.check_report(doc.get("regime"), doc.get("consistent"))
            want = {True: 0, None: 3, False: 2}.get(doc.get("consistent"))
            if code != want:
                problems.append(f"exit {code}, report implies {want}")
            return problems
        if code != 0:
            return [f"exit {code}: {stderr.decode(errors='replace').strip()[-200:]}"]
        if command == "estimate":
            doc, problems = _parse_json(stdout)
            if doc is None:
                return problems
            ests = doc.get("estimates", {})
            if doc.get("model") != self.op.dist or set(ests) != {"h", "v", "u"} \
                    or not all(isinstance(e.get("rho_hat"), float)
                               for e in ests.values()):
                return ["estimate report lacks rho_hat for h, v and u"]
            return []
        if output is None:
            return ["no output file"]
        if command == "curve-csv":
            cols, problems = _parse_csv(output)
        else:
            doc, problems = _parse_json(output)
            cols = None
            if doc is not None:
                try:
                    cols = {k: np.array([float(v) for v in doc["columns"][k]])
                            for k in COLUMNS}
                except (KeyError, TypeError, ValueError) as exc:
                    problems = [f"JSON curve lacks column data: {exc!r}"]
        return problems if cols is None else self.check_curve(cols)


def _regime(model, beta: float) -> str:
    rho = model.ground_truth.rho_of(beta)
    if rho is None:
        raise ValueError(f"{model.name} claims no limit at beta={beta:g}; "
                         "give the op an explicit expect")
    if rho == 0.0:
        return "rho_zero"
    return "rho_beta" if rho == beta else "interior"


def _parse_json(data: bytes):
    try:
        return json.loads(data), []
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]


def _parse_csv(data: bytes):
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or tuple(rows[0]) != COLUMNS:
        return None, ["CSV header is not " + ",".join(COLUMNS)]
    try:
        table = np.array([[float(v) for v in row] for row in rows[1:]])
    except ValueError as exc:
        return None, [f"CSV does not parse: {exc}"]
    if table.ndim != 2 or table.shape[1] != len(COLUMNS):
        return None, ["CSV rows do not have one value per column"]
    return {name: table[:, k] for k, name in enumerate(COLUMNS)}, []


def load_curve(path: str) -> dict[str, np.ndarray]:
    """Curve columns saved by the worker, keyed as in COLUMNS."""
    with np.load(path) as data:
        cols = {name: data[name] for name in data.files}
    cols["x"] = cols.pop("grid")
    return cols
