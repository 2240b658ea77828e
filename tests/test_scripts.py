"""The scripts under scripts/, run as a user runs them."""

from __future__ import annotations

import importlib.util
import os
import re
import subprocess
import sys

import tailmoments
from edges import reproducer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, timeout=120, env=env)


def test_verify_catalog_reports_errors_as_rows_at_1e300():
    proc = _run_script("verify_catalog.py", "--x-max", "1e300")
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1  # inverse_log at beta = 2 overflows
    errors = [line for line in proc.stdout.splitlines() if " error: " in line]
    assert len(errors) == 1 and errors[0].split()[:3] == [
        "inverse_log", "2", "error:"]
    assert "non-finite value inf" in errors[0]  # its quadrature's y^2
    # u = x^2 sf(x) is formed without x^2, which passes the float range
    pareto = [line.split() for line in proc.stdout.splitlines()
              if line.startswith("pareto(alpha=1.5")]
    assert len(pareto) == 1
    assert pareto[0][2] == "interior" and pareto[0][-1] == "yes"
    assert "NO" not in proc.stdout.split()
    assert "FAIL" not in proc.stdout and "VIOLATION" not in proc.stdout


def test_verify_catalog_checks_every_classified_row_at_1e15():
    proc = _run_script("verify_catalog.py", "--x-max", "1e15")
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    checks = [line.split() for line in proc.stdout.splitlines()
              if " observed " in line]
    assert len(checks) == 16 and all(c[-1] == "ok" for c in checks)
    assert "FAIL" not in proc.stdout


def test_census_prints_its_outcome_table_and_failing_rows():
    proc = _run_script("census.py")
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    table, _, failing = proc.stdout.partition("\n\n")
    counts = [int(line.split()[-1]) for line in table.splitlines()[:6]]
    assert sum(counts) == 300 and table.splitlines()[6].split()[1] == "300"
    assert len(failing.splitlines()) == sum(counts[3:])


def test_aliasing_demo_shows_commensurable_scales_aliasing():
    proc = _run_script("aliasing_demo.py")
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    rows = [line for line in proc.stdout.splitlines() if "lambdas =" in line]
    assert len(rows) == 5
    assert all(row.endswith("CONVERGED (aliased!)") for row in rows[:3])
    assert all(row.endswith("not converged") for row in rows[3:])


def test_fingerprint_prints_one_digest_per_distinct_benchmark_op():
    perfbench = os.path.join(ROOT, "perfbench")
    before = sorted(os.listdir(perfbench))
    proc = _run_script("fingerprint.py", "--seed", "3")
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    rows = [line.rsplit("  ", 1) for line in proc.stdout.splitlines()]
    assert len(rows) == 35 and len({op_id for op_id, _ in rows}) == 35
    hexdigits = set("0123456789abcdef")
    assert all(len(d) == 64 and set(d) <= hexdigits for _, d in rows)
    assert sorted(os.listdir(perfbench)) == before  # no bytecode cache there


def test_opcost_prints_time_and_faults_of_each_op():
    perfbench = os.path.join(ROOT, "perfbench")
    before = sorted(os.listdir(perfbench))
    proc = _run_script("opcost.py", "--workload", "sweep", "--cycles", "1")
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    header, *rows = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["op", "median_ms", "faults", "total"]
    assert len(rows) == 24
    assert all(float(ms) > 0.0 and int(faults) >= 0 and int(total) >= 0
               for *_, ms, faults, total in rows)
    assert sorted(os.listdir(perfbench)) == before  # no bytecode cache there


def test_opcost_minima_adds_each_ops_minimum_and_pooled_percentiles():
    proc = _run_script("opcost.py", "--workload", "sweep", "--cycles", "2",
                       "--minima")
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    header, *rows, pooled = [line.split() for line in
                             proc.stdout.splitlines()]
    assert header == ["op", "median_ms", "min_ms", "faults", "total"]
    assert len(rows) == 24
    assert all(0.0 < float(least) <= float(median)
               for *_, median, least, _, _ in rows)
    assert pooled[:4] == ["all", "48", "pairs:", "p50"]
    p50, p90 = float(pooled[4]), float(pooled[7])
    assert pooled[5:7] == ["ms,", "p90"] and 0.0 < p50 <= p90


def test_opcost_counts_repeat_across_runs():
    def table():
        proc = _run_script("opcost.py", "--counts", "--seed", "3")
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        header, *rows = [line.rsplit(None, 10) for line in
                         proc.stdout.splitlines()]
        assert header == ["op", "tail_calls", "tail_points", "rule_passes",
                          "rule_intervals", "grid_points", "kinks",
                          "pow_calls", "pow_elements", "rv_fallbacks",
                          "peak_bytes"]
        return [(op.rstrip(), *map(int, counts)) for op, *counts in rows]

    first, second = table(), table()
    assert len(first) == 35
    # every count repeats; the peak up to a small Python object
    assert [row[:-1] for row in first] == [row[:-1] for row in second]
    assert all(abs(a[-1] - b[-1]) <= 256 for a, b in zip(first, second))
    # no benchmark op bisects: each smooth one takes one rule pass, as
    # inverse_log to 1e300 over its 4,794 grid steps above the floor e
    assert {row[3] for row in first} == {0, 1}
    by_op = {row[0]: row[3:6] for row in first}
    assert by_op["inverse_log b=1 x=1e+300"] == (1, 4794, 4802)
    # and none runs verify's per-series RV fallback
    assert {row[-2] for row in first} == {0}


def test_edge_audit_finds_no_counterexample():
    proc = _run_script("edge_audit.py", "--seed", "2", "--draws", "60")
    assert "Traceback" not in proc.stderr
    *families, total = proc.stdout.splitlines()
    assert total == "60 draws, 0 counterexamples"
    assert [line.split(":")[0] for line in families] == [
        "pareto", "geometric", "table"]
    assert all(re.fullmatch(r"\w+: [1-9]\d* draws, 0 counterexamples", line)
               for line in families)
    assert proc.returncode == 0


def test_edge_reproducer_rebuilds_the_curve_of_its_case():
    call = reproducer(("geometric", 1.5, 2.0, 1.5, 1.0, 1.7e308))
    assert call == ("build_curve(make_geometric_tail(1.5, 2.0), AnalysisParams("
                    "beta=1.5, x_min=1.0, x_max=1.7e+308, points_per_decade=8))")
    curve = eval(call, vars(tailmoments))
    assert curve.model_name == "geometric(beta_g=1.5,p=2)"
    assert curve.grid[0] == 1.0 and curve.grid[-1] == 1.7e308


def test_pairs_summarises_runs_by_each_metrics_direction():
    # canned run records: perfbench is not run. Pair 4 lost its parent run
    spec = importlib.util.spec_from_file_location(
        "pairs", os.path.join(ROOT, "scripts", "pairs.py"))
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)

    def run(pair, side, p50, rate):
        return {"pair": pair, "side": side, "result": {
            "correct": True, "attempted": 10, "failed": 1, "metrics": {
                "latency_p50_ms": {"value": p50, "unit": "ms"},
                "reports_per_s": {"value": rate, "unit": "1/s"}}}}

    records = [run(1, "parent", 1.2, 800), run(1, "change", 1.0, 795),
               run(2, "change", 0.9, 850), run(2, "parent", 1.1, 790),
               run(3, "parent", 1.3, 780), run(3, "change", 1.25, 770),
               {"pair": 4, "side": "parent", "result": None},
               run(4, "change", 0.1, 1e4)]
    head, columns, p50, rate, failed = pairs.summary(records, {
        "latency_p50_ms": "lower", "reports_per_s": "higher",
        "failed_frac": "lower"})
    assert head == "3 complete pairs; correct: parent 3/3, change 3/3"
    assert columns.split()[:2] == ["metric", "parent"]
    assert p50.split() == ["latency_p50_ms", "1.2", "[1.15,", "1.25]", "1",
                           "[0.95,", "1.125]", "-16.7%", "3/3", "yes"]
    assert rate.split() == ["reports_per_s", "790", "[785,", "795]", "795",
                            "[782.5,", "822.5]", "+0.6%", "1/3", "no"]
    assert failed.split()[-3:] == ["+0.0%", "0/3", "no"]
