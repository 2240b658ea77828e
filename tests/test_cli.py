import json
import math
import os

import pytest

from tailmoments.cli import main, render_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# list

def test_list_names_every_family(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    for name in ("pareto", "geometric", "st_petersburg", "inverse_log",
                 "log_pareto", "tabulated"):
        assert name in out


def test_list_json_format(capsys):
    code, out, _ = run(capsys, "list", "--format", "json")
    assert code == 0
    entries = json.loads(out)
    assert entries["pareto"]["alpha"] == "required"
    assert entries["pareto"]["x_floor"] == 1.0


# ---------------------------------------------------------------------------
# curve

def test_curve_csv_has_expected_columns(capsys):
    code, out, _ = run(capsys, "curve", "--dist", "pareto", "--param",
                       "alpha=1.5", "--beta", "2", "--x-max", "1e6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,h,v,u,r1,r2,quad_error"
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[0] == 1.0 and last[0] == 1e6
    assert math.isclose(last[4] + last[5], 1.0)


def test_curve_json_format(capsys):
    code, out, _ = run(capsys, "curve", "--dist", "st_petersburg", "--beta",
                       "1", "--x-max", "1e12", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "st_petersburg"
    cols = doc["columns"]
    assert len(cols["x"]) == len(cols["h"]) == len(cols["r1"])


def test_curve_output_file_is_atomic(capsys, tmp_path):
    target = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "curve", "--dist", "pareto", "--param",
                       "alpha=1.5", "--beta", "2", "--x-max", "1e4",
                       "--output", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("x,h,v,u,r1,r2,quad_error\n")
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".part")]
    assert leftovers == []


# ---------------------------------------------------------------------------
# estimate

def test_estimate_reports_indices(capsys):
    code, out, _ = run(capsys, "estimate", "--dist", "pareto", "--param",
                       "alpha=1.5", "--beta", "2", "--x-max", "1e8")
    assert code == 0
    doc = json.loads(out)
    assert math.isclose(doc["estimates"]["h"]["rho_hat"], 0.5, abs_tol=0.01)
    assert doc["estimates"]["h"]["converged"] is True
    assert math.isclose(doc["tail_index"], -1.5, abs_tol=0.01)


# ---------------------------------------------------------------------------
# verify

def test_verify_consistent_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--dist", "pareto", "--param",
                       "alpha=1.5", "--beta", "2", "--x-max", "1e8")
    assert code == 0
    doc = json.loads(out)
    assert doc["consistent"] is True
    assert doc["regime"] == "interior"
    assert doc["conditions"]["h_rv"]["verdict"] == "true"
    assert doc["violations"] == []
    assert doc["params"]["beta"] == 2.0


def test_verify_indeterminate_exits_three(capsys):
    code, out, _ = run(capsys, "verify", "--dist", "geometric", "--param",
                       "beta_g=1", "--param", "p=2", "--beta", "2")
    assert code == 3
    doc = json.loads(out)
    assert doc["consistent"] is None
    assert doc["regime"] == "indeterminate"


def test_verify_inadmissible_exits_one(capsys):
    code, out, err = run(capsys, "verify", "--dist", "pareto", "--param",
                         "alpha=3", "--beta", "2")
    assert code == 1
    assert out == ""
    assert "finite moment" in err


def test_verify_false_tail_condition_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--dist", "geometric", "--param",
                       "beta_g=1", "--param", "p=10", "--beta", "1",
                       "--x-max", "1e30")
    assert code == 0
    doc = json.loads(out)
    assert doc["conditions"]["f_rv"]["verdict"] == "false"
    assert doc["violations"] == []


def test_verify_at_float_range_edge_has_no_traceback(capsys):
    # h(1e300) ~ 1e150 is representable but the quadrature weight e^(2t) is
    # not: a clean error today, a report once the arithmetic is rescaled
    code, out, err = run(capsys, "verify", "--dist", "pareto", "--param",
                         "alpha=1.5", "--beta", "2", "--x-max", "1e300")
    assert "Traceback" not in err
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error:")


def test_verify_json_is_canonical_and_stable(capsys):
    args = ("verify", "--dist", "st_petersburg", "--beta", "1",
            "--x-max", "1e20")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert out1 == render_json(doc)  # round-trips through the canonical form


def test_verify_handles_infinite_gamma(capsys, table_factory):
    # a tail falling off a cliff: nearly all mass in one early atom region,
    # still passing admission thanks to the pre-cliff growth
    rows = [(1.0, 1.0), (1e11, 0.9999), (2e11, 1e-30), (1e12, 1e-30)]
    path = table_factory(rows)
    code, out, _ = run(capsys, "verify", "--dist", "tabulated", "--param",
                       f"path={path}", "--beta", "1", "--x-max", "1e11")
    doc = json.loads(out)
    json.dumps(doc)  # proves no bare Infinity leaked into the document


# ---------------------------------------------------------------------------
# errors and usage

def test_unknown_model_exits_one(capsys):
    code, _, err = run(capsys, "verify", "--dist", "nope", "--beta", "1")
    assert code == 1
    assert "unknown model" in err


def test_unknown_parameter_exits_one(capsys):
    code, _, err = run(capsys, "verify", "--dist", "pareto", "--param",
                       "alpha=1.5", "--param", "shape=3", "--beta", "2")
    assert code == 1
    assert "unknown parameter" in err


def test_malformed_param_pair_exits_one(capsys):
    code, _, err = run(capsys, "curve", "--dist", "pareto", "--param",
                       "alpha", "--beta", "2")
    assert code == 1
    assert "key=value" in err


def test_bad_beta_exits_one(capsys):
    code, _, err = run(capsys, "verify", "--dist", "pareto", "--param",
                       "alpha=1.5", "--beta", "-2")
    assert code == 1


def test_usage_error_exits_one(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "verify" in out


def test_custom_lambdas_accepted(capsys):
    code, out, _ = run(capsys, "estimate", "--dist", "pareto", "--param",
                       "alpha=1.5", "--beta", "2", "--x-max", "1e8",
                       "--lambda", "2", "--lambda", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["lambdas"] == [2.0, 3.0]
