import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from tailmoments import cli, moments
from tailmoments.cli import _params_from_args, build_parser, main, render_json
from tailmoments.params import AnalysisParams

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# list

def test_list_names_every_family(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert out.splitlines() == [
        "geometric: beta_g=required, p=required",
        "inverse_log: (no parameters)",
        "log_pareto: alpha=required, a=0.0",
        "pareto: alpha=required, x_floor=1.0",
        "st_petersburg: (no parameters)",
        "tabulated: path=required",
    ]


def test_list_json_format(capsys):
    code, out, _ = run(capsys, "list", "--format", "json")
    assert code == 0
    assert out == render_json({
        "geometric": {"beta_g": "required", "p": "required"},
        "inverse_log": {},
        "log_pareto": {"alpha": "required", "a": 0.0},
        "pareto": {"alpha": "required", "x_floor": 1.0},
        "st_petersburg": {},
        "tabulated": {"path": "required"},
    })


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


def test_curve_over_a_span_shorter_than_one_grid_step_is_inadmissible(
        capsys, monkeypatch):
    # no grid steps held at any density: the first grid here takes none
    monkeypatch.setattr(moments, "_STEPS", {})
    code, out, err = run(capsys, "curve", "--dist", "pareto", "--param",
                         "alpha=1.5", "--beta", "2", "--x-max", "1.1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: model 'pareto(alpha=1.5,x_floor=1)' looks "
                          "like it has a finite moment of order 2")


def test_verify_false_tail_condition_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--dist", "geometric", "--param",
                       "beta_g=1", "--param", "p=10", "--beta", "1",
                       "--x-max", "1e30")
    assert code == 0
    doc = json.loads(out)
    assert doc["conditions"]["f_rv"]["verdict"] == "false"
    assert doc["violations"] == []


def test_commensurable_scales_leave_rv_verdicts_undecided(capsys):
    # lambda = 10 maps the decimal grid onto itself, so the p = 10 staircase
    # aliases to a constant: zero spread is no evidence of regular variation
    code, out, _ = run(capsys, "verify", "--dist", "geometric", "--param",
                       "beta_g=1", "--param", "p=10", "--beta", "1",
                       "--x-max", "1e30", "--lambda", "10")
    assert code == 0
    conds = json.loads(out)["conditions"]
    assert conds["f_rv"]["spread"] < 1e-12
    for name in ("h_rv", "v_rv", "f_rv"):
        assert conds[name]["verdict"] == "undecided", name


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 7: a pair that misses every p/q (q <= 6) by 1e-9 certifies, "
    "however close it lies to 10 or 10^2 on this grid"))
@pytest.mark.parametrize("second", ["10.00001", "100.0001"])
def test_nearly_commensurable_scales_leave_f_rv_undecided(capsys, second):
    # lambda = 10 alone leaves f_rv undecided (above); a second scale near 10
    # or 10^2 reads the same aliased constant, at spreads 3.5e-6 and 1.7e-6
    code, out, _ = run(capsys, "verify", "--dist", "geometric", "--param",
                       "beta_g=1", "--param", "p=10", "--beta", "1",
                       "--x-max", "1e30", "--lambda", "10", "--lambda", second)
    assert code == 0
    assert json.loads(out)["conditions"]["f_rv"]["verdict"] == "undecided"


def test_verify_at_float_range_edge_has_no_traceback(capsys):
    # h(1e300) ~ 4e150 and u(1e300) = 1e150 are representable, although
    # x^2 is not: u is formed from the piece as (x / floor)^(2 - alpha)
    code, out, err = run(capsys, "verify", "--dist", "pareto", "--param",
                         "alpha=1.5", "--beta", "2", "--x-max", "1e300")
    assert "Traceback" not in err
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["regime"] == "interior" and report["consistent"] is True
    assert report["violations"] == []


def test_span_past_the_float_range_is_a_validation_error(capsys):
    # x_max / x_min overflows: the grid once died on int(inf)
    code, out, err = run(capsys, "verify", "--dist", "pareto", "--param",
                         "alpha=1.5", "--beta", "2", "--x-min", "1e-300",
                         "--x-max", "1e300")
    assert code == 1 and out == ""
    assert "OverflowError" not in err and "span [1e-300, 1e+300]" in err


def test_window_wider_than_the_float_range_is_the_whole_span(capsys):
    # 10**400 overflows; the window is then [x_min, x_max], as at 12 decades
    args = ("verify", "--dist", "pareto", "--param", "alpha=1.5", "--beta",
            "2", "--window-decades")
    code, out, err = run(capsys, *args, "400")
    assert "OverflowError" not in err
    code_12, out_12, err_12 = run(capsys, *args, "12")
    assert (code, err) == (code_12, err_12)
    report, report_12 = json.loads(out), json.loads(out_12)
    assert report["params"].pop("window_decades") == 400.0
    assert report_12["params"].pop("window_decades") == 12.0
    assert report == report_12


def test_window_without_kinks_leaves_rv_verdicts_undecided(capsys):
    # the 3-decade window [1e302, 1e305] holds no knot of the 10-decade
    # staircase, whose sf is constant there: no evidence of regular variation
    code, out, err = run(capsys, "verify", "--dist", "geometric", "--param",
                         "beta_g=0.5", "--param", "p=1e10", "--beta", "0.5",
                         "--x-max", "1e305")
    assert code == 0 and "Traceback" not in err
    report = json.loads(out)
    assert report["regime"] == "rho_zero" and report["consistent"] is True
    for name in ("h_rv", "v_rv", "f_rv"):
        assert report["conditions"][name]["verdict"] == "undecided", name


@pytest.mark.parametrize("beta_g, p, x_max", [
    ("0.5", "3", "1.7e308"),
    ("1", "10", "1.7e308"),
    ("0.5", "1e10", "1e300"),
])
def test_staircase_near_the_float_limit_reports(capsys, beta_g, p, x_max):
    # the floor-log of the top grid point compared it against the next
    # power of p, which lies past the float range: an OverflowError
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "--dist", "geometric",
                             "--param", f"beta_g={beta_g}", "--param",
                             f"p={p}", "--beta", beta_g, "--x-max", x_max)
    assert code == 0 and "Traceback" not in err
    report = json.loads(out)
    assert report["regime"] == "rho_zero" and report["consistent"] is True
    assert [str(w.message) for w in caught] == []


def test_rel_tol_below_the_floor_is_an_error(capsys):
    # 1e-16 used to pass: at x_max 1e15 inverse_log then took 3M evals and
    # reported an error 50,000x above the tolerance it had accepted
    code, out, err = run(capsys, "verify", "--dist", "inverse_log", "--beta",
                         "1", "--rel-tol", "1e-16")
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith("error: rel_tol must lie in [1e-13, 1e-4]")


def test_overflowed_support_floor_power_is_an_error(capsys):
    # floor^beta = 1e500 raised OverflowError in the h kernel
    code, out, err = run(capsys, "verify", "--dist", "geometric", "--param",
                         "beta_g=0.5", "--param", "p=1e10", "--beta", "50",
                         "--x-max", "1e12")
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith("error: the moment curve") and "leaves the float range" in err


@pytest.mark.parametrize("model_args", [
    ("--dist", "st_petersburg"),
    ("--dist", "geometric", "--param", "beta_g=1", "--param", "p=2"),
])
def test_overflowed_staircase_is_an_error_not_a_finite_moment(capsys, model_args):
    # h ~ x^2 at order 3 leaves the float range past ~1e154: h once turned
    # nan, numpy warned, and admission then called the moment finite
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", *model_args, "--beta", "3",
                             "--x-max", "1e300")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "leaves the float range" in err
    assert "finite moment" not in err
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("model_args", [
    ("--dist", "st_petersburg"),
    ("--dist", "geometric", "--param", "beta_g=1", "--param", "p=2"),
])
def test_staircase_past_the_float_range_of_x_beta_gives_its_report(
        capsys, model_args):
    # x^2 overflows past 2^512, yet h(1e300) = 2.83e300 and u are floats:
    # the flat pieces read them through logs there, as power pieces do
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", *model_args, "--beta", "2",
                             "--x-max", "1e300")
    assert code == 3 and err == ""
    doc = json.loads(out)
    assert doc["regime"] == "indeterminate" and doc["consistent"] is None
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("model_args", [
    ("--dist", "inverse_log"),
    ("--dist", "pareto", "--param", "alpha=0.5"),
])
def test_huge_order_is_a_clean_error(model_args):
    # at beta = 1e300, x^beta leaves the float range above x = 1: the
    # quadrature's first block names the overflow, and so does the piece
    # curve. A split of each step into ceil(beta * dt / 4.6) segments, made
    # before any tail call, once never ended here
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "tailmoments.cli", "verify", *model_args,
         "--beta", "1e300"], capture_output=True, text=True, timeout=60,
        env=env)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("args, message", [
    (("--dist", "pareto", "--param", "alpha=1.5", "--beta", "2",
      "--points-per-decade", "10000000"), "asks 3e+09 grid points"),
    (("--dist", "geometric", "--param", "beta_g=1", "--param", "p=1.00001",
      "--beta", "1"), "has 69,077,898 knots up to 1e+300"),
])
def test_a_size_past_the_budget_is_refused_before_it_is_allocated(capsys,
                                                                   args,
                                                                   message):
    # 3e9 grid points and 6.9e7 knots once ended in numpy's
    # _ArrayMemoryError traceback; both counts are known before any array
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", *args, "--x-max", "1e300")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err
    assert err.rstrip().endswith("more than the budget of 10,000,000")
    assert peak < 4 << 20


def test_de_haan_test_stays_inside_the_float_range(capsys):
    # sf(8 x) and sf(e x) were read past the float range at the window's
    # top: residuals of 322 and 170 made membership false against v_rv true
    code, out, err = run(capsys, "verify", "--dist", "inverse_log", "--beta",
                         "1", "--x-max", "1.7e308")
    report = json.loads(out)
    assert code == 0 and report["consistent"] is True
    assert report["regime"] == "rho_beta" and report["pi"]["is_member"] is True
    assert report["pi"]["window"][1] <= sys.float_info.max / 8.0


@pytest.mark.parametrize("alpha, a, x_max", [
    ("0.5", "400", "1e12"),  # e^(a/alpha) overflows
    ("1", "300", "1e300"),   # ln(x0)^a overflows
])
def test_log_pareto_past_the_float_range_is_a_validation_error(capsys, alpha,
                                                                a, x_max):
    code, out, err = run(capsys, "verify", "--dist", "log_pareto", "--param",
                         f"alpha={alpha}", "--param", f"a={a}", "--beta", "1",
                         "--x-max", x_max)
    assert code == 1 and out == ""
    assert err.startswith("error: a / alpha") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "--dist", "tabulated", "--param", "path={tmp}/missing.csv",
     "--beta", "1"),
    ("verify", "--dist", "tabulated", "--param", "path={tmp}", "--beta", "1"),
    ("curve", "--dist", "pareto", "--param", "alpha=1.5", "--beta", "2",
     "--output", "{tmp}/missing_dir/out.csv"),
])
def test_os_errors_exit_one_with_a_message(capsys, tmp_path, argv):
    # a missing table, a directory as the table and an output file in a
    # missing directory raised FileNotFoundError and IsADirectoryError
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith("error: ")
    assert err.split(":")[1].strip() in ("FileNotFoundError", "IsADirectoryError")


@pytest.mark.parametrize("exc", [OverflowError("math range error"),
                                 FloatingPointError("overflow encountered")])
def test_arithmetic_errors_exit_one_with_a_message(capsys, monkeypatch, exc):
    def overflowing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "verify", overflowing)
    code, out, err = run(capsys, "verify", "--dist", "pareto", "--param",
                         "alpha=1.5", "--beta", "2")
    assert code == 1 and out == ""
    assert err == f"error: {type(exc).__name__}: {exc}\n"


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


def test_a_series_with_no_estimate_is_an_error_entry(capsys, table_factory):
    # a constant tail has v = 0 on the whole grid: estimate names why v has no
    # index, and verify reports rho = beta with no de Haan result
    path = table_factory([(1.0, 1.0), (10.0, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the table is held past its last row
        code, out, _ = run(capsys, "estimate", "--dist", "tabulated",
                           "--param", f"path={path}", "--beta", "1")
        assert code == 0
        doc = json.loads(out)
        code, out, _ = run(capsys, "verify", "--dist", "tabulated",
                           "--param", f"path={path}", "--beta", "2")
    assert doc["estimates"]["v"] == {
        "error": "fewer than 2 strictly positive samples"}
    assert math.isclose(doc["tail_index"], 0.0, abs_tol=1e-12)  # u = x
    assert code == 0
    report = json.loads(out)
    assert (report["regime"], report["gamma"]["gamma_hat"], report["pi"],
            report["consistent"]) == ("rho_beta", "inf", None, True)
    assert report["conditions"]["v_rv"] == {
        "estimate": None, "spread": "inf", "verdict": "undecided"}


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


def test_analysis_flags_mirror_analysis_params():
    parser = build_parser()
    base = ["verify", "--dist", "pareto", "--beta", "2"]
    assert _params_from_args(parser.parse_args(base)) == AnalysisParams(beta=2.0)
    args = parser.parse_args(base + [
        "--x-min", "2", "--x-max", "1e9", "--points-per-decade", "20",
        "--rel-tol", "1e-9", "--eps-rho", "0.03", "--window-decades", "2",
        "--spread-tol", "0.05", "--trend-tol", "0.02",
        "--lambda", "2", "--lambda", "3"])
    params = _params_from_args(args)
    assert params == AnalysisParams(
        beta=2.0, lambdas=(2.0, 3.0), x_min=2.0, x_max=1e9,
        points_per_decade=20, rel_tol=1e-9, eps_rho=0.03, window_decades=2.0,
        spread_tol=0.05, trend_tol=0.02)
    assert type(params.points_per_decade) is int


def test_custom_lambdas_accepted(capsys):
    code, out, _ = run(capsys, "estimate", "--dist", "pareto", "--param",
                       "alpha=1.5", "--beta", "2", "--x-max", "1e8",
                       "--lambda", "2", "--lambda", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["lambdas"] == [2.0, 3.0]
