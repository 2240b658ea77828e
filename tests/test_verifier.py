import importlib.util
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tailmoments
import tailmoments.asymptotics as asymptotics
import tailmoments.verifier as verifier
from tailmoments.asymptotics import (GammaResult, PiTestResult, _series_stats,
                                     _window, estimate_rv_index,
                                     has_incommensurable_pair, scale_plan)
from tailmoments.catalog import (load_tabulated, make_geometric_tail,
                                 make_inverse_log, make_log_pareto,
                                 make_pareto, make_st_petersburg)
from tailmoments.errors import (AdmissionError, ExtrapolationWarning,
                               IndeterminateError, InsufficientDataError,
                               TailMomentsError)
from tailmoments.moments import build_curve
from tailmoments.params import AnalysisParams
from tailmoments.verifier import ConditionVerdict, _judge, _verdict, verify


def test_interior_model_all_conditions_true():
    p = AnalysisParams(beta=2.0, x_max=1e8)
    r = verify(make_pareto(1.5, 1.0), p)
    assert r.regime == "interior"
    assert r.consistent is True
    assert r.violations == ()
    for cond in r.conditions.values():
        assert cond.verdict == "true"
    assert math.isclose(r.conditions["h_rv"].estimate, 0.5, abs_tol=0.01)
    assert math.isclose(r.conditions["f_rv"].estimate, -1.5, abs_tol=0.01)
    assert r.pi_result is None  # only probed in the rho = beta regime


def test_rho_zero_tolerates_failed_tail_condition():
    # the dyadic staircase: moment conditions hold, sf is not regularly
    # varying, and that combination is consistent at rho = 0
    p = AnalysisParams(beta=1.0, x_max=1e26)
    r = verify(make_st_petersburg(), p)
    assert r.regime == "rho_zero"
    assert r.conditions["f_rv"].verdict == "false"
    assert r.conditions["h_rv"].verdict == "true"
    assert r.consistent is True
    assert r.violations == ()


def test_rho_beta_biconditional_holds_for_de_haan_member():
    p = AnalysisParams(beta=1.0, x_max=1e15)
    r = verify(make_inverse_log(), p)
    assert r.regime == "rho_beta"
    assert r.pi_result is not None and r.pi_result.is_member
    assert r.conditions["v_rv"].verdict == "true"
    assert r.consistent is True


def test_false_verdict_implies_no_index():
    # f_rv is judged false here: the tail is not regularly varying, so its
    # estimate must not enter the index-agreement check (it used to report
    # "f_rv implies rho=0.1632 but h_rv implies rho=0.0150")
    p = AnalysisParams(beta=1.0, x_max=1e30)
    r = verify(make_geometric_tail(1.0, 10.0), p)
    assert r.regime == "rho_zero"
    assert r.conditions["f_rv"].verdict == "false"
    assert r.consistent is True
    assert r.violations == ()


@pytest.mark.parametrize("model, beta, ppd", [
    (make_st_petersburg(), 1.0, 64),
    (make_geometric_tail(0.5, 3.0), 0.5, 64),
    (make_inverse_log(), 1.0, 16),
    (make_log_pareto(0.5, 1.0), 1.0, 16),
    (make_pareto(0.5, 1.0), 1.0, 16),
], ids=lambda v: getattr(v, "name", None))
def test_verdicts_are_decided_at_the_float_range_edge(model, beta, ppd):
    # the window midpoint sqrt(lo * hi) overflowed past 1e154, which made
    # every trend inf and every convergence-based verdict undecided
    p = AnalysisParams(beta=beta, x_max=1e300, points_per_decade=ppd)
    r = verify(model, p)
    rho = model.ground_truth.rho_of(beta)
    assert r.regime == ("rho_zero" if rho == 0.0 else
                        "rho_beta" if rho == beta else "interior")
    assert r.consistent is True and r.violations == ()
    for name in ("h_rv", "v_rv", "lim1", "lim2"):
        assert r.conditions[name].verdict == "true"
    # a staircase's sf is log-periodic, every other one regularly varying
    staircase = model.name.startswith(("st_petersburg", "geometric"))
    assert r.conditions["f_rv"].verdict == ("false" if staircase else "true")


def test_indeterminate_regime_reports_none():
    p = AnalysisParams(beta=2.0, x_max=1e12)
    r = verify(make_geometric_tail(1.0, 2.0), p)
    assert r.regime == "indeterminate"
    assert r.consistent is None
    assert r.violations == ()


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_a_constant_tail_is_all_boundary_term(table_factory, beta):
    # sf = 1, held past the last row: v = 0 and h = u = x^beta everywhere, so
    # gamma is infinite, v has no estimate, and the de Haan ratio is nowhere
    # defined (its base step sf(e x) - sf(x / e) is 0), so no pi result
    m = load_tabulated(table_factory([(1.0, 1.0), (10.0, 1.0)]))
    params = AnalysisParams(beta=beta, x_max=1e12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        r = verify(m, params)
        with pytest.raises(IndeterminateError, match="undefined everywhere"):
            asymptotics.pi_class_test(m, params)
    assert r.regime == r.gamma.regime == "rho_beta"
    assert (r.gamma.gamma_hat, r.gamma.p_hat, r.gamma.rho_hat) == (
        math.inf, 0.0, beta)
    assert r.conditions["v_rv"] == ConditionVerdict(
        verdict="undecided", estimate=None, spread=math.inf)
    assert r.pi_result is None
    assert r.consistent is True and r.violations == ()


def test_inadmissible_model_raises_before_analysis():
    with pytest.raises(AdmissionError):
        verify(make_pareto(3.0, 1.0), AnalysisParams(beta=2.0))


def test_verify_accepts_precomputed_curve():
    p = AnalysisParams(beta=2.0, x_max=1e8)
    m = make_pareto(1.5, 1.0)
    c = build_curve(m, p)
    r1 = verify(m, p, curve=c)
    r2 = verify(m, p)
    assert r1.conditions["h_rv"] == r2.conditions["h_rv"]
    assert r1.consistent == r2.consistent


def test_verify_is_deterministic():
    p = AnalysisParams(beta=1.0, x_max=1e15)
    a = verify(make_inverse_log(), p)
    b = verify(make_inverse_log(), p)
    assert a == b


@pytest.mark.parametrize("model", [make_st_petersburg(), make_inverse_log()],
                         ids=lambda m: m.name)
def test_verify_builds_one_scale_plan_per_report(monkeypatch, model):
    # h, v and u share one grid; v's zeros at the support floor lie far
    # below the window, so all three estimates read one plan, in one pass
    plans, passes, estimates = [], [], []
    plan, stats = asymptotics.scale_plan, verifier.rv_statistics
    estimate = verifier.estimate_rv_index

    def counting_plan(*args):
        plans.append(args)
        return plan(*args)

    def counting_stats(*args):
        passes.append(args)
        return stats(*args)

    def counting_estimate(*args):
        estimates.append(args)
        return estimate(*args)

    for module in (asymptotics, verifier):
        monkeypatch.setattr(module, "scale_plan", counting_plan)
    monkeypatch.setattr(verifier, "rv_statistics", counting_stats)
    monkeypatch.setattr(verifier, "estimate_rv_index", counting_estimate)
    report = verify(model, AnalysisParams(beta=1.0, x_max=1e12))
    assert report.consistent is True
    assert (len(plans), len(passes), len(estimates)) == (1, 1, 0)
    assert len(passes[0][1]) == 3  # h, v and u as rows of one pass


def test_verify_judges_each_estimate_by_its_own_lambdas(monkeypatch):
    # v is 0 up to the support floor 2, inside this window: its estimate
    # plans its own samples, and its pairs decide for it; h and u read the
    # shared plan, and its pairs decide for them
    shared, plans, estimates, judged = [], [], [], []
    plan, estimate = asymptotics.scale_plan, verifier.estimate_rv_index
    monkeypatch.setattr(verifier, "scale_plan",
                        lambda *args: shared.append(plan(*args)) or shared[-1])
    monkeypatch.setattr(asymptotics, "scale_plan",
                        lambda *args: plans.append(1) or plan(*args))
    monkeypatch.setattr(verifier, "estimate_rv_index",
                        lambda *args: estimates.append(estimate(*args))
                        or estimates[-1])
    monkeypatch.setattr(verifier, "has_incommensurable_pair",
                        lambda lambdas: judged.append(lambdas) or True)
    verify(make_st_petersburg(), AnalysisParams(beta=1.0, x_max=1e12,
                                                window_decades=12.0))
    assert len(shared) == 1 and len(plans) == 1  # v's own plan
    assert len(estimates) == 1  # v's estimate, the only one off the pass
    own = [tuple(sorted(set(pairs.tolist())))
           for pairs in (shared[0].lam, estimates[0].per_scale.lam)]
    assert judged == [own[0], own[1], own[0]]


def test_verify_with_too_few_pairs_plans_no_series_of_its_own(monkeypatch):
    # no (lam, x) pair fits 0.3 decades, and a plan of a series' positive
    # samples holds no pair that the shared plan lacks: h, v and u are
    # undecided without an estimate of their own
    calls, estimate = [], verifier.estimate_rv_index
    monkeypatch.setattr(verifier, "estimate_rv_index",
                        lambda *args: calls.append(args) or estimate(*args))
    report = verify(make_pareto(1.5), AnalysisParams(beta=2.0, x_max=1e12,
                                                     window_decades=0.3))
    assert len(calls) == 0
    for name in ("h_rv", "v_rv", "f_rv"):
        assert report.conditions[name] == ConditionVerdict(
            verdict="undecided", estimate=None, spread=math.inf), name


def _conditions_one_by_one(model, params, curve):
    """The five verdicts as three estimate_rv_index calls and the share
    statistics of r1 compute them, one series at a time."""
    truncated = (len(model.breakpoints(*params.window())) < 2
                 and len(model.breakpoints(params.x_min, params.x_max)) >= 2)

    def rv(values, index_shift=0.0):
        try:
            est = estimate_rv_index(curve.grid, values, params)
        except InsufficientDataError:
            return ConditionVerdict(verdict="undecided", estimate=None,
                                    spread=math.inf)
        return _verdict(est.rho_hat + index_shift, est.spread, est.trend,
                        params, not truncated
                        and has_incommensurable_pair(est.lambdas))

    mean, spread, trend, _ = _series_stats(curve.grid, curve.r1,
                                           _window(curve.grid, params))
    lim1 = _verdict(mean, spread, trend, params, decidable=True)
    return (rv(curve.h), rv(curve.v), rv(curve.u, -params.beta), lim1,
            ConditionVerdict(verdict=lim1.verdict, estimate=1.0 - mean,
                             spread=spread))


_VERIFY_CASES = [(make_pareto(1.5), 2.0), (make_pareto(0.5), 1.0),
                 (make_pareto(1.0), 1.0), (make_log_pareto(0.5, 1.0), 1.0),
                 (make_st_petersburg(), 1.0), (make_geometric_tail(0.5, 3.0), 0.5),
                 (make_geometric_tail(1.0, 2.0), 2.0), (make_inverse_log(), 1.0),
                 (make_inverse_log(), 2.0)]


@given(case=st.sampled_from(_VERIFY_CASES),
       x_max=st.sampled_from([1e12, 1e15, 1e160, 1e250]),
       window=st.sampled_from([3.0, 0.05, 0.3, 12.0]),
       lambdas=st.sampled_from([(2.0, math.e, 3.0, 8.0), (2.0, 3.0), (4.0,)]),
       poke=st.one_of(st.none(), st.tuples(
           st.sampled_from(["h", "v", "u"]), st.integers(-1, 6),
           st.sampled_from([0.0, -1.0]))))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_one_pass_verdicts_are_those_of_the_series_one_by_one(
        case, x_max, window, lambdas, poke):
    # the stacked pass gives each series the bits of its own estimate; a
    # series with a non-positive sample where the plan reads it keeps its
    # own plan. Windows with fewer than 8 pairs and windows past 1e154,
    # where the trend split avoids lo * hi, are drawn too
    model, beta = case
    params = AnalysisParams(beta=beta, x_max=x_max, window_decades=window,
                            lambdas=lambdas)
    try:
        curve = build_curve(model, params)
    except TailMomentsError:
        assume(False)
    if poke is not None:
        name, offset, value = poke
        series = getattr(curve, name).copy()
        at = scale_plan(curve.grid, params).span.start + offset
        assume(0 <= at < len(series) - (name == "h"))  # h at x_max: admission
        series[at] = value
        curve = replace(curve, **{name: series})
    try:
        got = repr(tuple(verify(model, params, curve).conditions.values()))
    except AdmissionError:
        assume(False)
    except InsufficientDataError as exc:  # a window of fewer than 2 points
        got = repr(exc)
    try:
        want = repr(_conditions_one_by_one(model, params, curve))
    except InsufficientDataError as exc:
        want = repr(exc)
    assert got == want


def test_a_report_leaves_numpy_ma_unimported():
    # np.union1d and np.unique import numpy.ma on first use, which costs
    # ~10 ms and ~1.6 MB in every process that builds a curve
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    code = (
        "import sys, tailmoments as t\n"
        "for dist, beta, kw in (('st_petersburg', 1, {}), ('inverse_log', 1, {}),"
        " ('pareto', 2, {'alpha': '1.5'}), ('log_pareto', 1,"
        " {'alpha': '0.5', 'a': '1'}), ('geometric', 0.5,"
        " {'beta_g': '0.5', 'p': '3'})):\n"
        "    model = t.build_model(dist, **kw)\n"
        "    params = t.AnalysisParams(beta=beta, x_max=1e12)\n"
        "    t.verify(model, params, t.build_curve(model, params))\n"
        "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env, check=True)
    assert proc.stdout.strip() == "False"


def test_tabulated_power_tail_verifies_interior(power_table):
    m = load_tabulated(power_table)
    p = AnalysisParams(beta=1.0, x_max=1e12)
    r = verify(m, p)
    assert r.regime == "interior"
    assert r.consistent is True
    assert math.isclose(r.gamma.rho_hat, 0.7, abs_tol=0.03)


def test_log_pareto_interior_consistent():
    p = AnalysisParams(beta=1.0, x_max=1e12)
    r = verify(make_log_pareto(0.5, 1.0), p)
    assert r.regime == "interior"
    assert r.consistent is True


def test_wider_tolerance_cannot_create_violations():
    p_tight = AnalysisParams(beta=2.0, x_max=1e8, eps_rho=0.02)
    p_loose = AnalysisParams(beta=2.0, x_max=1e8, eps_rho=0.1)
    m = make_pareto(1.5, 1.0)
    r_tight = verify(m, p_tight)
    r_loose = verify(m, p_loose)
    assert len(r_loose.violations) <= len(r_tight.violations)
    assert r_loose.consistent is True


def test_package_exports_exactly_the_declared_names():
    assert sorted(tailmoments.__all__) == sorted([
        "AdmissionError", "AnalysisParams", "ConditionVerdict",
        "ConvergenceError", "DEFAULT_LAMBDAS", "ExtrapolationWarning",
        "GammaResult", "InconsistencyError", "IndeterminateError",
        "InsufficientDataError", "MODEL_REGISTRY", "ModelEvaluationError",
        "ModelValidationError", "MomentCurve", "PiTestResult", "RVEstimate",
        "TableFormatError", "TailModel", "TailMomentsError", "TheoremReport",
        "build_curve", "build_grid", "build_model", "check_admission",
        "compute_h", "compute_u", "curve_to_csv", "estimate_rv_index",
        "gamma_classification", "has_incommensurable_pair", "load_tabulated",
        "make_geometric_tail", "make_inverse_log", "make_log_pareto",
        "make_pareto", "make_st_petersburg", "pi_class_test", "verify"])
    assert all(hasattr(tailmoments, name) for name in tailmoments.__all__)


# ---------------------------------------------------------------------------
# equivalence ratio checks


@pytest.fixture
def check_asymptotic_equivalences(monkeypatch):
    """scripts/verify_catalog.py's ratio checks, loaded without writing to
    scripts/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "verify_catalog", os.path.join(root, "scripts", "verify_catalog.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_asymptotic_equivalences

def test_interior_equivalence_ratios(check_asymptotic_equivalences):
    p = AnalysisParams(beta=2.0, x_max=1e8)
    m = make_pareto(1.5, 1.0)
    c = build_curve(m, p)
    checks = check_asymptotic_equivalences(verify(m, p, c), c, p)
    assert len(checks) == 2
    assert all(ch.passed for ch in checks)
    by_name = {ch.name: ch for ch in checks}
    assert math.isclose(by_name["h/u -> beta/rho"].expected, 4.0, rel_tol=0.01)


def test_rho_zero_equivalence_ratios(check_asymptotic_equivalences):
    p = AnalysisParams(beta=1.0, x_max=1e26)
    m = make_st_petersburg()
    c = build_curve(m, p)
    checks = check_asymptotic_equivalences(verify(m, p, c), c, p)
    assert {ch.name for ch in checks} == {"h/v -> 1", "u/h -> 0"}
    assert all(ch.passed for ch in checks)


def test_rho_beta_equivalence_ratios(check_asymptotic_equivalences):
    p = AnalysisParams(beta=1.0, x_max=1e15)
    m = make_inverse_log()
    c = build_curve(m, p)
    checks = check_asymptotic_equivalences(verify(m, p, c), c, p)
    assert {ch.name for ch in checks} == {"h/u -> 1", "v/h -> 0"}
    assert all(ch.passed for ch in checks)


def test_indeterminate_regime_has_no_equivalence_checks(check_asymptotic_equivalences):
    p = AnalysisParams(beta=2.0, x_max=1e12)
    m = make_geometric_tail(1.0, 2.0)
    c = build_curve(m, p)
    checks = check_asymptotic_equivalences(verify(m, p, c), c, p)
    assert checks == []


# ---------------------------------------------------------------------------
# the consistency rules, on hand-built verdicts

_BETA2 = AnalysisParams(beta=2.0)  # regime band 0.2, eps_rho 0.02


def _conds(rho, beta=2.0, **verdicts):
    """Every condition at the estimate that implies rho; true unless given."""
    estimates = {"h_rv": rho, "v_rv": rho, "f_rv": rho - beta,
                 "lim1": rho / beta, "lim2": 1.0 - rho / beta}
    return {name: ConditionVerdict(verdict=verdicts.get(name, "true"),
                                   estimate=est, spread=0.0)
            for name, est in estimates.items()}


def _gamma(regime):
    return GammaResult(gamma_hat=1.0, p_hat=1.0, rho_hat=1.0, regime=regime)


def _pi(is_member):
    return PiTestResult(is_member=is_member, c_hat=1.0, n_skipped=0,
                        window=(1e9, 1e12), max_residual_rel=0.0,
                        ell_index_hat=None)


def test_judge_reports_index_disagreement_in_sorted_pairs():
    conds = _conds(0.5)
    conds["v_rv"] = ConditionVerdict(verdict="true", estimate=0.6, spread=0.0)
    assert _judge(conds, _gamma("interior"), None, _BETA2) == (False, (
        "index disagreement: f_rv implies rho=0.5000 but v_rv implies rho=0.6000",
        "index disagreement: h_rv implies rho=0.5000 but v_rv implies rho=0.6000",
        "index disagreement: lim1 implies rho=0.5000 but v_rv implies rho=0.6000",
        "index disagreement: lim2 implies rho=0.5000 but v_rv implies rho=0.6000",
    ))


def test_judge_agreeing_true_conditions_are_consistent():
    assert _judge(_conds(0.5), _gamma("interior"), None, _BETA2) == (True, ())


def test_judge_interior_flags_every_false_condition():
    conds = _conds(0.5, **dict.fromkeys(
        ("h_rv", "v_rv", "f_rv", "lim1", "lim2"), "false"))
    assert _judge(conds, _gamma("interior"), None, _BETA2) == (False, (
        "h_rv is false but every condition must hold for 0 < rho < beta",
        "v_rv is false but every condition must hold for 0 < rho < beta",
        "f_rv is false but every condition must hold for 0 < rho < beta",
        "lim1 is false but every condition must hold for 0 < rho < beta",
        "lim2 is false but every condition must hold for 0 < rho < beta",
    ))


def test_judge_rho_zero_flags_false_conditions_except_f_rv():
    conds = _conds(0.0, **dict.fromkeys(
        ("h_rv", "v_rv", "f_rv", "lim1", "lim2"), "false"))
    assert _judge(conds, _gamma("rho_zero"), None, _BETA2) == (False, (
        "h_rv is false but must hold at rho = 0",
        "v_rv is false but must hold at rho = 0",
        "lim1 is false but must hold at rho = 0",
        "lim2 is false but must hold at rho = 0",
    ))
    assert _judge(_conds(0.0, f_rv="false"), _gamma("rho_zero"), None,
                  _BETA2) == (True, ())


def test_judge_rho_beta_flags_false_conditions_except_v_rv():
    conds = _conds(2.0, **dict.fromkeys(
        ("h_rv", "v_rv", "f_rv", "lim1", "lim2"), "false"))
    assert _judge(conds, _gamma("rho_beta"), None, _BETA2) == (False, (
        "h_rv is false but must hold at rho = beta",
        "f_rv is false but must hold at rho = beta",
        "lim1 is false but must hold at rho = beta",
        "lim2 is false but must hold at rho = beta",
    ))
    assert _judge(_conds(2.0, v_rv="false"), _gamma("rho_beta"), None,
                  _BETA2) == (True, ())


def test_judge_rho_zero_flags_an_index_above_the_band():
    # f_rv is exempt from the band as well
    assert _judge(_conds(0.3), _gamma("rho_zero"), None, _BETA2) == (False, (
        "h_rv implies rho=0.3000, too large for the rho = 0 regime",
        "v_rv implies rho=0.3000, too large for the rho = 0 regime",
        "lim1 implies rho=0.3000, too large for the rho = 0 regime",
        "lim2 implies rho=0.3000, too large for the rho = 0 regime",
    ))


def test_judge_rho_beta_flags_an_index_below_the_band():
    # v_rv is exempt from the band as well
    assert _judge(_conds(1.7), _gamma("rho_beta"), None, _BETA2) == (False, (
        "h_rv implies rho=1.7000, too small for the rho = beta regime",
        "f_rv implies rho=1.7000, too small for the rho = beta regime",
        "lim1 implies rho=1.7000, too small for the rho = beta regime",
        "lim2 implies rho=1.7000, too small for the rho = beta regime",
    ))


@pytest.mark.parametrize("beta, regime, inside, outside, message", [
    # band + 2 eps_rho = 0.24000000000000002 at beta = 2
    (2.0, "rho_zero", 0.24000000000000002, 0.24000000000000005,
     "h_rv implies rho=0.2400, too large for the rho = 0 regime"),
    # beta - band - 2 eps_rho = 0.6799999999999999 at beta = 0.8, one ulp
    # below beta - (band + 2 eps_rho)
    (0.8, "rho_beta", 0.6799999999999999, 0.6799999999999998,
     "h_rv implies rho=0.6800, too small for the rho = beta regime"),
], ids=["rho_zero", "rho_beta"])
def test_judge_band_edges_are_exact(beta, regime, inside, outside, message):
    params = AnalysisParams(beta=beta)

    def only_h(rho):
        conds = dict.fromkeys(("h_rv", "v_rv", "f_rv", "lim1", "lim2"),
                              ConditionVerdict("undecided", None, 1.0))
        conds["h_rv"] = ConditionVerdict("true", rho, 0.0)
        return conds

    assert _judge(only_h(inside), _gamma(regime), None, params) == (True, ())
    assert _judge(only_h(outside), _gamma(regime), None, params) == (
        False, (message,))


@pytest.mark.parametrize("v_rv, is_member", [("true", False), ("false", True)])
def test_judge_de_haan_biconditional_violated(v_rv, is_member):
    assert _judge(_conds(2.0, v_rv=v_rv), _gamma("rho_beta"), _pi(is_member),
                  _BETA2) == (False, (
        "at rho = beta the Stieltjes moment is regularly varying iff the "
        f"survival function is in the de Haan class: v_rv={v_rv} but "
        f"membership={is_member}",))


@pytest.mark.parametrize("v_rv, pi", [
    ("true", _pi(True)),
    ("false", _pi(False)),
    ("undecided", _pi(False)),
    ("undecided", _pi(True)),
    ("true", None),
    ("false", None),
])
def test_judge_de_haan_biconditional_held_or_skipped(v_rv, pi):
    assert _judge(_conds(2.0, v_rv=v_rv), _gamma("rho_beta"), pi,
                  _BETA2) == (True, ())


def test_judge_orders_disagreement_falsity_band_and_de_haan():
    conds = _conds(2.0, h_rv="false")
    conds["f_rv"] = ConditionVerdict(verdict="true", estimate=-0.5, spread=0.0)
    assert _judge(conds, _gamma("rho_beta"), _pi(False), _BETA2) == (False, (
        "index disagreement: f_rv implies rho=1.5000 but lim1 implies rho=2.0000",
        "index disagreement: f_rv implies rho=1.5000 but lim2 implies rho=2.0000",
        "index disagreement: f_rv implies rho=1.5000 but v_rv implies rho=2.0000",
        "h_rv is false but must hold at rho = beta",
        "f_rv implies rho=1.5000, too small for the rho = beta regime",
        "at rho = beta the Stieltjes moment is regularly varying iff the "
        "survival function is in the de Haan class: v_rv=true but "
        "membership=False",
    ))


def test_judge_indeterminate_regime_judges_nothing():
    conds = _conds(0.5, h_rv="false")
    conds["v_rv"] = ConditionVerdict(verdict="true", estimate=0.9, spread=0.0)
    assert _judge(conds, _gamma("indeterminate"), _pi(False), _BETA2) == (
        None, ())


def test_critical_pareto_reports_its_index_disagreement():
    # the one decided contradiction the catalog reaches: v converges slowly
    # at the critical order and reads rho ~ 0.04 against f_rv's 0
    r = verify(make_pareto(1.0), AnalysisParams(beta=1.0, x_max=1e12))
    assert r.violations == (
        "index disagreement: f_rv implies rho=0.0000 but v_rv implies "
        "rho=0.0416",)
