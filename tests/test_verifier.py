import math

import pytest

from tailmoments.catalog import (load_tabulated, make_geometric_tail,
                                 make_inverse_log, make_log_pareto,
                                 make_pareto, make_st_petersburg)
from tailmoments.errors import AdmissionError
from tailmoments.moments import build_curve
from tailmoments.params import AnalysisParams
from tailmoments.verifier import (check_asymptotic_equivalences, verify)


def test_interior_model_all_conditions_true():
    p = AnalysisParams(beta=2.0, x_max=1e8)
    r = verify(make_pareto(1.5, 1.0), p)
    assert r.regime == "interior"
    assert r.consistent is True
    assert r.violations == ()
    for cond in (r.cond_h_rv, r.cond_v_rv, r.cond_f_rv, r.cond_lim1, r.cond_lim2):
        assert cond.verdict == "true"
    assert math.isclose(r.cond_h_rv.estimate, 0.5, abs_tol=0.01)
    assert math.isclose(r.cond_f_rv.estimate, -1.5, abs_tol=0.01)
    assert r.pi_result is None  # only probed in the rho = beta regime


def test_rho_zero_tolerates_failed_tail_condition():
    # the dyadic staircase: moment conditions hold, sf is not regularly
    # varying, and that combination is consistent at rho = 0
    p = AnalysisParams(beta=1.0, x_max=1e26)
    r = verify(make_st_petersburg(), p)
    assert r.regime == "rho_zero"
    assert r.cond_f_rv.verdict == "false"
    assert r.cond_h_rv.verdict == "true"
    assert r.consistent is True
    assert r.violations == ()


def test_rho_beta_biconditional_holds_for_de_haan_member():
    p = AnalysisParams(beta=1.0, x_max=1e15)
    r = verify(make_inverse_log(), p)
    assert r.regime == "rho_beta"
    assert r.pi_result is not None and r.pi_result.is_member
    assert r.cond_v_rv.verdict == "true"
    assert r.consistent is True


def test_false_verdict_implies_no_index():
    # f_rv is judged false here: the tail is not regularly varying, so its
    # estimate must not enter the index-agreement check (it used to report
    # "f_rv implies rho=0.1632 but h_rv implies rho=0.0150")
    p = AnalysisParams(beta=1.0, x_max=1e30)
    r = verify(make_geometric_tail(1.0, 10.0), p)
    assert r.regime == "rho_zero"
    assert r.cond_f_rv.verdict == "false"
    assert r.consistent is True
    assert r.violations == ()


def test_indeterminate_regime_reports_none():
    p = AnalysisParams(beta=2.0, x_max=1e12)
    r = verify(make_geometric_tail(1.0, 2.0), p)
    assert r.regime == "indeterminate"
    assert r.consistent is None
    assert r.violations == ()


def test_inadmissible_model_raises_before_analysis():
    with pytest.raises(AdmissionError):
        verify(make_pareto(3.0, 1.0), AnalysisParams(beta=2.0))


def test_verify_accepts_precomputed_curve():
    p = AnalysisParams(beta=2.0, x_max=1e8)
    m = make_pareto(1.5, 1.0)
    c = build_curve(m, p)
    r1 = verify(m, p, curve=c)
    r2 = verify(m, p)
    assert r1.cond_h_rv == r2.cond_h_rv
    assert r1.consistent == r2.consistent


def test_verify_is_deterministic():
    p = AnalysisParams(beta=1.0, x_max=1e15)
    a = verify(make_inverse_log(), p)
    b = verify(make_inverse_log(), p)
    assert a == b


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


# ---------------------------------------------------------------------------
# equivalence ratio checks

def test_interior_equivalence_ratios():
    p = AnalysisParams(beta=2.0, x_max=1e8)
    m = make_pareto(1.5, 1.0)
    c = build_curve(m, p)
    checks = check_asymptotic_equivalences(verify(m, p, c), c, p)
    assert len(checks) == 2
    assert all(ch.passed for ch in checks)
    by_name = {ch.name: ch for ch in checks}
    assert math.isclose(by_name["h/u -> beta/rho"].expected, 4.0, rel_tol=0.01)


def test_rho_zero_equivalence_ratios():
    p = AnalysisParams(beta=1.0, x_max=1e26)
    m = make_st_petersburg()
    c = build_curve(m, p)
    checks = check_asymptotic_equivalences(verify(m, p, c), c, p)
    assert {ch.name for ch in checks} == {"h/v -> 1", "u/h -> 0"}
    assert all(ch.passed for ch in checks)


def test_rho_beta_equivalence_ratios():
    p = AnalysisParams(beta=1.0, x_max=1e15)
    m = make_inverse_log()
    c = build_curve(m, p)
    checks = check_asymptotic_equivalences(verify(m, p, c), c, p)
    assert {ch.name for ch in checks} == {"h/u -> 1", "v/h -> 0"}
    assert all(ch.passed for ch in checks)


def test_indeterminate_regime_has_no_equivalence_checks():
    p = AnalysisParams(beta=2.0, x_max=1e12)
    m = make_geometric_tail(1.0, 2.0)
    c = build_curve(m, p)
    checks = check_asymptotic_equivalences(verify(m, p, c), c, p)
    assert checks == []
