import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probes import centered_pi_ratio
from tailmoments.asymptotics import (estimate_rv_index, gamma_classification,
                                     has_incommensurable_pair, pi_class_test)
from tailmoments.catalog import (make_geometric_tail, make_inverse_log,
                                 make_log_pareto, make_pareto,
                                 make_st_petersburg)
from tailmoments.errors import InsufficientDataError
from tailmoments.moments import build_curve
from tailmoments.params import AnalysisParams
from tailmoments.verifier import verify


# ---------------------------------------------------------------------------
# index estimation

def test_pure_power_index_recovered_exactly():
    p = AnalysisParams(beta=1.0, x_max=1e10)
    xs = np.geomspace(1.0, 1e10, 161)
    fs = xs ** 0.7
    est = estimate_rv_index(xs, fs, p)
    assert est.converged
    assert math.isclose(est.rho_hat, 0.7, abs_tol=1e-9)
    assert est.spread < 1e-9 and est.trend < 1e-9


def test_grid_matched_pairs_are_not_interpolated():
    p = AnalysisParams(beta=1.0, x_max=1e10, lambdas=(10.0,))
    xs = np.geomspace(1.0, 1e10, 161)  # contains every x * 10 exactly
    est = estimate_rv_index(xs, xs ** 0.3, p)
    assert not any(pt.interpolated for pt in est.per_scale)


def test_off_grid_scale_factor_interpolates():
    p = AnalysisParams(beta=1.0, x_max=1e10, lambdas=(2.5,))
    xs = np.geomspace(1.0, 1e10, 161)
    est = estimate_rv_index(xs, xs ** 0.3, p)
    assert all(pt.interpolated for pt in est.per_scale)
    assert math.isclose(est.rho_hat, 0.3, abs_tol=1e-6)


def test_slowly_varying_factor_converges_slowly_but_detectably():
    p = AnalysisParams(beta=1.0, x_max=1e12)
    xs = np.geomspace(1.0, 1e12, 193)
    fs = xs ** 0.5 * np.log(xs + math.e)
    est = estimate_rv_index(xs, fs, p)
    # log factor inflates the local index above 0.5 but the trend stays mild
    assert 0.5 < est.rho_hat < 0.55


def test_oscillating_samples_fail_convergence():
    p = AnalysisParams(beta=1.0, x_max=1e12)
    xs = np.geomspace(1.0, 1e12, 193)
    fs = np.exp(np.sin(2.0 * math.pi * np.log(xs) / math.log(100.0)))
    est = estimate_rv_index(xs, fs, p)
    assert not est.converged


def test_trend_is_finite_at_the_float_range_edge():
    # sqrt(lo * hi) overflows for this window; the split point must not
    p = AnalysisParams(beta=1.0, x_max=1e300)
    xs = np.geomspace(1e290, 1e300, 161)
    est = estimate_rv_index(xs, xs ** 0.5, p)
    assert est.converged
    assert est.trend < 1e-9


def test_too_few_points_raises():
    p = AnalysisParams(beta=1.0, x_min=1.0, x_max=10.0, window_decades=1.0)
    xs = np.geomspace(1.0, 10.0, 5)
    with pytest.raises(InsufficientDataError):
        estimate_rv_index(xs, xs ** 0.5, replace(p, lambdas=(8.0,)))


def test_zero_samples_are_dropped_not_fatal():
    p = AnalysisParams(beta=1.0, x_max=1e10)
    xs = np.geomspace(1.0, 1e10, 161)
    fs = xs ** 0.5
    fs[0] = 0.0  # a boundary zero must not poison the window
    est = estimate_rv_index(xs, fs, p)
    assert math.isclose(est.rho_hat, 0.5, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# aliasing and commensurability

def test_single_scale_factor_aliases_log_periodic_tail():
    # sampling the dyadic staircase weight at lambda = 2 sees a constant
    m = make_st_petersburg()
    xs = 2.0 ** (np.arange(0, 16 * 40 + 1) / 16.0)
    us = np.array([float(x) * m.tail(float(x)) for x in xs])
    p = AnalysisParams(beta=1.0, x_min=1.0, x_max=float(xs[-1]))
    est2 = estimate_rv_index(xs, us, replace(p, lambdas=(2.0,)))
    assert est2.converged
    assert abs(est2.rho_hat) < 1e-12


def test_second_incommensurable_scale_breaks_the_alias():
    m = make_st_petersburg()
    xs = 2.0 ** (np.arange(0, 16 * 40 + 1) / 16.0)
    us = np.array([float(x) * m.tail(float(x)) for x in xs])
    p = AnalysisParams(beta=1.0, x_min=1.0, x_max=float(xs[-1]))
    est23 = estimate_rv_index(xs, us, replace(p, lambdas=(2.0, 3.0)))
    assert not est23.converged
    assert est23.spread > 0.1


@pytest.mark.parametrize("lambdas,expected", [
    ((2.0,), False),              # single factor can never cross-check
    ((2.0, 4.0), False),          # log ratio exactly 1/2
    ((2.0, 8.0), False),          # log ratio exactly 1/3
    ((2.0, 3.0), True),
    ((2.0, math.e), True),
    ((2.0, math.e, 3.0, 8.0), True),
    ((2.0, 128.0), False),        # log ratio exactly 7, in either order
    ((128.0, 2.0), False),
])
def test_incommensurable_pair_detection(lambdas, expected):
    assert has_incommensurable_pair(lambdas) is expected


# ---------------------------------------------------------------------------
# de Haan class test

def test_inverse_log_is_de_haan_member():
    res = pi_class_test(make_inverse_log(), AnalysisParams(beta=1.0))
    assert res.is_member
    assert res.max_residual_rel < 0.02
    assert res.c_hat in (1.0, -1.0)


def test_pareto_is_not_de_haan_member():
    res = pi_class_test(make_pareto(1.5, 1.0), AnalysisParams(beta=2.0))
    assert not res.is_member
    # for a pure power the centered ratio is sinh(alpha ln lam)/sinh(alpha)
    assert res.max_residual_rel > 0.5


def test_pi_test_of_a_window_past_the_float_range():
    # hi / lo and x / x_floor overflow; the ratio of a pure power does not
    # depend on its floor, nor does the verdict
    params = AnalysisParams(beta=0.5, x_min=1e-300, x_max=1e300,
                            window_decades=400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = pi_class_test(make_pareto(0.5, x_floor=1e-300), params)
    ref = pi_class_test(make_pareto(0.5), params)
    assert not res.is_member
    assert res.window[1] / res.window[0] == math.inf
    assert math.isclose(res.max_residual_rel, ref.max_residual_rel,
                        rel_tol=0.0, abs_tol=1e-9)


def test_pareto_centered_ratio_matches_sinh_formula():
    alpha = 1.5
    m = make_pareto(alpha, 1.0)
    for lam in (2.0, 3.0, 8.0):
        want = math.sinh(alpha * math.log(lam)) / math.sinh(alpha)
        got = centered_pi_ratio(m.tail, 1e8, lam)
        assert math.isclose(got, want, rel_tol=1e-9), lam


def test_de_haan_auxiliary_index_diagnostic():
    # for sf = 1/ln x the auxiliary function decays like 1/(ln x)^2, whose
    # log-log slope over a finite window is a small negative number
    res = pi_class_test(make_inverse_log(), AnalysisParams(beta=1.0))
    assert res.ell_index_hat is not None
    assert -0.2 < res.ell_index_hat < 0.0
    # for a pure power the diagnostic recovers the tail index itself
    res_p = pi_class_test(make_pareto(1.5, 1.0), AnalysisParams(beta=2.0))
    assert math.isclose(res_p.ell_index_hat, -1.5, abs_tol=1e-3)


def test_de_haan_test_evaluates_each_tail_point_once():
    # 49 window points, each needing sf at x, e x, x/e and at lam x, x/lam
    # for the three scale factors other than e: 9 distinct points per x,
    # read by one tail call on all of them
    model = make_inverse_log()
    calls = []

    def counting_tail(x):
        calls.append(np.ravel(x))
        return model.tail(x)

    params = AnalysisParams(beta=1.0, x_max=1e15)
    res = pi_class_test(replace(model, tail=counting_tail), params)
    points = np.concatenate(calls)
    assert len(calls) == 1
    assert len(points) == len(np.unique(points)) == 441
    assert res == pi_class_test(model, params)


@given(scale=st.floats(0.1, 10.0), shift=st.floats(-0.5, 0.5),
       lam=st.floats(1.5, 9.0))
@settings(max_examples=40, deadline=None)
def test_centered_ratio_is_affine_invariant(scale, shift, lam):
    base = make_inverse_log().tail

    def affine(x):
        return shift + scale * base(x)

    x = 1e7
    r0 = centered_pi_ratio(base, x, lam)
    r1 = centered_pi_ratio(affine, x, lam)
    assert math.isclose(r0, r1, rel_tol=1e-7)


# ---------------------------------------------------------------------------
# limit shares and regime classification

def test_limit_ratio_r1_converges_for_pareto():
    c = build_curve(make_pareto(1.5, 1.0), AnalysisParams(beta=2.0, x_max=1e8))
    lim1 = verify(make_pareto(1.5, 1.0), AnalysisParams(beta=2.0, x_max=1e8),
                  c).conditions["lim1"]
    assert lim1.verdict == "true"
    assert math.isclose(lim1.estimate, 0.25, abs_tol=0.005)


def test_gamma_interior_for_pareto():
    p = AnalysisParams(beta=2.0, x_max=1e8)
    g = gamma_classification(build_curve(make_pareto(1.5, 1.0), p), p)
    assert g.regime == "interior"
    assert math.isclose(g.gamma_hat, 1.0 / 3.0, abs_tol=0.01)
    assert math.isclose(g.p_hat, 1.5, abs_tol=0.02)
    assert math.isclose(g.rho_hat, 0.5, abs_tol=0.02)


def test_gamma_rho_zero_for_dyadic_staircase():
    p = AnalysisParams(beta=1.0, x_max=1e26)
    g = gamma_classification(build_curve(make_st_petersburg(), p), p)
    assert g.regime == "rho_zero"
    assert g.rho_hat < 0.05


def test_gamma_rho_beta_for_slowly_varying_tail():
    p = AnalysisParams(beta=1.0, x_max=1e15)
    g = gamma_classification(build_curve(make_inverse_log(), p), p)
    assert g.regime == "rho_beta"
    assert g.rho_hat > 0.9
    assert g.gamma_hat > 10.0


def test_gamma_indeterminate_for_off_critical_staircase():
    p = AnalysisParams(beta=2.0, x_max=1e12)
    g = gamma_classification(build_curve(make_geometric_tail(1.0, 2.0), p), p)
    assert g.regime == "indeterminate"


@given(alpha=st.floats(0.3, 1.4))
@settings(max_examples=15, deadline=None)
def test_interior_index_tracks_alpha(alpha):
    beta = 2.0
    p = AnalysisParams(beta=beta, x_max=1e8)
    c = build_curve(make_pareto(alpha, 1.0), p)
    est = estimate_rv_index(c.grid, c.h, p)
    assert math.isclose(est.rho_hat, beta - alpha, abs_tol=0.02)


def test_log_pareto_index_includes_no_log_bias():
    # the log factor shifts local slopes by O(1/ln x): visible but small
    p = AnalysisParams(beta=1.0, x_max=1e12)
    c = build_curve(make_log_pareto(0.5, 1.0), p)
    est = estimate_rv_index(c.grid, c.h, p)
    assert abs(est.rho_hat - 0.5) < 0.06
