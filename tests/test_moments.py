import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailmoments.catalog import (TailModel, load_tabulated, make_geometric_tail,
                                 make_inverse_log, make_log_pareto,
                                 make_pareto, make_st_petersburg)
from tailmoments.errors import AdmissionError, ModelEvaluationError
from tailmoments.moments import (build_curve, build_grid, check_admission,
                                 compute_h, compute_u, compute_v,
                                 curve_to_csv, stieltjes_v)
from tailmoments.params import AnalysisParams


# ---------------------------------------------------------------------------
# frozen closed-form values

def test_pareto_moment_textbook_values():
    # alpha=1.5, beta=2: h(x) = 1 + 4(sqrt(x) - 1), so h(100) = 37
    m = make_pareto(1.5, 1.0)
    h, err = compute_h(m, 2.0, 100.0)
    assert math.isclose(h, 37.0, rel_tol=1e-10)
    assert math.isclose(compute_v(m, 2.0, 100.0, h, err), 27.0, rel_tol=1e-9)
    assert math.isclose(m.closed_form_h(2.0, 100.0), 37.0)
    assert math.isclose(m.closed_form_h(2.0, 10.0), 4.0 * math.sqrt(10.0) - 3.0)


def test_st_petersburg_moment_is_exact_integer():
    m = make_st_petersburg()
    for n in range(0, 41):
        h, _ = compute_h(m, 1.0, 2.0 ** n)
        assert h == n + 1.0  # bitwise: dyadic pieces sum without rounding


def test_st_petersburg_stieltjes_values():
    m = make_st_petersburg()
    h8, e8 = compute_h(m, 1.0, 8.0)
    assert compute_v(m, 1.0, 8.0, h8, e8) == 3.0
    assert stieltjes_v(m, 1.0, 8.0) == 3.0
    # atoms at 2, 4, 8 with masses 1/2, 1/4, 1/8 give 1 + 1 + 1
    assert stieltjes_v(m, 1.0, 7.9) == 2.0


def test_inverse_log_quadrature_matches_closed_form():
    m = make_inverse_log()
    for beta in (0.5, 1.0, 2.0):
        for x in (10.0, 1e4, 1e10):
            hq, err = compute_h(m, beta, x)
            hc = m.closed_form_h(beta, x)
            assert math.isclose(hq, hc, rel_tol=1e-9), (beta, x)


def test_head_below_support_floor_is_pure_power():
    m = make_inverse_log()
    h, err = compute_h(m, 2.0, 2.0)
    assert h == 4.0
    assert err < 1e-14


def test_v_clamps_tiny_negative_to_zero():
    m = make_pareto(1.5, 1.0)
    # at the support floor h = u exactly, and v must come out 0, not -1e-17
    h, err = compute_h(m, 2.0, 1.0)
    assert compute_v(m, 2.0, 1.0, h, err) == 0.0


def test_u_is_boundary_term():
    m = make_pareto(2.0, 1.0)
    assert compute_u(m, 3.0, 10.0) == 10.0 ** 3 * 10.0 ** -2.0


def test_compute_h_rejects_bad_x():
    m = make_pareto(1.5, 1.0)
    with pytest.raises(ModelEvaluationError):
        compute_h(m, 2.0, 0.0)
    with pytest.raises(ModelEvaluationError):
        compute_h(m, 2.0, math.inf)


# ---------------------------------------------------------------------------
# admission

def test_admission_accepts_infinite_moment():
    check_admission(make_pareto(1.5, 1.0), AnalysisParams(beta=2.0))


def test_admission_rejects_finite_moment():
    with pytest.raises(AdmissionError):
        check_admission(make_pareto(3.0, 1.0), AnalysisParams(beta=2.0))


def test_admission_rejects_slow_growth_over_short_span():
    # the truncated moment of the dyadic staircase grows like log2(x):
    # over 4 decades that is not a factor of 10
    with pytest.raises(AdmissionError):
        check_admission(make_st_petersburg(), AnalysisParams(beta=1.0, x_max=1e4))
    check_admission(make_st_petersburg(), AnalysisParams(beta=1.0, x_max=1e12))


@pytest.mark.parametrize("model, params", [
    (make_pareto(1.5, 1.0), AnalysisParams(beta=2.0)),
    (make_pareto(3.0, 1.0), AnalysisParams(beta=2.0)),
    (make_st_petersburg(), AnalysisParams(beta=1.0, x_max=1e4)),
    (make_st_petersburg(), AnalysisParams(beta=1.0, x_max=1e12)),
    (make_pareto(1.5, 1.0), AnalysisParams(beta=2.0, x_min=10.0, x_max=1e3)),
    (make_inverse_log(), AnalysisParams(beta=1.0, x_max=2.0)),
])
def test_admission_read_off_curve_agrees_with_check_admission(model, params):
    # build_curve reads h(x_lo) and h(x_max) off its own h instead of
    # integrating again; it must accept and reject exactly the same pairs
    def admitted(fn):
        try:
            fn()
        except AdmissionError:
            return False
        return True

    direct = admitted(lambda: check_admission(model, params))
    assert admitted(lambda: build_curve(model, params)) == direct
    if direct:
        curve = build_curve(model, params)
        check_admission(model, params, curve)  # the verify(curve=...) route


# ---------------------------------------------------------------------------
# grid

def test_grid_spans_range_and_contains_breakpoints():
    m = make_inverse_log()
    p = AnalysisParams(beta=1.0, x_min=1.0, x_max=1e6)
    grid = build_grid(m, p)
    assert grid[0] == 1.0 and grid[-1] == 1e6
    assert (np.diff(grid) > 0).all()
    assert math.e in grid


def test_grid_snaps_near_coincident_breakpoints():
    # a breakpoint within 1e-9 of a grid point replaces it instead of
    # creating a near-duplicate pair
    m = make_pareto(1.0, 10.0 ** (1.0 / 16.0) * (1 + 1e-13))
    p = AnalysisParams(beta=2.0, x_min=1.0, x_max=1e4)
    grid = build_grid(m, p)
    assert (np.diff(grid) > 0).all()
    assert np.min(np.abs(grid - m.support_floor)) == 0.0


def test_grid_contains_support_floor():
    # the floor is a kink even when the model lists no breakpoint there, so
    # the admission point max(x_min, floor) is always on the grid
    m = TailModel(name="floor-only", support_floor=7.5,
                  tail=lambda x: 1.0 if x <= 7.5 else 7.5 / x)
    grid = build_grid(m, AnalysisParams(beta=2.0, x_max=1e4))
    assert 7.5 in grid


_KINK = st.floats(0.5, 2e6)


@given(kinks=st.lists(_KINK, max_size=30),
       near=st.lists(st.tuples(st.integers(0, 6 * 40),
                               st.floats(-1e-9, 1e-9)), max_size=10),
       floor=_KINK, ppd=st.integers(8, 40))
@settings(max_examples=200, deadline=None)
def test_grid_merge_properties(kinks, near, floor, ppd):
    p = AnalysisParams(beta=1.0, x_min=1.0, x_max=1e6, points_per_decade=ppd)
    # breakpoints on top of geometric grid points, off by at most 1e-9
    kinks = kinks + [10.0 ** (k / ppd) * (1.0 + eps) for k, eps in near
                     if k <= 6 * ppd]
    m = TailModel(name="kinks", support_floor=floor, tail=lambda x: 1.0,
                  breakpoints=lambda lo, hi: sorted(kinks))
    grid = build_grid(m, p)
    assert grid.dtype == np.float64
    assert (np.diff(grid) > 0).all()
    assert grid[0] == 1.0 and grid[-1] == 1e6
    inside = np.array([b for b in kinks + [floor] if 1.0 <= b <= 1e6])
    assert np.isin(inside, grid).all()
    # every other point keeps its distance from every kink
    for x in grid[1:-1]:
        if x not in inside and len(inside):
            assert (np.abs(inside - x) > 1e-9 * inside).all()


def test_grid_density_scales_with_points_per_decade():
    m = make_pareto(0.5, 1.0)
    p8 = AnalysisParams(beta=1.0, x_max=1e6, points_per_decade=8)
    p32 = AnalysisParams(beta=1.0, x_max=1e6, points_per_decade=32)
    assert len(build_grid(m, p32)) > 3 * len(build_grid(m, p8))


# ---------------------------------------------------------------------------
# curve

def test_curve_shares_sum_to_one_exactly():
    for model, beta in ((make_pareto(1.5, 1.0), 2.0),
                        (make_st_petersburg(), 1.0),
                        (make_inverse_log(), 1.0)):
        c = build_curve(model, AnalysisParams(beta=beta, x_max=1e8))
        assert ((c.r1 + c.r2) == 1.0).all()
        assert (c.r1 >= 0.0).all() and (c.r1 <= 1.0).all()


def test_curve_h_is_nondecreasing():
    for model, beta in ((make_pareto(1.5, 1.0), 2.0),
                        (make_st_petersburg(), 1.0),
                        (make_log_pareto(0.5, 1.0), 1.0)):
        c = build_curve(model, AnalysisParams(beta=beta, x_max=1e8))
        assert (np.diff(c.h) >= 0).all()


def test_curve_v_nondecreasing_within_error():
    c = build_curve(make_pareto(1.5, 1.0), AnalysisParams(beta=2.0, x_max=1e8))
    slack = 2.0 * (c.quad_error[1:] + c.quad_error[:-1])
    assert (np.diff(c.v) >= -slack).all()


def test_piecewise_curve_matches_fresh_computation_bitwise():
    m = make_st_petersburg()
    p = AnalysisParams(beta=1.0, x_max=2.0 ** 40)
    c = build_curve(m, p)
    fresh = np.array([compute_h(m, 1.0, float(x))[0] for x in c.grid])
    assert (c.h == fresh).all()


def test_piecewise_curve_above_breakpoints_matches_fresh_computation():
    # x_min = 100 leaves the atoms at 2, 4, ..., 64 below the grid; the
    # curve must still count them
    m = make_st_petersburg()
    p = AnalysisParams(beta=1.0, x_min=100.0, x_max=2.0 ** 200)
    c = build_curve(m, p)
    fresh = np.array([compute_h(m, 1.0, float(x))[0] for x in c.grid])
    assert (c.h == fresh).all()


def test_smooth_curve_matches_fresh_computation():
    m = make_pareto(1.5, 1.0)
    p = AnalysisParams(beta=2.0, x_max=1e8)
    c = build_curve(m, p)
    fresh = np.array([compute_h(m, 2.0, float(x))[0] for x in c.grid])
    assert np.allclose(c.h, fresh, rtol=1e-9)


def test_curve_quadrature_error_brackets_truth():
    m = make_pareto(1.5, 1.0)
    c = build_curve(m, AnalysisParams(beta=2.0, x_max=1e8))
    truth = np.array([m.closed_form_h(2.0, float(x)) for x in c.grid])
    assert (np.abs(c.h - truth) <= 10.0 * c.quad_error + 1e-13 * truth).all()


def test_curve_inadmissible_model_raises():
    with pytest.raises(AdmissionError):
        build_curve(make_pareto(3.0, 1.0), AnalysisParams(beta=2.0))


def test_tabulated_curve_identity(power_table):
    m = load_tabulated(power_table)
    p = AnalysisParams(beta=1.0, x_max=1e12)
    c = build_curve(m, p)
    fresh_h = np.array([compute_h(m, 1.0, float(x))[0] for x in c.grid])
    assert np.allclose(c.h, fresh_h, rtol=1e-8)


def test_csv_round_trips_full_precision():
    m = make_pareto(1.5, 1.0)
    c = build_curve(m, AnalysisParams(beta=2.0, x_max=1e4))
    text = curve_to_csv(c)
    lines = text.strip().split("\n")
    assert lines[0] == "x,h,v,u,r1,r2,quad_error"
    parsed = np.array([[float(f) for f in line.split(",")] for line in lines[1:]])
    assert (parsed[:, 0] == c.grid).all()
    assert (parsed[:, 1] == c.h).all()
    assert (parsed[:, 5] == c.r2).all()


# ---------------------------------------------------------------------------
# properties

@given(alpha=st.floats(0.2, 2.5), gap=st.floats(0.2, 2.0))
@settings(max_examples=25, deadline=None)
def test_pareto_moment_matches_closed_form_everywhere(alpha, gap):
    beta = alpha + gap  # infinite moment guaranteed
    m = make_pareto(alpha, 1.0)
    for x in (3.7, 123.4, 1e6):
        h, err = compute_h(m, beta, x, rel_tol=1e-10)
        assert math.isclose(h, m.closed_form_h(beta, x), rel_tol=1e-8)


@given(n=st.integers(1, 300), k=st.integers(0, 15))
@settings(max_examples=50, deadline=None)
def test_dyadic_tail_weight_is_exactly_periodic(n, k):
    # u(2x) == u(x) exactly in floats: doubling x shifts the exponent while
    # the staircase halves, and both operations are exact
    m = make_st_petersburg()
    x = 2.0 ** n * (1.0 + k / 16.0)
    assert compute_u(m, 1.0, 2.0 * x) == compute_u(m, 1.0, x)


@given(beta_g=st.floats(0.5, 2.0), p=st.floats(1.5, 4.0),
       n=st.integers(2, 30))
@settings(max_examples=25, deadline=None)
def test_geometric_identity_h_equals_u_plus_atoms(beta_g, p, n):
    m = make_geometric_tail(beta_g, p)
    x = p ** n * 1.37
    h, err = compute_h(m, beta_g, x)
    v_direct = stieltjes_v(m, beta_g, x)
    u = compute_u(m, beta_g, x)
    assert abs(h - v_direct - u) <= max(64.0 * err, 1e-9 * h)
