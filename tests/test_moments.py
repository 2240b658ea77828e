import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tailmoments.catalog as catalog
import tailmoments.moments as moments
from oracles import (atom_sum_v, geometric_atoms, geometric_hu,
                     inverse_log_h, law_hu, pareto_hu)
from tailmoments.catalog import (TailModel, _scalar_pow, load_tabulated,
                                 make_geometric_tail, make_inverse_log,
                                 make_log_pareto, make_pareto,
                                 make_st_petersburg)
from tailmoments.errors import (AdmissionError, ExtrapolationWarning,
                               InconsistencyError, ModelEvaluationError,
                               ModelValidationError)
from tailmoments.moments import (build_curve, build_grid, check_admission,
                                 compute_h, compute_u, curve_to_csv)
from tailmoments.params import AnalysisParams
from tailmoments.verifier import verify


# ---------------------------------------------------------------------------
# frozen closed-form values

def test_pareto_moment_textbook_values():
    # alpha=1.5, beta=2: h(x) = 1 + 4(sqrt(x) - 1), so h(100) = 37
    m = make_pareto(1.5, 1.0)
    h, _ = compute_h(m, 2.0, 100.0)
    assert math.isclose(h, 37.0, rel_tol=1e-10)
    assert math.isclose(h - compute_u(m, 2.0, 100.0), 27.0, rel_tol=1e-9)
    assert math.isclose(m.closed_form_h(2.0, 100.0), 37.0)
    assert math.isclose(m.closed_form_h(2.0, 10.0), 4.0 * math.sqrt(10.0) - 3.0)


def test_st_petersburg_moment_is_exact_integer():
    m = make_st_petersburg()
    for n in range(0, 41):
        h, _ = compute_h(m, 1.0, 2.0 ** n)
        assert h == n + 1.0  # bitwise: dyadic pieces sum without rounding


def test_st_petersburg_stieltjes_values():
    m = make_st_petersburg()
    h8, _ = compute_h(m, 1.0, 8.0)
    assert h8 - compute_u(m, 1.0, 8.0) == 3.0
    assert atom_sum_v(geometric_atoms(1.0, 2.0, m.support_floor, 8.0), 1.0) == 3.0
    # atoms at 2, 4, 8 with masses 1/2, 1/4, 1/8 give 1 + 1 + 1
    assert atom_sum_v(geometric_atoms(1.0, 2.0, m.support_floor, 7.9), 1.0) == 2.0


def test_inverse_log_quadrature_matches_closed_form():
    m = make_inverse_log()
    for beta in (0.5, 1.0, 2.0):
        for x in (10.0, 1e4, 1e10):
            hq, err = compute_h(m, beta, x)
            hc = float(inverse_log_h(beta, x))
            assert math.isclose(hq, hc, rel_tol=1e-9), (beta, x)


def test_head_below_support_floor_is_pure_power():
    m = make_inverse_log()
    h, err = compute_h(m, 2.0, 2.0)
    assert h == 4.0
    assert err < 1e-14


def test_v_clamps_tiny_negative_to_zero():
    m = make_pareto(1.5, 1.0)
    # at the support floor h = u exactly, and v must come out 0, not -1e-17
    h, _ = compute_h(m, 2.0, 1.0)
    assert h - compute_u(m, 2.0, 1.0) == 0.0


def test_curve_clamps_v_inside_its_error_budget():
    # a tail without pieces, one ulp above the pareto law: h(1) = 1 below
    # u(1) by 2^-52, inside the budget 2 (err + eps h), so v reads 0
    m = make_pareto(1.5, 1.0)
    m = replace(m, pieces=None,
                tail=lambda x, tail=m.tail: tail(x) * (1.0 + 2.0 ** -52))
    c = build_curve(m, AnalysisParams(beta=2.0, x_max=1e8))
    assert c.grid[0] == 1.0 and c.h[0] - c.u[0] < 0.0
    assert c.v[0] == 0.0
    assert (c.v >= 0.0).all()


def test_curve_v_beyond_its_error_budget_is_inconsistent():
    # pieces whose sf rises as x^0.5: u = x^2.5 outgrows h = 0.2 + 0.8 x^2.5,
    # and v = h - u is negative far beyond any rounding
    m = replace(make_pareto(1.5, 1.0), pieces=lambda lo, hi: (
        np.ones(1), np.ones(1), np.full(1, -0.5)))
    with pytest.raises(InconsistencyError, match="negative beyond the error budget"):
        build_curve(m, AnalysisParams(beta=2.0, x_max=1e8))


def test_u_is_boundary_term():
    m = make_pareto(2.0, 1.0)
    assert compute_u(m, 3.0, 10.0) == 10.0 ** 3 * 10.0 ** -2.0


def _piece_cases(table):
    """(model, beta, x_max) for each kind of piecewise-power model."""
    return [(make_pareto(1.5, 1.0), 2.0, 1e300),
            (make_st_petersburg(), 1.0, 1e300),
            (make_geometric_tail(0.5, 3.0), 0.5, 1e300),
            (load_tabulated(table), 1.0, 1e13)]


def test_curve_u_is_compute_u_bitwise(power_table):
    # u on the curve is read off the pieces, and so is the scalar tail
    for m, beta, x_max in _piece_cases(power_table):
        c = build_curve(m, AnalysisParams(beta=beta, x_max=x_max))
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0
            ref = np.array([compute_u(m, beta, x) for x in c.grid])
        finite = np.isfinite(ref)
        assert finite.sum() > 100, m.name
        assert (c.u[finite] == ref[finite]).all(), m.name


def test_tail_is_sfs_at_every_knot(power_table):
    for m, _, x_max in _piece_cases(power_table):
        knots, sfs, _ = m.pieces(m.support_floor, x_max)
        assert len(knots) >= 1
        assert [m.tail(k) for k in knots.tolist()] == sfs.tolist(), m.name


def test_curve_of_a_piece_model_calls_no_tail(power_table):
    for m, beta, x_max in _piece_cases(power_table):
        calls = []
        counted = replace(m, tail=lambda x, tail=m.tail: calls.append(x) or tail(x))
        build_curve(counted, AnalysisParams(beta=beta, x_max=x_max))
        assert calls == [], m.name


def test_curve_takes_each_scalar_power_once(monkeypatch):
    # x^beta once per grid point and once per knot: the staircase's h and u
    # both read them
    model, params = make_st_petersburg(), AnalysisParams(beta=1.0, x_max=1e300)
    powers, scalar_powers = [], moments._powers
    monkeypatch.setattr(moments, "_powers",
                        lambda xs, beta: powers.append(len(xs))
                        or scalar_powers(xs, beta))
    curve = build_curve(model, params)
    knots = model.pieces(model.support_floor, params.x_max)[0]
    assert 0 < sum(powers) <= len(curve.grid) + len(knots)


def test_curve_at_beta_one_leaves_a_tables_knots_as_they_are(power_table):
    # at beta = 1 the law's knot powers are the knots, a view of the table's
    # rows: no reader may write to them
    m = load_tabulated(power_table)
    knots = m.pieces(m.support_floor, 1e13)[0]
    rows = knots.copy()
    params = AnalysisParams(beta=1.0, x_max=1e13)
    first = build_curve(m, params)
    assert knots.tobytes() == rows.tobytes()
    assert build_curve(m, params).h.tobytes() == first.h.tobytes()


@pytest.mark.parametrize("model, beta, x_max, ppd, count", [
    (partial(make_pareto, 1.5), 2.0, 1e150, 64, 0),
    (partial(make_pareto, 1.5), 2.0, 1e300, 16, 0),
    (partial(make_geometric_tail, 0.5, 3.0), 0.5, 1e300, 64, 1256),
    (partial(make_st_petersburg), 1.0, 1e300, 64, 1992)])
def test_scalar_powers_are_the_laws_knots_only(monkeypatch, model, beta, x_max,
                                               ppd, count):
    # libm's pow takes only the knots p^k and levels p^(-beta_g k) of a
    # geometric law, which must be the floats _floor_log compares against,
    # once each from the floor to x_max; every per-point power is numpy's
    # vector power. The model is built here, so no earlier call has read it
    elements, scalar_pow = [], catalog._scalar_pow
    monkeypatch.setattr(catalog, "_scalar_pow", lambda base, exp:
                        elements.append(len(base)) or scalar_pow(base, exp))
    m, params = model(), AnalysisParams(beta=beta, x_max=x_max,
                                        points_per_decade=ppd)
    verify(m, params, build_curve(m, params))
    assert sum(elements) == count
    verify(m, params, build_curve(m, params))
    verify(m, replace(params, x_max=1e200))
    assert sum(elements) == count  # the held law serves both


def test_curve_and_report_read_the_law_once(power_table):
    # build_curve reads the pieces once, from the floor to x_max; verify asks
    # only the window, which holds two knots or more of these laws
    for m, beta, x_max in _piece_cases(power_table)[1:]:
        calls = []
        counted = replace(m, pieces=lambda lo, hi, pieces=m.pieces:
                          calls.append((lo, hi)) or pieces(lo, hi))
        params = AnalysisParams(beta=beta, x_max=x_max)
        curve = build_curve(counted, params)
        assert calls == [(m.support_floor, x_max)], m.name
        verify(counted, params, curve)
        assert calls[1:] == [params.window()], m.name


def test_a_subnormal_sf_factor_reads_u_through_logs():
    # sf = (floor / x)^a is a few subnormal steps above 0 at these points, so
    # x^beta sf kept no correct digit and v = h - u fell below its budget
    m = make_pareto(1.0, x_floor=1.4190658293037926e-293)
    curve = build_curve(m, AnalysisParams(
        beta=3.9546062993959388, x_min=3.48e-12, x_max=1.48e50,
        points_per_decade=8))
    assert (curve.v >= 0.0).all()
    m = make_pareto(1.5, x_floor=1.0106406955836432e-194)
    beta, x = 3.9940166744041674, 4.96861e21
    exact = pareto_hu(1.5, m.support_floor, beta, x)[1]
    assert abs(compute_u(m, beta, x) - exact) <= 1e-12 * exact


@pytest.mark.parametrize("a, floor, beta, x_min, x_max", [
    (2.0, 1.3049359484899368e-78, 3.954977381889196, 1e-80, 1e-30),
    (1.0, 1.0970716409787581e-144, 2.1502936407907667,
     6.253328187051272e-153, 7.025003778342339e-144)])
def test_a_subnormal_u_with_a_normal_sf_factor_keeps_its_linear_form(
        a, floor, beta, x_min, x_max):
    # x^beta is subnormal at the floor, where sf = 1: through logs u came out
    # a few subnormal steps above h, and v = h - u negative past its budget 0
    m = make_pareto(a, x_floor=floor)
    curve = build_curve(m, AnalysisParams(beta=beta, x_min=x_min, x_max=x_max,
                                          points_per_decade=8))
    assert (curve.v >= 0.0).all()
    assert (np.abs(curve.h - curve.v - curve.u) <= curve.quad_error).all()
    at = int(curve.grid.searchsorted(floor))
    assert curve.grid[at] == floor and curve.u[at] == curve.h[at]
    assert compute_u(m, beta, floor) == np.power(floor, beta)


def test_u_off_a_piece_law_with_a_subnormal_knot_power_is_read_through_logs():
    # x^beta overflows at x, so u is read off the piece law, whose level
    # floor^beta ~ 4e-317 is subnormal: the linear form was 1e-8 off
    a, floor = 1.7664782481190073, 1.5223113351322276e-108
    beta, x = 2.931427629102007, 1.7782794100389227e+123
    exact = pareto_hu(a, floor, beta, x)[1]
    assert abs(compute_u(make_pareto(a, x_floor=floor), beta, x)
               - exact) <= 1e-12 * exact


def test_h_whose_growth_factor_overflows_is_read_through_logs():
    # expm1((beta - a) ln(x / floor)) is inf under a factor of ~1e-68, while
    # h itself is a float
    m = make_pareto(1.0, x_floor=5.281280788021559e-31)
    beta, x = 2.253459789139046, 5.39686e215
    exact = pareto_hu(1.0, m.support_floor, beta, x)[0]
    h, err = compute_h(m, beta, x)
    assert abs(h - exact) <= 1e-12 * exact
    assert abs(h - exact) <= err
    curve = build_curve(m, AnalysisParams(beta=beta, x_max=8.285e247))
    assert curve.grid[-1] == 8.285e247 and np.isfinite(curve.h).all()


def test_u_past_the_float_range_of_x_beta_is_read_off_its_piece():
    # 1e200 ** 2 overflows, but u = 1e200 ** 2 * 1e200 ** -1.5 = 1e100 does
    # not: compute_u forms it on the piece, as the curve does
    m = make_pareto(1.5, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert compute_u(m, 2.0, 1e200) == 1e100
        assert compute_u(m, 2.0, np.float64(1e200)) == 1e100


def test_table_curve_past_its_last_row_warns_once(power_table):
    m = load_tabulated(power_table)  # rows up to 1e13
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_curve(m, AnalysisParams(beta=1.0, x_max=1e15))
    assert [w.category for w in caught] == [ExtrapolationWarning]


@pytest.mark.parametrize("model, beta, x", [
    (make_st_petersburg(), 3.0, 1e300),  # h ~ x^2: ~1e600
    (make_pareto(0.5, 1.0), 1e300, 10.0),
    (make_inverse_log(), 1100.0, 2.0),  # below the floor: 2^1100
])
def test_compute_h_past_the_float_range_is_an_error(model, beta, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelEvaluationError, match="leaves the float range"):
            compute_h(model, beta, x)


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


@pytest.mark.parametrize("model, params, message", [
    (make_st_petersburg(), AnalysisParams(beta=1.0, x_min=1e-300, x_max=1e-200),
     "the span [1e-300, 1e-200] ends at or below the support floor 2 of "
     "model 'st_petersburg': it never reaches the tail"),
    (make_inverse_log(), AnalysisParams(beta=1.0, x_max=2.0),
     "the span [1, 2] ends at or below the support floor 2.71828 of model "
     "'inverse_log': it never reaches the tail"),
])
def test_admission_rejects_a_span_that_never_reaches_the_tail(model, params,
                                                              message):
    # h(x_lo) lay off the curve, past x_max: "looks like it has a finite
    # moment" for a staircase whose moment is infinite
    calls = []
    counted = replace(model, tail=lambda x: calls.append(x) or model.tail(x),
                      pieces=model.pieces and (lambda lo, hi: calls.append(
                          (lo, hi)) or model.pieces(lo, hi)))
    with pytest.raises(AdmissionError) as exc:
        check_admission(counted, params)
    assert str(exc.value) == message and calls == []
    with pytest.raises(AdmissionError, match="never reaches the tail"):
        build_curve(model, params)


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
    # the floor is a kink even for a model without pieces, so the admission
    # point max(x_min, floor) is always on the grid
    m = TailModel(name="floor-only", support_floor=7.5,
                  tail=lambda x: np.where(x <= 7.5, 1.0, 7.5 / x))
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
    # kinks on top of geometric grid points, off by at most 1e-9; those at
    # or below the floor are no knots of the pieces
    kinks = kinks + [10.0 ** (k / ppd) * (1.0 + eps) for k, eps in near
                     if k <= 6 * ppd]
    knots = np.unique([floor] + [b for b in kinks if b > floor])

    def pieces(lo, hi):
        i = max(int(np.searchsorted(knots, lo, side="right")) - 1, 0)
        j = int(np.searchsorted(knots, hi, side="right"))
        return knots[i:j], np.ones(j - i), np.zeros(j - i)

    m = TailModel(name="kinks", support_floor=floor, tail=lambda x: 1.0,
                  pieces=pieces)
    grid = build_grid(m, p)
    assert grid.dtype == np.float64
    assert (np.diff(grid) > 0).all()
    assert grid[0] == 1.0 and grid[-1] == 1e6
    inside = np.array([b for b in knots if 1.0 <= b <= 1e6])
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


def test_grid_ends_exactly_at_x_max():
    # 10**(17/11) by numpy's vector power lands one ulp past this x_max, and
    # the grid once ended ...847, ...85
    x_max = 187.38174228603847
    grid = build_grid(make_pareto(1.5), AnalysisParams(
        beta=2.0, x_max=x_max, points_per_decade=11))
    assert grid[-1] == x_max and x_max - grid[-2] > 1e-9 * x_max


#: every positive finite double, subnormals included
_DOUBLES = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


@st.composite
def _spans(draw):
    """(x_min, x_max, ppd): any two doubles, or x_max the geometric grid
    point x_min * 10**(k/ppd) as build_grid forms it, or a float neighbour."""
    ppd = draw(st.integers(8, 64))
    x_min = draw(_DOUBLES)
    if draw(st.booleans()):
        x_min, x_max = sorted((x_min, draw(_DOUBLES)))
    else:
        k = draw(st.integers(1, 400))
        with np.errstate(over="ignore"):
            x_max = float((x_min * 10.0 ** (np.arange(1, k + 1) / ppd))[-1])
        x_max = float(np.nextafter(x_max, draw(st.sampled_from(
            (0.0, x_max, math.inf)))))
    assume(x_min < x_max < math.inf)
    return x_min, x_max, ppd


@given(span=_spans(), window=st.floats(0.0, 1000.0, exclude_min=True),
       model=st.sampled_from((make_pareto(1.5), make_inverse_log())))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_grid_and_window_stay_inside_any_span(span, window, model):
    x_min, x_max, ppd = span
    p = AnalysisParams(beta=1.0, x_min=x_min, x_max=x_max,
                       points_per_decade=ppd, window_decades=window)
    lo, hi = p.window()
    assert x_min <= lo <= hi == x_max
    if not math.isfinite(x_max / x_min):
        with pytest.raises(ModelValidationError, match="span"):
            build_grid(model, p)
        return
    grid = build_grid(model, p)
    assert grid[0] == x_min and grid[-1] == x_max
    assert (np.diff(grid) > 0).all()
    # a point that is no kink keeps more than 1e-9 from both neighbours
    kinks = [*model.breakpoints(x_min, x_max), model.support_floor]
    free = np.flatnonzero(~np.isin(grid[1:-1], kinks)) + 1
    assert (grid[free] - grid[free - 1] > 1e-9 * grid[free - 1]).all()
    assert (grid[free + 1] - grid[free] > 1e-9 * grid[free + 1]).all()


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


# pareto takes the exact piece path; inverse_log runs the quadrature
_SMOOTH_CASES = pytest.mark.parametrize("model, beta, x_max, exact_h", [
    (make_pareto(1.5, 1.0), 2.0, 1e8,
     lambda b, x: pareto_hu(1.5, 1.0, b, x)[0]),
    (make_inverse_log(), 1.0, 1e15, inverse_log_h),
    (make_inverse_log(), 2.0, 1e15, inverse_log_h),
], ids=["pareto-1.5-b2", "inverse_log-b1", "inverse_log-b2"])


@_SMOOTH_CASES
def test_smooth_curve_matches_fresh_computation(model, beta, x_max, exact_h):
    p = AnalysisParams(beta=beta, x_max=x_max)
    c = build_curve(model, p)
    fresh = np.array([compute_h(model, beta, float(x))[0] for x in c.grid])
    assert np.allclose(c.h, fresh, rtol=1e-9)


@_SMOOTH_CASES
def test_curve_quadrature_error_brackets_truth(model, beta, x_max, exact_h):
    c = build_curve(model, AnalysisParams(beta=beta, x_max=x_max))
    truth = np.array([float(exact_h(beta, x)) for x in c.grid.tolist()])
    assert (np.abs(c.h - truth) <= 10.0 * c.quad_error + 1e-13 * truth).all()


def _mp_log_pareto_h(beta, x):
    """h(x) of log_pareto(0.5, 1) at beta = 1 to 40 digits, from the floor
    x0 = e^2 and the normalisation c = x0^0.5 / ln x0 as the model rounds
    them: beta c int y^-0.5 ln y dy = c y^0.5 (2 ln y - 4)."""
    x0 = make_log_pareto(0.5, 1.0).support_floor
    c = mpmath.mpf(x0 ** 0.5 / math.log(x0))
    x, x0 = mpmath.mpf(x), mpmath.mpf(x0)
    if x <= x0:
        return x

    def antiderivative(y):
        return c * mpmath.sqrt(y) * (2 * mpmath.log(y) - 4)

    return x0 + antiderivative(x) - antiderivative(x0)


@pytest.mark.parametrize("model, beta, x_max, exact_h", [
    (make_inverse_log(), 1.0, 1e300, inverse_log_h),
    (make_inverse_log(), 2.0, 1e150, inverse_log_h),
    (make_log_pareto(0.5, 1.0), 1.0, 1e300, _mp_log_pareto_h),
], ids=["inverse_log-b1-1e300", "inverse_log-b2-1e150", "log_pareto-b1-1e300"])
def test_curve_quadrature_error_bounds_the_mpmath_truth(model, beta, x_max,
                                                       exact_h):
    # no factor and no slack: the bound must hold as reported
    c = build_curve(model, AnalysisParams(beta=beta, x_max=x_max))
    with mpmath.workdps(40):
        for i in np.linspace(0, len(c.grid) - 1, 30).astype(int).tolist():
            x = float(c.grid[i])
            truth = exact_h(beta, x)
            assert abs(mpmath.mpf(float(c.h[i])) - truth) <= c.quad_error[i], x


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
        assert math.isclose(h, pareto_hu(alpha, 1.0, beta, x)[0], rel_tol=1e-8)


@st.composite
def _points_and_knots(draw):
    """Increasing points, and knots on them, between them, below the first
    and above the last."""
    xs = np.unique(draw(st.lists(st.floats(1.0, 1e6), min_size=1,
                                 max_size=40)))
    on = draw(st.lists(st.sampled_from(xs.tolist()), max_size=10))
    off = draw(st.lists(st.floats(0.1, 1e7), max_size=10))
    return xs, np.unique(np.array(on + off, dtype=float))


@given(case=_points_and_knots(),
       beta=st.sampled_from((0.5, 1.0, 2.0)) | st.floats(0.1, 3.0))
@settings(max_examples=200, deadline=None)
def test_law_reads_each_piece_and_knot_power_off_the_points(case, beta):
    xs, knots = case
    m = TailModel(name="knots", support_floor=0.05, tail=lambda x: 1.0,
                  pieces=lambda lo, hi: (knots, np.ones(len(knots)),
                                         np.zeros(len(knots))))
    xs_pow, (_, _, _, j, pows) = moments._read_law(m, beta, xs)
    assert xs_pow.tobytes() == moments._powers(xs, beta).tobytes()
    assert (j == np.searchsorted(knots, xs, side="right") - 1).all()
    assert pows.tobytes() == moments._powers(knots, beta).tobytes()


@given(case=st.sampled_from([(make_st_petersburg(), 2.0),
                             (make_geometric_tail(0.5, 3.0), 1.0),
                             (make_geometric_tail(0.5, 3.0), 0.7),
                             (make_pareto(1.5, 1.0), 2.0)]),
       decades=st.floats(0.0, 40.0))
@settings(max_examples=25, deadline=None)
def test_curve_above_the_floor_is_compute_h_and_u_bitwise(case, decades):
    # x_min above the floor: the pieces below it still count in h
    m, beta = case
    x_min = m.support_floor * 10.0 ** decades
    c = build_curve(m, AnalysisParams(beta=beta, x_min=x_min,
                                      x_max=x_min * 1e8))
    fresh = [compute_h(m, beta, x) for x in c.grid.tolist()]
    assert c.h.tobytes() == np.array([h for h, _ in fresh]).tobytes()
    assert c.quad_error.tobytes() == np.array([e for _, e in fresh]).tobytes()
    assert c.u.tobytes() == np.array([compute_u(m, beta, x)
                                      for x in c.grid.tolist()]).tobytes()


@given(xs=st.lists(st.floats(5e-324, np.finfo(float).max), max_size=50))
@settings(max_examples=50, deadline=None)
def test_power_one_is_the_scalar_power_bitwise(xs):
    # x ** 1 is x exactly: positive finite doubles, subnormals and every
    # power of 2 among them
    xs = np.array(xs + [2.0 ** k for k in range(-1074, 1024)]
                  + [5e-324, 1e-310, np.nextafter(2.0 ** -1022, 0.0)])
    ref = np.array([np.float64(x) ** 1.0 for x in xs])
    assert moments._powers(xs, 1.0).tobytes() == ref.tobytes()


_DBL_MAX = float(np.finfo(float).max)
_POSITIVE = st.floats(5e-324, _DBL_MAX)  # any positive double, subnormals too


def _numpy_float_powers(xs, exps):
    """np.float64(x) ** b one point at a time: the scalar power, inf past
    the float range."""
    with np.errstate(over="ignore"):
        return np.array([np.float64(x) ** np.float64(b)
                         for x, b in zip(xs, np.broadcast_to(exps, len(xs)))])


def _overflow_edge(beta):
    """DBL_MAX ** (1 / beta), where x ** beta leaves the float range (DBL_MAX
    where it never does), and its eight float neighbours either side."""
    with np.errstate(over="ignore"):
        down = up = min(float(np.float64(_DBL_MAX) ** (1.0 / beta)), _DBL_MAX)
        xs = [down]
        for _ in range(8):
            down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
            xs += [float(down), min(float(up), _DBL_MAX)]
    return xs


@given(xs=st.lists(_POSITIVE, max_size=50),
       beta=st.floats(0.0, 8.0, exclude_min=True)
       | st.sampled_from((0.5, 1.0, 2.0, 8.0)))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_scalar_powers_are_numpy_float_powers_bitwise(xs, beta):
    # the helper: libm's pow, bit for bit wherever the power is a float, up
    # to the overflow edge; _powers is the vector power, bit for bit
    xs = np.array(xs + _overflow_edge(beta) + [5e-324, 1.0, _DBL_MAX])
    ref = _numpy_float_powers(xs, beta)
    fin = np.isfinite(ref)
    assert (_scalar_pow(xs[fin], np.full(fin.sum(), beta)).tobytes()
            == ref[fin].tobytes())
    with np.errstate(over="ignore"):
        assert (moments._powers(xs, beta).tobytes()
                == np.power(xs, beta).tobytes())


@given(pairs=st.lists(st.tuples(_POSITIVE, st.floats(-8.0, 8.0)), max_size=50),
       beta=st.floats(0.0, 8.0, exclude_min=True))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_scalar_pow_takes_each_points_exponent_bitwise(pairs, beta):
    # per-point exponents, as a geometric law's levels -beta_g k are
    edge = _overflow_edge(beta)
    xs = np.array([x for x, _ in pairs] + edge)
    exps = np.array([b for _, b in pairs] + [beta] * len(edge))
    ref = _numpy_float_powers(xs, exps)
    fin = np.isfinite(ref)
    assert _scalar_pow(xs[fin], exps[fin]).tobytes() == ref[fin].tobytes()


#: the least exact value that rounds past DBL_MAX: DBL_MAX + half its ulp
_ROUNDS_TO_INF = mpmath.mpf(2) ** 1024 - mpmath.mpf(2) ** 970


@given(pairs=st.lists(st.tuples(_POSITIVE, st.floats(-8.0, 8.0)), max_size=30),
       beta=st.floats(0.0, 8.0, exclude_min=True)
       | st.sampled_from((0.5, 1.0, 2.0, 8.0)))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_vector_pow_is_numpy_power_within_an_ulp(pairs, beta):
    # per-point exponents, as the ratio powers take them, and one exponent
    # for all, as x^beta does (numpy's own paths at 0.5 and 2 included)
    edge = _overflow_edge(beta)
    xs = np.array([x for x, _ in pairs] + edge)
    for exps in (np.array([b for _, b in pairs] + [beta] * len(edge)), beta):
        per_point = np.ndim(exps) == 1
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            out = np.power(xs, exps)
            alone = [np.power(xs[i:i + 1], exps[i:i + 1] if per_point
                              else exps)[0] for i in range(len(xs))]
        with np.errstate(over="ignore"):
            assert out.tobytes() == np.power(xs, exps).tobytes()
        assert np.array(alone).tobytes() == out.tobytes()
        with mpmath.workdps(40):
            for x, b, y in zip(xs.tolist(),
                               np.broadcast_to(exps, len(xs)).tolist(),
                               out.tolist()):
                exact = mpmath.mpf(x) ** mpmath.mpf(b)
                assert (y == math.inf) == (exact >= _ROUNDS_TO_INF), (x, b)
                if sys.float_info.min <= y < math.inf:
                    assert abs(mpmath.mpf(y) - exact) <= math.ulp(y), (x, b)


def test_curve_past_the_quotient_range_matches_closed_form():
    # x / x_floor passes the float range from x ~ 2e8 on, where h ~ 1e-146:
    # the power pieces read ln x - ln x_floor there, with no warning
    m = make_pareto(0.5, x_floor=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = build_curve(m, AnalysisParams(beta=1.0, x_min=1e-5, x_max=1e300))
    with np.errstate(over="ignore"):
        assert (c.grid / m.support_floor == np.inf).sum() > 1000
    exact = np.array([float(pareto_hu(0.5, m.support_floor, 1.0, x)[0])
                      for x in c.grid.tolist()])
    assert (np.abs(c.h - exact) <= c.quad_error).all()
    assert (c.u > 0.0).all()


def test_u_and_h_past_the_quotient_range_are_read_through_logs():
    # 1e300 ** 1.1 and 1e300 / 1e-250 both overflow; u = x^1.1 / (x/x_i)
    # = 1e-220 and h ~ 1.1e-219 do not
    m, beta, x = make_pareto(1.0, x_floor=1e-250), 1.1, 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = compute_u(m, beta, x)
        h, err = compute_h(m, beta, x)
    h_exact, u_exact = pareto_hu(1.0, m.support_floor, beta, x)
    assert math.isclose(u, u_exact, rel_tol=1e-12)
    assert abs(h - h_exact) <= err


def test_h_past_the_quotient_range_of_a_falling_piece_has_a_finite_bound():
    # x / x_floor = 1e350 overflows under c = beta - a = -1, where the
    # linear g = expm1(cL) / c still reads 1 but its bound takes |cL| = inf
    m, beta, x = make_pareto(3.0, x_floor=1e-150), 2.0, 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, err = compute_h(m, beta, x)
    exact = pareto_hu(3.0, m.support_floor, beta, x)[0]
    assert abs(h - exact) <= err < 1e-11 * h


def test_a_law_of_normal_factors_reads_no_logs(monkeypatch, power_table):
    # the float-edge rule reads the law in logs only where a factor is not a
    # normal float: a point on its own knot (L = 0) is an exact 0, not one
    calls = []

    def spy(*args):
        calls.append(args)
        return catalog._log_law(*args)

    monkeypatch.setattr(moments, "_log_law", spy)
    c = build_curve(load_tabulated(power_table),
                    AnalysisParams(beta=1.0, x_max=1e12))
    assert np.isin(10.0 ** (np.arange(1, 12 * 8) / 8.0), c.grid).sum() > 50
    assert calls == []


def test_u_past_the_power_range_reads_no_logs_under_normal_factors(monkeypatch):
    # x^2 overflows and sf = x^-1.5 = 1e-375 underflows, but u is read off
    # the level x_floor^2 = 1 and the power (x / x_floor)^0.5 = 1e125, both
    # normal: no point of the curve is read through logs
    calls, log_law = [], catalog._log_law

    def spy(*args):
        calls.append(args)
        return log_law(*args)

    monkeypatch.setattr(catalog, "_log_law", spy)
    monkeypatch.setattr(moments, "_log_law", spy)
    m = make_pareto(1.5)
    assert compute_u(m, 2.0, 1e250) == 1e125
    c = build_curve(m, AnalysisParams(beta=2.0, x_max=1e300,
                                      points_per_decade=8))
    assert c.grid[-1] == 1e300 and calls == []


def test_u_past_the_power_range_with_a_subnormal_power_is_read_through_logs():
    # x^2 overflows; the level x_floor^2 = 1e200 is normal, but its power
    # (x / x_floor)^-2 ~ 6.6e-323 is subnormal, which read u 2% off
    m, beta, x = make_pareto(4.0, x_floor=1e100), 2.0, 1.2345e261
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = compute_u(m, beta, x)
    assert math.isclose(u, pareto_hu(4.0, m.support_floor, beta, x)[1], rel_tol=1e-12)


def test_u_where_x_beta_overflows_and_the_knot_power_underflows():
    # x^beta = inf and x_i^beta = 0: sf_i x_i^beta (x/x_i)^(beta-a) read
    # 0 * inf = nan; u ~ 4.85e146 is read through logs
    m, beta = make_pareto(1.5, x_floor=4.48245e-168), 3.220573633521796
    x = 1.40886e231
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = compute_u(m, beta, x)
    assert math.isclose(u, pareto_hu(1.5, m.support_floor, beta, x)[1], rel_tol=1e-12)
    assert math.isclose(u, 4.851997884909761e146, rel_tol=1e-12)


def test_u_where_the_pieces_sf_factor_underflows():
    # (x/x_i)^-1.5 ~ 1e-345 underflows under sf_i = 1, which read u = 0 and
    # r1 = 0; u = (x x_i)^1.5 ~ 1.9e-273 is a float, and r1 is 1/2
    m, beta, x = make_pareto(1.5, x_floor=1.29822e-206), 3.0, 1.18016e24
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = compute_u(m, beta, x)
        c = build_curve(m, AnalysisParams(beta=beta, x_max=x))
    assert math.isclose(u, pareto_hu(1.5, m.support_floor, beta, x)[1], rel_tol=1e-12)
    assert c.u[-1] == u
    assert abs(c.r1[-1] - 0.5) <= c.quad_error[-1] / c.h[-1]


@pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
def test_power_pieces_below_an_underflowed_knot_power_match_closed_form(beta):
    # 1e-300 ** beta underflows to 0, so sf x_i^beta beta expm1(...) / c
    # reads 0 or 0 * inf; the pieces are read through logs instead, and the
    # curve is a report, not a float-range error or an inconsistency
    m = make_pareto(0.5, x_floor=1e-300)
    params = AnalysisParams(beta=beta, x_min=1e-300, x_max=1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = build_curve(m, params)
        report = verify(m, params, c)
    assert report.regime == "interior" and report.consistent is True
    exact = np.array([float(pareto_hu(0.5, m.support_floor, beta, x)[0])
                      for x in c.grid.tolist()])
    assert (np.abs(c.h - exact) <= c.quad_error).all()
    assert [compute_h(m, beta, x) for x in c.grid[::50].tolist()] == list(
        zip(c.h[::50].tolist(), c.quad_error[::50].tolist()))
    if beta == 2.0:
        assert math.isclose(c.h[-1], 1.3333333333333333e-165, rel_tol=1e-12)


def test_power_pieces_below_a_subnormal_knot_power_hold_their_bound():
    # 1e-160 ** 2 = 1e-320 keeps 10 bits: the linear piece was off by 1e-5
    # of h against a bound of 1e-13; the log form holds a bound below 1e-11
    m = make_pareto(0.5, x_floor=1e-160)
    for x in (1e-100, 1e-10, 1.0):
        h, err = compute_h(m, 2.0, x)
        exact = pareto_hu(0.5, m.support_floor, 2.0, x)[0]
        assert abs(h - exact) <= err < 1e-11 * h


def test_a_point_on_a_knot_whose_power_underflows_has_a_finite_bound(
        table_factory):
    # x_i^2 underflows at every knot, so a point on one is a piece of length
    # 0 read through logs: its ln g = ln 0 made the bound 0 * inf = nan
    m = load_tabulated(table_factory(
        [(1e-200, 1.0), (1e-190, 0.5), (1e-180, 0.1), (1e-170, 0.01)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e-190, 1e-180):  # h < 1e-359: 0 and a few subnormal steps
            h, err = compute_h(m, 2.0, x)
            assert h == 0.0 and 0.0 < err <= 2.0 ** -1072


@pytest.mark.parametrize("rows, beta, x", [
    ([(1e-100, 1.0), (1e-90, 1e-50), (1e-80, 1e-55)], 3.0, 1e-85),
    ([(1e-200, 1.0), (1e-150, 1e-60), (1e-100, 1e-70)], 2.0, 1e-120)])
def test_power_pieces_whose_level_underflows_are_read_through_logs(
        table_factory, rows, beta, x):
    # sf_i x_i^beta beta (1e-50 1e-270 3, 1e-60 1e-300 2) underflows under
    # normal factors: the growth g scaled its few subnormal digits up, to an
    # h 11.8 times its bound off at 1e-85, and to h = 0 at 1e-120, where h
    # ~ 1.1e-306 and the curve was inconsistent
    m = load_tabulated(table_factory(rows))
    params = AnalysisParams(beta=beta, x_min=rows[0][0] / 10.0,
                            x_max=rows[-1][0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)  # verify's
        warnings.simplefilter("error", RuntimeWarning)  # numpy's float edge
        h, err = compute_h(m, beta, x)
        c = build_curve(m, params)
        verify(m, params, c)
    law = m.pieces(m.support_floor, params.x_max)
    [(h_exact, _)] = law_hu(*law, beta, [x])
    assert abs(mpmath.mpf(h) - h_exact) <= err < 1e-11 * h
    for k, (h_exact, u_exact) in enumerate(
            law_hu(*law, beta, c.grid.tolist())):
        if h_exact >= sys.float_info.min:
            assert abs(mpmath.mpf(c.h[k]) - h_exact) <= c.quad_error[k]
        if u_exact >= sys.float_info.min:
            assert abs(mpmath.mpf(c.u[k]) - u_exact) <= 1e-12 * u_exact


_FLOOR_1000 = math.exp((math.log(sys.float_info.max) - math.log(500.0)) / 1000.0)


@pytest.mark.parametrize("alpha, floor, beta, x", [
    # c L ~ 100 at c ~ 1e13: the rounding of L = ln(x / x_0) puts h 7e-9
    # off, 15,466 times a bound without its term
    (1.0, math.exp(-736.8 / 1e13), 1e13, math.exp(-736.8 / 1e13) * (1 + 1e-11)),
    # x_0^beta beta ~ 2 DBL_MAX, L ~ 1e-14: the rounding of L moves the
    # piece by ~1e-2 (1 / g), 155 times such a bound, whatever the sign of c
    (0.5, _FLOOR_1000, 1000.0, _FLOOR_1000 * (1 + 1e-14)),
    (1003.0, _FLOOR_1000, 1000.0, _FLOOR_1000 * (1 + 1e-14))])
def test_a_piece_read_through_logs_bounds_the_rounding_of_its_length(
        alpha, floor, beta, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, err = compute_h(make_pareto(alpha, x_floor=floor), beta, x)
    assert abs(mpmath.mpf(h) - pareto_hu(alpha, floor, beta, x)[0]) <= err < 1e-2 * h


@pytest.mark.parametrize("beta", [100.0, 1000.0])
def test_a_subnormal_level_under_a_normal_scaled_level_is_read_through_logs(
        beta):
    # x_0^beta = 3 TINY / beta is subnormal, and x_0^beta beta ~ 3 TINY is
    # normal: read linearly, the level's lost digits put h 1.29 (beta = 100)
    # and 3.57 (beta = 1000) bounds off; through logs, inside its bound
    floor = math.exp(math.log(3.0 * sys.float_info.min / beta) / beta)
    x = 1.5 * floor
    h, err = compute_h(make_pareto(beta - 0.5, x_floor=floor), beta, x)
    assert abs(mpmath.mpf(h) - pareto_hu(beta - 0.5, floor, beta, x)[0]) <= err


def test_u_on_a_flat_piece_with_a_subnormal_level_is_the_stated_level(
        table_factory):
    # past the last row the table holds its level 1e-310: u is 1e5 * 1e-310
    # as stated, not 9.999999999999578e-306 through logs
    m = load_tabulated(table_factory([(1.0, 1.0), (10.0, 1e-310)]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        assert compute_u(m, 1.0, 1e5) == 1e5 * 1e-310


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 16: the levels 2^(-1.5 k) are subnormal past ~2e205 and 0 "
    "past ~5.5e215, so the curve reads the float law's h, not the formula's"))
def test_staircase_levels_past_the_normal_range_are_the_formula():
    # the atom sum with exact levels: h = (2^1.5 - 1) 1023 + u, u = 2.601
    m = make_geometric_tail(1.5, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = build_curve(m, AnalysisParams(beta=1.5, x_min=1.0, x_max=1.7e308,
                                          points_per_decade=8))
    x = c.grid[-1]
    with mpmath.workdps(40):
        two, v, k = mpmath.mpf(2), mpmath.mpf(0), 1
        while two ** k <= x:  # the atom at 2^k drops the level by its jump
            v += two ** (1.5 * k) * (two ** (-1.5 * (k - 1)) - two ** (-1.5 * k))
            k += 1
        u = mpmath.mpf(x) ** 1.5 * two ** (-1.5 * (k - 1))
    assert abs(mpmath.mpf(c.h[-1]) - (u + v)) <= c.quad_error[-1]
    assert abs(mpmath.mpf(c.u[-1]) - u) <= 1e-12 * u


@pytest.mark.parametrize("model, beta_g, p, beta, x", [
    (make_st_petersburg(), 1.0, 2.0, 2.0, 1e300),
    (make_geometric_tail(1.0, 2.0), 1.0, 2.0, 2.0, 1e300),
    (make_geometric_tail(1.5, 2.0), 1.5, 2.0, 1.5, 1.7e308)])
def test_staircase_h_and_u_where_x_beta_overflows(model, beta_g, p, beta, x):
    # x^beta overflows (past 2^512 at beta = 2, 2^682.7 at 1.5), and the flat
    # pieces formed inf - inf; h and u are floats there, read through logs as
    # on power pieces. The levels 2^(-1.5 k) are 0 past k ~ 716, where u is
    # 0, not 0 * inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, err = compute_h(model, beta, x)
        u = compute_u(model, beta, x)
    [(h_exact, u_exact)] = geometric_hu(beta_g, p, beta, [x])
    assert abs(mpmath.mpf(h) - h_exact) <= err < 1e-11 * h
    assert math.isclose(u, u_exact, rel_tol=1e-12)


def test_u_below_the_floor_past_the_float_range_is_inf():
    # sf = 1 below the first knot, so u = x^beta (1e380, and 1.9^1200 ~ 1e334
    # with no knot in range) is not a float and is not read off any piece
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert compute_u(make_pareto(1.5, x_floor=1e200), 2.0, 1e190) == math.inf
        assert compute_u(make_st_petersburg(), 1200.0, 1.9) == math.inf


def test_shares_are_whole_where_x_beta_underflows():
    # below x ~ 1e-162, x^2 underflows and h = u = 0 there: the boundary term
    # is all of h, r1 = 1 and r2 = 0, with no 0 / 0 warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = build_curve(make_pareto(1.5),
                        AnalysisParams(beta=2.0, x_min=1e-200, x_max=1e12))
    zero = c.h == 0.0
    assert zero.sum() == 612
    assert (c.r1 + c.r2 == 1.0).all()
    assert (c.r1[zero] == 1.0).all() and (c.r2[zero] == 0.0).all()


@pytest.mark.parametrize("model, beta, x_max, columns", [
    (make_geometric_tail(0.5, 3.0), 0.5, 1e300, 9.0),
    (make_st_petersburg(), 1.0, 1e300, 8.1),
    (make_pareto(1.5), 2.0, 1e150, 15.0)])
def test_curve_allocation_peak_in_columns(model, beta, x_max, columns):
    # build_curve's traced peak, in columns of n floats: the curve's own 7
    # arrays and its kernels' temporaries. It is deterministic for a given
    # numpy; a kernel that builds more full-length temporaries shows here
    params = AnalysisParams(beta=beta, x_max=x_max, points_per_decade=64)
    n = len(build_curve(model, params).grid)
    tracemalloc.start()
    try:
        build_curve(model, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 7.0 < peak / (8.0 * n) <= columns


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
    v_direct = atom_sum_v(geometric_atoms(beta_g, p, m.support_floor, x), beta_g)
    u = compute_u(m, beta_g, x)
    assert abs(h - v_direct - u) <= max(64.0 * err, 1e-9 * h)
