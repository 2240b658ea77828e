import math

import pytest

from tailmoments.catalog import TailModel
from tailmoments.errors import ConvergenceError, ModelEvaluationError
from tailmoments.moments import compute_h
from tailmoments.quadrature import _MAX_INTERVALS, integrate_tail_piece


def test_constant_tail_gives_power_difference():
    # int_a^b beta y^(beta-1) dy = b^beta - a^beta
    value, err = integrate_tail_piece(lambda y: 1.0, 2.0, 1.0, 10.0)
    assert math.isclose(value, 99.0, rel_tol=1e-12)
    assert abs(value - 99.0) <= max(err, 1e-9)


def test_pure_power_tail_closed_form():
    # tail y^-1.5, beta 2: int beta y^(beta-1-1.5) dy = 2/0.5 (b^0.5 - a^0.5)
    value, _ = integrate_tail_piece(lambda y: y ** -1.5, 2.0, 1.0, 100.0)
    assert math.isclose(value, 4.0 * (10.0 - 1.0), rel_tol=1e-10)


def test_error_estimate_is_honest():
    exact = 4.0 * (10.0 - 1.0)
    value, err = integrate_tail_piece(lambda y: y ** -1.5, 2.0, 1.0, 100.0,
                                      rel_tol=1e-8)
    assert abs(value - exact) <= 10.0 * err + 1e-12 * exact


def test_tighter_tolerance_reduces_error():
    _, err_loose = integrate_tail_piece(lambda y: 1 / math.log(y), 1.0,
                                        3.0, 1e6, rel_tol=1e-6)
    _, err_tight = integrate_tail_piece(lambda y: 1 / math.log(y), 1.0,
                                        3.0, 1e6, rel_tol=1e-12)
    assert err_tight < err_loose


def test_empty_interval_is_zero():
    assert integrate_tail_piece(lambda y: 1.0, 1.0, 5.0, 5.0) == (0.0, 0.0)


def test_invalid_bounds_rejected():
    with pytest.raises(ModelEvaluationError):
        integrate_tail_piece(lambda y: 1.0, 1.0, 10.0, 5.0)
    with pytest.raises(ModelEvaluationError):
        integrate_tail_piece(lambda y: 1.0, 1.0, 0.0, 5.0)
    with pytest.raises(ModelEvaluationError):
        integrate_tail_piece(lambda y: 1.0, 1.0, 1.0, math.inf)


def test_non_finite_integrand_rejected():
    with pytest.raises(ModelEvaluationError):
        integrate_tail_piece(lambda y: math.nan, 1.0, 1.0, 10.0)


def test_budget_exhaustion_raises_with_partial_estimate():
    # ~160k oscillations per log-unit cannot be resolved within the budget
    def hostile(y):
        return 0.5 * (1.0 + math.sin(1e6 * math.log(y)))

    with pytest.raises(ConvergenceError) as exc:
        integrate_tail_piece(hostile, 1.0, 1.0, math.e, rel_tol=1e-12)
    assert exc.value.estimate is not None
    assert exc.value.err >= 0.0


def test_order_past_the_interval_budget_fails_before_evaluating():
    # ceil(beta * 10 / 4.6) segments over ten log-units; each accepts at
    # least one interval, so past the budget the run cannot converge
    below = 4.6 * _MAX_INTERVALS / 10.0 - 1.0
    # the weight e^(beta t) underflows to 0 here: one interval per segment
    assert integrate_tail_piece(lambda y: 1.0, below, math.exp(-20.0),
                                math.exp(-10.0)) == (0.0, 0.0)
    calls = []

    def tail(y):
        calls.append(y)
        return 1.0

    for beta in (below + 2.0, 1e300):
        with pytest.raises(ConvergenceError, match="interval budget"):
            integrate_tail_piece(tail, beta, math.exp(-20.0), math.exp(-10.0))
    assert calls == []


def test_tail_is_read_at_the_left_end_itself():
    # exp(ln a) rounds below a = 8.667, onto the left of this tail's jump at
    # its floor; reading sf there once skewed h(86.67) by 1.04e-6 against a
    # reported bound of 7.4e-8
    a = 8.667
    assert math.exp(math.log(a)) < a
    m = TailModel(name="jump-at-floor", support_floor=a,
                  tail=lambda y: 1.0 if y < a else 0.3)
    h, err = compute_h(m, 1.0, 86.67)
    assert abs(h - (a + 0.3 * (86.67 - a))) <= err
