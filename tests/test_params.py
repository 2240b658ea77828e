import math

import pytest

from tailmoments import params
from tailmoments.errors import ModelValidationError
from tailmoments.params import DEFAULT_LAMBDAS, MAX_POINTS, AnalysisParams


def test_defaults_are_sane():
    p = AnalysisParams(beta=1.0)
    assert p.lambdas == DEFAULT_LAMBDAS
    assert p.x_min == 1.0 and p.x_max == 1e12
    assert p.points_per_decade == 16


def test_window_spans_top_decades():
    p = AnalysisParams(beta=1.0, x_max=1e12, window_decades=3.0)
    lo, hi = p.window()
    assert hi == 1e12
    assert math.isclose(lo, 1e9)


def test_window_clamped_to_x_min():
    p = AnalysisParams(beta=1.0, x_min=100.0, x_max=1e4, window_decades=5.0)
    lo, hi = p.window()
    assert lo == 100.0 and hi == 1e4


def test_lambdas_coerced_to_floats():
    p = AnalysisParams(beta=1.0, lambdas=[2, 3])
    assert p.lambdas == (2.0, 3.0)
    assert all(isinstance(l, float) for l in p.lambdas)


@pytest.mark.parametrize("kwargs", [
    {"beta": 0.0},
    {"beta": -1.0},
    {"beta": math.inf},
    {"beta": 1.0, "lambdas": ()},
    {"beta": 1.0, "lambdas": (1.0,)},
    {"beta": 1.0, "lambdas": (0.5, 2.0)},
    {"beta": 1.0, "x_min": 0.0},
    {"beta": 1.0, "x_min": 10.0, "x_max": 5.0},
    {"beta": 1.0, "x_max": math.inf},
    {"beta": 1.0, "points_per_decade": 4},
    {"beta": 1.0, "rel_tol": 0.0},
    {"beta": 1.0, "rel_tol": 1e-3},
    {"beta": 1.0, "rel_tol": 1e-14},
    {"beta": 1.0, "eps_rho": 0.0},
    {"beta": 1.0, "window_decades": 0.0},
    {"beta": 1.0, "spread_tol": 0.0},
    {"beta": 1.0, "trend_tol": -0.1},
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ModelValidationError):
        AnalysisParams(**kwargs)


def test_grid_points_are_bounded_by_the_budget(monkeypatch):
    assert MAX_POINTS == 10_000_000
    with pytest.raises(ModelValidationError, match=(
            r"^the span asks 3e\+09 grid points at points_per_decade 10000000, "
            r"more than the budget of 10,000,000$")):
        AnalysisParams(beta=2.0, x_max=1e300, points_per_decade=10_000_000)
    # the budget is inclusive: three decades at 16 per decade are 48 points
    monkeypatch.setattr(params, "MAX_POINTS", 48)
    AnalysisParams(beta=1.0, x_max=1e3)
    with pytest.raises(ModelValidationError, match="asks 48.07 grid points"):
        AnalysisParams(beta=1.0, x_max=1.01e3)
    # a span past the float range is build_grid's error, not the budget's
    AnalysisParams(beta=1.0, x_min=1e-300, x_max=1e300)
