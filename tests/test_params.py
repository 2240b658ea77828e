import math

import pytest

from tailmoments.errors import ModelValidationError
from tailmoments.params import DEFAULT_LAMBDAS, AnalysisParams


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
