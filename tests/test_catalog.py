import math

import numpy as np
import pytest

from tailmoments.catalog import (MODEL_REGISTRY, _floor_log, build_model,
                                 load_tabulated, make_geometric_tail,
                                 make_inverse_log, make_log_pareto,
                                 make_pareto, make_st_petersburg)
from tailmoments.errors import (ExtrapolationWarning, ModelValidationError,
                                TableFormatError)
from tailmoments.moments import build_curve, build_grid
from tailmoments.params import AnalysisParams
from tailmoments.verifier import verify


# ---------------------------------------------------------------------------
# floor-log helper

def test_floor_log_exact_at_dyadic_points():
    for k in range(0, 1024, 7):
        x = math.ldexp(1.0, k)
        assert _floor_log(x, 2.0) == k
        # just below a power of 2 the floor must drop by one
        assert _floor_log(math.nextafter(x, 0.0), 2.0) == k - 1 or k == 0


def test_floor_log_general_base():
    assert _floor_log(3.0, 3.0) == 1
    assert _floor_log(26.999999, 3.0) == 2
    assert _floor_log(27.0, 3.0) == 3
    assert _floor_log(1.5, 10.0) == 0
    assert _floor_log(0.5, 10.0) == -1


# ---------------------------------------------------------------------------
# pareto

def test_pareto_tail_values():
    m = make_pareto(1.5, 2.0)
    assert m.tail(1.0) == 1.0
    assert m.tail(2.0) == 1.0
    assert m.tail(8.0) == 4.0 ** -1.5
    assert m.support_floor == 2.0


def test_pareto_closed_form_continuity_at_floor():
    m = make_pareto(1.5, 1.0)
    assert math.isclose(m.closed_form_h(2.0, 1.0), 1.0)
    just_above = m.closed_form_h(2.0, 1.0 + 1e-12)
    assert math.isclose(just_above, 1.0, rel_tol=1e-9)


def test_pareto_critical_order_is_logarithmic():
    m = make_pareto(2.0, 1.0)
    assert math.isclose(m.closed_form_h(2.0, math.e), 1.0 + 2.0)


def test_pareto_ground_truth_indices():
    gt = make_pareto(1.5, 1.0).ground_truth
    assert gt.rho_of(2.0) == 0.5
    assert gt.rho_of(1.5) == 0.0
    assert gt.rho_of(1.0) is None
    assert gt.tail_is_rv and not gt.pi_member


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_pareto_rejects_bad_alpha(bad):
    with pytest.raises(ModelValidationError):
        make_pareto(bad)


# ---------------------------------------------------------------------------
# geometric / st. petersburg

def test_st_petersburg_tail_is_dyadic_staircase():
    m = make_st_petersburg()
    assert m.name == "st_petersburg"
    assert m.tail(1.0) == 1.0
    assert m.tail(2.0) == 0.5
    assert m.tail(3.9) == 0.5
    assert m.tail(4.0) == 0.25
    assert m.tail(2.0 ** 40) == 2.0 ** -40


def test_geometric_breakpoints_and_atoms():
    m = make_geometric_tail(1.0, 2.0)
    assert m.breakpoints(1.0, 16.0) == [2.0, 4.0, 8.0, 16.0]
    assert m.breakpoints(3.0, 7.0) == [4.0]
    atoms = dict(m.point_masses(1.0, 16.0))
    assert set(atoms) == {2.0, 4.0, 8.0, 16.0}
    # jump at 2^k is 2^-k: sf steps from 2^-(k-1) down to 2^-k
    assert atoms[2.0] == 0.5
    assert atoms[8.0] == 0.125


def test_geometric_atom_masses_sum_to_tail_drop():
    m = make_geometric_tail(0.7, 3.0)
    atoms = m.point_masses(1.0, 3.0 ** 6)
    total = sum(j for _, j in atoms)
    assert math.isclose(total, 1.0 - m.tail(3.0 ** 6), rel_tol=1e-12)


def test_geometric_tail_is_log_periodic_in_normalized_units():
    m = make_geometric_tail(1.0, 2.0)
    # x^beta_g * sf(x) repeats when x doubles
    for x in (2.5, 7.3, 1000.1):
        assert math.isclose(x * m.tail(x), 2 * x * m.tail(2 * x), rel_tol=1e-12)


def test_geometric_integer_parameters_match_floats():
    # int p would make p ** k exact big ints and the grid an object array
    p = AnalysisParams(beta=1.0, x_max=1e30)
    as_int, as_float = make_geometric_tail(1, 10), make_geometric_tail(1.0, 10.0)
    grid = build_grid(as_int, p)
    assert grid.dtype == np.float64
    assert grid.tobytes() == build_grid(as_float, p).tobytes()
    assert all(type(b) is float for b in as_int.breakpoints(1.0, 1e30))
    c_int, c_float = build_curve(as_int, p), build_curve(as_float, p)
    assert c_int.h.tobytes() == c_float.h.tobytes()
    assert repr(verify(as_int, p, c_int)) == repr(verify(as_float, p, c_float))


def test_geometric_rejects_bad_params():
    with pytest.raises(ModelValidationError):
        make_geometric_tail(0.0, 2.0)
    with pytest.raises(ModelValidationError):
        make_geometric_tail(1.0, 1.0)


# ---------------------------------------------------------------------------
# inverse_log

def test_inverse_log_tail_and_floor():
    m = make_inverse_log()
    assert m.tail(1.0) == 1.0
    assert m.tail(math.e) == 1.0
    assert math.isclose(m.tail(math.e ** 2), 0.5)
    assert m.support_floor == math.e


def test_inverse_log_closed_form_matches_integral_series():
    # h(x) ~ x/ln x * (1 + 1/ln x + 2/ln x^2 + ...) for beta = 1
    m = make_inverse_log()
    x = 1e120
    L = math.log(x)
    series = x / L * (1 + 1 / L + 2 / L ** 2 + 6 / L ** 3)
    assert math.isclose(m.closed_form_h(1.0, x), series, rel_tol=1e-5)


# ---------------------------------------------------------------------------
# log_pareto

def test_log_pareto_floor_keeps_tail_monotone():
    m = make_log_pareto(0.5, 1.0)
    assert m.support_floor == math.exp(2.0)  # e^(a/alpha)
    assert m.tail(m.support_floor) == 1.0
    xs = [m.support_floor * 1.01 ** k for k in range(200)]
    ts = [m.tail(x) for x in xs]
    assert all(a >= b for a, b in zip(ts, ts[1:]))
    assert all(0.0 < t <= 1.0 for t in ts)


def test_log_pareto_zero_exponent_is_pareto_like():
    m = make_log_pareto(1.0, 0.0)
    assert m.support_floor == math.e
    # with a = 0 the tail reduces to (x0/x)^alpha with x0 = e
    assert math.isclose(m.tail(math.e * 100), 1.0 / 100.0, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# tabulated

def test_tabulated_log_linear_interpolation(table_factory):
    path = table_factory([(1.0, 1.0), (10.0, 0.1)])
    m = load_tabulated(path)
    # log-linear between (1, 1) and (10, 0.1) is exactly x^-1
    mid = math.sqrt(10.0)
    assert math.isclose(m.tail(mid), 1.0 / mid, rel_tol=1e-12)
    assert m.tail(0.5) == 1.0
    assert m.support_floor == 1.0
    assert m.breakpoints(0.1, 100.0) == [1.0, 10.0]


def test_tabulated_extrapolation_warns_once(table_factory):
    path = table_factory([(1.0, 1.0), (10.0, 0.1)])
    m = load_tabulated(path)
    with pytest.warns(ExtrapolationWarning):
        assert m.tail(100.0) == 0.1
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert m.tail(1000.0) == 0.1  # second call stays quiet


def test_tabulated_rejects_bad_header(table_factory):
    path = table_factory([(1.0, 1.0), (10.0, 0.1)], header="x,survival")
    with pytest.raises(TableFormatError) as exc:
        load_tabulated(path)
    assert exc.value.line == 1


def test_tabulated_rejects_decreasing_x(table_factory):
    path = table_factory([(1.0, 1.0), (10.0, 0.5), (5.0, 0.2)])
    with pytest.raises(TableFormatError) as exc:
        load_tabulated(path)
    assert exc.value.line == 4
    assert "line 4" in str(exc.value)


def test_tabulated_rejects_increasing_tail(table_factory):
    path = table_factory([(1.0, 0.5), (10.0, 0.9)])
    with pytest.raises(TableFormatError) as exc:
        load_tabulated(path)
    assert exc.value.line == 3


def test_tabulated_rejects_zero_tail(table_factory):
    path = table_factory([(1.0, 1.0), (10.0, 0.0)])
    with pytest.raises(TableFormatError):
        load_tabulated(path)


def test_tabulated_rejects_non_numeric(table_factory):
    path = table_factory([(1.0, 1.0), ("oops", 0.1)])
    with pytest.raises(TableFormatError) as exc:
        load_tabulated(path)
    assert exc.value.line == 3


def test_tabulated_needs_two_rows(table_factory):
    path = table_factory([(1.0, 1.0)])
    with pytest.raises(TableFormatError):
        load_tabulated(path)


def test_tabulated_rejects_unknown_interpolation(table_factory):
    path = table_factory([(1.0, 1.0), (10.0, 0.1)])
    with pytest.raises(ModelValidationError):
        load_tabulated(path, interpolation="cubic")


# ---------------------------------------------------------------------------
# registry

def test_registry_builds_every_family(power_table):
    for name in MODEL_REGISTRY:
        params = {"pareto": {"alpha": 1.5},
                  "geometric": {"beta_g": 1.0, "p": 2.0},
                  "st_petersburg": {},
                  "inverse_log": {},
                  "log_pareto": {"alpha": 0.5},
                  "tabulated": {"path": power_table}}[name]
        model = build_model(name, **params)
        assert model.tail(model.support_floor * 2) <= 1.0


def test_registry_rejects_unknown_model():
    with pytest.raises(ModelValidationError, match="unknown model"):
        build_model("cauchy")


def test_registry_rejects_unknown_parameter():
    with pytest.raises(ModelValidationError, match="unknown parameter"):
        build_model("pareto", alpha=1.5, shape=2.0)


def test_registry_rejects_missing_required():
    with pytest.raises(ModelValidationError, match="requires parameter"):
        build_model("pareto")


def test_registry_coerces_string_numbers():
    m = build_model("pareto", alpha="1.5", x_floor="2.0")
    assert m.support_floor == 2.0


def test_registry_rejects_non_numeric_value():
    with pytest.raises(ModelValidationError, match="must be numeric"):
        build_model("pareto", alpha="wide")
