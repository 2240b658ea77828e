import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import geometric_atoms
from tailmoments import catalog
from tailmoments.catalog import (MODEL_REGISTRY, _floor_log, build_model,
                                 load_tabulated, make_geometric_tail,
                                 make_inverse_log, make_log_pareto,
                                 make_pareto, make_st_petersburg)
from tailmoments.errors import (ExtrapolationWarning, ModelEvaluationError,
                                ModelValidationError, TableFormatError)
from tailmoments.moments import build_curve, build_grid
from tailmoments.params import AnalysisParams
from tailmoments.verifier import verify


# ---------------------------------------------------------------------------
# floor-log helper

def test_floor_log_exact_at_dyadic_points():
    for k in range(-1073, 1024):
        x = math.ldexp(1.0, k)
        assert _floor_log(x, 2.0) == k
        assert _floor_log(math.nextafter(x, math.inf), 2.0) == k
        # just below a power of 2 the floor must drop by one
        assert _floor_log(math.nextafter(x, 0.0), 2.0) == k - 1
    assert _floor_log(5e-324, 2.0) == -1074
    assert _floor_log(sys.float_info.max, 2.0) == 1023


def test_floor_log_general_base():
    assert _floor_log(3.0, 3.0) == 1
    assert _floor_log(26.999999, 3.0) == 2
    assert _floor_log(27.0, 3.0) == 3
    assert _floor_log(1.5, 10.0) == 0
    assert _floor_log(0.5, 10.0) == -1
    # the next power lies past the float range
    assert _floor_log(1.7e308, 3.0) == 646
    assert _floor_log(1.7e308, 10.0) == 308
    assert _floor_log(1e300, 1e10) == 30


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
    atoms = dict(geometric_atoms(1.0, 2.0, 1.0, 16.0))
    assert set(atoms) == {2.0, 4.0, 8.0, 16.0}
    # jump at 2^k is 2^-k: sf steps from 2^-(k-1) down to 2^-k
    assert atoms[2.0] == 0.5
    assert atoms[8.0] == 0.125


def test_geometric_atom_masses_sum_to_tail_drop():
    m = make_geometric_tail(0.7, 3.0)
    atoms = geometric_atoms(0.7, 3.0, 1.0, 3.0 ** 6)
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


@given(beta_g=st.floats(0.05, 8.0), p=st.floats(1.1, 100.0) | st.integers(2, 50),
       lo=st.floats(1e-3, 1e300), decades=st.floats(0.0, 300.0))
@example(beta_g=1.0, p=2, lo=1.0, decades=0.0)  # _floor_log's edge at DBL_MAX
@settings(max_examples=100, deadline=None, derandomize=True)
def test_geometric_pieces_are_the_scalar_powers_bitwise(beta_g, p, lo, decades):
    # knots p ** k and levels p ** (-beta_g k), k the ints, one pow each;
    # up to DBL_MAX every knot and level is a float
    pf, bf = float(p), float(beta_g)
    for hi in (min(lo * 10.0 ** decades, 1e300), sys.float_info.max):
        ks = (range(max(1, _floor_log(max(lo, pf), pf)), _floor_log(hi, pf) + 1)
              if hi >= pf else range(0))
        knots, sfs, exps = make_geometric_tail(beta_g, p).pieces(lo, hi)
        assert knots.tobytes() == np.array([pf ** k for k in ks]).tobytes()
        assert sfs.tobytes() == np.array([pf ** (-bf * k) for k in ks]).tobytes()
        assert exps.tobytes() == np.zeros(len(ks)).tobytes()


def test_power_tail_past_the_quotient_range_is_read_through_logs():
    # 2e8 / 1e-300 overflows, but sf(2e8) = (2e8 / 1e-300) ** -0.5 ~ 7e-155
    m = make_pareto(0.5, x_floor=1e-300)
    x = np.array([1e-300, 1.0, 2e8, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sf = m.tail(x)
    exact = [(mpmath.mpf(v) / mpmath.mpf(1e-300)) ** -0.5 for v in x.tolist()]
    assert all(math.isclose(a, b, rel_tol=1e-13) for a, b in zip(sf, exact))


def test_geometric_knots_are_bounded_by_the_budget(monkeypatch):
    with pytest.raises(ModelEvaluationError, match=(
            r"^geometric\(beta_g=1,p=1.00001\) has 69,077,898 knots up to "
            r"1e\+300, more than the budget of 10,000,000$")):
        make_geometric_tail(1.0, 1.00001).pieces(1.0, 1e300)
    # the budget is inclusive, and counts the law from k = 1 whatever lo is
    monkeypatch.setattr(catalog, "MAX_POINTS", 100)
    m = make_geometric_tail(1.0, 2.0)
    assert len(m.pieces(1.0, 2.0 ** 100)[0]) == 100
    with pytest.raises(ModelEvaluationError, match="has 101 knots"):
        m.pieces(2.0 ** 100, 2.0 ** 101)


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


def _old_log_pareto_tail(alpha, a):
    """The expression form of log_pareto's tail that the in-place one
    replaced."""
    x0 = max(math.e, math.exp(a / alpha))
    c = x0 ** alpha / math.log(x0) ** a

    def tail(x):
        y = np.maximum(x, x0)
        return np.where(y > x0, np.minimum(1.0, c * y ** -alpha
                                           * np.log(y) ** a), 1.0)[()]
    return tail


def _tail_points(floor):
    """Points below, at and above a floor up to the float limit, inf and
    nan among them."""
    return np.concatenate((
        [floor, np.nextafter(floor, 0.0), np.nextafter(floor, np.inf), 0.5,
         1.0, 5e-324, 1.7e308, np.finfo(float).max, np.inf, np.nan],
        np.geomspace(1e-3, 1e308, 2000)))


@pytest.mark.parametrize("model, old", [
    (make_inverse_log(), lambda x: 1.0 / np.log(np.maximum(x, math.e))),
    *((make_log_pareto(alpha, a), _old_log_pareto_tail(alpha, a))
      for alpha, a in ((0.5, 1.0), (1.5, -0.5), (1.5, 2.0), (1.0, 0.0),
                       (2.0, 0.5), (1.0, -1.0)))])
def test_smooth_tails_in_place_are_the_expression_forms_bitwise(model, old):
    # the tails work in place on an array of their own: a scalar still
    # gives a scalar (by numpy's scalar powers, as the expression took
    # them), an array the same shape, and the caller's array is untouched
    xs = _tail_points(model.support_floor)
    with np.errstate(all="ignore"):
        for shaped in (xs, xs.reshape(-1, 5)):
            before = shaped.copy()
            got = model.tail(shaped)
            assert shaped.tobytes() == before.tobytes()
            assert got.shape == shaped.shape and got.dtype == float
            assert got.tobytes() == old(shaped).tobytes()
        for x in xs[::7].tolist():
            for scalar in (x, np.float64(x)):
                got, want = model.tail(scalar), old(scalar)
                assert np.ndim(got) == 0 and not isinstance(got, np.ndarray)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


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
    with pytest.warns(ExtrapolationWarning):  # pieces asked past the last row
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


def test_every_law_a_model_holds_is_read_only(power_table):
    # pieces returns views of the law the model holds: a reader that writes
    # into one fails loudly instead of changing the model
    for model in (make_pareto(1.5), make_geometric_tail(0.5, 3.0),
                  make_st_petersburg(), load_tabulated(power_table)):
        for law in model.pieces(model.support_floor, 1e12):
            assert len(law), model.name
            with pytest.raises(ValueError, match="read-only"):
                law[0] = 0.5


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


@pytest.mark.parametrize("dist, params, name", [
    ("pareto", {"alpha": "1.5000001"}, "pareto(alpha=1.5000001,x_floor=1)"),
    ("geometric", {"beta_g": 1, "p": 2.0000001},
     "geometric(beta_g=1,p=2.0000001)"),
    ("pareto", {"alpha": "1.5", "x_floor": "1e-300"},
     "pareto(alpha=1.5,x_floor=1e-300)"),
    ("log_pareto", {"alpha": 0.1 + 0.2, "a": -0.0},
     "log_pareto(alpha=0.30000000000000004,a=-0)"),
])
def test_model_names_tell_apart_every_parameter(dist, params, name):
    # :g rounded to 6 digits: pareto(1.5000001) was named pareto(alpha=1.5,...)
    assert build_model(dist, **params).name == name


def test_registry_rejects_non_numeric_value():
    with pytest.raises(ModelValidationError, match="must be numeric"):
        build_model("pareto", alpha="wide")


# ---------------------------------------------------------------------------
# test oracles

def test_only_the_catalog_names_the_test_oracles():
    # closed forms and ground truth exist for tests; no analysis code may
    # read them, so no other module of the package may name them
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    package = os.path.join(root, "src", "tailmoments")
    modules = sorted(n for n in os.listdir(package) if n.endswith(".py"))
    assert "catalog.py" in modules and "moments.py" in modules
    for module in modules:
        if module == "catalog.py":
            continue
        with open(os.path.join(package, module)) as fh:
            text = fh.read()
        for name in ("closed_form_h", "ground_truth", "GroundTruth"):
            assert name not in text, (module, name)


# ---------------------------------------------------------------------------
# import cost

def test_import_does_not_load_scipy():
    # scipy serves only the inverse_log closed form, and importing it would
    # more than double the start-up time of every command-line call
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, tailmoments; print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=env, check=True)
    assert proc.stdout.strip() == "False"
