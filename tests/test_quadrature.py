import math
import re
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from oracles import inverse_log_h
from tailmoments import quadrature
from tailmoments.catalog import TailModel, make_inverse_log, make_log_pareto
from tailmoments.errors import (AdmissionError, ConvergenceError,
                                ModelEvaluationError)
from tailmoments.moments import build_curve, compute_h
from tailmoments.params import AnalysisParams
from tailmoments.quadrature import integrate_tail


def _one_step(tail, beta, a, b, rel_tol=1e-10):
    """integrate_tail over the single step [a, b], as floats."""
    values, errs = integrate_tail(tail, beta, [a, b], rel_tol)
    return float(values[0]), float(errs[0])


def test_constant_tail_gives_power_difference():
    # int_a^b beta y^(beta-1) dy = b^beta - a^beta
    value, err = _one_step(lambda y: 1.0, 2.0, 1.0, 10.0)
    assert math.isclose(value, 99.0, rel_tol=1e-12)
    assert abs(value - 99.0) <= max(err, 1e-9)


def test_pure_power_tail_closed_form():
    # tail y^-1.5, beta 2: int beta y^(beta-1-1.5) dy = 2/0.5 (b^0.5 - a^0.5)
    value, _ = _one_step(lambda y: y ** -1.5, 2.0, 1.0, 100.0)
    assert math.isclose(value, 4.0 * (10.0 - 1.0), rel_tol=1e-10)


def test_error_estimate_is_honest():
    exact = 4.0 * (10.0 - 1.0)
    value, err = _one_step(lambda y: y ** -1.5, 2.0, 1.0, 100.0, rel_tol=1e-8)
    assert abs(value - exact) <= 10.0 * err + 1e-12 * exact


def test_tighter_tolerance_reduces_error():
    _, err_loose = _one_step(lambda y: 1 / np.log(y), 1.0, 3.0, 1e6,
                             rel_tol=1e-6)
    _, err_tight = _one_step(lambda y: 1 / np.log(y), 1.0, 3.0, 1e6,
                             rel_tol=1e-12)
    assert err_tight < err_loose


def test_non_finite_integrand_rejected():
    with pytest.raises(ModelEvaluationError):
        _one_step(lambda y: math.nan, 1.0, 1.0, 10.0)


def test_budget_exhaustion_raises():
    # ~160k oscillations per log-unit cannot be resolved within the budget
    def hostile(y):
        return 0.5 * (1.0 + np.sin(1e6 * np.log(y)))

    with pytest.raises(ConvergenceError, match="interval budget 32768"):
        _one_step(hostile, 1.0, 1.0, math.e, rel_tol=1e-12)


@pytest.mark.parametrize("beta", [15_000.0, 1e300])
def test_a_huge_order_ends_after_one_pass_in_little_memory(beta):
    # a step of ten log-units enters the rule whole at any order: where the
    # weight e^(beta t) underflows across it the result is 0 in one pass, and
    # where it overflows the first block names the bad node. A split of
    # each step into ceil(beta dt / 4.6) parts, made before any tail call,
    # once asked 32,609 intervals here at beta 15,000, and 2e300 at 1e300
    sizes = []

    def tail(y):
        sizes.append(np.size(y))
        return np.ones_like(y)

    tracemalloc.start()
    try:
        assert _one_step(tail, beta, math.exp(-20.0),
                         math.exp(-10.0)) == (0.0, 0.0)
        assert sizes == [15]
        with pytest.raises(ModelEvaluationError, match="non-finite value inf"):
            _one_step(tail, beta, math.exp(10.0), math.exp(20.0))
        assert sizes == [15, 15]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("beta, x_min, x_max", [(5.0, 1e30, 1e40),
                                                (1.0, 1e10, 1e15),
                                                (2.0, None, 1e100)])
def test_steps_far_above_the_floor_are_bisected_to_within_the_bound(
        beta, x_min, x_max):
    # the first step, from the floor e to x_min, spans beta * ln(x_min / e)
    # up to 345 in the weight's log; the rule takes it whole and bisects it
    model = make_inverse_log()
    if x_min is None:
        xs, (h, err) = [x_max], compute_h(model, beta, x_max)
        hs, errs = [h], [err]
    else:
        curve = build_curve(model, AnalysisParams(beta=beta, x_min=x_min,
                                                  x_max=x_max))
        xs, hs, errs = curve.grid, curve.h, curve.quad_error
    for x, h, err in zip(xs, hs, errs):
        assert abs(mpmath.mpf(h) - inverse_log_h(beta, x)) <= err, x


def test_tail_is_read_at_the_left_end_itself():
    # exp(ln a) rounds below a = 8.667, onto the left of this tail's jump at
    # its floor; reading sf there once skewed h(86.67) by 1.04e-6 against a
    # reported bound of 7.4e-8
    a = 8.667
    assert math.exp(math.log(a)) < a
    m = TailModel(name="jump-at-floor", support_floor=a,
                  tail=lambda y: np.where(y < a, 1.0, 0.3))
    h, err = compute_h(m, 1.0, 86.67)
    assert abs(h - (a + 0.3 * (86.67 - a))) <= err


# QUADPACK dqk15 to 33 digits: Kronrod nodes in [0, 1], their weights, and
# the 7-point Gauss weights of the nodes of odd index
_DQK15_XGK = ("0.991455371120812639206854697526329",
              "0.949107912342758524526189684047851",
              "0.864864423359769072789712788640926",
              "0.741531185599394439863864773280788",
              "0.586087235467691130294144845693013",
              "0.405845151377397166906606412076961",
              "0.207784955007898467600689403773245",
              "0")
_DQK15_WGK = ("0.022935322010529224963732008058970",
              "0.063092092629978553290700663189204",
              "0.104790010322250183839876322541518",
              "0.140653259715525918745189590510238",
              "0.169004726639267902826583426598550",
              "0.190350578064785409913256402421014",
              "0.204432940075298892414161999234649",
              "0.209482141084727828012999174891714")
_DQK15_WG = ("0.129484966168869693270611432679082",
             "0.279705391489276667901467771423780",
             "0.381830050505118944950369775488975",
             "0.417959183673469387755102040816327")


def test_gauss_kronrod_constants_integrate_polynomials_exactly():
    with mpmath.workdps(40):
        mpf = mpmath.mpf
        xgk = [mpf(v) for v in _DQK15_XGK]
        kronrod = [(x, mpf(w)) for x, w in zip(xgk, _DQK15_WGK)]
        gauss = [(xgk[2 * i + 1], mpf(w)) for i, w in enumerate(_DQK15_WG)]
        for half, degree in ((kronrod, 22), (gauss, 13)):
            rule = half + [(-x, w) for x, w in half[:-1]]  # mirror; 0 once
            for k in range(degree + 3):
                exact = mpf(2) / (k + 1) if k % 2 == 0 else 0
                miss = abs(sum(w * x ** k for x, w in rule) - exact)
                # exact up to the degree (odd powers by symmetry), and not
                # beyond it
                assert miss < 1e-26 if k <= degree or k % 2 else miss > 1e-12, k
    # the module's float constants are those digits, each rounded once
    nodes = [-float(v) for v in _DQK15_XGK[:-1]] + [float(v) for v in
                                                    _DQK15_XGK[::-1]]
    assert quadrature._NODES.tolist() == nodes
    kron = [float(v) for v in _DQK15_WGK[:-1]] + [float(v) for v in
                                                  _DQK15_WGK[::-1]]
    assert quadrature._WEIGHTS[:, 0].tolist() == kron
    half = [float(_DQK15_WG[i // 2]) if i % 2 else 0.0 for i in range(8)]
    assert quadrature._WEIGHTS[:, 1].tolist() == half[:-1] + half[::-1]


def test_error_bound_covers_the_rounding_of_the_end_logs():
    # ln 100 and ln 100.0023 round by up to half an ulp of 4.6 each, which
    # moves the integral by beta y^beta sf(y) eps |ln y|; the bound once
    # left it out and reported 5.4e-19 against an error of 7.1e-14
    a, b = 100.0, 100.0023
    value, err = _one_step(lambda y: 1.0, 1.0, a, b)
    assert err >= abs(value - (b - a))


def test_curve_of_a_smooth_tail_calls_the_tail_a_handful_of_times():
    # inverse_log at 1e300 has 4,794 grid steps above its floor: 71,910
    # Gauss-Kronrod nodes plus the 4,802 grid points for u, 76,712 points
    # in 11 calls (10 blocks of steps, one grid); one call per step or per
    # point, as the scalar contract made, is thousands of calls
    model = make_inverse_log()
    sizes = []

    def counting_tail(x):
        sizes.append(np.size(x))
        return model.tail(x)

    build_curve(replace(model, tail=counting_tail),
                AnalysisParams(beta=1.0, x_max=1e300))
    assert len(sizes) <= 16
    assert 70_000 < sum(sizes) < 80_000


def _step_major_rule(tail, beta, ta, tb):
    """The rule as it ran before its blocks were node-major: a row of 15
    nodes per step, summed against the weights by einsum."""
    out, block = np.empty((len(ta), 2)), quadrature._BLOCK
    for s in range(0, len(ta), block):
        a, b = ta[s:s + block, None], tb[s:s + block, None]
        w = 0.5 * (b - a)
        t = a + w * (1.0 + quadrature._NODES)
        f = beta * np.exp(beta * t) * tail(np.exp(t))
        out[s:s + block] = w * np.einsum("ij,jk->ik", f, quadrature._WEIGHTS)
    return out[:, 0], out[:, 1]


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("model", [make_inverse_log(),
                                   make_log_pareto(0.5, 1.0),
                                   make_log_pareto(1.5, -0.5)])
def test_node_major_rule_is_the_step_major_einsum_bitwise(model, beta):
    # random steps over three blocks, from the floor to where e^(beta t)
    # nears the float limit, a ragged last block among them
    rng = np.random.default_rng(int(beta * 10))
    top = min(700.0 / beta, 700.0)
    t = np.sort(rng.uniform(math.log(model.support_floor), top, 1300))
    ta, tb = t[:-1], t[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        got = quadrature._rule(model.tail, beta, ta, tb)
        want = _step_major_rule(model.tail, beta, ta, tb)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("model, beta, x_max, t", [
    (make_inverse_log(), 2.0, 1e200, "354.55535144304025"),
    (make_log_pareto(1.5, -0.5), 1.5, 1e300, "472.92319689119626")])
def test_non_finite_integrand_names_its_first_node_in_step_order(model, beta,
                                                                 x_max, t):
    # the integrand overflows from some t on: the least such node is in the
    # first bad step, not in the first node row of the node-major block
    with pytest.raises(ModelEvaluationError, match=f"at log-point t={t}$"):
        build_curve(model, AnalysisParams(beta=beta, x_max=x_max))


def test_non_finite_node_in_a_later_step_but_earlier_row():
    # nan from t = 0.99 on, over the steps [0, 1] and [1, 2] of one block:
    # only step 0's last node is bad there, but every node of step 1, whose
    # first node the block's first row holds
    last = float(0.5 * (1.0 + quadrature._NODES[-1]))
    assert 0.99 < last < 1.0
    with pytest.raises(ModelEvaluationError, match=f"t={last!r}$"):
        quadrature._rule(lambda y: np.where(y > math.exp(0.99), np.nan, 1.0),
                         1.0, np.array([0.0, 1.0]), np.array([1.0, 2.0]))


@pytest.mark.parametrize("beta, h", [(0.5, "2.27348"), (1.0, "6.28293")])
@pytest.mark.parametrize("x_max", [1e300, 1.7e308])
def test_subnormal_tail_far_out_is_not_bisected_to_the_budget(beta, h, x_max):
    # past t ~ 471 the tail is subnormal, where K and G differ by its
    # rounding (1.3e-11 K at t = 481, 7e-5 K at 490); that miss is under
    # eps h(floor) and was once bisected until the interval budget ran out
    # (ConvergenceError)
    model = make_log_pareto(1.5, -0.5)
    with pytest.raises(AdmissionError,
                       match=re.escape(f"h({x_max:g}) = {h} ")):
        build_curve(model, AnalysisParams(beta=beta, x_max=x_max))
    value, err = compute_h(model, beta, x_max)
    near, near_err = compute_h(model, beta, 1e100)
    assert abs(value - near) <= err + near_err
