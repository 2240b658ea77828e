"""The array estimate_rv_index against the scalar pair loop it replaced.

reference_pairs is that loop, kept verbatim in spirit: one (x, lam) pair at
a time, an exact-match search over the neighbours j-1, j, j+1 of the
target, and one np.interp call per off-grid target at the target's np.log,
taken one float at a time. _reference_stats pools the pairs by
ndarray.mean. Everything the array code reports must match them bit for
bit, and rv_statistics, which reads one scale plan for several series on
the same xs, must give each series it reads the bits of its own estimate.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailmoments.asymptotics import (_MIN_PAIRS, estimate_rv_index,
                                     rv_statistics, scale_plan)
from tailmoments.errors import InsufficientDataError
from tailmoments.params import AnalysisParams


def _reference_stats(xs, ys, lo, hi):
    """(mean, spread, trend) by ndarray.mean over the samples below and above
    the window's geometric midpoint, as the package took them one series at
    a time."""
    mid = math.sqrt(lo) * math.sqrt(hi)
    near, far = ys[xs < mid], ys[xs >= mid]
    trend = (abs(float(near.mean()) - float(far.mean()))
             if len(near) and len(far) else math.inf)
    return float(ys.mean()), float((ys.max() - ys.min()) / 2.0), trend


def reference_pairs(xs, fs, params, lambdas):
    """(lo, hi, [(x, lam, estimate, interpolated), ...]) by the scalar loop."""
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    pos = fs > 0.0
    xs, fs = xs[pos], fs[pos]
    if len(xs) < 2:
        return None
    lo, hi = params.window()
    lo = max(lo, float(xs[0]))
    hi = min(hi, float(xs[-1]))
    log_xs = np.log(xs)
    log_fs = np.log(fs)
    points = []
    for lam in lambdas:
        log_lam = math.log(lam)
        for i in np.flatnonzero((xs >= lo) & (xs * lam <= hi)):
            x = float(xs[i])
            target = x * lam
            j = int(np.searchsorted(xs, target))
            matched = None
            for k in (j - 1, j, j + 1):
                if 0 <= k < len(xs) and abs(xs[k] - target) <= 1e-9 * target:
                    matched = k
                    break
            if matched is not None:
                log_f_target = log_fs[matched]
                interp = False
            else:
                log_f_target = float(np.interp(np.log(np.float64(target)),
                                               log_xs, log_fs))
                interp = True
            points.append((x, lam, (log_f_target - float(log_fs[i])) / log_lam,
                           interp))
    return lo, hi, points


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


_LAMBDA = st.sampled_from((1.5, 2.0, math.e, 3.0, 8.0, 10.0)) | st.floats(1.01, 20.0)


@st.composite
def _cases(draw):
    n = draw(st.integers(3, 80))
    steps = draw(st.lists(st.floats(1e-3, 0.8), min_size=n, max_size=n))
    x0 = draw(st.floats(0.5, 10.0))
    xs = x0 * np.exp(np.cumsum([0.0, *steps]))
    if draw(st.booleans()):  # dyadic nodes, where a staircase steps
        xs = np.concatenate((xs, 2.0 ** np.arange(0, int(np.log2(xs[-1])) + 1)))
    lambdas = tuple(draw(st.lists(_LAMBDA, min_size=1, max_size=4, unique=True)))
    # nodes that targets x * lam miss by at most about 1e-9, either side
    near = draw(st.lists(st.tuples(st.integers(0, n), st.sampled_from(lambdas),
                                   st.floats(-1.5e-9, 1.5e-9)), max_size=12))
    xs = np.unique(np.concatenate(
        (xs, [xs[i] * lam * (1.0 + eps) for i, lam, eps in near])))
    kind = draw(st.sampled_from(("power", "staircase", "wiggle")))
    if kind == "power":
        fs = xs ** draw(st.floats(-2.0, 2.0))
    elif kind == "staircase":
        fs = 2.0 ** np.floor(np.log2(xs))
    else:
        fs = xs ** 0.5 * np.exp(0.3 * np.sin(np.log(xs)))
    for k in draw(st.lists(st.integers(0, len(xs) - 1), max_size=3)):
        fs[k] = 0.0
    params = AnalysisParams(beta=1.0, x_min=float(xs[0]), x_max=float(xs[-1]),
                            window_decades=draw(st.floats(0.3, 4.0)))
    return xs, fs, params, lambdas


@given(case=_cases())
@settings(max_examples=300, deadline=None)
def test_array_estimator_matches_scalar_pair_loop(case):
    xs, fs, params, lambdas = case
    ref = reference_pairs(xs, fs, params, lambdas)
    shared = _shared_stats(xs, fs, replace(params, lambdas=lambdas))
    if ref is None or len(ref[2]) < _MIN_PAIRS:
        with pytest.raises(InsufficientDataError):
            estimate_rv_index(xs, fs, replace(params, lambdas=lambdas))
        assert shared is None
        return
    lo, hi, points = ref
    est = estimate_rv_index(xs, fs, replace(params, lambdas=lambdas))
    x, lam, estimate, interpolated = (list(col) for col in zip(*points))
    rho_hat, spread, trend = _reference_stats(np.array(x), np.array(estimate),
                                              lo, hi)
    assert len(est.per_scale) == len(points)
    assert _bits(est.per_scale.x) == _bits(x)
    assert _bits(est.per_scale.lam) == _bits(lam)
    assert _bits(est.per_scale.estimate) == _bits(estimate)
    assert list(est.per_scale.interpolated) == interpolated
    assert _bits((est.rho_hat, est.spread, est.trend)) == _bits((rho_hat, spread, trend))
    assert _bits(est.window) == _bits((lo, hi))
    assert est.converged == params.converged(spread, trend)
    if shared is not None:
        assert _bits(shared) == _bits((est.rho_hat, est.spread, est.trend))


def _shared_stats(xs, fs, params):
    """rv_statistics of fs alone on the plan of all of xs, checked to decline
    exactly where that plan does not stand for fs's own: fewer than
    _MIN_PAIRS pairs, or a non-positive sample in the range it reads (the
    window's slice and the sample below it)."""
    plan = scale_plan(xs, params)
    stats, = rv_statistics(plan, (fs,))
    read = fs[max(plan.span.start - 1, 0):plan.span.stop]
    assert (stats is None) == (len(plan.x) < _MIN_PAIRS
                               or not (read > 0.0).all())
    return stats


#: numpy's vectorised log and math.log differ in the last bit here on
#: common builds
_HARD_LOG = float.fromhex("0x1.5b319b5800f0fp+1")


def test_numpy_log_of_one_float_is_its_log_in_a_vector():
    # the scalar loop's np.log of one target stands for the plan's vector
    # call only if an element's log does not depend on the call around it
    xs = np.concatenate(([_HARD_LOG], np.random.default_rng(0).uniform(
        0.5, 2.0, 4096), np.geomspace(1e-300, 1e300, 4096)))
    vector = np.log(xs)
    for offset in range(8):  # each start against the SIMD lanes
        assert _bits(np.log(xs[offset:])) == _bits(vector[offset:])
    assert _bits(np.log(np.float64(x)) for x in xs.tolist()) == _bits(vector)


def _hard_log_case():
    """A grid on which lam = 2 takes the node _HARD_LOG / 2 to the off-node
    target _HARD_LOG, as a case of _cases."""
    xs = np.unique(np.concatenate((_HARD_LOG * np.geomspace(0.125, 8.0, 24),
                                   [_HARD_LOG / 2])))
    params = AnalysisParams(beta=1.0, x_min=float(xs[0]), x_max=float(xs[-1]),
                            window_decades=4.0)
    return xs, xs, params, (2.0, 3.0)


def test_off_grid_target_logs_match_the_scalar_loop():
    # the steep power carries the last bit of the log of the target t into
    # the estimate, so the array code must take target logs as the loop did:
    # by np.log, the log of the nodes it interpolates against
    t = _HARD_LOG
    xs, _, params, _ = _hard_log_case()
    fs = (xs / t) ** 50.0
    _, _, points = reference_pairs(xs, fs, params, (2.0,))
    est = estimate_rv_index(xs, fs, replace(params, lambdas=(2.0,)))
    assert any(x == t / 2 and interpolated for x, _, _, interpolated in points)
    assert _bits(est.per_scale.estimate) == _bits(p[2] for p in points)


@given(case=_cases())
@example(case=_hard_log_case())
@settings(max_examples=200, deadline=None)
def test_plan_log_targets_are_numpy_log_bitwise(case):
    xs, _, params, lambdas = case
    plan = scale_plan(xs, replace(params, lambdas=lambdas))
    want = [np.log(np.float64(x * lam)) for x, lam in
            zip(plan.x[plan.off].tolist(), plan.lam[plan.off].tolist())]
    assert _bits(plan.log_target) == _bits(want)


@given(case=_cases())
@settings(max_examples=200, deadline=None)
def test_estimate_lambdas_are_those_of_its_pairs(case):
    # read off the plan: the shared one, and the estimate's own
    xs, fs, params, lambdas = case
    params = replace(params, lambdas=lambdas)
    plan = scale_plan(xs, params)
    assert plan.lambdas == tuple(sorted(set(plan.lam.tolist())))
    try:
        est = estimate_rv_index(xs, fs, params)
    except InsufficientDataError:
        return
    assert est.lambdas == tuple(sorted(set(est.per_scale.lam.tolist())))


def _grid_and_series():
    """A 16-per-decade grid with dyadic nodes, and three series over it."""
    xs = np.unique(np.concatenate((10.0 ** (np.arange(97) / 16.0),
                                   2.0 ** np.arange(20))))
    return xs, (xs ** 0.7, 2.0 ** np.floor(np.log2(xs)),
                xs ** 0.5 * np.exp(0.3 * np.sin(np.log(xs))))


@pytest.mark.parametrize("zeros, shares", [
    ("none", True), ("below", True), ("clear", True), ("next", False),
    ("at", False), ("inside", False), ("top", False)])
def test_shared_plan_matches_independent_calls(zeros, shares):
    xs, series = _grid_and_series()
    # the window starts between nodes, so a series whose first positive
    # sample is the first window point has a window of its own
    params = AnalysisParams(beta=1.0, x_min=1.0, x_max=1e6, window_decades=2.03)
    a = int(np.searchsorted(xs, params.window()[0]))  # the first window point
    assert xs[a] != params.window()[0]
    plan = scale_plan(xs, params)
    for fs in series:
        fs = fs.copy()
        # zeros in xs[:a - 1] leave a positive sample below the window
        fs[{"none": [], "below": slice(0, a - 2), "clear": slice(0, a - 1),
            "next": slice(0, a), "at": a, "inside": a + 5,
            "top": -1}[zeros]] = 0.0
        est = estimate_rv_index(xs, fs, params)
        stats, = rv_statistics(plan, (fs,))
        assert (stats is not None) == shares
        if shares:
            assert _bits(stats) == _bits((est.rho_hat, est.spread, est.trend))
        lo, hi, points = reference_pairs(xs, fs, params, params.lambdas)
        assert _bits(est.per_scale.estimate) == _bits(p[2] for p in points)
        assert _bits(est.window) == _bits((lo, hi))


def test_window_top_between_nodes_reads_the_node_above():
    # x_max falls between grid nodes, so hi is not a node: targets just
    # below hi interpolate between the last node under hi and the one above
    xs, series = _grid_and_series()
    hi = float(xs[-5]) * 1.07
    params = AnalysisParams(beta=1.0, x_min=1.0, x_max=hi, window_decades=2.0)
    plan = scale_plan(xs, params)
    assert plan.hi == hi and hi not in xs
    assert xs[plan.span][-1] > hi > xs[plan.span][-2]
    below = float(xs[xs < hi][-1])
    for fs in series:
        lo, _, points = reference_pairs(xs, fs, params, params.lambdas)
        assert any(interp and x * lam > below for x, lam, _, interp in points)
        est = estimate_rv_index(xs, fs, params)
        assert _bits(est.per_scale.estimate) == _bits(p[2] for p in points)
        assert _bits(est.window) == _bits((lo, hi))
