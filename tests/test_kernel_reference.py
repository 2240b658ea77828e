"""The vectorised h kernel against the per-point loop it replaced.

reference_accumulate is that loop for staircase tails, kept as it was: the
anchor starts at the support floor and moves at every flagged breakpoint,
each whole piece adds sf(a) * (b^beta - a^beta) to a running sum, and every
point reports the anchor plus one partial piece. The kernel must reproduce
its h and error bound bit for bit. Power pieces have no such reference:
they are checked against adaptive quadrature and against an exact sum of
closed-form pieces.

reference_pieces and reference_base_grid are a geometric law's pieces and
the grid's geometric points as they were taken afresh by every call. The
law a model holds and the grid steps held per density must give their
bytes whatever calls came before.
"""

from __future__ import annotations

import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tailmoments.moments as moments
from oracles import pareto_hu
from tailmoments.catalog import (_floor_log, _scalar_pow, load_tabulated,
                                 make_geometric_tail, make_pareto,
                                 make_st_petersburg)
from tailmoments.moments import (_SNAP, _accumulate, _powers, _read_law,
                                 build_curve, build_grid, compute_h)
from tailmoments.params import AnalysisParams
from tailmoments.quadrature import integrate_tail

_EPS = 2.0 ** -52


def reference_accumulate(model, beta, xs, anchors):
    """h and its error bound at each point of xs by the per-point loop."""
    floor = model.support_floor
    tail = model.tail
    hs = np.empty(len(xs))
    errs = np.empty(len(xs))
    ax = np.float64(floor)
    ah = ax ** beta
    ae = _EPS * ah
    ta = tail(floor)
    for i, x in enumerate(xs):
        if x <= floor:
            hs[i] = x ** beta
            errs[i] = _EPS * hs[i]
            continue
        if anchors[i]:
            seg = ta * (x ** beta - ax ** beta)
            ah += seg
            ae += 2.0 * _EPS * (abs(seg) + ah)
            ax, ta = x, tail(x)
        seg = ta * (x ** beta - ax ** beta)
        hs[i] = ah + seg
        errs[i] = ae + 2.0 * _EPS * (abs(seg) + hs[i])
    return hs, errs


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("model, beta, x_max, ppd", [
    (make_st_petersburg(), 1.0, 1e300, 64),
    (make_geometric_tail(0.5, 3.0), 0.5, 1e300, 64),
    (make_geometric_tail(1.0, 2.0), 2.0, 1e15, 16),
], ids=["st_petersburg-b1-1e300", "geometric-0.5-3-b0.5-1e300",
        "geometric-1-2-b2-1e15"])
def test_staircase_curve_matches_the_per_point_loop_bitwise(model, beta, x_max,
                                                           ppd):
    params = AnalysisParams(beta=beta, x_max=x_max, points_per_decade=ppd)
    curve = build_curve(model, params)
    grid = build_grid(model, params)
    anchors = np.isin(grid, model.breakpoints(model.support_floor, x_max))
    with np.errstate(over="ignore", invalid="ignore"):
        hs, errs = reference_accumulate(model, beta, grid, anchors)
    assert _bits(curve.grid) == _bits(grid)
    assert _bits(curve.h) == _bits(hs)
    assert _bits(curve.quad_error) == _bits(errs)


def _power_table(tmp_path):
    path = tmp_path / "power.csv"
    xs = 10.0 ** (np.arange(0, 12 * 4 + 1) / 4.0)
    rows = [f"{float(x)!r},{0.5 * float(x) ** -0.6!r}" for x in xs]
    path.write_text("x,tail\n" + "\n".join(rows) + "\n")
    return load_tabulated(str(path))


@pytest.mark.parametrize("case", ["pareto-1.5-b2", "pareto-0.5-b1", "pareto-1-b1",
                                  "table-b1", "st_petersburg-b1"])
def test_compute_h_equals_the_curve_bitwise(case, tmp_path):
    model, beta, x_max = {
        "pareto-1.5-b2": (make_pareto(1.5), 2.0, 1e150),
        "pareto-0.5-b1": (make_pareto(0.5), 1.0, 1e300),
        "pareto-1-b1": (make_pareto(1.0), 1.0, 1e15),
        # sf < 1 on the first row, and the grid runs past the last row
        "table-b1": (_power_table(tmp_path), 1.0, 1e15),
        "st_petersburg-b1": (make_st_petersburg(), 1.0, 1e30),
    }[case]
    params = AnalysisParams(beta=beta, x_max=x_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve = build_curve(model, params)
    fresh = [compute_h(model, beta, float(x)) for x in curve.grid]
    assert _bits(curve.h) == _bits(h for h, _ in fresh)
    assert _bits(curve.quad_error) == _bits(err for _, err in fresh)


@pytest.mark.parametrize("alpha, beta, x_max", [
    (0.5, 1.0, 1e300), (1.5, 2.0, 1e150), (1.0, 1.0, 1e300),
    (0.3, 2.5, 1e100), (2.5, 0.7, 1e300)])
def test_power_piece_error_bound_brackets_exact_h(alpha, beta, x_max):
    # (beta - alpha) ln x reaches 345 here, and expm1 multiplies the
    # rounding of the log by it: the bound must carry that term
    xs = np.geomspace(1.0, x_max, 500)
    model = make_pareto(alpha)
    hs, errs = _accumulate(model, beta, xs, 1e-10, *_read_law(model, beta, xs))
    exact = np.array([float(pareto_hu(alpha, 1.0, beta, x)[0])
                      for x in xs.tolist()])
    assert (np.abs(hs - exact) <= errs).all()


@st.composite
def _tables(draw):
    """A log-linear table, a beta, and increasing points reaching past it.

    Rows have flat runs (exponent 0) and steep ones; the first row may have
    sf < 1, and half the time beta equals one exponent of the table exactly.
    """
    n = draw(st.integers(2, 10))
    x = 10.0 ** draw(st.floats(-1.0, 2.0))
    t = draw(st.sampled_from((1.0, 0.3)) | st.floats(0.01, 1.0))
    rows = [(x, t)]
    for _ in range(n - 1):
        x_next = x * 10.0 ** draw(st.floats(0.05, 3.0))
        a = draw(st.sampled_from((0.0, 0.5, 1.0, 2.0)) | st.floats(0.01, 3.0))
        t = max(t * (x_next / x) ** -a, 1e-250)
        x = x_next
        rows.append((x, t))
    # from inside the table to three decades past its last row
    span = draw(st.floats(0.05, math.log10(x / rows[0][0]) + 3.0))
    xs = np.unique(rows[0][0] * 10.0 ** np.array(
        [-0.3, span, *draw(st.lists(st.floats(0.0, span), max_size=30))]))
    pick = draw(st.integers(0, n - 2))
    beta = draw(st.floats(0.2, 3.0))
    return rows, xs, beta, (pick if draw(st.booleans()) else None)


def _closed_piece(beta, lo, hi, t, a):
    """beta * int_lo^hi y^(beta-1) t (y/lo)^-a dy in closed form, by math."""
    if a == 0.0:
        return t * (hi ** beta - lo ** beta)
    c = beta - a
    log_q = math.log(hi / lo)
    growth = log_q if c == 0.0 else math.expm1(c * log_q) / c
    return t * lo ** beta * beta * growth


@given(case=_tables())
@settings(max_examples=150, deadline=None)
def test_table_kernel_agrees_with_quadrature_and_closed_form_sums(case):
    rows, xs, beta, pick = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w") as fh:
            fh.write("x,tail\n" + "".join(f"{x!r},{t!r}\n" for x, t in rows))
        model = load_tabulated(path)
    table_exps = model.pieces(rows[0][0], rows[-1][0])[2]
    if pick is not None and table_exps[pick] > 0.0:
        beta = float(table_exps[pick])  # a piece on the logarithmic branch
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # past the last row
        knots, sfs, exps = model.pieces(model.support_floor, float(xs[-1]))
        hs, errs = _accumulate(model, beta, xs, 1e-10,
                               *_read_law(model, beta, xs))
    assert np.isfinite(hs).all() and (np.diff(hs) >= 0.0).all()
    floor = model.support_floor
    for x, h, err in zip(xs.tolist(), hs, errs):
        if x <= floor:
            assert h == _powers(np.array([x]), beta)[0]
            continue
        ends = [*(k for k in knots.tolist() if k < x), x]
        closed = [floor ** beta]
        quad, quad_err = floor ** beta, 0.0
        for i, (lo, hi) in enumerate(zip(ends, ends[1:])):
            closed.append(_closed_piece(beta, lo, hi, float(sfs[i]),
                                        float(exps[i])))
            # exp(log(lo)) can round below lo, where sf may jump (the floor)
            def sf(y, lo=lo, hi=hi):
                return model.tail(np.clip(y, lo, hi))

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # past the last row
                value, value_err = integrate_tail(sf, beta, [lo, hi], 1e-12)
            quad += value[0]
            quad_err += value_err[0]
        assert abs(h - math.fsum(closed)) <= err, (x, h, math.fsum(closed), err)
        assert abs(h - quad) <= err + quad_err, (x, h, quad, err, quad_err)


def reference_pieces(beta_g, p, lo, hi):
    """geometric(beta_g, p)'s pieces(lo, hi), its powers taken for this call."""
    ks = (np.arange(max(1, _floor_log(max(lo, p), p)), _floor_log(hi, p) + 1,
                    dtype=float) if hi >= p else np.zeros(0))
    ps = np.full(len(ks), p)
    return (_scalar_pow(ps, ks), _scalar_pow(ps, -beta_g * ks),
            np.zeros(len(ks)))


def reference_base_grid(lo, hi, ppd):
    """build_grid's geometric points over [lo, hi] before any kink joins:
    lo times the steps 10 ** (k / ppd), each by libm's pow."""
    n = int(math.ceil(math.log10(hi / lo) * ppd))
    grid = lo * np.array([math.pow(10.0, k / ppd) for k in range(1, n)])
    grid = np.concatenate(([lo], grid[grid < hi * (1.0 - _SNAP)], [hi]))
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


@pytest.mark.parametrize("ppd", [8, 16, 64, 100])
@pytest.mark.parametrize("x_min", [1.0, 0.37])
def test_held_grid_steps_give_the_fresh_grid_bitwise(monkeypatch, ppd, x_min):
    # short, long, short again: a grid cut from a longer held table, and the
    # one that grew it, are the grids of a fresh power. The model's one kink
    # is x_min, which stays a grid point anyway
    monkeypatch.setattr(moments, "_STEPS", {})
    model = make_pareto(1.5, x_floor=x_min)
    for x_max in (1e5, 1e300, 1e12, 3.3e7, 1.7e308 * x_min):
        params = AnalysisParams(beta=2.0, x_min=x_min, x_max=x_max,
                                points_per_decade=ppd)
        assert build_grid(model, params).tobytes() == reference_base_grid(
            x_min, x_max, ppd).tobytes(), x_max
    assert not moments._STEPS[ppd].flags.writeable


@pytest.mark.parametrize("x_max", [1.01, 1.1, 1.2])
def test_a_span_of_one_step_at_a_new_density_is_the_fresh_grid(monkeypatch,
                                                                  x_max):
    # x_max / x_min at or below 10^(1/ppd): no geometric point between, and
    # no table held yet at this density
    monkeypatch.setattr(moments, "_STEPS", {})
    params = AnalysisParams(beta=2.0, x_max=x_max, points_per_decade=16)
    assert build_grid(make_pareto(1.5), params).tobytes() == \
        reference_base_grid(1.0, x_max, 16).tobytes()


def test_a_sweep_over_densities_holds_a_bounded_number_of_tables(monkeypatch):
    monkeypatch.setattr(moments, "_STEPS", {})
    model = make_pareto(1.5)
    for ppd in range(8, 8 + 3 * moments._DENSITIES_HELD):
        params = AnalysisParams(beta=2.0, x_max=1e300, points_per_decade=ppd)
        assert build_grid(model, params).tobytes() == reference_base_grid(
            1.0, 1e300, ppd).tobytes(), ppd
        assert ppd in moments._STEPS
        assert len(moments._STEPS) <= moments._DENSITIES_HELD


_SPANS = st.lists(st.tuples(st.floats(0.5, 1.7e308), st.floats(0.5, 1.7e308)),
                  min_size=1, max_size=8)


@given(beta_g=st.floats(0.2, 4.0), p=st.floats(1.5, 16.0), spans=_SPANS)
@example(beta_g=1.0, p=2.0,  # k = 1023, then lo above hi, then hi below p
         spans=[(1.0, 1e3), (1.0, 1.7e308), (1e20, 1e10), (0.5, 1.9), (3.0, 9.0)])
@example(beta_g=1.5, p=2.0,  # levels subnormal, then 0, past 2^(1022/1.5)
         spans=[(1e300, 1.7e308), (1.0, 1e200), (2e205, 7e215)])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_held_geometric_law_gives_the_fresh_pieces_bitwise(beta_g, p, spans):
    # one model asked in any order: the held law grows and is sliced, and
    # every call's arrays are the fresh call's bytes, read-only
    model = make_geometric_tail(beta_g, p)
    for lo, hi in spans:
        got = model.pieces(lo, hi)
        for held, fresh in zip(got, reference_pieces(beta_g, p, lo, hi)):
            assert held.tobytes() == fresh.tobytes(), (lo, hi)
            assert not held.flags.writeable
