"""The stacked de Haan test against the per-lambda form it replaced.

reference_pi_class_test is that form, kept as it was: the window grid from
np.geomspace, one residual list entry per scale factor with a used point
(|R - ln lam| / ln lam over that row's used points), the max of that list,
and the auxiliary-index fit by ndarray.mean and np.sum. pi_class_test must
return the same PiTestResult, float for float, and raise the same errors.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from tailmoments.asymptotics import (_MIN_PAIRS, PI_REL_TOL, PiTestResult,
                                     _centered, _geomspace, pi_class_test)
from tailmoments.catalog import (load_tabulated, make_geometric_tail,
                                 make_inverse_log, make_pareto)
from tailmoments.errors import IndeterminateError
from tailmoments.params import AnalysisParams


def reference_pi_class_test(model, params) -> PiTestResult:
    """pi_class_test by the per-lambda residual loop."""
    lo, hi = params.window()
    lo = max(lo, model.support_floor * math.e)
    hi = min(hi, sys.float_info.max / max(*params.lambdas, math.e))
    if not lo < hi:
        raise IndeterminateError(
            f"window [{lo:g}, {hi:g}] is empty for model {model.name!r}")
    decades = math.log10(hi) - math.log10(lo)
    n_pts = int(math.ceil(decades * params.points_per_decade)) + 1
    xs = np.geomspace(lo, hi, max(n_pts, 2))
    lambdas = [l for l in params.lambdas if not math.isclose(l, math.e)]
    if not lambdas:
        raise IndeterminateError("all scale factors coincide with the base e")
    lams, n = np.array(lambdas)[:, None], len(xs)
    sf = model.tail(np.concatenate((xs, math.e * xs, xs / math.e,
                                    (lams * xs).ravel(), (xs / lams).ravel())))
    base = sf[:n], sf[n:2 * n], sf[2 * n:3 * n]
    r = _centered(*sf[3 * n:].reshape(2, len(lambdas), n), *base)
    used = ~np.isnan(r)
    n_skipped = int(r.size - used.sum())
    residuals = [float(np.max(np.abs(row[ok] - math.log(lam)) / math.log(lam)))
                 for lam, row, ok in zip(lambdas, r, used) if ok.any()]
    if not residuals:
        raise IndeterminateError(
            f"centered ratio undefined everywhere in [{lo:g}, {hi:g}] "
            f"for model {model.name!r}")
    max_rel = max(residuals)
    diffs = base[0] - base[1]
    nonzero = diffs[diffs != 0.0]
    c_hat = 1.0 if not len(nonzero) or nonzero[-1] >= 0.0 else -1.0
    ell = diffs / c_hat
    pos = ell > 0.0
    ell_index_hat = None
    if pos.sum() >= _MIN_PAIRS:
        lx, ly = np.log(xs[pos]), np.log(ell[pos])
        lx -= lx.mean()
        ell_index_hat = float(np.sum(lx * (ly - ly.mean())) / np.sum(lx * lx))
    return PiTestResult(is_member=max_rel <= PI_REL_TOL, c_hat=c_hat,
                        n_skipped=n_skipped, window=(lo, hi),
                        max_residual_rel=max_rel, ell_index_hat=ell_index_hat)


def _table(tmp_path, rows):
    path = tmp_path / "t.csv"
    path.write_text("x,tail\n" + "".join(f"{x!r},{t!r}\n" for x, t in rows))
    return load_tabulated(str(path))


def _case(case, tmp_path):
    """(model, params) of a named case."""
    if case.startswith("inverse_log"):
        _, beta, x_max = case.split("-")
        return make_inverse_log(), AnalysisParams(beta=float(beta),
                                                  x_max=float(x_max))
    if case == "pareto-1.5-b2":
        return make_pareto(1.5, 1.0), AnalysisParams(beta=2.0)
    if case == "past-float-range":
        return make_pareto(0.5, x_floor=1e-300), AnalysisParams(
            beta=0.5, x_min=1e-300, x_max=1e300, window_decades=400)
    if case == "table":  # flat from 10 to 1e3, where e x and x/e tie
        return _table(tmp_path, [(1.0, 1.0), (10.0, 0.5), (1e3, 0.5),
                                 (1e6, 1e-3), (1e12, 1e-9)]), AnalysisParams(
            beta=1.0, x_max=1e9, window_decades=8.0)
    if case == "staircase":  # atoms at powers of 10, wider apart than e^2
        return make_geometric_tail(1.0, 10.0), AnalysisParams(beta=1.0,
                                                              x_max=1e12)
    if case == "no-e":
        return make_inverse_log(), AnalysisParams(beta=1.0,
                                                  lambdas=(1.5, 5.0, 20.0))
    raise AssertionError(case)


_CASES = [f"inverse_log-{b}-{x}" for b in (1, 2) for x in ("1e12", "1e15",
                                                          "1e300")]
_CASES += ["pareto-1.5-b2", "past-float-range", "table", "staircase", "no-e"]


@pytest.mark.parametrize("case", _CASES)
def test_pi_class_test_matches_the_per_lambda_loop(case, tmp_path):
    model, params = _case(case, tmp_path)
    got, want = pi_class_test(model, params), reference_pi_class_test(model,
                                                                      params)
    assert got == want
    assert repr(got) == repr(want)  # the same float types and signed zeros
    if case in ("table", "staircase"):
        assert got.n_skipped > 0  # the cases reach the skipped points


@pytest.mark.filterwarnings("ignore::tailmoments.ExtrapolationWarning")
@pytest.mark.parametrize("rows, lambdas, match", [
    ([(1.0, 1.0), (10.0, 1.0)], (2.0, 3.0), "undefined everywhere"),
    ([(1.0, 1.0), (10.0, 0.1)], (math.e,), "coincide with the base e"),
])
def test_pi_class_test_raises_as_the_per_lambda_loop(rows, lambdas, match,
                                                     tmp_path):
    model = _table(tmp_path, rows)
    params = AnalysisParams(beta=1.0, lambdas=lambdas)
    with pytest.raises(IndeterminateError, match=match) as want:
        reference_pi_class_test(model, params)
    with pytest.raises(IndeterminateError) as got:
        pi_class_test(model, params)
    assert str(got.value) == str(want.value)


def test_window_grid_is_geomspace_bitwise():
    # geomspace's own arithmetic; a numpy that changes it fails here
    rng = np.random.default_rng(29)
    pairs = [(1e-300, 1e300), (1e-300, 2e-300), (5e299, 1e300), (1.0, 10.0),
             (1.0, math.nextafter(1.0, 2.0)), (math.e, 1e12 / 3.0)]
    for lo, hi in pairs:
        for n in range(2, 2001):
            assert _geomspace(lo, hi, n).tobytes() == \
                np.geomspace(lo, hi, n).tobytes(), (lo, hi, n)
    ends = np.sort(10.0 ** rng.uniform(-300.0, 300.0, (40, 2)), axis=1)
    for (lo, hi), n in zip(ends.tolist(), rng.integers(2, 2001, 40).tolist()):
        assert _geomspace(lo, hi, n).tobytes() == \
            np.geomspace(lo, hi, n).tobytes(), (lo, hi, n)
