"""Asymptotic estimators: regular-variation indices, limit shares, de Haan test.

Regular variation with index rho means f(lambda x) / f(x) -> lambda^rho, so
log-ratios at fixed scale factors estimate rho. A single scale factor can be
fooled by log-periodic structure (sampling a pure oscillation at its own
period aliases it to a constant), hence estimates pool several lambdas and
convergence additionally demands small spread across scales and no trend in
the observation window.

The de Haan class test uses the centered ratio

    R(x, lam) = (sf(lam x) - sf(x / lam)) / (sf(e x) - sf(x / e))

which tends to ln(lam) for class members. Centering kills the first-order
slowly varying correction, so convergence is visibly faster than one-sided
differencing; for a pure power tail x^(-a) the ratio is sinh(a ln lam)/sinh(a)
at every x, cleanly separated from ln(lam).
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .catalog import TailModel
from .errors import IndeterminateError, InsufficientDataError
from .params import AnalysisParams

#: relative tolerance on |R - ln lam| for de Haan class membership
PI_REL_TOL = 0.05
#: denominators this small relative to sf(x) make the centered ratio meaningless
_DENOM_FLOOR = 1e-13
#: log-ratios are "commensurable" when close to a fraction p/q with q <= this
_COMMENSURATE_MAX_DEN = 6
_MIN_PAIRS = 8
_INF_GAMMA = 1e6


@dataclass(frozen=True)
class RVEstimate:
    """Pooled regular-variation index estimate with convergence diagnostics.

    converged requires both a small spread across scale points and no drift
    between the near and far halves of the window. per_scale is a record
    array with one row per log-ratio observation, lam by lam and x
    ascending, fields x, lam, estimate = log(f(lam x) / f(x)) / log(lam),
    and interpolated (False when lam x is a grid node). lambdas are the
    distinct lam of per_scale, ascending.
    """

    rho_hat: float
    per_scale: np.recarray
    converged: bool
    spread: float
    trend: float
    window: tuple[float, float]
    lambdas: tuple[float, ...]


@dataclass(frozen=True)
class PiTestResult:
    """Outcome of the de Haan class membership test.

    c_hat fixes the sign gauge (+-1): only the product c * ell is
    identifiable from survival differences sf(x) - sf(e x), which carry the
    magnitude of the auxiliary function ell and c_hat its sign.
    ell_index_hat is a rough diagnostic index of ell, estimated from the
    decay of those differences; it is informational and never gates
    membership.
    """

    is_member: bool
    c_hat: float
    n_skipped: int
    window: tuple[float, float]
    max_residual_rel: float
    ell_index_hat: float | None


@dataclass(frozen=True)
class GammaResult:
    """Limit of u/v with the induced split of the moment order.

    gamma_hat = lim x^beta sf(x) / v(x); p_hat = beta / (1 + gamma_hat);
    rho_hat = beta - p_hat. regime is one of 'interior', 'rho_zero',
    'rho_beta', 'indeterminate'.
    """

    gamma_hat: float
    p_hat: float
    rho_hat: float
    regime: str


def _centered(sf_up, sf_down, sf_x, sf_ex, sf_xe):
    """(sf(lam x) - sf(x/lam)) / (sf(e x) - sf(x/e)) from those values."""
    denom = sf_ex - sf_xe
    vanishes = np.abs(denom) <= _DENOM_FLOOR * np.maximum(sf_x, 1e-300)
    return (sf_up - sf_down) / np.where(vanishes, np.nan, denom)


@functools.cache
def has_incommensurable_pair(lambdas: tuple[float, ...]) -> bool:
    """True when some pair of scale factors has incommensurable logarithms.

    The log of the larger factor over the log of the smaller close to a
    fraction p/q with q <= 6 means a log-periodic oscillation can alias
    identically at both scales; such a pair cannot certify non-convergence.
    Pairs far from all such fractions can.
    """
    logs = [math.log(l) for l in lambdas]
    for i in range(len(logs)):
        for j in range(i + 1, len(logs)):
            ratio = max(logs[i], logs[j]) / min(logs[i], logs[j])
            frac = Fraction(ratio).limit_denominator(_COMMENSURATE_MAX_DEN)
            if abs(ratio - float(frac)) > 1e-9:
                return True
    return False


def _window(xs: np.ndarray, params: AnalysisParams):
    """(lo, hi, span, win): the tail window clipped to the increasing xs, the
    slice of xs up to the first point at or above hi, and that of its points."""
    lo, hi = params.window()
    lo, hi = max(lo, float(xs[0])), min(hi, float(xs[-1]))
    a, b = int(xs.searchsorted(lo)), int(xs.searchsorted(hi)) + 1
    return lo, hi, slice(a, b), slice(a, b - int(xs[b - 1] > hi))


#: what the RV estimates read off increasing positive xs and params
ScalePlan = namedtuple("ScalePlan", "lo hi span win log_xs x_at node off "
                                    "log_target log_lam x lam lambdas")


def scale_plan(xs: np.ndarray, params: AnalysisParams) -> ScalePlan:
    """The scale plan of increasing samples xs, for every lambda at once.

    Pairs (lam, x) run lam by lam over window points x with lam x <= hi.
    Reads stay in xs[span] (_window). x_at and node index x and lam x's node
    in the span; off flags each lam x that is no node, and log_target is its
    np.log, the log that log_xs takes of the nodes. x, lam and log_lam are a
    pair's, and lambdas are the distinct lam that have pairs, ascending.
    """
    lo, hi, span, win = _window(xs, params)
    xs_w, lams = xs[span], np.array(params.lambdas)
    with np.errstate(over="ignore"):  # lam x past the float range: outside
        targets = lams[:, None] * xs_w
    fit = targets <= hi
    k, x_at = fit.nonzero()
    target = targets[fit]  # in the order of k, x_at
    j = xs_w.searchsorted(target)  # xs_w[j - 1] < target <= xs_w[j]
    cand = np.array((np.maximum(j - 1, 0), np.minimum(j, len(xs_w) - 1)))
    hit = np.abs(xs_w[cand] - target) <= 1e-9 * target
    node = np.where(hit[0], cand[0], np.where(hit[1], cand[1], -1))  # j - 1 wins
    off, x = node < 0, xs_w[x_at]
    log_lam = np.array([math.log(lam) for lam in params.lambdas])[k]
    paired = lams[fit.any(axis=1)]
    return ScalePlan(lo, hi, span, win, np.log(xs_w), x_at, node, off,
                     np.log(target[off]), log_lam, x, lams[k],
                     tuple(sorted(set(paired.tolist()))))


def _log_ratios(plan: ScalePlan, fss):
    """(ok, estimates): whether the plan reads each series of fss (positive in
    its span and just below it), and log(f(lam x) / f(x)) / log(lam) at its
    pairs, a row per series it reads; one np.log and one np.interp a row."""
    start = max(plan.span.start - 1, 0)
    read = np.array([fs[start:plan.span.stop] for fs in fss])
    ok = (read > 0.0).all(axis=1) & (read.shape[1] >= 2)
    log_fs = np.log(read[ok, plan.span.start - start:])
    log_f = log_fs.take(plan.node, axis=1)
    for row, log_row in zip(log_f, log_fs):
        row[plan.off] = np.interp(plan.log_target, plan.log_xs, log_row)
    log_f -= log_fs.take(plan.x_at, axis=1)
    log_f /= plan.log_lam
    return ok, log_f


def rv_statistics(plan: ScalePlan, fss) -> list[tuple[float, float, float] | None]:
    """(rho_hat, spread, trend) of estimate_rv_index for each series of fss
    over the plan's xs, in one pass, a row per series; None for a series with
    a non-positive sample the plan reads; all when < _MIN_PAIRS pairs fit."""
    if len(plan.x) < _MIN_PAIRS:
        return [None] * len(fss)
    ok, estimates = _log_ratios(plan, fss)
    stats = iter(_row_stats(estimates, plan.x, plan.lo, plan.hi))
    return [next(stats) if k else None for k in ok.tolist()]


def estimate_rv_index(xs: np.ndarray, fs: np.ndarray,
                      params: AnalysisParams) -> RVEstimate:
    """Estimate the regular-variation index of samples fs over increasing xs.

    For each scale factor lam in params.lambdas and each window point x with
    lam*x inside the window, record log(f(lam x)/f(x)) / log(lam). A target
    lam*x within relative 1e-9 of a grid node reads that node's sample;
    otherwise f(lam x) is log-log interpolated and the pair is flagged.
    Pools everything into rho_hat and judges convergence by spread and trend.
    Non-positive samples are dropped and the rest planned (scale_plan); it
    is the one-series case of rv_statistics.
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if len(xs) != len(fs) or len(xs) < 2:
        raise InsufficientDataError("need matching xs/fs arrays of length >= 2")
    # zeros (e.g. v at the support floor) carry no log-ratio information
    pos = fs > 0.0
    xs, fs = xs[pos], fs[pos]
    if len(xs) < 2:
        raise InsufficientDataError("fewer than 2 strictly positive samples")
    plan = scale_plan(xs, params)
    lo, hi = plan.lo, plan.hi
    if len(plan.x) < _MIN_PAIRS:
        raise InsufficientDataError(f"only {len(plan.x)} scale pairs fit the "
                                    f"window [{lo:g}, {hi:g}]; need {_MIN_PAIRS}")
    estimate = _log_ratios(plan, (fs,))[1]
    (rho_hat, spread, trend), = _row_stats(estimate, plan.x, lo, hi)
    per_scale = np.rec.fromarrays((plan.x, plan.lam, estimate[0], plan.off),
                                  names=("x", "lam", "estimate", "interpolated"))
    return RVEstimate(rho_hat=rho_hat, per_scale=per_scale,
                      converged=params.converged(spread, trend), spread=spread,
                      trend=trend, window=(lo, hi), lambdas=plan.lambdas)


def _row_stats(ys: np.ndarray, xs: np.ndarray, lo: float, hi: float):
    """(mean, spread, trend) of each row of ys at the points xs of the window
    [lo, hi]: spread is the half-range, and trend the gap between the means
    of the samples below the window's geometric midpoint and of the others
    (inf if either is empty). Each sum is np.add.reduce of a 1-d row, as
    ndarray.mean takes it; a 2-d reduction can differ in the last bit."""
    near = xs < math.sqrt(lo) * math.sqrt(hi)  # lo * hi overflows past 1e154
    n, n_near = ys.shape[1], int(np.count_nonzero(near))
    n_far = n - n_near
    add, top, bottom = np.add.reduce, np.maximum.reduce, np.minimum.reduce
    return [(float(add(y)) / n, float(top(y) - bottom(y)) / 2.0,
             abs(float(add(a)) / n_near - float(add(b)) / n_far)
             if n_near and n_far else math.inf)
            for y, a, b in zip(ys, ys[:, near], ys[:, ~near])]


def _series_stats(xs: np.ndarray, ys: np.ndarray, window):
    """(mean, spread, trend, win) of ys in the window's slice win of the
    increasing xs; window is _window(xs, params), or a plan of xs."""
    lo, hi, _, win = window[:4]
    n = win.stop - win.start
    if n < 2:
        raise InsufficientDataError(
            f"only {n} samples inside window [{lo:g}, {hi:g}]")
    return (*_row_stats(ys[None, win], xs[win], lo, hi)[0], win)


def pi_class_test(model: TailModel, params: AnalysisParams) -> PiTestResult:
    """Test membership of the survival function in the de Haan class.

    Membership requires, for every configured scale factor, the centered
    ratio to stay within PI_REL_TOL of ln(lam) across the whole window.
    Points where the base step sf(e x) - sf(x/e) vanishes numerically are
    skipped; if everything is skipped the test is indeterminate (typical of
    exactly constant or purely atomic tails sampled between atoms). The tail
    is called once, on x, e x, x/e, lam x and x/lam for every lam in one
    array. The window's top is clipped so that lam x and e x stay inside
    the float range.
    """
    lo, hi = params.window()
    lo = max(lo, model.support_floor * math.e)  # keep x/e above the floor
    hi = min(hi, sys.float_info.max / max(*params.lambdas, math.e))
    if not lo < hi:
        raise IndeterminateError(
            f"window [{lo:g}, {hi:g}] is empty for model {model.name!r}")
    decades = math.log10(hi) - math.log10(lo)  # hi / lo may overflow
    n_pts = int(math.ceil(decades * params.points_per_decade)) + 1
    xs = np.geomspace(lo, hi, max(n_pts, 2))
    lambdas = [l for l in params.lambdas if not math.isclose(l, math.e)]
    if not lambdas:
        raise IndeterminateError("all scale factors coincide with the base e")
    lams, n = np.array(lambdas)[:, None], len(xs)
    sf = model.tail(np.concatenate((xs, math.e * xs, xs / math.e,
                                    (lams * xs).ravel(), (xs / lams).ravel())))
    base = sf[:n], sf[n:2 * n], sf[2 * n:3 * n]  # sf at x, e x, x/e
    r = _centered(*sf[3 * n:].reshape(2, len(lambdas), n), *base)  # row per lam
    used = ~np.isnan(r)
    n_skipped = int(r.size - used.sum())
    residuals = [float(np.max(np.abs(row[ok] - math.log(lam)) / math.log(lam)))
                 for lam, row, ok in zip(lambdas, r, used) if ok.any()]
    if not residuals:
        raise IndeterminateError(
            f"centered ratio undefined everywhere in [{lo:g}, {hi:g}] "
            f"for model {model.name!r}")
    max_rel = max(residuals)
    is_member = max_rel <= PI_REL_TOL

    # auxiliary-function samples from forward e-steps; sign fixes the gauge c
    diffs = base[0] - base[1]
    nonzero = diffs[diffs != 0.0]
    c_hat = 1.0 if not len(nonzero) or nonzero[-1] >= 0.0 else -1.0
    ell = diffs / c_hat
    pos = ell > 0.0
    ell_index_hat = None
    if pos.sum() >= _MIN_PAIRS:
        # the least-squares slope by hand: np.polyfit's LAPACK call would
        # touch ~1 MB of buffers, the only LAPACK use of a report
        lx, ly = np.log(xs[pos]), np.log(ell[pos])
        lx -= lx.mean()
        ell_index_hat = float(np.sum(lx * (ly - ly.mean())) / np.sum(lx * lx))
    return PiTestResult(is_member=is_member, c_hat=c_hat,
                        n_skipped=n_skipped, window=(lo, hi),
                        max_residual_rel=max_rel, ell_index_hat=ell_index_hat)


def gamma_classification(curve, params: AnalysisParams,
                         r1_stats=None) -> GammaResult:
    """Classify the limiting regime from the boundary/Stieltjes ratio u/v.

    gamma = lim u/v induces p = beta/(1+gamma) and rho = beta - p. The same
    rho is measured directly as beta * r1 (exact algebra: beta*gamma/(1+gamma)
    = beta*u/h); the two must agree or the result is indeterminate. Regime
    bands around 0 and beta have half-width params.regime_band(). r1_stats
    is _series_stats of curve.r1, for a caller that has it already.
    """
    beta = params.beta
    if r1_stats is None:
        r1_stats = _series_stats(curve.grid, curve.r1,
                                 _window(curve.grid, params))
    r1_mean, spread, trend, win = r1_stats
    us, vs, r1s = curve.u[win], curve.v[win], curve.r1[win]
    rho_mean = beta * r1_mean
    rho_max = beta * float(np.maximum.reduce(r1s))
    rho_min = beta * float(np.minimum.reduce(r1s))
    band = params.regime_band()

    gammas = np.divide(us, vs, out=np.full(len(vs), np.inf), where=vs > 0.0)
    inf = np.isinf(gammas)
    if inf.all() or ((gammas > _INF_GAMMA).all()
                     and (gammas[1:] - gammas[:-1] >= 0.0).all()):
        # the Stieltjes part carries a vanishing share: boundary term dominates
        return GammaResult(gamma_hat=math.inf, p_hat=0.0, rho_hat=beta,
                           regime="rho_beta")
    if inf.any():
        # isolated zero-v points among finite ratios: no stable limit
        return GammaResult(gamma_hat=math.inf, p_hat=0.0, rho_hat=beta,
                           regime="indeterminate")
    gamma_hat = float(np.add.reduce(gammas)) / len(gammas)
    p_hat = beta / (1.0 + gamma_hat)
    rho_from_gamma = beta - p_hat
    consistent = abs(rho_from_gamma - rho_mean) <= 2.0 * params.eps_rho
    series_converged = params.converged(spread, trend)

    if consistent and rho_mean <= band and rho_max <= 2.0 * band:
        regime = "rho_zero"
    elif consistent and rho_mean >= beta - band and rho_min >= beta - 2.0 * band:
        regime = "rho_beta"
    elif consistent and series_converged and band < rho_mean < beta - band:
        regime = "interior"
    else:
        regime = "indeterminate"
    return GammaResult(gamma_hat=gamma_hat, p_hat=p_hat, rho_hat=rho_from_gamma,
                       regime=regime)
