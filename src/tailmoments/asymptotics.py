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
    per_lambda_residuals: dict[float, float]
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


def centered_pi_ratio(tail, x, lam: float):
    """(sf(lam x) - sf(x/lam)) / (sf(e x) - sf(x/e)) at each of the points x;
    nan where the base step vanishes."""
    x = np.asarray(x, dtype=float)
    return _centered(tail(lam * x), tail(x / lam), tail(x), tail(math.e * x),
                     tail(x / math.e))[()]


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


def _window(xs: np.ndarray, params: AnalysisParams) -> tuple[float, float]:
    """The tail window clipped to the increasing samples xs."""
    lo, hi = params.window()
    return max(lo, float(xs[0])), min(hi, float(xs[-1]))


#: what estimate_rv_index reads off increasing positive xs and params
ScalePlan = namedtuple("ScalePlan", "lo hi span log_xs x_at node log_target "
                                    "log_lam rows lambdas")


def scale_plan(xs: np.ndarray, params: AnalysisParams) -> ScalePlan:
    """The scale plan of increasing samples xs, for every lambda at once.

    Pairs (lam, x) run lam by lam over window points x with lam x <= hi.
    Reads stay in xs[span]: the window, and the node above a hi off-node.
    x_at and node index x and lam x's node in the span; log_target is
    np.log of each off-node lam x, the log that log_xs takes of the nodes.
    rows is per_scale but for estimate, and lambdas the distinct lam that
    have pairs, ascending.
    """
    lo, hi = _window(xs, params)
    span = slice(int(np.searchsorted(xs, lo)), int(np.searchsorted(xs, hi)) + 1)
    xs_w, lams = xs[span], np.array(params.lambdas)
    with np.errstate(over="ignore"):  # lam x past the float range: outside
        targets = lams[:, None] * xs_w
    k, x_at = np.nonzero(targets <= hi)
    target = targets[k, x_at]
    j = np.searchsorted(xs_w, target)  # xs_w[j - 1] < target <= xs_w[j]
    node = np.full(len(j), -1)
    for m in (np.minimum(j, len(xs_w) - 1), np.maximum(j - 1, 0)):  # j - 1 wins
        node = np.where(np.abs(xs_w[m] - target) <= 1e-9 * target, m, node)
    rows = np.empty(len(j), [("x", float), ("lam", float),
                             ("estimate", float), ("interpolated", bool)])
    rows["x"], rows["lam"], rows["interpolated"] = xs_w[x_at], lams[k], node < 0
    log_target = np.log(target[node < 0])
    log_lam = np.array([math.log(lam) for lam in params.lambdas])[k]
    paired = lams[np.bincount(k, minlength=len(lams)) > 0]
    return ScalePlan(lo, hi, span, np.log(xs_w), x_at, node, log_target,
                     log_lam, rows, tuple(sorted(set(paired.tolist()))))


def estimate_rv_index(xs: np.ndarray, fs: np.ndarray, params: AnalysisParams,
                      plan: ScalePlan | None = None) -> RVEstimate:
    """Estimate the regular-variation index of samples fs over increasing xs.

    For each scale factor lam in params.lambdas and each window point x with
    lam*x inside the window, record log(f(lam x)/f(x)) / log(lam). A target
    lam*x within relative 1e-9 of a grid node reads that node's sample;
    otherwise f(lam x) is log-log interpolated and the pair is flagged.
    Pools everything into rho_hat and judges convergence by spread and trend.
    Non-positive samples are dropped. A plan from scale_plan(xs, params) is
    read when each such sample lies below the window and a sample short of
    it; otherwise the positive samples are planned, to the same estimate.
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if len(xs) != len(fs) or len(xs) < 2:
        raise InsufficientDataError("need matching xs/fs arrays of length >= 2")
    read = fs[max(plan.span.start - 1, 0):plan.span.stop] if plan else fs[:0]
    if len(read) < 2 or not (read > 0.0).all():
        # zeros (e.g. v at the support floor) carry no log-ratio information
        pos = fs > 0.0
        xs, fs = xs[pos], fs[pos]
        if len(xs) < 2:
            raise InsufficientDataError("fewer than 2 strictly positive samples")
        plan = scale_plan(xs, params)
    lo, hi, rows = plan.lo, plan.hi, plan.rows
    if len(rows) < _MIN_PAIRS:
        raise InsufficientDataError(f"only {len(rows)} scale pairs fit the window"
                                    f" [{lo:g}, {hi:g}]; need {_MIN_PAIRS}")
    log_fs = np.log(fs[plan.span])
    log_f = log_fs[plan.node]
    log_f[rows["interpolated"]] = np.interp(plan.log_target, plan.log_xs, log_fs)
    estimate = (log_f - log_fs[plan.x_at]) / plan.log_lam
    rho_hat, spread, trend = _stats(rows["x"], estimate, lo, hi)
    per_scale = rows.copy()
    per_scale["estimate"] = estimate
    return RVEstimate(rho_hat=rho_hat, per_scale=per_scale.view(np.recarray),
                      converged=params.converged(spread, trend), spread=spread,
                      trend=trend, window=(lo, hi), lambdas=plan.lambdas)


def _stats(xs: np.ndarray, ys: np.ndarray, lo: float, hi: float):
    """(mean, spread, trend) of samples ys taken at xs inside [lo, hi].

    spread is the half-range; trend is the gap between the means of the
    samples below and above the geometric midpoint of the window, formed
    without the product lo * hi, which overflows for windows past 1e154.
    """
    mid = math.sqrt(lo) * math.sqrt(hi)
    near = ys[xs < mid]
    far = ys[xs >= mid]
    trend = (abs(float(near.mean()) - float(far.mean()))
             if len(near) and len(far) else math.inf)
    return float(ys.mean()), float((ys.max() - ys.min()) / 2.0), trend


def _series_stats(xs: np.ndarray, ys: np.ndarray, params: AnalysisParams):
    """(mean, spread, trend, win) of ys restricted to the window, the slice
    win of the increasing xs."""
    lo, hi = _window(xs, params)
    win = slice(np.searchsorted(xs, lo), np.searchsorted(xs, hi, "right"))
    n = len(xs[win])
    if n < 2:
        raise InsufficientDataError(
            f"only {n} samples inside window [{lo:g}, {hi:g}]")
    return (*_stats(xs[win], ys[win], lo, hi), win)


def pi_class_test(model: TailModel, params: AnalysisParams) -> PiTestResult:
    """Test membership of the survival function in the de Haan class.

    Membership requires, for every configured scale factor, the centered
    ratio to stay within PI_REL_TOL of ln(lam) across the whole window.
    Points where the base step sf(e x) - sf(x/e) vanishes numerically are
    skipped; if everything is skipped the test is indeterminate (typical of
    exactly constant or purely atomic tails sampled between atoms). The tail
    is called once per abscissa array: x, e x, x/e, lam x and x/lam, the
    last two with a row per lam. The window's top is clipped so that lam x
    and e x stay inside the float range.
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
    tail, lams = model.tail, np.array(lambdas)[:, None]
    base = tail(xs), tail(math.e * xs), tail(xs / math.e)  # sf at x, e x, x/e
    r = _centered(tail(lams * xs), tail(xs / lams), *base)  # a row per lam
    used = ~np.isnan(r)
    n_skipped = int(r.size - used.sum())
    per_lambda = {lam: float(np.max(np.abs(row[ok] - math.log(lam))
                                    / math.log(lam)))
                  for lam, row, ok in zip(lambdas, r, used) if ok.any()}
    if not per_lambda:
        raise IndeterminateError(
            f"centered ratio undefined everywhere in [{lo:g}, {hi:g}] "
            f"for model {model.name!r}")
    max_rel = max(per_lambda.values())
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
                        per_lambda_residuals=per_lambda,
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
        r1_stats = _series_stats(curve.grid, curve.r1, params)
    r1_mean, spread, trend, win = r1_stats
    us, vs, r1s = curve.u[win], curve.v[win], curve.r1[win]
    rho_mean = beta * r1_mean
    rho_max = beta * float(r1s.max())
    rho_min = beta * float(r1s.min())
    band = params.regime_band()

    gammas = np.where(vs > 0.0, us / np.where(vs > 0.0, vs, 1.0), np.inf)
    if np.isinf(gammas).all() or ((gammas > _INF_GAMMA).all()
                                  and (np.diff(gammas) >= 0.0).all()):
        # the Stieltjes part carries a vanishing share: boundary term dominates
        return GammaResult(gamma_hat=math.inf, p_hat=0.0, rho_hat=beta,
                           regime="rho_beta")
    if np.isinf(gammas).any():
        # isolated zero-v points among finite ratios: no stable limit
        return GammaResult(gamma_hat=math.inf, p_hat=0.0, rho_hat=beta,
                           regime="indeterminate")
    gamma_hat = float(gammas.mean())
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
