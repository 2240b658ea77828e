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

import math
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
#: log-ratios are "commensurable" when close to a fraction p/q with p, q <= this
_COMMENSURATE_MAX_DEN = 6
_MIN_PAIRS = 8
_INF_GAMMA = 1e6


@dataclass(frozen=True)
class ScalePoint:
    """One log-ratio observation: estimate = log(f(lam*x)/f(x)) / log(lam)."""

    x: float
    lam: float
    estimate: float
    interpolated: bool


@dataclass(frozen=True)
class RVEstimate:
    """Pooled regular-variation index estimate with convergence diagnostics.

    converged requires both a small spread across scale points and no drift
    between the near and far halves of the window.
    """

    rho_hat: float
    per_scale: tuple[ScalePoint, ...]
    converged: bool
    spread: float
    trend: float
    window: tuple[float, float]


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


def centered_pi_ratio(tail, x: float, lam: float) -> float:
    """(sf(lam x) - sf(x/lam)) / (sf(e x) - sf(x/e)); nan when the base step vanishes."""
    denom = tail(math.e * x) - tail(x / math.e)
    if abs(denom) <= _DENOM_FLOOR * max(tail(x), 1e-300):
        return math.nan
    return (tail(lam * x) - tail(x / lam)) / denom


def has_incommensurable_pair(lambdas) -> bool:
    """True when some pair of scale factors has incommensurable logarithms.

    log lam_i / log lam_j close to a small fraction p/q (p, q <= 6) means a
    log-periodic oscillation can alias identically at both scales; such a
    pair cannot certify non-convergence. Pairs far from all small fractions
    can.
    """
    logs = [math.log(l) for l in lambdas]
    for i in range(len(logs)):
        for j in range(i + 1, len(logs)):
            ratio = logs[i] / logs[j]
            frac = Fraction(ratio).limit_denominator(_COMMENSURATE_MAX_DEN)
            if abs(ratio - float(frac)) > 1e-9:
                return True
    return False


def _window_slice(xs: np.ndarray, params: AnalysisParams) -> tuple[float, float]:
    lo, hi = params.window()
    lo = max(lo, float(xs[0]))
    hi = min(hi, float(xs[-1]))
    return lo, hi


def estimate_rv_index(xs: np.ndarray, fs: np.ndarray, params: AnalysisParams,
                      lambdas: tuple[float, ...] | None = None) -> RVEstimate:
    """Estimate the regular-variation index of samples fs over grid xs.

    For each scale factor lam and each window point x with lam*x inside the
    window, record log(f(lam x)/f(x)) / log(lam). Exact grid matches are
    preferred; otherwise f(lam x) is log-log interpolated and the point is
    flagged. Pools everything into rho_hat and judges convergence by spread
    and trend.
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
    if lambdas is None:
        lambdas = params.lambdas
    lo, hi = _window_slice(xs, params)
    log_xs = np.log(xs)
    log_fs = np.log(fs)
    points: list[ScalePoint] = []
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
                log_f_target = float(np.interp(math.log(target), log_xs, log_fs))
                interp = True
            points.append(ScalePoint(
                x=x, lam=lam,
                estimate=(log_f_target - float(log_fs[i])) / log_lam,
                interpolated=interp))
    if len(points) < _MIN_PAIRS:
        raise InsufficientDataError(
            f"only {len(points)} scale pairs fit the window [{lo:g}, {hi:g}]; "
            f"need {_MIN_PAIRS}")
    rho_hat, spread, trend = _stats(np.array([p.x for p in points]),
                                    np.array([p.estimate for p in points]),
                                    lo, hi)
    return RVEstimate(rho_hat=rho_hat, per_scale=tuple(points),
                      converged=params.converged(spread, trend), spread=spread,
                      trend=trend, window=(lo, hi))


def _stats(xs: np.ndarray, ys: np.ndarray, lo: float, hi: float):
    """(mean, spread, trend) of samples ys taken at xs inside [lo, hi].

    spread is the half-range; trend is the gap between the means of the
    samples below and above the geometric midpoint of the window.
    """
    mid = math.sqrt(lo * hi)
    near = ys[xs < mid]
    far = ys[xs >= mid]
    trend = (abs(float(near.mean()) - float(far.mean()))
             if len(near) and len(far) else math.inf)
    return float(ys.mean()), float((ys.max() - ys.min()) / 2.0), trend


def _series_stats(xs: np.ndarray, ys: np.ndarray, params: AnalysisParams):
    """(mean, spread, trend) of ys restricted to the window."""
    lo, hi = _window_slice(xs, params)
    mask = (xs >= lo) & (xs <= hi)
    n = int(mask.sum())
    if n < 2:
        raise InsufficientDataError(
            f"only {n} samples inside window [{lo:g}, {hi:g}]")
    return _stats(xs[mask], ys[mask], lo, hi)


def limit_ratio_r1(curve, params: AnalysisParams) -> tuple[float, bool]:
    """Windowed limit of r1 = x^beta sf(x) / h(x) with a convergence flag."""
    mean, spread, trend = _series_stats(curve.grid, curve.r1, params)
    return mean, params.converged(spread, trend)


def pi_class_test(model: TailModel, params: AnalysisParams) -> PiTestResult:
    """Test membership of the survival function in the de Haan class.

    Membership requires, for every configured scale factor, the centered
    ratio to stay within PI_REL_TOL of ln(lam) across the whole window.
    Points where the base step sf(e x) - sf(x/e) vanishes numerically are
    skipped; if everything is skipped the test is indeterminate (typical of
    exactly constant or purely atomic tails sampled between atoms).
    """
    lo, hi = params.window()
    lo = max(lo, model.support_floor * math.e)  # keep x/e above the floor
    if not lo < hi:
        raise IndeterminateError(
            f"window [{lo:g}, {hi:g}] is empty for model {model.name!r}")
    n_pts = int(math.ceil(math.log10(hi / lo) * params.points_per_decade)) + 1
    xs = np.geomspace(lo, hi, max(n_pts, 2))
    lambdas = [l for l in params.lambdas if not math.isclose(l, math.e)]
    if not lambdas:
        raise IndeterminateError("all scale factors coincide with the base e")
    n_skipped = 0
    max_rel = 0.0
    per_lambda: dict[float, float] = {}
    used_any = False
    for lam in lambdas:
        log_lam = math.log(lam)
        worst = 0.0
        used = 0
        for x in xs:
            r = centered_pi_ratio(model.tail, float(x), lam)
            if math.isnan(r):
                n_skipped += 1
                continue
            used += 1
            worst = max(worst, abs(r - log_lam) / log_lam)
        if used == 0:
            continue
        used_any = True
        per_lambda[lam] = worst
        max_rel = max(max_rel, worst)
    if not used_any:
        raise IndeterminateError(
            f"centered ratio undefined everywhere in [{lo:g}, {hi:g}] "
            f"for model {model.name!r}")
    is_member = all(res <= PI_REL_TOL for res in per_lambda.values())

    # auxiliary-function samples from forward e-steps; sign fixes the gauge c
    diffs = [(float(x), model.tail(float(x)) - model.tail(math.e * float(x)))
             for x in xs]
    nonzero = [d for _, d in diffs if d != 0.0]
    c_hat = 1.0 if not nonzero or nonzero[-1] >= 0.0 else -1.0
    ell_index_hat = None
    pos = [(x, d / c_hat) for x, d in diffs if d / c_hat > 0.0]
    if len(pos) >= _MIN_PAIRS:
        lx = np.log([x for x, _ in pos])
        le = np.log([e for _, e in pos])
        ell_index_hat = float(np.polyfit(lx, le, 1)[0])
    return PiTestResult(is_member=is_member, c_hat=c_hat,
                        per_lambda_residuals=per_lambda,
                        n_skipped=n_skipped, window=(lo, hi),
                        max_residual_rel=max_rel, ell_index_hat=ell_index_hat)


def gamma_classification(curve, params: AnalysisParams) -> GammaResult:
    """Classify the limiting regime from the boundary/Stieltjes ratio u/v.

    gamma = lim u/v induces p = beta/(1+gamma) and rho = beta - p. The same
    rho is measured directly as beta * r1 (exact algebra: beta*gamma/(1+gamma)
    = beta*u/h); the two must agree or the result is indeterminate. Regime
    bands around 0 and beta have half-width params.regime_band().
    """
    beta = params.beta
    lo, hi = _window_slice(curve.grid, params)
    mask = (curve.grid >= lo) & (curve.grid <= hi)
    us = curve.u[mask]
    vs = curve.v[mask]
    r1s = curve.r1[mask]
    if len(r1s) < 2:
        raise InsufficientDataError(
            f"only {len(r1s)} samples inside window [{lo:g}, {hi:g}]")
    rho_mean = beta * float(r1s.mean())
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
    _, spread, trend = _series_stats(curve.grid, curve.r1, params)
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
