"""Cross-checking the equivalence theorem on a concrete model.

The theorem ties five statements together for a model with an infinite
moment of order beta, 0 <= rho <= beta:

  1. h is regularly varying with index rho
  2. v is regularly varying with index rho
  3. the survival function is regularly varying with index rho - beta
  4. x^beta sf(x) / h(x) -> rho / beta
  5. v(x) / h(x) -> 1 - rho / beta

For 0 < rho < beta all five are equivalent. At the boundaries the picture
weakens: at rho = 0 the survival-function statement may fail while the rest
hold (the log-periodic step tail is the canonical witness), and at
rho = beta the Stieltjes statement is equivalent to membership of sf in the
de Haan class.

The verifier estimates every statement independently, classifies the regime
from the boundary/Stieltjes mass split, and checks that no decided verdict
contradicts what the theorem requires in that regime. Estimates that have
not converged stay 'undecided' and never count against consistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import (GammaResult, PiTestResult, RVEstimate,
                          _series_stats, estimate_rv_index,
                          gamma_classification, has_incommensurable_pair,
                          pi_class_test)
from .catalog import TailModel
from .errors import IndeterminateError, InsufficientDataError
from .moments import MomentCurve, build_curve, check_admission
from .params import AnalysisParams

_TRUE, _FALSE, _UNDECIDED = "true", "false", "undecided"
#: a spread this many times the convergence tolerance signals real oscillation
_DIVERGENCE_FACTOR = 5.0


@dataclass(frozen=True)
class ConditionVerdict:
    """Three-valued outcome of one theorem condition.

    estimate is the implied moment-index rho for the RV conditions (for the
    survival function the stored index is rho - beta) and the limiting ratio
    for the share conditions; None when no estimate could be formed.
    """

    verdict: str
    estimate: float | None
    spread: float


@dataclass(frozen=True)
class EquivalenceCheck:
    """One asymptotic ratio compared against its theorem-implied limit."""

    name: str
    observed: float
    expected: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class TheoremReport:
    """Full verification outcome for one model at one beta.

    consistent is None when the regime could not be classified, otherwise
    True/False with violations naming every decided contradiction.
    """

    model_name: str
    beta: float
    regime: str
    cond_h_rv: ConditionVerdict
    cond_v_rv: ConditionVerdict
    cond_f_rv: ConditionVerdict
    cond_lim1: ConditionVerdict
    cond_lim2: ConditionVerdict
    gamma: GammaResult
    pi_result: PiTestResult | None
    consistent: bool | None
    violations: tuple[str, ...]


def _rv_verdict(est: RVEstimate | None, params: AnalysisParams,
                index_shift: float = 0.0) -> ConditionVerdict:
    """Three-valued call on a regular-variation estimate.

    Convergence means true. Calling false needs more: a spread far above the
    tolerance AND scale factors with incommensurable logs, otherwise a
    log-periodic tail sampled at its own period could fake stability.
    """
    if est is None:
        return ConditionVerdict(verdict=_UNDECIDED, estimate=None, spread=math.inf)
    estimate = est.rho_hat + index_shift
    if est.converged:
        return ConditionVerdict(verdict=_TRUE, estimate=estimate, spread=est.spread)
    lambdas = {p.lam for p in est.per_scale}
    if (est.spread > _DIVERGENCE_FACTOR * params.spread_tol
            and has_incommensurable_pair(sorted(lambdas))):
        return ConditionVerdict(verdict=_FALSE, estimate=estimate, spread=est.spread)
    return ConditionVerdict(verdict=_UNDECIDED, estimate=estimate, spread=est.spread)


def _limit_verdict(mean: float, spread: float, trend: float,
                   params: AnalysisParams) -> ConditionVerdict:
    if params.converged(spread, trend):
        return ConditionVerdict(verdict=_TRUE, estimate=mean, spread=spread)
    if spread > _DIVERGENCE_FACTOR * params.spread_tol:
        return ConditionVerdict(verdict=_FALSE, estimate=mean, spread=spread)
    return ConditionVerdict(verdict=_UNDECIDED, estimate=mean, spread=spread)


def _implied_rho(report_beta: float, name: str, cond: ConditionVerdict) -> float | None:
    """Moment-index rho implied by a condition that holds.

    A condition judged false (not regularly varying, no limit) has no index.
    """
    if cond.estimate is None or cond.verdict != _TRUE:
        return None
    if name == "f_rv":
        return cond.estimate + report_beta
    if name == "lim1":
        return report_beta * cond.estimate
    if name == "lim2":
        return report_beta * (1.0 - cond.estimate)
    return cond.estimate  # h_rv, v_rv store rho directly


def verify(model: TailModel, params: AnalysisParams,
           curve: MomentCurve | None = None) -> TheoremReport:
    """Run every theorem condition on a model and judge global consistency."""
    if curve is None:
        curve = build_curve(model, params)  # includes the admission check
    else:
        check_admission(model, params, curve)

    def rv(values: np.ndarray) -> RVEstimate | None:
        try:
            return estimate_rv_index(curve.grid, values, params)
        except InsufficientDataError:
            return None

    cond_h = _rv_verdict(rv(curve.h), params)
    cond_v = _rv_verdict(rv(curve.v), params)
    cond_f = _rv_verdict(rv(curve.u), params, index_shift=-params.beta)

    r1_mean, r1_spread, r1_trend = _series_stats(curve.grid, curve.r1, params)
    cond_lim1 = _limit_verdict(r1_mean, r1_spread, r1_trend, params)
    # r2 = 1 - r1 pointwise, so the share statistics mirror exactly
    cond_lim2 = ConditionVerdict(verdict=cond_lim1.verdict,
                                 estimate=1.0 - r1_mean, spread=r1_spread)

    gamma = gamma_classification(curve, params)

    pi_result: PiTestResult | None = None
    if gamma.regime == "rho_beta":
        try:
            pi_result = pi_class_test(model, params)
        except IndeterminateError:
            pi_result = None

    conds = {"h_rv": cond_h, "v_rv": cond_v, "f_rv": cond_f,
             "lim1": cond_lim1, "lim2": cond_lim2}
    consistent, violations = _judge(conds, gamma, pi_result, params)
    return TheoremReport(model_name=model.name, beta=params.beta,
                         regime=gamma.regime, cond_h_rv=cond_h, cond_v_rv=cond_v,
                         cond_f_rv=cond_f, cond_lim1=cond_lim1,
                         cond_lim2=cond_lim2, gamma=gamma, pi_result=pi_result,
                         consistent=consistent, violations=violations)


def _judge(conds: dict[str, ConditionVerdict], gamma: GammaResult,
           pi_result: PiTestResult | None,
           params: AnalysisParams) -> tuple[bool | None, tuple[str, ...]]:
    """Apply the regime-specific consistency rules.

    Only decided verdicts participate, and only true ones imply an index.
    In the interior all five conditions must be true and their implied
    indices must agree. At rho = 0 the
    survival-function condition is exempt (it may legitimately fail). At
    rho = beta the Stieltjes condition is tied to de Haan membership by the
    boundary equivalence, checked only when both sides are decided.
    """
    if gamma.regime == "indeterminate":
        return None, ()
    beta = params.beta
    band = params.regime_band()
    violations: list[str] = []

    rhos = {name: _implied_rho(beta, name, cond) for name, cond in conds.items()}
    decided = {name: rho for name, rho in rhos.items() if rho is not None}
    names = sorted(decided)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if abs(decided[a] - decided[b]) > 2.0 * params.eps_rho:
                violations.append(
                    f"index disagreement: {a} implies rho={decided[a]:.4f} but "
                    f"{b} implies rho={decided[b]:.4f}")

    if gamma.regime == "interior":
        for name, cond in conds.items():
            if cond.verdict == _FALSE:
                violations.append(
                    f"{name} is false but every condition must hold for "
                    f"0 < rho < beta")
    elif gamma.regime == "rho_zero":
        for name, cond in conds.items():
            if name == "f_rv":
                continue  # the one condition allowed to fail at rho = 0
            if cond.verdict == _FALSE:
                violations.append(f"{name} is false but must hold at rho = 0")
        for name, rho in decided.items():
            if name == "f_rv":
                continue
            if rho > band + 2.0 * params.eps_rho:
                violations.append(
                    f"{name} implies rho={rho:.4f}, too large for the rho = 0 regime")
    else:  # rho_beta
        for name, cond in conds.items():
            if name == "v_rv":
                continue  # governed by the de Haan biconditional below
            if cond.verdict == _FALSE:
                violations.append(f"{name} is false but must hold at rho = beta")
        for name, rho in decided.items():
            if name == "v_rv":
                continue
            if rho < beta - band - 2.0 * params.eps_rho:
                violations.append(
                    f"{name} implies rho={rho:.4f}, too small for the "
                    f"rho = beta regime")
        if conds["v_rv"].verdict != _UNDECIDED and pi_result is not None:
            v_holds = conds["v_rv"].verdict == _TRUE
            if v_holds != pi_result.is_member:
                violations.append(
                    "at rho = beta the Stieltjes moment is regularly varying "
                    "iff the survival function is in the de Haan class: "
                    f"v_rv={conds['v_rv'].verdict} but "
                    f"membership={pi_result.is_member}")

    return (len(violations) == 0), tuple(violations)


def check_asymptotic_equivalences(report: TheoremReport, curve: MomentCurve,
                                  params: AnalysisParams) -> list[EquivalenceCheck]:
    """Compare windowed moment ratios against their theorem-implied limits.

    Interior regime: h/u -> beta/rho and h/v -> beta/(beta-rho), judged at
    relative tolerance 0.1. Boundary regimes: the dominant ratio tends to 1
    (relative 0.1) and the vanishing share to 0 (absolute 0.15, since slowly
    varying corrections decay like 1/log in the window).
    """
    checks: list[EquivalenceCheck] = []

    def windowed_mean(values: np.ndarray) -> float:
        return _series_stats(curve.grid, values, params)[0]

    def add(name: str, observed: float, expected: float, tol: float,
            relative: bool) -> None:
        err = abs(observed - expected)
        if relative:
            err /= abs(expected)
        checks.append(EquivalenceCheck(name=name, observed=observed,
                                       expected=expected, tol=tol,
                                       passed=err <= tol))

    rho = report.gamma.rho_hat
    beta = report.beta
    h_over_v = np.where(curve.v > 0, curve.h / np.where(curve.v > 0, curve.v, 1.0),
                        np.inf)
    if report.regime == "interior":
        with np.errstate(divide="ignore"):
            add("h/u -> beta/rho", windowed_mean(curve.h / curve.u),
                beta / rho, 0.1, relative=True)
        add("h/v -> beta/(beta-rho)", windowed_mean(h_over_v),
            beta / (beta - rho), 0.1, relative=True)
    elif report.regime == "rho_zero":
        add("h/v -> 1", windowed_mean(h_over_v), 1.0, 0.1, relative=True)
        add("u/h -> 0", windowed_mean(curve.r1), 0.0, 0.15, relative=False)
    elif report.regime == "rho_beta":
        add("h/u -> 1", windowed_mean(curve.h / curve.u), 1.0, 0.1, relative=True)
        add("v/h -> 0", windowed_mean(curve.r2), 0.0, 0.15, relative=False)
    return checks
