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
not converged, and regular-variation estimates from scale factors that could
alias or from a window that misses the kinks of a piecewise law, stay
'undecided' and never count against consistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .asymptotics import (_MIN_PAIRS, GammaResult, PiTestResult,
                          _series_stats, estimate_rv_index,
                          gamma_classification, has_incommensurable_pair,
                          pi_class_test, rv_statistics, scale_plan)
from .catalog import TailModel
from .errors import IndeterminateError, InsufficientDataError
from .moments import MomentCurve, build_curve, check_admission
from .params import AnalysisParams

#: the five statements of the theorem, in report order
CONDITIONS = ("h_rv", "v_rv", "f_rv", "lim1", "lim2")
_TRUE, _FALSE, _UNDECIDED = "true", "false", "undecided"
#: per classified regime: the condition the theorem lets fail there, and
#: what any other condition found false violates
_RULES = {
    "interior": (None, "every condition must hold for 0 < rho < beta"),
    "rho_zero": ("f_rv", "must hold at rho = 0"),
    "rho_beta": ("v_rv", "must hold at rho = beta"),
}
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


#: an RV statement with no index estimate: too few pairs or samples
_NO_ESTIMATE = ConditionVerdict(_UNDECIDED, None, math.inf)


@dataclass(frozen=True)
class TheoremReport:
    """Full verification outcome for one model at one beta.

    conditions maps each name of CONDITIONS, in that order, to its verdict.
    consistent is None when the regime could not be classified, otherwise
    True/False with violations naming every decided contradiction.
    """

    model_name: str
    beta: float
    regime: str
    conditions: dict[str, ConditionVerdict]
    gamma: GammaResult
    pi_result: PiTestResult | None
    consistent: bool | None
    violations: tuple[str, ...]


def _verdict(estimate: float, spread: float, trend: float,
             params: AnalysisParams, decidable: bool) -> ConditionVerdict:
    """Three-valued call: convergence means true, a spread far above the
    tolerance false. Either call needs decidable evidence; for an RV
    estimate that is a pair of scale factors with incommensurable logs,
    since a log-periodic tail sampled at its own period looks stable at
    every commensurable scale, and a window holding two knots of a law
    that has several.
    """
    verdict = _UNDECIDED
    if decidable and params.converged(spread, trend):
        verdict = _TRUE
    elif decidable and spread > _DIVERGENCE_FACTOR * params.spread_tol:
        verdict = _FALSE
    return ConditionVerdict(verdict=verdict, estimate=estimate, spread=spread)


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

    # a law with fewer than two kinks in the window but more across the range
    # looks like a single power there: its RV estimates are truncated
    truncated = (len(model.breakpoints(*params.window())) < 2
                 and len(model.breakpoints(params.x_min, params.x_max)) >= 2)
    plan = scale_plan(curve.grid, params)  # shared by h, v, u and r1
    shared = rv_statistics(plan, (curve.h, curve.v, curve.u))  # one pass

    def rv(values, stats, index_shift: float = 0.0) -> ConditionVerdict:
        lambdas = plan.lambdas
        if len(plan.x) < _MIN_PAIRS:  # no plan of fewer samples has more
            return _NO_ESTIMATE
        if stats is None:  # a sample the pass reads is not positive: own plan
            try:
                est = estimate_rv_index(curve.grid, values, params)
            except InsufficientDataError:
                return _NO_ESTIMATE
            stats, lambdas = (est.rho_hat, est.spread, est.trend), est.lambdas
        return _verdict(stats[0] + index_shift, *stats[1:], params,
                        not truncated and has_incommensurable_pair(lambdas))

    r1_stats = _series_stats(curve.grid, curve.r1, plan)
    r1_mean, r1_spread, r1_trend, _ = r1_stats
    lim1 = _verdict(r1_mean, r1_spread, r1_trend, params, decidable=True)
    # r2 = 1 - r1 pointwise, so the share statistics mirror exactly
    lim2 = ConditionVerdict(verdict=lim1.verdict, estimate=1.0 - r1_mean,
                            spread=r1_spread)
    conditions = dict(zip(CONDITIONS, (
        rv(curve.h, shared[0]), rv(curve.v, shared[1]),
        rv(curve.u, shared[2], index_shift=-params.beta), lim1, lim2)))

    gamma = gamma_classification(curve, params, r1_stats)

    pi_result: PiTestResult | None = None
    if gamma.regime == "rho_beta":
        try:
            pi_result = pi_class_test(model, params)
        except IndeterminateError:
            pi_result = None

    consistent, violations = _judge(conditions, gamma, pi_result, params)
    return TheoremReport(model_name=model.name, beta=params.beta,
                         regime=gamma.regime, conditions=conditions,
                         gamma=gamma, pi_result=pi_result,
                         consistent=consistent, violations=violations)


def _judge(conds: dict[str, ConditionVerdict], gamma: GammaResult,
           pi_result: PiTestResult | None,
           params: AnalysisParams) -> tuple[bool | None, tuple[str, ...]]:
    """Apply the consistency rules of the classified regime.

    Only decided verdicts participate, and only true ones imply an index;
    implied indices must agree. No condition but the regime's exempt one
    (_RULES) may be false or, at a boundary, imply an index outside the
    regime band. At rho = beta the exempt Stieltjes condition is tied to
    de Haan membership instead, checked only when both sides are decided.
    """
    if gamma.regime == "indeterminate":
        return None, ()
    exempt, must = _RULES[gamma.regime]
    beta = params.beta
    band = params.regime_band()
    rhos = {name: rho for name, cond in conds.items()
            if (rho := _implied_rho(beta, name, cond)) is not None}
    names = sorted(rhos)
    violations = [f"index disagreement: {a} implies rho={rhos[a]:.4f} but "
                  f"{b} implies rho={rhos[b]:.4f}"
                  for i, a in enumerate(names) for b in names[i + 1:]
                  if abs(rhos[a] - rhos[b]) > 2.0 * params.eps_rho]
    violations += [f"{name} is false but {must}"
                   for name, cond in conds.items()
                   if name != exempt and cond.verdict == _FALSE]
    for name, rho in rhos.items():
        if name == exempt:
            continue
        if gamma.regime == "rho_zero" and rho > band + 2.0 * params.eps_rho:
            violations.append(
                f"{name} implies rho={rho:.4f}, too large for the rho = 0 regime")
        elif (gamma.regime == "rho_beta"
              and rho < beta - band - 2.0 * params.eps_rho):
            violations.append(
                f"{name} implies rho={rho:.4f}, too small for the "
                f"rho = beta regime")
    v_rv = conds["v_rv"].verdict
    if (gamma.regime == "rho_beta" and v_rv != _UNDECIDED
            and pi_result is not None
            and (v_rv == _TRUE) != pi_result.is_member):
        violations.append(
            "at rho = beta the Stieltjes moment is regularly varying "
            "iff the survival function is in the de Haan class: "
            f"v_rv={v_rv} but membership={pi_result.is_member}")
    return not violations, tuple(violations)
