"""A correctness census of verify: known-truth cases and their outcomes.

A case is a model, an order beta and an x_max, run through verify at the
default params. Its truth is the moment index rho the theorem gives it:
the regime is 'rho_zero' at rho = 0, 'rho_beta' at rho = beta and
'interior' in between. A tail of index alpha has a finite beta-moment for
beta < alpha, and verify must reject it; at beta = alpha every family here
has an infinite one. The catalog families take rho from their models'
ground_truth, whose None off the critical order of a staircase claims no
regime; the three slowly varying families below have rho = beta at every
beta.

Each case gets one outcome of OUTCOMES, checked in this order: no report
but an AdmissionError is a correct rejection when the moment is finite and
an error otherwise, as is any other TailMomentsError; a report of a finite
moment, or a decided regime other than the true one, is a wrong regime; an
'indeterminate' regime is indeterminate; and a report of the true regime
is consistent or a false contradiction, since the theorem holds for every
case. FAILURES are the outcomes that are wrong.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, NamedTuple

import numpy as np

from tailmoments import (AdmissionError, AnalysisParams, TailModel,
                         TailMomentsError, make_geometric_tail,
                         make_inverse_log, make_log_pareto, make_pareto,
                         make_st_petersburg, verify)

BETAS = (0.5, 1.0, 1.5, 2.0, 3.0)
X_MAXES = (1e12, 1e30, 1e100, 1e300)
OUTCOMES = (RIGHT, REJECTED, INDETERMINATE, FALSE_CONTRADICTION,
            WRONG_REGIME, ERROR) = (
    "right regime, consistent", "finite moment, correctly rejected",
    "indeterminate", "false contradiction", "wrong decided regime",
    "error, no report")
FAILURES = (FALSE_CONTRADICTION, WRONG_REGIME, ERROR)


def _slowly_varying(name: str, floor: float, sf) -> TailModel:
    """A tail sf(x) for x >= floor, 1 below it, with sf(floor) = 1."""
    def tail(x):
        return np.minimum(sf(np.maximum(x, floor)), 1.0)[()]
    return TailModel(name=name, support_floor=floor, tail=tail)


def log_power(a: float) -> TailModel:
    """(ln x)^-a for x >= e; inverse_log is a = 1."""
    return _slowly_varying(f"log_power(a={a:g})", math.e,
                           lambda y: np.log(y) ** -a)


def exp_sqrt_log() -> TailModel:
    """exp(1 - sqrt(ln x)) for x >= e."""
    return _slowly_varying("exp(1-sqrt(ln x))", math.e,
                           lambda y: np.exp(1.0 - np.sqrt(np.log(y))))


def inverse_log_log() -> TailModel:
    """1 / ln ln x for x >= e^e."""
    return _slowly_varying("1/ln ln x", math.exp(math.e),
                           lambda y: 1.0 / np.log(np.log(y)))


class Family(NamedTuple):
    model: TailModel
    alpha: float  # tail index: the beta-moment is finite for beta < alpha
    rho_of: Callable[[float], float | None]


def families() -> list[Family]:
    """The 15 families: catalog ones with their ground_truth, then the
    slowly varying ones outside the catalog."""
    catalog = [(make_pareto(a), a) for a in (0.5, 1.0, 1.5, 2.0)]
    catalog += [(make_log_pareto(0.5, 1.0), 0.5),
                (make_log_pareto(1.5, -0.5), 1.5), (make_inverse_log(), 0.0),
                (make_st_petersburg(), 1.0),
                (make_geometric_tail(0.5, 3.0), 0.5),
                (make_geometric_tail(1.0, 10.0), 1.0),
                (make_geometric_tail(1.0, 2.0), 1.0)]
    slow = [log_power(0.5), log_power(2.0), exp_sqrt_log(), inverse_log_log()]
    return ([Family(m, a, m.ground_truth.rho_of) for m, a in catalog]
            + [Family(m, 0.0, lambda beta: beta) for m in slow])


class Row(NamedTuple):
    model: str
    beta: float
    x_max: float
    truth: str  # 'finite', a regime, or 'none' where no regime is claimed
    regime: str  # the report's, or the error's class name
    outcome: str


def _regime(rho: float | None, beta: float) -> str:
    if rho is None:
        return "none"
    if rho == 0.0:
        return "rho_zero"
    return "rho_beta" if rho == beta else "interior"


def run_case(family: Family, beta: float, x_max: float) -> Row:
    finite = beta < family.alpha
    truth = "finite" if finite else _regime(family.rho_of(beta), beta)
    row = (family.model.name, beta, x_max, truth)
    try:
        report = verify(family.model, AnalysisParams(beta=beta, x_max=x_max))
    except TailMomentsError as exc:
        rejected = finite and isinstance(exc, AdmissionError)
        return Row(*row, type(exc).__name__, REJECTED if rejected else ERROR)
    if finite or report.regime not in ("indeterminate", truth):
        outcome = WRONG_REGIME
    elif report.regime == "indeterminate":
        outcome = INDETERMINATE
    else:
        outcome = RIGHT if report.consistent else FALSE_CONTRADICTION
    return Row(*row, report.regime, outcome)


def census() -> list[Row]:
    """Every case: the families by BETAS by X_MAXES."""
    return [run_case(family, beta, x_max) for family in families()
            for beta in BETAS for x_max in X_MAXES]


def counts(rows: list[Row]) -> Counter:
    return Counter(row.outcome for row in rows)
