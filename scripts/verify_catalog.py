"""Run the theorem verifier across the analytic catalog and print a summary.

Usage: python scripts/verify_catalog.py [--x-max 1e15]

One row per (model, beta) pair: regime, the five condition verdicts, the
de Haan call where it applies and the overall consistency, then a line per
windowed moment ratio against the limit the theorem implies (ok or FAIL).
A model with a finite moment prints as inadmissible, any other computation
error as an "error: <message>" row. Exits 1 when any row errors or is
inconsistent (NO), a check fails or a violation is printed, and 0
otherwise: a quick look that every regime of the equivalence shows up in
the catalog and nothing drifts after a change.
"""

import argparse
import sys
from collections import namedtuple

import numpy as np

from tailmoments import (AnalysisParams, AdmissionError, TailMomentsError,
                         build_curve, make_geometric_tail, make_inverse_log,
                         make_log_pareto, make_pareto, make_st_petersburg,
                         verify)

EquivalenceCheck = namedtuple("EquivalenceCheck",
                              "name observed expected passed")


def check_asymptotic_equivalences(report, curve, params):
    """Compare windowed moment ratios against their theorem-implied limits.

    Interior: h/u -> beta/rho and h/v -> beta/(beta-rho), at relative
    tolerance 0.1. Boundaries: the dominant ratio -> 1 (relative 0.1) and
    the vanishing share -> 0 (absolute 0.15: slowly varying corrections
    decay like 1/log). Each ratio is its mean over params.window().
    """
    lo, hi = params.window()
    win = (curve.grid >= lo) & (curve.grid <= hi)
    h, v, beta, rho = curve.h, curve.v, report.beta, report.gamma.rho_hat
    with np.errstate(divide="ignore"):
        h_u = h / curve.u
    h_v = np.divide(h, v, out=np.full(len(v), np.inf), where=v > 0)
    limits = {"rho_zero": (("h/v -> 1", h_v, 1), ("u/h -> 0", curve.r1, 0)),
              "rho_beta": (("h/u -> 1", h_u, 1), ("v/h -> 0", curve.r2, 0))}
    if report.regime == "interior":  # 0 < rho < beta: both limits finite
        limits["interior"] = (("h/u -> beta/rho", h_u, beta / rho),
                              ("h/v -> beta/(beta-rho)", h_v,
                               beta / (beta - rho)))

    def check(name, ratios, expected):
        observed = float(ratios[win].mean())
        err, tol = abs(observed - expected), 0.15  # a share tends to 0
        if expected:  # a ratio tends to a nonzero limit
            err, tol = err / abs(expected), 0.1
        return EquivalenceCheck(name, observed, expected, err <= tol)
    return [check(*limit) for limit in limits.get(report.regime, ())]


def cases():
    yield make_pareto(1.5, 1.0), 2.0
    yield make_pareto(0.5, 1.0), 1.0
    yield make_pareto(1.0, 1.0), 1.0          # critical order, rho = 0
    yield make_log_pareto(0.5, 1.0), 1.0
    yield make_st_petersburg(), 1.0           # rho = 0 with non-RV tail
    yield make_geometric_tail(0.5, 3.0), 0.5
    yield make_geometric_tail(1.0, 2.0), 2.0  # off-critical: indeterminate
    yield make_inverse_log(), 1.0             # rho = beta
    yield make_inverse_log(), 2.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--x-max", type=float, default=1e15)
    args = ap.parse_args()

    header = (f"{'model':34s} {'beta':>4s} {'regime':>13s} "
              f"{'h v f l1 l2':>14s} {'deHaan':>6s} {'consistent':>10s}")
    print(header)
    print("-" * len(header))
    short = {"true": "T", "false": "F", "undecided": "?"}
    clean = True
    for model, beta in cases():
        params = AnalysisParams(beta=beta, x_max=args.x_max)
        try:
            curve = build_curve(model, params)
            r = verify(model, params, curve)
        except AdmissionError:
            print(f"{model.name:34s} {beta:4g} {'inadmissible':>13s}")
            continue
        except TailMomentsError as exc:
            print(f"{model.name:34s} {beta:4g} error: {exc}")
            clean = False
            continue
        verdicts = " ".join(short[c.verdict] for c in r.conditions.values())
        dehaan = "-" if r.pi_result is None else ("yes" if r.pi_result.is_member
                                                  else "no")
        consistent = {True: "yes", False: "NO", None: "n/a"}[r.consistent]
        clean = clean and r.consistent is not False
        print(f"{model.name:34s} {beta:4g} {r.regime:>13s} {verdicts:>14s} "
              f"{dehaan:>6s} {consistent:>10s}")
        for check in check_asymptotic_equivalences(r, curve, params):
            mark = "ok" if check.passed else "FAIL"
            clean = clean and check.passed
            print(f"    {check.name:28s} observed {check.observed:9.4f} "
                  f"expected {check.expected:9.4f}  {mark}")
        for violation in r.violations:
            print(f"    VIOLATION: {violation}")
        clean = clean and not r.violations
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
