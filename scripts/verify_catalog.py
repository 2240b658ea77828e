"""Run the theorem verifier across the analytic catalog and print a summary.

Usage: python scripts/verify_catalog.py [--x-max 1e15]

One row per (model, beta) pair: regime, the five condition verdicts, the
de Haan call where it applies, and the overall consistency. Serves as a
quick eyeball check that every regime of the equivalence shows up in the
catalog and nothing drifts after a change. Exits 1 when any row is
inconsistent (NO), any equivalence check fails (FAIL) or any violation is
printed, and 0 otherwise.
"""

import argparse
import sys

from tailmoments import (AnalysisParams, AdmissionError, build_curve,
                         check_asymptotic_equivalences, make_geometric_tail,
                         make_inverse_log, make_log_pareto, make_pareto,
                         make_st_petersburg, verify)


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
        except AdmissionError:
            print(f"{model.name:34s} {beta:4g} {'inadmissible':>13s}")
            continue
        r = verify(model, params, curve)
        verdicts = " ".join(short[c.verdict] for c in
                            (r.cond_h_rv, r.cond_v_rv, r.cond_f_rv,
                             r.cond_lim1, r.cond_lim2))
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
