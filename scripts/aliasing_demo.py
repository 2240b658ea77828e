"""Show how a single scale factor aliases a log-periodic tail weight.

The dyadic staircase has tail weight u(x) = x * sf(x) that is exactly
periodic in log2(x). Probing regular variation with lambda = 2 alone samples
that oscillation at its own period: every log-ratio is exactly zero and the
estimator reports a clean, converged index of 0 for a function that has no
limit at all. Adding any scale factor whose log is incommensurable with
log 2 exposes the oscillation immediately.

Usage: python scripts/aliasing_demo.py
"""

from dataclasses import replace

import numpy as np

from tailmoments import AnalysisParams, estimate_rv_index, make_st_petersburg


def main():
    model = make_st_petersburg()
    ks = np.arange(0, 16 * 40 + 1)
    xs = 2.0 ** (ks / 16.0)  # dyadic-friendly grid, 16 points per octave
    us = np.array([float(x) * model.tail(float(x)) for x in xs])
    params = AnalysisParams(beta=1.0, x_min=1.0, x_max=float(xs[-1]))

    print("tail weight u(x) = x * sf(x) of the dyadic staircase")
    print(f"  oscillation over any octave: factor {us.max() / us.min():.4f}\n")

    for lambdas in ((2.0,), (4.0,), (2.0, 4.0), (2.0, 3.0), (2.0, np.e, 3.0, 8.0)):
        est = estimate_rv_index(xs, us, replace(params, lambdas=lambdas))
        name = ",".join(f"{l:g}" for l in lambdas)
        verdict = "CONVERGED (aliased!)" if est.converged else "not converged"
        print(f"  lambdas = {name:16s} rho_hat = {est.rho_hat:8.4f}  "
              f"spread = {est.spread:8.4f}  {verdict}")

    print("\npowers of 2 alias the period; 3 and e break it. the verifier")
    print("only trusts a regular-variation verdict, true or false, when the")
    print("scale factors contain a pair with incommensurable logs.")


if __name__ == "__main__":
    main()
