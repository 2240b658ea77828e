"""Acceptance suite: every stated requirement, one test each, at the stated
tolerance. Run with -v to get one pass/fail line per requirement."""

import json
import math
from dataclasses import replace
import subprocess
import sys
import time

import numpy as np

from oracles import atom_sum_v, geometric_atoms
from probes import centered_pi_ratio
from tailmoments.asymptotics import (estimate_rv_index, gamma_classification,
                                     pi_class_test)
from tailmoments.catalog import (load_tabulated, make_geometric_tail,
                                 make_inverse_log, make_log_pareto,
                                 make_pareto, make_st_petersburg)
from tailmoments.cli import main
from tailmoments.moments import build_curve, compute_h, compute_u
from tailmoments.params import AnalysisParams
from tailmoments.verifier import verify


def _cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# 1. closed-form moment values for the power tail

def test_acc_power_tail_closed_form_values_fast():
    m = make_pareto(1.5, 1.0)
    t0 = time.perf_counter()
    h, _ = compute_h(m, 2.0, 100.0, rel_tol=1e-10)
    v = h - compute_u(m, 2.0, 100.0)
    elapsed = time.perf_counter() - t0
    assert abs(h - 37.0) <= 1e-8 * 37.0
    assert abs(v - 27.0) <= 1e-8 * 27.0
    assert elapsed < 1.0
    print(f"PASS: h(100)={h:.12g} (37 within 1e-8), v(100)={v:.12g} "
          f"(27 within 1e-8), {elapsed * 1e3:.1f} ms")


# ---------------------------------------------------------------------------
# 2. interior-regime estimates for the power tail

def test_acc_power_tail_interior_estimates():
    m = make_pareto(1.5, 1.0)
    p = AnalysisParams(beta=2.0, x_max=1e8)
    c = build_curve(m, p)
    for name, series in (("h", c.h), ("v", c.v), ("u", c.u)):
        est = estimate_rv_index(c.grid, series, p)
        assert est.converged, name
        assert abs(est.rho_hat - 0.5) <= 0.01, (name, est.rho_hat)
    lim1 = verify(m, p, c).conditions["lim1"]
    r1, converged = lim1.estimate, lim1.verdict == "true"
    assert converged and abs(r1 - 0.25) <= 0.005
    g = gamma_classification(c, p)
    assert abs(g.gamma_hat - 1.0 / 3.0) <= 0.01
    assert abs(g.p_hat - 1.5) <= 0.02
    assert g.regime == "interior"
    code = _cli("verify", "--dist", "pareto", "--param", "alpha=1.5",
                "--beta", "2", "--x-max", "1e8")
    assert code == 0
    print(f"PASS: rho_hat(h,v,u) all within 0.5+-0.01, r1={r1:.4f}, "
          f"gamma={g.gamma_hat:.4f}, p={g.p_hat:.4f}, verify exit 0")


# ---------------------------------------------------------------------------
# 3. log-periodic staircase: exact values, slow variation, non-RV tail

def test_acc_staircase_exact_moments_and_log_periodicity():
    m = make_st_petersburg()
    for n in range(0, 41):
        h, _ = compute_h(m, 1.0, 2.0 ** n)
        assert h == n + 1.0, n
    p = AnalysisParams(beta=1.0, x_max=1e26)
    c = build_curve(m, p)
    est_h = estimate_rv_index(c.grid, c.h, p)
    assert est_h.converged
    assert abs(est_h.rho_hat) <= 0.02
    # r1 at 2^40: h = 41, u in [1, 2), so the share is tiny but positive
    r1_40 = compute_u(m, 1.0, 2.0 ** 40) / compute_h(m, 1.0, 2.0 ** 40)[0]
    assert r1_40 == 1.0 / 41.0
    # the tail-weight u is genuinely log-periodic: factor ~2^(15/16) over
    # any stretch of octaves, wherever the window starts
    ks = np.arange(0, 16 * 3 + 1)
    for start in (20.0, 57.3, 60.0):
        us = np.array([compute_u(m, 1.0, float(x))
                       for x in 2.0 ** (start + ks / 16.0)])
        assert us.max() / us.min() >= 1.8, start
    est_u = estimate_rv_index(c.grid, c.u, p)
    assert not est_u.converged
    r = verify(m, p, c)
    assert r.conditions["f_rv"].verdict == "false"
    assert r.consistent is True
    code = _cli("verify", "--dist", "st_petersburg", "--beta", "1",
                "--x-max", "1e26")
    assert code == 0
    print(f"PASS: h(2^n)=n+1 exact for n<=40, rho_hat(h)={est_h.rho_hat:.4f} "
          f"within +-0.02, u oscillation {us.max() / us.min():.3f}x, "
          f"tail-RV rejected, verify exit 0")


# ---------------------------------------------------------------------------
# 4. slowly varying tail: de Haan membership and boundary regime

def test_acc_de_haan_centered_ratios_at_1e8():
    m = make_inverse_log()
    for lam in (2.0, 8.0):
        r = centered_pi_ratio(m.tail, 1e8, lam)
        assert abs(r - math.log(lam)) <= 0.05 * math.log(lam), lam
    print("PASS: centered ratios at x=1e8 within 5% of log(lambda) "
          "for lambda in {2, 8}")


def test_acc_stieltjes_index_reaches_beta():
    m = make_inverse_log()
    p = AnalysisParams(beta=1.0, x_max=1e50)
    c = build_curve(m, p)
    est = estimate_rv_index(c.grid, c.v, p)
    assert est.converged
    assert abs(est.rho_hat - 1.0) <= 0.02
    print(f"PASS: rho_hat(v)={est.rho_hat:.4f} within 1+-0.02")


def test_acc_share_approaches_one_at_log_rate():
    m = make_inverse_log()
    p = AnalysisParams(beta=1.0)
    c = build_curve(m, p)
    lo, hi = p.window()
    mask = (c.grid >= lo) & (c.grid <= hi)
    bound = 1.5 / np.log(c.grid[mask])
    assert (np.abs(c.r1[mask] - 1.0) <= bound).all()
    print("PASS: |r1 - 1| <= 1.5/ln(x) across the analysis window")


def _normalized_stieltjes(x):
    """v(x) (ln x)^2 / x of inverse_log at order 1, and ln x."""
    m = make_inverse_log()
    h, _ = compute_h(m, 1.0, x)
    return (h - compute_u(m, 1.0, x)) * math.log(x) ** 2 / x, math.log(x)


def test_acc_normalized_stieltjes_follows_its_expansion_at_1e12():
    # v (ln x)^2 / x = sum_k k! / L^(k-1) = 1 + 2/L + 6/L^2 + 24/L^3 + R,
    # L = ln x: 1.0816 at x = 1e12, not 1 +- 0.05. Every omitted term is
    # positive, so R exceeds the first of them, 120/L^4; they sum to about
    # 1 / (1 - 6/L) times it (1.30 against 40-digit mpmath at 1e12), so R
    # stays below twice it
    value, L = _normalized_stieltjes(1e12)
    rest = value - (1.0 + 2.0 / L + 6.0 / L ** 2 + 24.0 / L ** 3)
    assert 0.0 < rest <= 2.0 * 120.0 / L ** 4


def test_acc_normalized_stieltjes_one_within_5pct_past_5e18():
    # the expansion puts v (ln x)^2 / x inside 1 +- 0.05 only from
    # ln x = 43.08, x = 5.1e18, on; at 1e19 it is 1.0492
    value, _ = _normalized_stieltjes(1e19)
    assert abs(value - 1.0) <= 0.05


def test_acc_boundary_biconditional():
    m = make_inverse_log()
    p = AnalysisParams(beta=1.0, x_max=1e15)
    from tailmoments.verifier import verify
    r = verify(m, p)
    assert r.regime == "rho_beta"
    assert r.consistent is True
    assert r.conditions["v_rv"].verdict == "true"
    assert r.pi_result is not None and r.pi_result.is_member
    print("PASS: consistent at rho=beta with the Stieltjes RV condition and "
          "de Haan membership both true")


# ---------------------------------------------------------------------------
# 5. decomposition identity across the whole catalog

def _independent_v(model, beta, x, staircase):
    """v by a route that never touches the curve accumulation.

    Returns (value, reported_error): the exact atom sum of a geometric
    staircase, given as its (beta_g, p), with zero reported error, otherwise
    a fresh single-shot computation carrying its own error bound.
    """
    u = compute_u(model, beta, x)
    if staircase is not None:
        atoms = geometric_atoms(*staircase, model.support_floor, x)
        return atom_sum_v(atoms, beta), 0.0
    h_fresh, err_fresh = compute_h(model, beta, x)
    return h_fresh - u, err_fresh


def test_acc_identity_battery(power_table):
    from tailmoments.errors import AdmissionError
    betas = (0.5, 1.0, 2.0)
    worst = 0.0
    checked = 0
    skipped = 0
    for beta in betas:
        # one representative per catalog family, at orders spanning all
        # regimes; combinations with a finite moment are skipped (the
        # admission rule owns those)
        models = [(make_pareto(0.75 * beta, 1.0), None),
                  (make_geometric_tail(beta, 2.0), (beta, 2.0)),
                  (make_geometric_tail(beta, 3.0), (beta, 3.0)),
                  (make_st_petersburg(), (1.0, 2.0)),
                  (make_inverse_log(), None),
                  (make_log_pareto(0.5 * beta, 1.0), None),
                  (load_tabulated(power_table), None)]
        p = AnalysisParams(beta=beta, x_max=1e12)
        for model, staircase in models:
            try:
                c = build_curve(model, p)
            except AdmissionError:
                skipped += 1
                continue
            for i in range(len(c.grid)):
                x = float(c.grid[i])
                v_ind, err_ind = _independent_v(model, beta, x, staircase)
                gap = abs(c.h[i] - v_ind - compute_u(model, beta, x))
                tol = 2.0 * (c.quad_error[i] + err_ind)
                assert gap <= tol, (model.name, beta, x, gap, tol)
                worst = max(worst, gap / max(tol, 1e-300))
                checked += 1
    print(f"PASS: |h - v - u| within twice the reported error at {checked} "
          f"points (7 models x {len(betas)} orders, {skipped} finite-moment "
          f"combos skipped), worst margin use {worst:.3f}")


# ---------------------------------------------------------------------------
# 6. logarithmic derivative of the moment equals the boundary share

def test_acc_log_derivative_matches_share():
    cases = ((make_pareto(1.5, 1.0), AnalysisParams(beta=2.0, x_max=1e8)),
             (make_inverse_log(), AnalysisParams(beta=1.0)))
    worst = 0.0
    for model, p in cases:
        c = build_curve(model, p)
        lg, lh = np.log(c.grid), np.log(c.h)
        fd = (lh[2:] - lh[:-2]) / (lg[2:] - lg[:-2])
        target = p.beta * c.r1[1:-1]
        interior = c.grid[1:-1] >= 10.0 * model.support_floor
        err = np.abs(fd - target)[interior]
        assert (err <= 1e-3).all(), (model.name, err.max())
        worst = max(worst, float(err.max()))
    print(f"PASS: d(ln h)/d(ln x) = beta*r1 within 1e-3 beyond 10x the "
          f"support floor (worst {worst:.2e})")


# ---------------------------------------------------------------------------
# 7. aliasing guard in the index estimator

def test_acc_single_scale_aliasing_guard():
    m = make_st_petersburg()
    xs = 2.0 ** (np.arange(0, 16 * 40 + 1) / 16.0)
    us = np.array([compute_u(m, 1.0, float(x)) for x in xs])
    p = AnalysisParams(beta=1.0, x_min=1.0, x_max=float(xs[-1]))
    est2 = estimate_rv_index(xs, us, replace(p, lambdas=(2.0,)))
    assert est2.converged and abs(est2.rho_hat) < 1e-9
    est23 = estimate_rv_index(xs, us, replace(p, lambdas=(2.0, 3.0)))
    assert not est23.converged
    print(f"PASS: lambda={{2}} aliases the staircase to rho=0 'converged', "
          f"adding lambda=3 exposes it (spread {est23.spread:.3f})")


# ---------------------------------------------------------------------------
# 8. inadmissible model rejected up front

def test_acc_finite_moment_rejected_with_exit_1(capsys):
    code = _cli("verify", "--dist", "pareto", "--param", "alpha=3",
                "--beta", "2")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "finite moment" in captured.err
    print("PASS: finite-moment model exits 1 before any analysis output")


# ---------------------------------------------------------------------------
# end-to-end console script

def test_acc_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "tailmoments.cli", "verify", "--dist",
         "pareto", "--param", "alpha=1.5", "--beta", "2", "--x-max", "1e8"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["consistent"] is True and doc["regime"] == "interior"
    print("PASS: module entry point verifies the interior model with exit 0")
