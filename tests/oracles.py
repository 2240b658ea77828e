"""Test oracles: values computed by routes the package's kernels never take.

The atoms of the geometric staircase come from its jump formula, and v from
their Stieltjes sum, v(x) = sum of loc^beta * jump over the atoms up to x,
with no use of the h kernel or of the tail function. The 40-digit mpmath
values of h and u are closed forms for pareto, the same atom sums for a
geometric staircase, and sums of closed-form pieces over any piece law.
"""

from __future__ import annotations

import bisect
import math

import mpmath


def geometric_atoms(beta_g: float, p: float, lo: float,
                    hi: float) -> list[tuple[float, float]]:
    """(location, jump) of every atom of make_geometric_tail(beta_g, p) in
    [lo, hi]: the atom at p^k, k >= 1, carries p^(-beta_g k) (p^beta_g - 1).
    """
    beta_g, p = float(beta_g), float(p)
    scale = p ** beta_g - 1.0
    atoms = []
    k = 1
    while (loc := _power_or_inf(p, k)) <= hi:
        if loc >= lo:
            atoms.append((loc, p ** (-beta_g * k) * scale))
        k += 1
    return atoms


def _power_or_inf(p: float, k: int) -> float:
    """p ** k, inf past the float range."""
    try:
        return p ** k
    except OverflowError:
        return math.inf


def atom_sum_v(atoms: list[tuple[float, float]], beta: float) -> float:
    """Stieltjes moment of a purely atomic law: fsum of loc^beta * jump."""
    return math.fsum(loc ** beta * jump for loc, jump in atoms)


def pareto_hu(alpha: float, x_floor: float, beta: float, x: float):
    """(h, u) of make_pareto(alpha, x_floor) at order beta and x, as 40-digit
    mpf: both x^beta up to the floor f, then u = x^beta (x/f)^-alpha and
    h = f^beta (1 + beta expm1(c L) / c), c = beta - alpha, L = ln(x/f)
    (beta L at c = 0)."""
    with mpmath.workdps(40):
        a, f, b, x = (mpmath.mpf(v) for v in (alpha, x_floor, beta, x))
        if x <= f:
            return +x ** b, +x ** b
        ln_q, c = mpmath.log(x / f), b - a
        g = ln_q if c == 0 else mpmath.expm1(c * ln_q) / c
        return f ** b * (1 + b * g), mpmath.exp(b * mpmath.log(x) - a * ln_q)


def geometric_hu(beta_g: float, p: float, beta: float, xs: list[float]):
    """(h, u) of make_geometric_tail(beta_g, p) at order beta and each of the
    increasing xs, as 40-digit mpf sums over the law as the model states it
    in floats: atoms at the knots of geometric_atoms, and sf = p ** (-beta_g
    k) past the k-th, so an atom's jump is the drop of that level. v sums
    loc^beta times the jumps up to x, u = x^beta sf(x), and h = u + v."""
    knots = [loc for loc, _ in geometric_atoms(beta_g, p, p, xs[-1])]
    out, k = [], 0
    with mpmath.workdps(40):
        b, v, sf = mpmath.mpf(beta), mpmath.mpf(0), mpmath.mpf(1)
        for x in xs:
            while k < len(knots) and knots[k] <= x:
                k += 1
                level = mpmath.mpf(p ** (-beta_g * k))
                v += mpmath.mpf(knots[k - 1]) ** b * (sf - level)
                sf = level
            u = mpmath.mpf(x) ** b * sf
            out.append((u + v, u))
    return out


def law_hu(knots, sfs, exps, beta: float, xs: list[float]):
    """(h, u) at order beta and each of the increasing xs of the piece law
    (knots, sfs, exps) of a model's pieces, its floats taken as exact, as
    40-digit mpf: both x^beta below the first knot; above it, h adds beta
    int y^(beta-1) sf_i (y / x_i)^-a_i dy = sf_i x_i^beta beta expm1(c L) / c
    (beta L at c = 0), c = beta - a_i and L = ln(y / x_i), over the pieces up
    to x, and u = x^beta sf_i (x / x_i)^-a_i."""
    knots = [float(k) for k in knots]
    out = []
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        law = [tuple(map(mpmath.mpf, row)) for row in zip(knots, sfs, exps)]

        def piece(i, y):
            x_i, sf_i, a_i = law[i]
            c, ln_q = b - a_i, mpmath.log(y / x_i)
            g = ln_q if c == 0 else mpmath.expm1(c * ln_q) / c
            return sf_i * x_i ** b * b * g

        at_knot = [law[0][0] ** b]
        for i in range(len(law) - 1):
            at_knot.append(at_knot[-1] + piece(i, law[i + 1][0]))
        for x in xs:
            i, x = bisect.bisect_right(knots, x) - 1, mpmath.mpf(x)
            if i < 0:
                out.append((x ** b, x ** b))
                continue
            x_i, sf_i, a_i = law[i]
            out.append((at_knot[i] + piece(i, x),
                        x ** b * sf_i * (x / x_i) ** -a_i))
    return out
